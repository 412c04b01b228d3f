"""Acceptance gate: one loud [acceptance] PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  The strict-xfail tests render doubled first-order constants that
both independent computation routes (combinatorial cells and brute-force
quadrature of the resolvent trace) rule out; each sits next to a passing
companion that pins the corrected value.  Everything else must pass.
"""

import math
import time

import numpy as np
import pytest

from heattrace.coefficients import (a_n, b_m, b_nl, c_coefficient,
                                    closed_form_b0_b1, compute_table,
                                    multi_indices, sign_assignments)
from heattrace.oracle import (asymptotic_trace, trace_term,
                              verify_fourier_exponential,
                              verify_k0_product_identity, watson_roundtrip)
from heattrace.potentials import bump, integrate_power, poly_bump, scaled, shifted
from heattrace.quadrature import Axis, QuadratureSpec, integrate_1d, integrate_nd
from heattrace.specfun import bessel_k0, gamma_half

CANON = bump()
SKEW = poly_bump(center=0.2, halfwidth=0.9, amplitude=0.8, poly_coeffs=(1.0, 0.5, -0.3))

SQRT2 = math.sqrt(2.0)

FIVE_POTENTIALS = [
    ("unit bump", bump()),
    ("narrow tall bump", bump(halfwidth=0.6, amplitude=1.8)),
    ("wide shallow bump", bump(halfwidth=1.7, amplitude=0.45)),
    ("skew cubic", SKEW),
    ("skew quartic", poly_bump(center=-0.35, halfwidth=1.25, amplitude=1.1,
                               poly_coeffs=(0.8, -0.4, 0.0, 0.6))),
]

#: the first-order weight that every route in this package agrees on; the
#: doubled legacy value sqrt(2)/32 is kept around only for the strict-xfail
#: renderings below
B1_WEIGHT = SQRT2 / 64.0
B1_WEIGHT_DOUBLED = SQRT2 / 32.0

#: budget for the second-order trace term (nested 1-D passes): its role as a
#: remainder probe needs ~3 digits, not the default 6
RELAXED = QuadratureSpec(rel_tol=1e-3, abs_tol=2e-5)

XFAIL_DOUBLED = dict(
    strict=True,
    reason="legacy doubled first-order constant: twice the value that the "
           "closed-form route, the coefficient cells, and the independent "
           "quadrature of the resolvent trace all agree on; the companion "
           "test pins the corrected constant")


def report(name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name}: {detail}"


# --- criterion 1: closed-form reproduction of the two leading coefficients -------

def test_criterion_1_leading_coefficients_five_potentials():
    worst = 0.0
    slowest = 0.0
    for label, p in FIVE_POTENTIALS:
        t0 = time.perf_counter()
        i1 = integrate_power(p, 1).value
        i2 = integrate_power(p, 2).value
        got0 = b_m(p, 0)
        got1 = b_m(p, 1)
        dt = time.perf_counter() - t0
        ref0 = -i1 / (4.0 * math.pi)
        ref1 = B1_WEIGHT * i2
        rel0 = abs(got0 - ref0) / abs(ref0)
        rel1 = abs(got1 - ref1) / abs(ref1)
        worst = max(worst, rel0, rel1)
        slowest = max(slowest, dt)
        assert rel0 <= 1e-6, (label, got0, ref0)
        assert rel1 <= 1e-6, (label, got1, ref1)
        assert dt < 60.0, (label, dt)
    report("criterion 1 — b_0, b_1 closed forms on 5 potentials", True,
           f"worst rel dev {worst:.2e}, slowest potential {slowest:.1f}s")


@pytest.mark.xfail(**XFAIL_DOUBLED)
def test_criterion_1_doubled_first_order_weight_rendering():
    p = CANON
    i2 = integrate_power(p, 2).value
    got1 = b_m(p, 1)
    ref = B1_WEIGHT_DOUBLED * i2
    report("criterion 1 (doubled-constant rendering) — b_1 vs (sqrt2/32) int rho^2",
           abs(got1 - ref) / abs(ref) <= 1e-6,
           f"got {got1!r}, doubled target {ref!r}")


def test_criterion_1_closed_form_helper_uses_corrected_weight():
    i2 = integrate_power(CANON, 2).value
    _, b1 = closed_form_b0_b1(CANON)
    report("criterion 1 (companion) — closed_form_b0_b1 first-order weight",
           abs(b1 - B1_WEIGHT * i2) / (B1_WEIGHT * i2) <= 1e-12,
           f"b1/int(rho^2) = {b1 / i2!r} vs sqrt2/64 = {B1_WEIGHT!r}")


@pytest.mark.xfail(**XFAIL_DOUBLED)
def test_criterion_1_closed_form_helper_doubled_rendering():
    i2 = integrate_power(CANON, 2).value
    _, b1 = closed_form_b0_b1(CANON)
    assert abs(b1 - B1_WEIGHT_DOUBLED * i2) / (B1_WEIGHT_DOUBLED * i2) <= 1e-6


# --- criterion 2: the base constants of the cell engine --------------------------

def test_criterion_2_base_cell_constants():
    got0 = c_coefficient(0).value
    assert abs(got0 - 2.0) <= 1e-10 * 2.0
    target = math.pi ** 2 / (4.0 * SQRT2)
    alpha = multi_indices(1, 0)[0]
    devs = []
    for s in sign_assignments(1):
        got = c_coefficient(1, alpha, s).value
        devs.append(abs(got - target) / target)
    report("criterion 2 — order-0 cell = 2 and first-order cell constant",
           max(devs) <= 1e-8,
           f"c(0) dev {abs(got0 - 2.0):.1e}; worst c(1) rel dev {max(devs):.2e} "
           f"against pi^2/(4 sqrt2)")


@pytest.mark.xfail(**XFAIL_DOUBLED)
def test_criterion_2_doubled_cell_constant_rendering():
    target = math.pi ** 2 / (2.0 * SQRT2)
    alpha = multi_indices(1, 0)[0]
    s = sign_assignments(1)[0]
    got = c_coefficient(1, alpha, s).value
    report("criterion 2 (doubled-constant rendering) — c(1) vs pi^2/(2 sqrt2)",
           abs(got - target) / target <= 1e-8,
           f"got {got!r}, doubled target {target!r}")


# --- doubled-constant renderings of the worked examples ---------------------------
#
# The same legacy factor of two also appears in three worked-example values of
# the module contracts; render each one faithfully (strict xfail) next to the
# constant every computation route actually produces.

def _cell_integrand(t, xi):
    return (1.0 + xi * xi) ** -1.5 * np.real(1.0 / (SQRT2 * (np.cosh(t) + 1j * xi)))


def test_cell_integral_direct_2d_value():
    r = integrate_nd(_cell_integrand, [Axis.half_line(), Axis.full_line()])
    assert r.converged
    target = math.pi ** 2 / (4.0 * SQRT2)
    report("worked example (companion) — 2d cell integral equals pi^2/(4 sqrt2)",
           abs(r.value - target) / target <= 1e-8,
           f"got {r.value!r}")


@pytest.mark.xfail(**XFAIL_DOUBLED)
def test_cell_integral_direct_2d_doubled_rendering():
    r = integrate_nd(_cell_integrand, [Axis.half_line(), Axis.full_line()])
    target = math.pi ** 2 / (2.0 * SQRT2)
    assert abs(r.value - target) / target <= 1e-8


def test_block_coefficient_first_order_value():
    i2 = integrate_power(CANON, 2).value
    got = b_nl(CANON, 1, 0).value
    target = math.pi ** 2 / SQRT2 * i2
    report("worked example (companion) — b_{1,0} equals (pi^2/sqrt2) int rho^2",
           abs(got - target) / abs(target) <= 1e-6,
           f"got {got!r}")


@pytest.mark.xfail(**XFAIL_DOUBLED)
def test_block_coefficient_first_order_doubled_rendering():
    i2 = integrate_power(CANON, 2).value
    got = b_nl(CANON, 1, 0).value
    assert abs(got - SQRT2 * math.pi ** 2 * i2) / (SQRT2 * math.pi ** 2 * i2) <= 1e-6


def test_heat_coefficient_first_order_value():
    i2 = integrate_power(CANON, 2).value
    got = a_n(CANON, 1)
    target = SQRT2 / (32.0 * math.sqrt(math.pi)) * i2
    report("worked example (companion) — a_1 equals (sqrt2/(32 sqrt pi)) int rho^2",
           abs(got - target) / target <= 1e-6,
           f"got {got!r}")


@pytest.mark.xfail(**XFAIL_DOUBLED)
def test_heat_coefficient_first_order_doubled_rendering():
    i2 = integrate_power(CANON, 2).value
    got = a_n(CANON, 1)
    target = SQRT2 / (16.0 * math.sqrt(math.pi)) * i2
    assert abs(got - target) / target <= 1e-6


# --- criterion 3: integral identity suite -----------------------------------------

def test_criterion_3_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    fails = []
    for _ in range(10):
        kappa = float(rng.uniform(0.5, 3.0))
        eta = float(rng.uniform(-2.0, 2.0))
        xis = [float(x) for x in rng.uniform(-6.0, 6.0, size=4)]
        rep = verify_fourier_exponential(kappa, eta, xis, tol=1e-9)
        if not rep.passed:
            fails.append(("fourier", kappa, eta, rep.abs_diff))

    coincident_devs = []
    for k in (1.0, 2.0, 4.0):
        for gap in (0.0, 0.5, 1.5):
            rep = verify_k0_product_identity(k, 0.0, gap, tol=1e-5)
            if not rep.passed:
                fails.append(("kernel-product", k, gap, rep.abs_diff))
            if gap == 0.0:
                coincident_devs.append(abs(rep.lhs - math.pi / k ** 2))
    dt = time.perf_counter() - t0
    assert max(coincident_devs) <= 1e-5
    assert dt < 300.0, dt
    report("criterion 3 — Fourier and kernel-product identity suite",
           not fails,
           f"10 random transform triples at 1e-9, 3x3 kernel grid at 1e-5, "
           f"coincident closed form pi/k^2 dev {max(coincident_devs):.1e}, "
           f"{dt:.0f}s" + (f"; failures: {fails}" if fails else ""))


# --- criterion 4: truncated trace vs asymptotic partial sum -----------------------

K_GRID = (10.0, 15.0, 20.0, 30.0, 40.0)


@pytest.fixture(scope="module")
def remainder_grid():
    """Trace terms and partial sums for the canonical bump over K_GRID.

    The three terms get individual budgets: the cheap low orders run at
    defaults tight enough that their quadrature error sits two orders below
    the remainder signal, while the second-order term runs relaxed (its
    share of the remainder only needs three digits).
    """
    t_start = time.perf_counter()
    table = compute_table(CANON, 2)
    rows = {}
    for kt in K_GRID:
        t0 = trace_term(CANON, 0, kt)
        t1 = trace_term(CANON, 1, kt)
        t2 = trace_term(CANON, 2, kt, spec=RELAXED)
        assert t0.converged and t1.converged and t2.converged, kt
        resolvent = -t0.value + t1.value - t2.value
        rows[kt] = {
            "t1": t1,
            "scaled_remainder": abs(resolvent - asymptotic_trace(table, kt, 1)) * kt ** 4,
            "scaled_remainder_2": abs(resolvent - asymptotic_trace(table, kt, 2)) * kt ** 5,
        }
        print(f"\n[acceptance]   k={kt:g}: |trace - S_1| * k^4 = "
              f"{rows[kt]['scaled_remainder']:.6f}, |trace - S_2| * k^5 = "
              f"{rows[kt]['scaled_remainder_2']:.6f} "
              f"({time.perf_counter() - t_start:.0f}s elapsed)")
    rows["elapsed"] = time.perf_counter() - t_start
    return rows


def test_criterion_4_remainder_shows_no_growth(remainder_grid):
    scaled = [remainder_grid[k]["scaled_remainder"] for k in K_GRID]
    ratios = [b / a for a, b in zip(scaled, scaled[1:])]
    elapsed = remainder_grid["elapsed"]
    assert elapsed < 1800.0, elapsed
    report("criterion 4 — remainder of the order-1 partial sum is O(k^-4)",
           all(r <= 1.5 for r in ratios),
           f"scaled remainders {[f'{s:.5f}' for s in scaled]}, "
           f"successive ratios {[f'{r:.3f}' for r in ratios]}, {elapsed:.0f}s")


def test_criterion_4_second_order_remainder_shows_no_growth(remainder_grid):
    # the first check of b_2 that does not go through the cell engine: a wrong
    # b_2 leaves a remainder of order k^-4, which grows like k once scaled by k^5
    scaled = [remainder_grid[k]["scaled_remainder_2"] for k in K_GRID]
    ratios = [b / a for a, b in zip(scaled, scaled[1:])]
    report("criterion 4 — remainder of the order-2 partial sum is O(k^-5)",
           all(r <= 1.5 for r in ratios),
           f"scaled remainders {[f'{s:.5f}' for s in scaled]}, "
           f"successive ratios {[f'{r:.3f}' for r in ratios]}")


def test_criterion_4_first_order_slope_converges(remainder_grid):
    i2 = integrate_power(CANON, 2).value
    errs = []
    for kt in (10.0, 20.0, 40.0):
        t1 = remainder_grid[kt]["t1"]
        errs.append(abs(t1.value * kt ** 3 / i2 - B1_WEIGHT))
    report("criterion 4 — k^3 T_1 converges to (sqrt2/64) int rho^2",
           errs == sorted(errs, reverse=True) and errs[-1] <= 5e-4 * B1_WEIGHT,
           f"deviations {[f'{e:.2e}' for e in errs]} decreasing in k")


@pytest.mark.xfail(**XFAIL_DOUBLED)
def test_criterion_4_first_order_slope_doubled_rendering(remainder_grid):
    i2 = integrate_power(CANON, 2).value
    kt = 40.0
    t1 = remainder_grid[kt]["t1"]
    got = t1.value * kt ** 3 / i2
    report("criterion 4 (doubled-constant rendering) — k^3 T_1 vs sqrt2/32",
           abs(got - B1_WEIGHT_DOUBLED) <= 0.02 * B1_WEIGHT_DOUBLED,
           f"got {got!r}, doubled target {B1_WEIGHT_DOUBLED!r}")


# --- criterion 5: transform bookkeeping between the two coefficient families ------

def test_criterion_5_watson_translation_to_order_5():
    table = compute_table(CANON, 5, threads=4)
    assert table.converged
    rep = watson_roundtrip(table, t_samples=(0.01, 0.1), tol=1e-12)
    a0, b0 = table.an_value(0), table.bm_value(0)
    a1, b1 = table.an_value(1), table.bm_value(1)
    extra_ok = (a0 == b0) and \
        abs(a1 - 2.0 * b1 / math.sqrt(math.pi)) <= 1e-14 * abs(a1)
    report("criterion 5 — a_n * Gamma(n/2 + 1) = b_n for n <= 5",
           rep.passed and extra_ok,
           f"worst scaled dev {rep.abs_diff:.2e} at n={rep.parameters['worst_n']}; "
           f"a_0 = b_0 exactly, a_1 = 2 b_1/sqrt(pi)")


# --- criterion 6: structural property suites ---------------------------------------

def test_criterion_6_homogeneity_translation_symmetry_kernel():
    worst = {"homogeneity": 0.0, "translation": 0.0, "realness": 0.0,
             "sign_flip": 0.0, "kernel": 0.0}

    base = {(n, l): b_nl(CANON, n, l).value for n, l in ((1, 0), (1, 2), (2, 0))}
    for c in (2.0, -1.0, 0.5):
        q = scaled(CANON, c)
        for (n, l), base_val in base.items():
            got = b_nl(q, n, l).value
            ref = c ** (n + 1) * base_val
            scale = max(abs(ref), 1e-12)
            worst["homogeneity"] = max(worst["homogeneity"],
                                       abs(got - ref) / scale)

    moved = shifted(SKEW, 0.8)
    for m in range(3):
        got = b_m(moved, m)
        ref = b_m(SKEW, m)
        worst["translation"] = max(worst["translation"],
                                   abs(got - ref) / max(abs(ref), 1e-12))

    for n in (1, 2):
        for weight in (0, 1):
            for alpha in multi_indices(n, weight):
                for s in sign_assignments(n):
                    cell = c_coefficient(n, alpha, s)
                    flipped = c_coefficient(n, alpha, s.flipped())
                    scale = max(abs(cell.value), 1.0)
                    worst["realness"] = max(
                        worst["realness"],
                        abs(cell.imag_part) / (10.0 * cell.est_error + 1e-14))
                    worst["sign_flip"] = max(
                        worst["sign_flip"],
                        abs(cell.value - flipped.value) / scale)

    for x in (0.5, 2.0, 7.5):
        direct = integrate_1d(lambda t: np.exp(-x * np.cosh(t)),
                              Axis.half_line(),
                              QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14))
        worst["kernel"] = max(worst["kernel"],
                              abs(bessel_k0(x).value - direct.value))

    ok = (worst["homogeneity"] <= 1e-8 and worst["translation"] <= 1e-8
          and worst["realness"] <= 1.0 and worst["sign_flip"] <= 1e-10
          and worst["kernel"] <= 1e-10)
    report("criterion 6 — homogeneity, translation, cell symmetry, kernel "
           "equivalence", ok,
           "; ".join(f"{k} {v:.2e}" for k, v in worst.items()))


# --- the bookkeeping identity behind the a_n column --------------------------------

def test_watson_algebra_on_gamma_factors():
    # Gamma(n/2 + 1) through the half-integer evaluator, n = 0..5
    vals = [gamma_half(n + 2) for n in range(6)]
    refs = [1.0, math.sqrt(math.pi) / 2.0, 1.0, 0.75 * math.sqrt(math.pi),
            2.0, 15.0 * math.sqrt(math.pi) / 8.0]
    assert vals == pytest.approx(refs, rel=1e-15, abs=0.0)
