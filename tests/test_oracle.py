import json
import math

import numpy as np
import pytest
from scipy import integrate as spi
from scipy.special import k0 as sp_k0, k1 as sp_k1

from heattrace.coefficients import CoefficientTable, compute_table
from heattrace.oracle import (ORACLE_MAX_ORDER, IdentityReport, _autocorrelation,
                              _FactorState, asymptotic_trace, k_min, report_to_dict,
                              reports_to_json, resolvent_trace, trace_term,
                              trace_terms_to_csv, verify_fourier_exponential,
                              verify_k0_product_identity, watson_roundtrip)
from heattrace.potentials import bump, integrate_power, poly_bump, scaled
from heattrace.quadrature import QuadratureSpec

CANON = bump()
SKEW = poly_bump(center=0.2, halfwidth=0.9, amplitude=0.8, poly_coeffs=(1.0, 0.5, -0.3))

SQRT2 = math.sqrt(2.0)

# Looser budget for the second-order term (two nested 1-D passes with an
# autocorrelation integral at every inner node): its remainder role only ever
# needs ~3 digits, and the default budget would spend minutes chasing the rest.
RELAXED = QuadratureSpec(rel_tol=1e-3, abs_tol=2e-5)


# --- reference implementations on scipy (independent quadrature stack) ----------
#
# The package never touches scipy; these recompute the same reduced integrals
# with scipy's QUADPACK and Bessel routines, with the exponential-kernel and
# profile factors collapsed to K0 / K1 in closed form.  The modulating profile
# is written out literally so the reference shares no code with the package.

_YG = np.linspace(-1.0, 1.0, 8001)
_DY = _YG[1] - _YG[0]


def _rho_literal(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = np.abs(x) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - x[m] ** 2))
    return out


_RG = _rho_literal(_YG)


def _profile_factor(u, ktilde):
    a = SQRT2 * ktilde * abs(u)
    return 2.0 if a == 0.0 else 2.0 * a * sp_k1(a)


def scipy_first_order_term(ktilde):
    sk = SQRT2 * ktilde

    def f(d):
        corr = np.trapezoid(_RG * _rho_literal(_YG - d), dx=_DY)
        return sp_k0(sk * abs(d)) * _profile_factor(d, ktilde) * corr

    val, _ = spi.quad(f, -2.0, 2.0, points=[0.0], limit=400,
                      epsabs=1e-12, epsrel=1e-10)
    return (math.pi / (2.0 * ktilde ** 2)) * (2.0 * math.pi) ** -3 * val


def scipy_second_order_term(ktilde):
    sk = SQRT2 * ktilde

    def inner(d0):
        def f(d1):
            corr = np.trapezoid(_RG * _rho_literal(_YG - d0)
                                * _rho_literal(_YG - d0 - d1), dx=_DY)
            return sp_k0(sk * abs(d1)) * _profile_factor(d0 + d1, ktilde) * corr

        v, _ = spi.quad(f, -2.0, 2.0, points=[0.0, -d0], limit=200,
                        epsabs=1e-10, epsrel=1e-8)
        return v * sp_k0(sk * abs(d0))

    val, _ = spi.quad(inner, -2.0, 2.0, points=[0.0], limit=200,
                      epsabs=1e-9, epsrel=1e-7)
    return (math.pi / (2.0 * ktilde ** 2)) * (2.0 * math.pi) ** -4 * val


# --- zeroth term: closed form against reduced integral ---------------------------

@pytest.mark.parametrize("p", [CANON, SKEW], ids=["canon", "skew"])
@pytest.mark.parametrize("ktilde", [7.0, 15.0, 30.0])
def test_zeroth_term_two_routes_agree(p, ktilde):
    closed = trace_term(p, 0, ktilde, method="closed_form")
    reduced = trace_term(p, 0, ktilde)
    assert closed.method == "closed_form"
    assert reduced.method == "reduced_integral"
    assert closed.converged and reduced.converged
    assert abs(closed.value - reduced.value) <= \
        closed.est_error + reduced.est_error + 1e-15


def test_zeroth_term_closed_form_value():
    i1 = integrate_power(CANON, 1).value
    r = trace_term(CANON, 0, 20.0, method="closed_form")
    assert r.value == pytest.approx(i1 / (4.0 * math.pi * 400.0), rel=1e-12)


def test_zeroth_term_positive_and_leading_sign():
    # positive profile: T_0 > 0, and the first truncation of the regularized
    # trace, -T_0, is negative
    assert trace_term(CANON, 0, 12.0).value > 0.0
    assert resolvent_trace(CANON, 12.0, n_max=0) < 0.0


# --- first order: asymptotic slope and independent reference ---------------------

def test_first_order_term_approaches_quarter_power_slope():
    # ktilde^3 T_1 / int(rho^2) must approach sqrt(2)/64 from below as the
    # spectral parameter grows
    i2 = integrate_power(CANON, 2).value
    target = SQRT2 / 64.0
    ratios = []
    for ktilde in (10.0, 20.0, 40.0):
        r = trace_term(CANON, 1, ktilde)
        assert r.converged
        ratios.append(r.value * ktilde ** 3 / i2)
    assert ratios == sorted(ratios)
    assert ratios[-1] == pytest.approx(target, rel=5e-4)
    assert abs(ratios[0] - target) < 0.01 * target


def test_first_order_term_matches_scipy_reference():
    ours = trace_term(CANON, 1, 10.0)
    ref = scipy_first_order_term(10.0)
    assert ours.converged
    assert ours.value == pytest.approx(ref, rel=5e-5)


# --- second order: independent reference (different nesting order) ---------------

def test_second_order_term_matches_scipy_reference():
    ours = trace_term(CANON, 2, 10.0, spec=RELAXED)
    ref = scipy_second_order_term(10.0)
    assert ours.converged
    assert ours.value == pytest.approx(ref, rel=5e-3)


def test_autocorrelation_batch_equals_rows_alone():
    # the second row's window is empty; the others overlap by different amounts
    rows = [(0.0, 0.3, -0.4), (0.0, 2.5, 0.0), (0.0, -1.1, 0.7), (0.0, 0.0, 0.0)]
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13)
    state = _FactorState()
    batch = _autocorrelation(SKEW, rows, spec, state)
    alone_state = _FactorState()
    alone = [_autocorrelation(SKEW, [row], spec, alone_state)[0] for row in rows]
    assert batch == alone
    assert batch[1] == (0.0, 0.0)
    assert state.evaluations == alone_state.evaluations > 0


# --- degenerate profiles ----------------------------------------------------------

def test_zero_profile_kills_every_term():
    nothing = scaled(CANON, 0.0)
    for n in range(ORACLE_MAX_ORDER + 1):
        r = trace_term(nothing, n, 9.0)
        assert r.value == 0.0
        assert r.converged
    assert resolvent_trace(nothing, 9.0) == 0.0


# --- truncated resolvent trace ----------------------------------------------------

def test_resolvent_trace_is_alternating_sum_of_terms():
    spec = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-8)
    t0 = trace_term(CANON, 0, 11.0, spec=spec)
    t1 = trace_term(CANON, 1, 11.0, spec=spec)
    total = resolvent_trace(CANON, 11.0, n_max=1, spec=spec)
    assert total == -t0.value + t1.value


def test_resolvent_trace_rejects_bad_truncation():
    with pytest.raises(ValueError):
        resolvent_trace(CANON, 11.0, n_max=3)
    with pytest.raises(ValueError):
        resolvent_trace(CANON, 11.0, n_max=-1)
    with pytest.raises(ValueError):
        resolvent_trace(CANON, 11.0, n_max=1.5)


# --- asymptotic partial sums ------------------------------------------------------

def _table_with(bm_rows):
    return CoefficientTable(potential={}, spec={}, max_order=len(bm_rows) - 1,
                            bm=[{"m": m, "value": v, "err": 0.0}
                                for m, v in enumerate(bm_rows)])


def test_asymptotic_trace_partial_sum_arithmetic():
    table = _table_with([2.0, -3.0])
    assert asymptotic_trace(table, 2.0, 0) == pytest.approx(2.0 / 4.0)
    assert asymptotic_trace(table, 2.0, 1) == pytest.approx(2.0 / 4.0 - 3.0 / 8.0)


def test_asymptotic_trace_needs_every_order():
    table = _table_with([2.0, -3.0])
    with pytest.raises(KeyError):
        asymptotic_trace(table, 2.0, 2)


def test_asymptotic_trace_rejects_bad_arguments():
    table = _table_with([1.0])
    with pytest.raises(ValueError):
        asymptotic_trace(table, 0.0, 0)
    with pytest.raises(ValueError):
        asymptotic_trace(table, -3.0, 0)
    with pytest.raises(ValueError):
        asymptotic_trace(table, 5.0, -1)


# --- argument validation ----------------------------------------------------------

def test_trace_term_rejects_bad_order():
    for bad in (-1, 3, 17, 1.5, True):
        with pytest.raises(ValueError):
            trace_term(CANON, bad, 10.0)


def test_trace_term_rejects_bad_spectral_parameter():
    for bad in (0.0, -4.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            trace_term(CANON, 1, bad)


def test_trace_term_rejects_unknown_method():
    with pytest.raises(ValueError):
        trace_term(CANON, 0, 10.0, method="monte_carlo")
    with pytest.raises(ValueError):
        trace_term(CANON, 1, 10.0, method="closed_form")


def test_validity_threshold_value_and_gate():
    assert k_min(CANON) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        trace_term(CANON, 0, 10.0, k_min_gate=k_min(CANON))
    # at the threshold is allowed; the gate rejects strictly-below only
    r = trace_term(CANON, 0, 15.0, k_min_gate=15.0)
    assert r.converged


def test_budget_exhaustion_reports_rather_than_raises():
    starved = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=3)
    r = trace_term(CANON, 1, 10.0, spec=starved)
    assert not r.converged
    assert r.est_error > 0.0


# --- the two reduction identities -------------------------------------------------

def test_kernel_product_identity_coincident_points():
    # both kernel centers at the origin, k = 2: the reduced side integrates
    # to  (pi/8) * 2 = pi/4
    rep = verify_k0_product_identity(2.0, 0.0, 0.0, tol=1e-6)
    assert rep.passed
    assert rep.identity_name == "k0_product_reduction"
    assert rep.abs_diff <= 1e-6
    assert rep.lhs == pytest.approx(math.pi / 4.0, abs=1e-6)
    assert rep.parameters["quadratic_decay_consistent"]
    assert rep.parameters["tail_bound"] <= 0.1 * 1e-6 * (1.0 + 1e-12)


def test_kernel_product_identity_separated_points():
    rep = verify_k0_product_identity(1.0, 0.0, 1.0, tol=1e-5)
    assert rep.passed
    assert rep.parameters["lhs_converged"] and rep.parameters["rhs_converged"]
    # the complex reduced side must come out real for real separations
    assert abs(np.imag(rep.rhs)) < 1e-9


def test_kernel_product_identity_rejects_bad_wavenumber():
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            verify_k0_product_identity(bad, 0.0, 0.0)


def test_fourier_exponential_exact_values():
    rep = verify_fourier_exponential(1.0, 0.0, [0.0], tol=1e-9)
    assert rep.passed
    # at xi = 0 the transform is sqrt(2/pi)/kappa exactly, up to the
    # deliberate 0.1*tol truncation tail of the x-domain
    assert rep.lhs == pytest.approx(math.sqrt(2.0 / math.pi), abs=5e-10)


def test_fourier_exponential_random_triples():
    rng = np.random.default_rng(2026)
    for _ in range(10):
        kappa = float(rng.uniform(0.5, 3.0))
        eta = float(rng.uniform(-2.0, 2.0))
        xis = [float(x) for x in rng.uniform(-6.0, 6.0, size=4)]
        rep = verify_fourier_exponential(kappa, eta, xis, tol=1e-9)
        assert rep.passed, (kappa, eta, xis, rep.abs_diff)
        assert rep.parameters["max_modulus_diff"] <= 1e-9
        assert rep.parameters["max_phase_diff"] <= 1e-6


def test_fourier_exponential_conjugate_symmetry():
    # the profile is real, so opposite frequencies give conjugate values:
    # checking both signs through the worst-diff report must still pass
    rep = verify_fourier_exponential(1.3, 0.7, [2.2, -2.2], tol=1e-9)
    assert rep.passed


def test_fourier_exponential_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_fourier_exponential(0.0, 0.0, [1.0])
    with pytest.raises(ValueError):
        verify_fourier_exponential(1.0, 0.0, [])


# --- transform bookkeeping round-trip ---------------------------------------------

def test_watson_roundtrip_on_computed_table():
    table = compute_table(CANON, 3)
    rep = watson_roundtrip(table, t_samples=[0.01, 0.1], tol=1e-12)
    assert rep.passed
    assert rep.identity_name == "watson_laplace_roundtrip"
    assert set(rep.parameters["heat_trace_partial_sums"]) == {"0.01", "0.1"}


def test_watson_roundtrip_rejects_bad_times():
    table = _table_with([1.0])
    table.an.append({"n": 0, "value": 1.0})
    with pytest.raises(ValueError):
        watson_roundtrip(table, t_samples=[0.0])
    with pytest.raises(ValueError):
        watson_roundtrip(table, t_samples=[-1.0])


# --- report serialization ---------------------------------------------------------

def test_trace_term_result_round_trips_to_dict():
    r = trace_term(CANON, 0, 20.0, method="closed_form")
    d = report_to_dict(r)
    assert d == {"n": 0, "ktilde": 20.0, "value": r.value,
                 "est_error": r.est_error, "method": "closed_form",
                 "evaluations": r.evaluations, "converged": True}


def test_identity_report_serializes_complex_values():
    rep = IdentityReport(identity_name="demo", lhs=1 + 2j, rhs=1 + 2j,
                         abs_diff=0.0, passed=True, parameters={"z": 3 - 1j})
    d = report_to_dict(rep)
    assert d["lhs"] == {"re": 1.0, "im": 2.0}
    assert d["parameters"]["z"] == {"re": 3.0, "im": -1.0}


def test_reports_to_json_is_parseable_and_sorted():
    items = [trace_term(CANON, 0, 20.0, method="closed_form"),
             IdentityReport(identity_name="demo", lhs=1.0, rhs=1.0,
                            abs_diff=0.0, passed=True)]
    text = reports_to_json(items)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert [sorted(d) for d in parsed] == [sorted(d) for d in parsed]
    assert parsed[0]["method"] == "closed_form"
    assert parsed[1]["identity_name"] == "demo"


def test_trace_terms_csv_layout():
    rows = [trace_term(CANON, 0, 20.0, method="closed_form")]
    text = trace_terms_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "n,ktilde,value,est_error,method"
    n, kt, val, err, method = lines[1].split(",")
    assert (n, method) == ("0", "closed_form")
    assert float(val) == rows[0].value


def test_report_serializer_rejects_foreign_types():
    with pytest.raises(TypeError):
        report_to_dict(42)


def test_trace_term_result_is_frozen():
    r = trace_term(CANON, 0, 20.0, method="closed_form")
    with pytest.raises(AttributeError):
        r.value = 0.0
