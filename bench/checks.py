"""Correctness checks on what the workloads write.

Every check takes plain values (floats, or rows as the program serializes
them) and returns a list of problems; an empty list means the check passed.
The targets are either independent references (``reference.json``, made by
``reference.py`` without importing heattrace) or properties the method must
have.  Where a tolerance comes from, see the constants below and the README.
"""

from __future__ import annotations

import cmath
import itertools
import math

SQRT2 = math.sqrt(2.0)

#: b_1 = (sqrt2/64) int rho^2.  The legacy value sqrt2/32 is twice this.
FIRST_ORDER_CONSTANT = SQRT2 / 64.0

#: the engine runs at the default QuadratureSpec, rel_tol 1e-8; ten times that
ENGINE_REL_TOL = 1e-7

#: a_n Gamma(n/2+1) = b_n is bookkeeping: the verify suite's watson_tol
WATSON_REL_TOL = 1e-12

#: T_1 runs at QuadratureSpec.for_dimension(4), rel_tol 1e-6; ten times that
T1_REFERENCE_REL_TOL = 1e-5

#: k^3 T_1 / int rho^2 -> sqrt2/64 with a relative deviation C/k^2; C = 0.29
#: from k = 40, 80 and 160.  The bound takes C = 2.
T1_SLOPE_C = 2.0

#: k^4 T_2 -> -b_2 with a relative deviation C/k^2; C = 0.61 at k = 40 and
#: 0.63 at k = 80.  The bound takes C = 4.
T2_C = 4.0

#: (trace_{n<=2} - S_1) k^4 = b_2 + O(1/k): the next term is about b_3/k, and
#: the bound allows three times it.
REMAINDER_MARGIN = 3.0

#: the verify suite's default tolerances
FOURIER_TOL = 1e-9
KERNEL_TOL = 1e-5


def _rel(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


def _cell_name(row) -> str:
    return f"c(n={row['n']}, alpha={tuple(row['alpha'])}, s={tuple(row['s'])})"


# --- table --------------------------------------------------------------------


def leading_coefficients(b0: float, b1: float, int_rho: float,
                         int_rho2: float) -> list[str]:
    """b_0 = -int rho/(4 pi) and b_1 = (sqrt2/64) int rho^2."""
    problems = []
    for name, value, target in (("b_0", b0, -int_rho / (4.0 * math.pi)),
                                ("b_1", b1, FIRST_ORDER_CONSTANT * int_rho2)):
        if not _rel(value, target) <= ENGINE_REL_TOL:
            problems.append(f"{name} = {value!r}, reference {target!r}")
    return problems


def reference_cells(cells: list[dict], references: list[dict]) -> list[str]:
    """The table's cells against cells computed by mpmath."""
    by_key = {(tuple(c["alpha"]), tuple(c["s"])): c for c in cells}
    problems = []
    for ref in references:
        row = by_key.get((tuple(ref["alpha"]), tuple(ref["s"])))
        if row is None:
            problems.append(f"table lacks reference cell alpha={ref['alpha']} s={ref['s']}")
        elif not _rel(row["value"], ref["value"]) <= ENGINE_REL_TOL:
            problems.append(f"{_cell_name(row)} = {row['value']!r}, "
                            f"reference {ref['value']!r}")
    return problems


def cell_symmetry(cells: list[dict]) -> list[str]:
    """c_{alpha,s} depends only on the multiset of pairs (alpha_j, s_j) and is
    unchanged by s -> -s; every pair of cells so related must agree within
    the sum of their est_errors, in real and in imaginary part."""
    groups: dict = {}
    for row in cells:
        pairs = sorted(zip(row["alpha"], row["s"]))
        flipped = sorted((a, -s) for a, s in pairs)
        key = (row["n"], tuple(min(pairs, flipped)))
        groups.setdefault(key, []).append(row)
    problems = []
    for members in groups.values():
        for x, y in itertools.combinations(members, 2):
            allowed = x["err"] + y["err"]
            if not (abs(x["value"] - y["value"]) <= allowed
                    and abs(x["imag"]) <= x["err"] and abs(y["imag"]) <= y["err"]):
                problems.append(f"{_cell_name(x)} = {x['value']!r} and "
                                f"{_cell_name(y)} = {y['value']!r} differ by more "
                                f"than their errors {allowed:.3g}")
    return problems


def watson(bm: dict[int, float], an: dict[int, float]) -> list[str]:
    """a_n Gamma(n/2 + 1) = b_n for every order in the table."""
    problems = []
    for n, b in sorted(bm.items()):
        lhs = an[n] * math.gamma(0.5 * n + 1.0)
        if not abs(lhs - b) <= WATSON_REL_TOL * max(1.0, abs(b)):
            problems.append(f"a_{n} Gamma({n}/2+1) = {lhs!r} but b_{n} = {b!r}")
    return problems


# --- crosscheck ----------------------------------------------------------------


def zeroth_term(t0: float, ktilde: float, int_rho: float) -> list[str]:
    """T_0 = int rho / (4 pi k^2) exactly."""
    target = int_rho / (4.0 * math.pi * ktilde ** 2)
    if _rel(t0, target) <= ENGINE_REL_TOL:
        return []
    return [f"T_0 = {t0!r}, int rho/(4 pi k^2) = {target!r}"]


def first_order_reference(t1: float, reference: float) -> list[str]:
    """T_1 against the scipy evaluation of the same integral."""
    if _rel(t1, reference) <= T1_REFERENCE_REL_TOL:
        return []
    return [f"T_1 = {t1!r}, scipy reference {reference!r}"]


def first_order_slope(t1: float, ktilde: float, int_rho2: float) -> list[str]:
    """k^3 T_1 / int rho^2 against sqrt2/64."""
    ratio = t1 * ktilde ** 3 / int_rho2
    if _rel(ratio, FIRST_ORDER_CONSTANT) <= T1_SLOPE_C / ktilde ** 2:
        return []
    return [f"k^3 T_1 / int rho^2 = {ratio!r}, expected {FIRST_ORDER_CONSTANT!r} "
            f"within {T1_SLOPE_C}/k^2"]


def second_order_term(t2: float, ktilde: float, b2: float) -> list[str]:
    """k^4 T_2 against -b_2 from the cell engine."""
    scaled = t2 * ktilde ** 4
    if _rel(scaled, -b2) <= T2_C / ktilde ** 2:
        return []
    return [f"k^4 T_2 = {scaled!r}, -b_2 = {-b2!r}, allowed {T2_C}/k^2 relative"]


def remainder(trace: float, s1: float, ktilde: float, b2: float,
              b3: float) -> list[str]:
    """(trace_{n<=2} - S_1) k^4 against b_2, to O(1/k)."""
    scaled = (trace - s1) * ktilde ** 4
    allowed = REMAINDER_MARGIN * abs(b3 / b2) / ktilde
    if _rel(scaled, b2) <= allowed:
        return []
    return [f"(trace - S_1) k^4 = {scaled!r}, b_2 = {b2!r}, "
            f"allowed {allowed:.3g} relative"]


# --- identities -----------------------------------------------------------------


def fourier_report(report: dict) -> list[str]:
    """The quadrature lhs at worst_xi against the closed-form transform
    sqrt(2/pi) kappa/(kappa^2+xi^2) e^{-i eta xi}."""
    par = report["parameters"]
    kappa, eta, xi = par["kappa"], par["eta"], par["worst_xi"]
    target = (math.sqrt(2.0 / math.pi) * kappa / (kappa * kappa + xi * xi)
              * cmath.exp(-1j * eta * xi))
    lhs = complex(report["lhs"]["re"], report["lhs"]["im"])
    if xi in par["xi_samples"] and abs(lhs - target) <= FOURIER_TOL:
        return []
    return [f"Fourier lhs {lhs!r} at xi={xi!r} (kappa={kappa!r}, eta={eta!r}), "
            f"closed form {target!r}"]


def kernel_report(report: dict, rhs: dict[tuple[float, float], float]) -> list[str]:
    """The planar K0-product lhs against (pi/(2k^2)) 2z K1(z), z = k gap."""
    par = report["parameters"]
    key = (par["k"], abs(par["yprime"] - par["y"]))
    if key not in rhs:
        return [f"no reference right-hand side for k={key[0]!r}, gap={key[1]!r}"]
    if abs(report["lhs"] - rhs[key]) <= KERNEL_TOL:
        return []
    return [f"kernel-product lhs {report['lhs']!r} at k={key[0]!r}, gap={key[1]!r}, "
            f"reference {rhs[key]!r}"]


def watson_report(report: dict) -> list[str]:
    if report["passed"] and report["abs_diff"] <= WATSON_REL_TOL:
        return []
    return [f"Watson round-trip relative difference {report['abs_diff']!r}"]


def exit_code(code: int, failed: int) -> list[str]:
    """The CLI exits 0 exactly when no operation failed, 3 otherwise."""
    expected = 0 if failed == 0 else 3
    if code == expected:
        return []
    return [f"exit code {code} with {failed} failed operation(s), expected {expected}"]
