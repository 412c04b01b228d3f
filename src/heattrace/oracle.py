"""Brute-force evaluation of the regularized resolvent trace.

This module is the independent ground truth for the expansion coefficients:
it evaluates the Neumann terms of tr(R_rho - R_0) at lambda = -ktilde^2 by
direct multi-dimensional quadrature, together with the two integral
identities the dimensional reduction rests on (a product-of-Macdonald
integral and the Fourier transform of a two-sided exponential) and a
round-trip of the Laplace-transform bookkeeping between the a_n and b_m
coefficients.

Nothing here reuses the asymptotic machinery in ``coefficients``: the trace
terms are integrated in the (t, xi, y) variables after an exact Fubini
rearrangement, so agreement between the two routes is evidence, not
tautology.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientTable
from .potentials import Potential, eval as peval, integrate_power, max_abs, support
from .quadrature import (Axis, QuadratureSpec, integrate_1d, integrate_1d_batch,
                         integrate_nd)
from .specfun import bessel_k0, gamma_half

SQRT2 = math.sqrt(2.0)

#: Largest Neumann order the quadrature oracle evaluates.  The reduced
#: integral for order n is n nested adaptive 1-D passes over the gap
#: variables with a 1-D autocorrelation integral at every innermost node, so
#: each further order nests one more pass and multiplies the cost.
ORACLE_MAX_ORDER = 2

# exp(-a*cosh t) integrates to less than 1e-43 for a >= 100; treat as zero.
_COSH_KERNEL_CUTOFF = 100.0


@dataclass(frozen=True)
class TraceTermResult:
    """One Neumann term T_n(ktilde) of the regularized resolvent trace."""

    n: int
    ktilde: float
    value: float
    est_error: float
    method: str
    evaluations: int = 0
    converged: bool = True


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one numerical identity check (LHS vs RHS quadrature)."""

    identity_name: str
    lhs: object
    rhs: object
    abs_diff: float
    passed: bool
    parameters: dict = field(default_factory=dict)


def k_min(p: Potential) -> float:
    """Operational validity threshold for the spectral parameter.

    The Neumann series converges once the interaction is a small
    perturbation at the given ktilde; there is no sharp constant, so this
    proxy scales with the size of the profile: 5 * (1 + max|rho| * |supp rho|).
    """
    lo, hi = support(p)
    return 5.0 * (1.0 + max_abs(p) * (hi - lo))


# --- factored integrand pieces -------------------------------------------------
#
# After substituting the gap variables d_j = y_j - y_{j+1} the reduced trace
# integral splits exactly into
#
#   T_n = (pi / (2 ktilde^2)) (2 pi)^{-(n+2)}
#         * int d^n d  [prod_j G(d_j)] * X(sum_j d_j) * P(d)
#
# with G the hyperbolic-angle integral of the exponential kernel, X the
# oscillatory profile of the (1+xi^2)^{-3/2} weight, and P the n+1 point
# autocorrelation of rho.  Each factor is a one-dimensional quadrature; the
# remaining d-integral is adaptive in n <= 2 dimensions.


class _FactorState:
    """Error bookkeeping for the inner one-dimensional factors.

    Per-factor relative errors are useless here (factors routinely take
    exponentially small values with honest absolute error), so each
    evaluand propagates absolute errors through its product, and the state
    accumulates them; the integral-level bias is estimated as the sample
    mean of the per-evaluand errors times the domain volume.
    """

    __slots__ = ("err_sum", "calls", "evaluations", "converged")

    def __init__(self):
        self.err_sum = 0.0
        self.calls = 0
        self.evaluations = 0
        self.converged = True

    def absorb(self, result):
        self.evaluations += result.evaluations
        if not result.converged and result.est_error > 1e-14:
            self.converged = False
        return result.value, result.est_error

    def record(self, eval_err):
        self.err_sum += eval_err
        self.calls += 1

    def mean_eval_err(self):
        return self.err_sum / self.calls if self.calls else 0.0


def _cosh_kernel_integral(a, state):
    """int_0^inf exp(-a*cosh t) dt for a > 0 (log-divergent as a -> 0).

    Evaluated through the package's Macdonald evaluator, whose test
    contract pins it to exactly this integral; re-deriving it by adaptive
    quadrature at every one of the ~1e5 evaluand calls of the outer
    integral would multiply the runtime by orders of magnitude for no
    extra independence (the asymptotic engine never touches it).
    """
    if a >= _COSH_KERNEL_CUTOFF:
        return 0.0, 0.0  # bounded by sqrt(pi/(2a)) e^{-a} < 1e-44
    r = bessel_k0(a)
    state.evaluations += 1
    return r.value, r.est_abs_error


def _profile_transform(omega, spec, state):
    """int_R (1+xi^2)^{-3/2} cos(omega*xi) dxi (equals 2 at omega = 0).

    Evaluated through the equivalent non-oscillatory hyperbolic-angle form
    2|omega| int_0^inf cosh(t) exp(-|omega| cosh t) dt: both are standard
    integral representations of the same cosine transform, and the direct
    xi-form cannot beat cancellation once |omega| is large (machine epsilon
    times the O(1) integrand exceeds the exponentially small value).  The
    xi-form itself is exercised verbatim by verify_k0_product_identity and
    the cross-checks in the test suite.
    """
    om = abs(omega)
    if om < 1e-8:
        # 2 z K_1(z) = 2 + z^2 ln(z/2) + O(z^2): below this threshold the
        # deviation from 2 is under 4e-15, cheaper and safer than resolving
        # the t ~ ln(2/om) cutoff scale by quadrature
        return 2.0, om * om * (abs(math.log(max(om, 1e-300))) + 1.0) + 1e-16

    def f(t):
        c = np.cosh(t)
        return c * np.exp(-om * c)

    t_max = math.log(1400.0 / om)  # cosh(t_max)*om ~ 700: integrand dead beyond
    v, e = state.absorb(integrate_1d(f, Axis.finite(0.0, t_max), spec))
    return 2.0 * om * v, 2.0 * om * e


def _autocorrelation(p, shifts, spec, state):
    """int prod_j rho(y - row[j]) dy over the common support window, per row.

    ``shifts`` is a sequence of shift rows of one length; the integrals run as
    one batch and come back as (value, error) pairs in row order.
    """
    lo, hi = support(p)
    out = [(0.0, 0.0)] * len(shifts)
    live, axes = [], []
    for i, row in enumerate(shifts):
        a = lo + max(row)
        b = hi + min(row)
        if b <= a:
            continue
        # each factor's support edge is a shoulder of the product; telling the
        # panel splitter up front saves it rediscovering them by refinement
        knots = tuple(sorted({e for s in row for e in (lo + s, hi + s)
                              if a < e < b}))
        live.append(i)
        axes.append(Axis.finite(a, b, knots=knots))
    cols = np.asarray([shifts[i] for i in live], dtype=float).T

    def f(y, which):
        return peval(p, y[None, :] - cols[:, which]).prod(axis=0)

    for i, r in zip(live, integrate_1d_batch(f, axes, spec)):
        out[i] = state.absorb(r)
    return out


def _validate_trace_args(n, ktilde):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"Neumann order must be an integer, got {n!r}")
    if n < 0 or n > ORACLE_MAX_ORDER:
        raise ValueError(
            f"Neumann order {n} outside the quadrature range 0..{ORACLE_MAX_ORDER}"
        )
    ktilde = float(ktilde)
    if not math.isfinite(ktilde) or ktilde <= 0.0:
        raise ValueError(f"ktilde must be a positive real, got {ktilde!r}")
    return ktilde


def trace_term(p, n, ktilde, spec=None, method="reduced_integral", k_min_gate=None):
    """Evaluate the n-th Neumann term T_n(ktilde) by direct quadrature.

    ``method`` selects between the closed form (n = 0 only, where the term
    is exactly int(rho) / (4 pi ktilde^2)) and the reduced integral; the
    reduced route is the default and the only one available for n >= 1.
    ``k_min_gate`` optionally enforces the validity threshold: when given,
    ktilde below it is a precondition error rather than a silent number.
    """
    ktilde = _validate_trace_args(n, ktilde)
    if k_min_gate is not None and ktilde < k_min_gate:
        raise ValueError(
            f"ktilde={ktilde!r} is below the validity threshold {k_min_gate!r}"
        )
    if method not in ("closed_form", "reduced_integral"):
        raise ValueError(f"unknown trace-term method {method!r}")
    if method == "closed_form":
        if n != 0:
            raise ValueError("closed_form is only available for the n=0 term")
        i1 = integrate_power(p, 1)
        scale = 1.0 / (4.0 * math.pi * ktilde * ktilde)
        return TraceTermResult(n=0, ktilde=ktilde, value=scale * i1.value,
                               est_error=scale * i1.est_error, method="closed_form",
                               evaluations=i1.evaluations, converged=i1.converged)

    if spec is None:
        spec = QuadratureSpec.for_dimension(2 * n + 2)
    prefactor = (math.pi / (2.0 * ktilde * ktilde)) * (2.0 * math.pi) ** -(n + 2)
    state = _FactorState()
    inner = spec.tightened()

    if n == 0:
        xv, xe = _profile_transform(0.0, inner, state)
        (pv, pe), = _autocorrelation(p, [(0.0,)], inner, state)
        raw_value = xv * pv
        raw_err = xe * abs(pv) + abs(xv) * pe
        outer_conv = True
    else:
        sk = SQRT2 * ktilde
        lo, hi = support(p)
        width = hi - lo
        # the exponential-kernel product makes everything below this size
        # irrelevant next to 1e-16: the remaining factors are bounded by 2
        # (profile transform) times the autocorrelation sup bound.
        p_bound = max(max_abs(p) ** (n + 1) * width, 1e-300)
        inner_pass_errs = []

        if n == 1:
            factor_spec = inner

            def f(d):
                d = np.atleast_1d(d)
                out = np.zeros(d.shape)
                live = []
                for i, di in enumerate(d):
                    g, g_err = _cosh_kernel_integral(sk * abs(di), state)
                    if abs(g) * 2.0 * p_bound < 1e-16:
                        continue
                    live.append((i, g, g_err))
                acs = _autocorrelation(p, [(0.0, d[i]) for i, _, _ in live],
                                       factor_spec, state)
                for (i, g, g_err), (pv, pe) in zip(live, acs):
                    if pv == 0.0 and pe == 0.0:
                        continue
                    xv, xe = _profile_transform(sk * d[i], factor_spec, state)
                    state.record(g_err * abs(xv * pv) + abs(g) * xe * abs(pv)
                                 + abs(g * xv) * pe)
                    out[i] = g * xv * pv
                return out

            outer = integrate_1d(f, Axis.finite(-width, width, knots=(0.0,)), spec)
        else:
            # substituting w = d0 + d1 (unit Jacobian) makes the profile
            # transform a function of the outer variable alone, so it hoists
            # out of the inner pass; the inner integrand is then the pair of
            # exponential kernels against the triple autocorrelation, with
            # kinks at d0 = 0 and d0 = w knotted per outer node.  Nested
            # adaptive passes rather than a fixed tensor grid, because the
            # second kink moves with w.
            factor_spec = inner.tightened()

            def inner_value(w):
                a = max(-width, w - width)
                b = min(width, w + width)
                if b <= a:
                    return 0.0
                xv, xe = _profile_transform(sk * w, factor_spec, state)
                knots = tuple(sorted({k for k in (0.0, w) if a < k < b}))

                def fi(d0):
                    d0 = np.atleast_1d(d0)
                    out = np.zeros(d0.shape)
                    live = []
                    for j, dj in enumerate(d0):
                        v0, e0 = _cosh_kernel_integral(sk * abs(dj), state)
                        v1, e1 = _cosh_kernel_integral(sk * abs(w - dj), state)
                        g = v0 * v1
                        if abs(g) * 2.0 * p_bound < 1e-16:
                            continue
                        live.append((j, g, e0 * abs(v1) + abs(v0) * e1))
                    acs = _autocorrelation(p, [(0.0, d0[j], w) for j, _, _ in live],
                                           factor_spec, state)
                    for (j, g, g_err), (pv, pe) in zip(live, acs):
                        if pv == 0.0 and pe == 0.0:
                            continue
                        state.record(g_err * abs(pv) + abs(g) * pe)
                        out[j] = g * pv
                    return out

                r = integrate_1d(fi, Axis.finite(a, b, knots=knots), inner)
                state.evaluations += r.evaluations
                if not r.converged and r.est_error > 1e-14:
                    state.converged = False
                inner_pass_errs.append(abs(xv) * r.est_error + xe * abs(r.value))
                return xv * r.value

            def f(w):
                w = np.atleast_1d(w)
                out = np.empty(w.shape)
                for i, wi in enumerate(w):
                    out[i] = inner_value(float(wi))
                return out

            outer = integrate_1d(f, Axis.finite(-width, width, knots=(0.0,)), spec)
        raw_value = outer.value
        raw_err = (outer.est_error
                   + state.mean_eval_err() * (2.0 * width) ** n)
        if inner_pass_errs:
            raw_err += float(np.mean(inner_pass_errs)) * 2.0 * width
        outer_conv = outer.converged
        state.evaluations += outer.evaluations

    value = prefactor * raw_value
    est_error = prefactor * raw_err
    return TraceTermResult(n=n, ktilde=ktilde, value=float(value),
                           est_error=float(est_error), method="reduced_integral",
                           evaluations=state.evaluations,
                           converged=outer_conv and state.converged)


def resolvent_trace(p, ktilde, n_max=ORACLE_MAX_ORDER, spec=None, k_min_gate=None):
    """Truncated regularized resolvent trace sum_{n<=n_max} (-1)^{n+1} T_n."""
    if not isinstance(n_max, (int, np.integer)) or isinstance(n_max, bool):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    if n_max < 0 or n_max > ORACLE_MAX_ORDER:
        raise ValueError(f"n_max {n_max} outside the quadrature range")
    total = 0.0
    for n in range(n_max + 1):
        term = trace_term(p, n, ktilde, spec, k_min_gate=k_min_gate)
        total += (-1.0) ** (n + 1) * term.value
    return total


def asymptotic_trace(table, ktilde, m_max):
    """Partial sum sum_{m<=m_max} b_m * ktilde^{-(m+2)} of the expansion."""
    ktilde = float(ktilde)
    if not math.isfinite(ktilde) or ktilde <= 0.0:
        raise ValueError(f"ktilde must be a positive real, got {ktilde!r}")
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    total = 0.0
    for m in range(m_max + 1):
        total += table.bm_value(m) * ktilde ** -(m + 2)
    return total


# --- integral identities --------------------------------------------------------

def verify_k0_product_identity(k, y, yprime, spec=None, tol=1e-5):
    """Planar integral of a product of two Macdonald kernels vs its reduction.

    LHS: int_{R^2} K0(k*sqrt((x1-y)^2+x2^2)) K0(k*sqrt((x1-y')^2+x2^2)) dx1 dx2
    over a box whose tail is bounded below 0.1*tol via the exponential
    envelope K0(z) <= sqrt(pi/(2z)) e^{-z}.
    RHS: (pi/(2 k^2)) int_R (1+xi^2)^{-3/2} e^{-i k xi (y-y')} dxi.
    """
    k = float(k)
    if not math.isfinite(k) or k <= 0.0:
        raise ValueError(f"k must be a positive real, got {k!r}")
    if spec is None:
        spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-9)

    mid = 0.5 * (y + yprime)
    half_gap = 0.5 * abs(y - yprime)
    # tail bound: outside radius R from the midpoint both kernels are in the
    # exponential regime; solve (pi^2/(2k^2)) (1+D/S) e^{-2kS} <= 0.1 tol
    # for S = R - D by fixed point.
    s = max(1.0, 5.0 / k)
    for _ in range(4):
        s = max(1.0 / k, math.log(
            (math.pi ** 2 / (2.0 * k * k)) * (1.0 + half_gap / s) / (0.1 * tol)
        ) / (2.0 * k))
    radius = half_gap + s
    tail_bound = (math.pi ** 2 / (2.0 * k * k)) * (1.0 + half_gap / s) * \
        math.exp(-2.0 * k * s)

    k0v = np.vectorize(lambda z: bessel_k0(z).value, otypes=[float])

    def integrand(x1, x2):
        r1 = np.hypot(x1 - y, x2)
        r2 = np.hypot(x1 - yprime, x2)
        return k0v(k * r1) * k0v(k * r2)

    axes = [Axis.finite(mid - radius, mid + radius,
                        knots=tuple(sorted({y, yprime}))),
            Axis.finite(-radius, radius, knots=(0.0,))]
    lhs = integrate_nd(integrand, axes, spec)

    def rhs_integrand(xi):
        return (1.0 + xi * xi) ** -1.5 * np.exp(-1j * k * xi * (y - yprime))

    # the reduced side only has to be an order below the comparison tolerance
    # (it gets multiplied by pi/(2k^2)); chasing machine precision on an
    # oscillatory tail would just exhaust the panel budget
    rhs_spec = QuadratureSpec(rel_tol=min(1e-7, 0.01 * tol),
                              abs_tol=max(1e-13, 0.1 * tol * 2.0 * k * k / math.pi))
    rhs = integrate_1d(rhs_integrand, Axis.full_line(), rhs_spec)
    rhs_value = (math.pi / (2.0 * k * k)) * rhs.value

    # decay consistency at the truncation boundary: the integrand sampled at
    # two boundary heights must fall off at least as fast as (k*x2)^{-2}.
    x1_probe = np.array([mid, y, yprime, mid - 0.5 * radius, mid + 0.5 * radius])
    sample_inner = float(np.max(integrand(x1_probe, radius)))
    sample_outer = float(np.max(integrand(x1_probe, 2.0 * radius)))

    diff = float(abs(lhs.value - rhs_value))
    return IdentityReport(
        identity_name="k0_product_reduction",
        lhs=float(np.real(lhs.value)),
        rhs=complex(rhs_value),
        abs_diff=diff,
        passed=bool(diff <= tol),
        parameters={
            "tolerance": tol, "k": k, "y": float(y), "yprime": float(yprime),
            "box_radius": radius, "tail_bound": tail_bound,
            "boundary_sample_inner": sample_inner,
            "boundary_sample_outer": sample_outer,
            "quadratic_decay_consistent": bool(
                sample_outer <= 0.25 * sample_inner + 1e-300),
            "lhs_converged": lhs.converged, "rhs_converged": rhs.converged,
            "lhs_est_error": lhs.est_error,
            "rhs_est_error": (math.pi / (2.0 * k * k)) * rhs.est_error,
        },
    )


def verify_fourier_exponential(kappa, eta, xi_samples, tol=1e-9):
    """Unitary Fourier transform of exp(-kappa|x-eta|) vs its closed form.

    For each xi sample, compares (2 pi)^{-1/2} int e^{-i xi x} e^{-kappa|x-eta|} dx
    computed by quadrature against sqrt(2/pi) * kappa/(kappa^2+xi^2) * e^{-i eta xi},
    in modulus and in phase (through the complex difference).
    """
    kappa = float(kappa)
    if not math.isfinite(kappa) or kappa <= 0.0:
        raise ValueError(f"kappa must be a positive real, got {kappa!r}")
    xi_samples = [float(x) for x in xi_samples]
    if not xi_samples:
        raise ValueError("xi_samples must be non-empty")

    # two-sided exponential tail: |truncated| <= 2 e^{-kappa R}/(kappa sqrt(2 pi))
    reach = math.log(2.0 / (0.1 * tol * kappa * math.sqrt(2.0 * math.pi))) / kappa
    axis = Axis.finite(eta - reach, eta + reach, knots=(float(eta),))
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)

    worst = None
    max_mod = 0.0
    max_phase = 0.0
    for xi in xi_samples:
        def f(x):
            return np.exp(-1j * xi * x - kappa * np.abs(x - eta))

        direct = integrate_1d(f, axis, spec)
        lhs = direct.value / math.sqrt(2.0 * math.pi)
        rhs = (math.sqrt(2.0 / math.pi) * kappa / (kappa * kappa + xi * xi)
               * np.exp(-1j * eta * xi))
        diff = abs(lhs - rhs)
        max_mod = max(max_mod, abs(abs(lhs) - abs(rhs)))
        if abs(rhs) > 0:
            max_phase = max(max_phase, abs(np.angle(lhs / rhs)))
        if worst is None or diff > worst[0]:
            worst = (diff, xi, lhs, rhs)

    diff, xi_at, lhs, rhs = worst
    return IdentityReport(
        identity_name="fourier_two_sided_exponential",
        lhs=complex(lhs),
        rhs=complex(rhs),
        abs_diff=float(diff),
        passed=bool(diff <= tol),
        parameters={
            "tolerance": tol, "kappa": kappa, "eta": float(eta),
            "xi_samples": xi_samples, "worst_xi": float(xi_at),
            "truncation_reach": reach,
            "max_modulus_diff": float(max_mod),
            "max_phase_diff": float(max_phase),
        },
    )


def watson_roundtrip(table, t_samples, tol=1e-12):
    """Term-by-term Laplace bookkeeping: a_n * Gamma(n/2 + 1) = b_n.

    Also evaluates the truncated short-time trace sum_n a_n t^{n/2} at the
    requested positive times, purely for reporting.
    """
    t_samples = [float(t) for t in t_samples]
    if any(not math.isfinite(t) or t <= 0.0 for t in t_samples):
        raise ValueError("t_samples must be positive reals")

    worst = (0.0, None, 0.0, 0.0)
    for n in range(table.max_order + 1):
        bn = table.bm_value(n)
        an = table.an_value(n)
        lhs = an * gamma_half(n + 2)
        diff = abs(lhs - bn)
        scale = max(1.0, abs(bn))
        if diff / scale >= worst[0]:
            worst = (diff / scale, n, lhs, bn)

    heat_trace = {}
    for t in t_samples:
        heat_trace[repr(t)] = float(sum(
            table.an_value(n) * t ** (0.5 * n)
            for n in range(table.max_order + 1)))

    rel_diff, n_at, lhs, rhs = worst
    return IdentityReport(
        identity_name="watson_laplace_roundtrip",
        lhs=lhs,
        rhs=rhs,
        abs_diff=rel_diff,
        passed=bool(rel_diff <= tol),
        parameters={
            "tolerance": tol, "worst_n": n_at, "max_order": table.max_order,
            "heat_trace_partial_sums": heat_trace,
        },
    )


# --- report serialization --------------------------------------------------------

def _jsonable(x):
    if isinstance(x, complex):
        return {"re": float(x.real), "im": float(x.imag)}
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def report_to_dict(item):
    """Plain-dict form of a TraceTermResult or IdentityReport."""
    if isinstance(item, TraceTermResult):
        return {"n": item.n, "ktilde": item.ktilde, "value": item.value,
                "est_error": item.est_error, "method": item.method,
                "evaluations": item.evaluations, "converged": item.converged}
    if isinstance(item, IdentityReport):
        return {"identity_name": item.identity_name,
                "lhs": _jsonable(item.lhs), "rhs": _jsonable(item.rhs),
                "abs_diff": item.abs_diff, "passed": item.passed,
                "parameters": _jsonable(item.parameters)}
    raise TypeError(f"cannot serialize {type(item).__name__}")


def reports_to_json(items):
    """Deterministic JSON array of trace-term results and identity reports."""
    return json.dumps([report_to_dict(i) for i in items],
                      sort_keys=True, indent=2) + "\n"


def trace_terms_to_csv(results):
    """CSV with columns (n, ktilde, value, est_error, method)."""
    lines = ["n,ktilde,value,est_error,method"]
    for r in results:
        lines.append(f"{r.n},{r.ktilde!r},{r.value!r},{r.est_error!r},{r.method}")
    return "\n".join(lines) + "\n"
