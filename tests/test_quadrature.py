import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heattrace.quadrature import (Axis, IntegralResult, QuadratureSpec, integrate_1d,
                                  integrate_1d_batch, integrate_nd)

TIGHT = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)


def test_polynomial_exact_on_finite_axis():
    # K15 integrates degree <= 22 exactly up to roundoff
    for k in range(11):
        r = integrate_1d(lambda x: x ** k, Axis.finite(-1.5, 2.0))
        exact = (2.0 ** (k + 1) - (-1.5) ** (k + 1)) / (k + 1)
        np.testing.assert_allclose(r.value, exact, rtol=1e-13, atol=1e-14)
        assert r.converged


@pytest.mark.parametrize("f,axis,exact", [
    (lambda t: np.exp(-t), Axis.half_line(), 1.0),
    (lambda t: np.exp(-t * t), Axis.half_line(), 0.5 * np.sqrt(np.pi)),
    (lambda t: np.exp(-t) * np.cos(10 * t), Axis.half_line(), 1.0 / 101.0),
    (lambda x: (1 + x * x) ** -1.5, Axis.full_line(), 2.0),
    (lambda x: (1 + x * x) ** -2.0, Axis.full_line(), 0.5 * np.pi),
    (lambda x: np.exp(-x * x), Axis.full_line(), np.sqrt(np.pi)),
    (lambda x: np.abs(x), Axis.finite(-1.0, 1.0, knots=(0.0,)), 1.0),
])
def test_known_integrals(f, axis, exact):
    r = integrate_1d(f, axis, TIGHT)
    assert r.converged
    np.testing.assert_allclose(r.value, exact, rtol=1e-9, atol=1e-12)
    assert abs(r.value - exact) <= 10 * max(r.est_error, 1e-15)


def test_complex_integrand():
    a = 1.0 + 2.0j
    r = integrate_1d(lambda t: np.exp(-a * t), Axis.half_line(), TIGHT)
    assert r.converged
    np.testing.assert_allclose(r.value, 1.0 / a, rtol=1e-10)


def test_error_estimate_honest():
    cases = [
        (lambda x: np.sin(7 * x), Axis.finite(0.0, 3.0), (1 - np.cos(21.0)) / 7.0),
        (lambda t: t ** 2 * np.exp(-t), Axis.half_line(), 2.0),
        (lambda x: 1.0 / (1 + x * x), Axis.full_line(), np.pi),
        (lambda x: np.sqrt(np.abs(x)), Axis.finite(-1.0, 1.0, knots=(0.0,)), 4.0 / 3.0),
    ]
    for f, axis, exact in cases:
        r = integrate_1d(f, axis, QuadratureSpec())
        assert abs(r.value - exact) <= max(10 * r.est_error, 1e-13)


def test_budget_exhaustion_reports_not_raises():
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
    r = integrate_1d(lambda x: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-300),
                     Axis.finite(0.0, 1.0), spec)
    assert isinstance(r, IntegralResult)
    assert not r.converged
    assert r.est_error > 0
    assert r.evaluations == 15 * (1 + 2 * 3)    # the first panel and two per split


def test_zero_integrand_converges_immediately():
    r = integrate_1d(lambda x: np.zeros_like(x), Axis.finite(0.0, 1.0))
    assert r.converged and r.value == 0.0 and r.est_error == 0.0


def test_deterministic_repeat():
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    r1 = integrate_1d(f, Axis.half_line(), TIGHT)
    r2 = integrate_1d(f, Axis.half_line(), TIGHT)
    assert r1.value == r2.value and r1.est_error == r2.est_error
    assert r1.evaluations == r2.evaluations


def test_nd_separable_product():
    r = integrate_nd(lambda t, x: np.exp(-t) * (1 + x * x) ** -1.5,
                     [Axis.half_line(), Axis.full_line()])
    assert r.converged
    np.testing.assert_allclose(r.value, 2.0, rtol=1e-7)


def test_nd_gaussian():
    r = integrate_nd(lambda x, y: np.exp(-x * x - y * y),
                     [Axis.full_line(), Axis.full_line()])
    np.testing.assert_allclose(r.value, np.pi, rtol=1e-7)


def test_nd_resolvent_kernel_cell():
    # int_R dxi int_0^inf dt (1+xi^2)^{-3/2} Re[ (sqrt2 (cosh t + i xi))^{-1} ]
    #   = pi/(2 sqrt2) * int (1+xi^2)^{-2} = pi^2/(4 sqrt2)
    def f(xi, t):
        t = np.minimum(t, 700.0)
        c = np.cosh(t)
        return (1 + xi * xi) ** -1.5 * c / (np.sqrt(2.0) * (c * c + xi * xi))

    r = integrate_nd(f, [Axis.full_line(), Axis.half_line()])
    np.testing.assert_allclose(r.value, np.pi ** 2 / (4 * np.sqrt(2.0)), rtol=1e-6)
    assert r.converged


def test_nd_inner_error_propagates():
    r = integrate_nd(lambda x, y: np.exp(-x * x - y * y),
                     [Axis.full_line(), Axis.full_line()])
    assert abs(r.value - np.pi) <= 10 * r.est_error
    assert r.evaluations > 15 ** 2


@pytest.mark.parametrize("bad", [
    lambda: Axis("diagonal"),
    lambda: Axis("finite"),
    lambda: Axis("finite", bounds=(2.0, 1.0)),
    lambda: Axis("half_line", bounds=(0.0, 1.0)),
    lambda: Axis("full_line", transform="exp_map"),
    lambda: Axis("finite", bounds=(0.0, np.inf)),
])
def test_axis_validation(bad):
    with pytest.raises(ValueError):
        bad()


@settings(max_examples=40, deadline=None)
@given(c=st.floats(-50, 50, allow_nan=False))
def test_scaling_linearity(c):
    base = integrate_1d(lambda x: np.exp(-x * x), Axis.full_line(), TIGHT)
    scaled = integrate_1d(lambda x: c * np.exp(-x * x), Axis.full_line(), TIGHT)
    np.testing.assert_allclose(scaled.value, c * base.value, rtol=1e-12, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-5, 4.9), w=st.floats(0.1, 8))
def test_quadratic_any_interval(a, w):
    b = a + w
    r = integrate_1d(lambda x: x * x, Axis.finite(a, b))
    np.testing.assert_allclose(r.value, (b ** 3 - a ** 3) / 3.0, rtol=1e-12, atol=1e-12)


# --- lockstep batches ----------------------------------------------------------------
#
# integrand i of a batch: a Lorentzian peak of height amp/wid^2 at ctr plus a
# square-root kink at ctr under a Gaussian envelope; narrow peaks and kinks off
# the knots take many bisections, wide ones converge at once


def _peak(amp, ctr, wid, x):
    return amp / (wid * wid + (x - ctr) ** 2) + np.sqrt(np.abs(x - ctr)) * np.exp(-x * x)


def _batch_vs_alone(axes, params, spec):
    amp, ctr, wid = np.array(params, dtype=float).reshape(-1, 3).T
    batch = integrate_1d_batch(
        lambda x, which: _peak(amp[which], ctr[which], wid[which], x), axes, spec)
    alone = [integrate_1d(lambda x, p=p: _peak(*p, x), axis, spec)
             for axis, p in zip(axes, params)]
    return batch, alone


_finite_axis = st.builds(
    lambda a, w, ks: Axis.finite(a, a + w, knots=tuple(a + k * w for k in ks)),
    st.floats(-3.0, 3.0), st.floats(0.1, 5.0),
    st.lists(st.floats(0.05, 0.95), max_size=3))
# four float spacings wide: below rel_tol 1e-14 its panels end up stuck
_tiny_axis = st.floats(1.0, 1.5).map(lambda a: Axis.finite(a, a + 4 * np.spacing(a)))
_axis = st.one_of(_finite_axis, _finite_axis, _tiny_axis, st.just(Axis.half_line()),
                  st.just(Axis.full_line(knots=(0.0,))))
_params = st.tuples(st.floats(0.1, 10.0), st.floats(-2.0, 2.0), st.floats(1e-3, 1.0))


@settings(max_examples=30, deadline=None)
@given(items=st.lists(st.tuples(_axis, _params), max_size=5),
       rel_tol=st.sampled_from([1e-5, 1e-10, 1e-15]),
       max_subdivisions=st.sampled_from([2, 40, 1000]))
def test_batch_results_equal_integrals_run_alone(items, rel_tol, max_subdivisions):
    spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-13, max_subdivisions=max_subdivisions)
    axes = [axis for axis, _ in items]
    batch, alone = _batch_vs_alone(axes, [p for _, p in items], spec)
    assert batch == alone


def test_batch_mixes_exhausted_and_converged_integrals():
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, max_subdivisions=3)
    axes = [Axis.finite(0.0, 1.0), Axis.finite(-2.0, 2.0, knots=(0.3,)), Axis.finite(0.0, 1.0)]
    params = [(1.0, 5.0, 1.0), (1.0, 0.3, 1e-3), (2.0, -4.0, 1.0)]
    batch, alone = _batch_vs_alone(axes, params, spec)
    assert [r.converged for r in batch] == [True, False, True]
    assert batch == alone


def test_batch_keeps_stuck_panels_per_integral():
    # below the rule's roundoff floor nothing converges; the tiny intervals stop
    # once every panel is a float spacing wide, long before the split budget
    spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=20)
    axes = [Axis.finite(0.0, 1.0), Axis.finite(1.0, 1.0 + 4 * np.spacing(1.0)),
            Axis.finite(1.25, 1.25 + 8 * np.spacing(1.25))]
    params = [(1.0, 0.5, 0.1), (1.0, 0.0, 1.0), (1.0, 0.0, 1.0)]
    batch, alone = _batch_vs_alone(axes, params, spec)
    assert not any(r.converged for r in batch)
    assert [r.evaluations for r in batch] == [15 * (1 + 2 * 20), 15 * 7, 15 * 15]
    assert batch == alone


def test_empty_batch():
    assert integrate_1d_batch(lambda x, which: x, [], QuadratureSpec()) == []
