"""Adaptive Gauss-Kronrod quadrature on finite, half-line and full-line axes.

The panel rule is the classic (G7, K15) pair: the 15-point Kronrod value is
the estimate, and the departure from the embedded 7-point Gauss value gives
the per-panel error, rescaled QUADPACK-style by (200 |K-G| / resasc)^{3/2}.
Unbounded axes are compactified first:

    half line  t in (0, inf):   t = ln(1/(1-u)),  u in (0, 1)
    full line  x in (-inf,inf): x = tan(u),       u in (-pi/2, pi/2)

so every panel is finite and the open node set never touches an endpoint.
Adaptive refinement always bisects the current worst panel; the final value
is the sum over panels in ascending position order, which makes results
bit-reproducible for a fixed integrand.  ``integrate_1d_batch`` runs many
independent integrals through the same loop in lockstep, in the style of the
vectorized interfaces of ``scipy.integrate.quad_vec`` and S. G. Johnson's
``cubature``: each round's panels of every integral share one integrand
call, while each integral keeps QUADPACK's per-integral adaptive rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# (node, gauss7 weight, kronrod15 weight); gauss weight 0 at Kronrod-only nodes
_GK15 = (
    (-0.991455371120813, 0.0, 0.022935322010529),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.864864423359769, 0.0, 0.104790010322250),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.586087235467691, 0.0, 0.169004726639267),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.207784955007898, 0.0, 0.204432940075298),
    (0.0, 0.417959183673469, 0.209482141084728),
    (0.207784955007898, 0.0, 0.204432940075298),
    (0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.586087235467691, 0.0, 0.169004726639267),
    (0.741531185599394, 0.279705391489277, 0.140653259715525),
    (0.864864423359769, 0.0, 0.104790010322250),
    (0.949107912342759, 0.129484966168870, 0.063092092629979),
    (0.991455371120813, 0.0, 0.022935322010529),
)

_NODES = np.array([row[0] for row in _GK15])
_WGAUSS = np.array([row[1] for row in _GK15])
_WKRON = np.array([row[2] for row in _GK15])

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy / budget parameters shared by every integration routine.

    Convergence means  est_error <= max(abs_tol, rel_tol * |value|).
    ``truncation_tail_tol`` bounds the mass that domain-truncation steps
    (boxes around exponentially decaying integrands) are allowed to drop.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 1000
    truncation_tail_tol: float = 1e-10

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "truncation_tail_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {v!r}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    @classmethod
    def for_dimension(cls, d: int) -> "QuadratureSpec":
        """Looser default tolerances once iterated integrals get deep."""
        if d <= 2:
            return cls()
        return cls(rel_tol=1e-6, abs_tol=1e-10)

    def tightened(self, factor: float = 0.1) -> "QuadratureSpec":
        return replace(self, rel_tol=self.rel_tol * factor,
                       abs_tol=self.abs_tol * factor)


@dataclass(frozen=True)
class Axis:
    """One integration axis: a domain kind plus its compactifying transform.

    kind      'finite' | 'half_line' | 'full_line'
    bounds    (a, b) with a < b, finite axes only
    transform 'identity' (finite), 'exp_map' (half line), 'rational_map'
              (full line); None picks the default for the kind
    knots     interior breakpoints in *untransformed* coordinates (kinks,
              known singular points); they seed the initial panel set
    """

    kind: str
    bounds: tuple[float, float] | None = None
    transform: str | None = None
    knots: tuple[float, ...] = ()

    _DEFAULTS = {"finite": "identity", "half_line": "exp_map",
                 "full_line": "rational_map"}

    def __post_init__(self):
        if self.kind not in self._DEFAULTS:
            raise ValueError(f"unknown axis kind {self.kind!r}")
        tr = self.transform or self._DEFAULTS[self.kind]
        if tr != self._DEFAULTS[self.kind]:
            raise ValueError(f"transform {tr!r} not usable on a {self.kind} axis")
        object.__setattr__(self, "transform", tr)
        if self.kind == "finite":
            if self.bounds is None:
                raise ValueError("finite axis needs bounds")
            a, b = map(float, self.bounds)
            if not (np.isfinite(a) and np.isfinite(b) and a < b):
                raise ValueError(f"bad finite bounds ({a}, {b})")
            object.__setattr__(self, "bounds", (a, b))
        elif self.bounds is not None:
            raise ValueError(f"{self.kind} axis takes no bounds")
        object.__setattr__(self, "knots", tuple(float(k) for k in self.knots))

    # -- constructors ------------------------------------------------------

    @classmethod
    def finite(cls, a: float, b: float, knots: tuple[float, ...] = ()) -> "Axis":
        return cls("finite", bounds=(a, b), knots=knots)

    @classmethod
    def half_line(cls, knots: tuple[float, ...] = ()) -> "Axis":
        return cls("half_line", knots=knots)

    @classmethod
    def full_line(cls, knots: tuple[float, ...] = ()) -> "Axis":
        return cls("full_line", knots=knots)

    # -- transform machinery ----------------------------------------------

    def _u_interval(self) -> tuple[float, float]:
        if self.kind == "finite":
            return self.bounds
        if self.kind == "half_line":
            return (0.0, 1.0)
        return (-0.5 * np.pi, 0.5 * np.pi)

    def _map(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u-panel nodes -> (x values, Jacobian dx/du)."""
        if self.transform == "identity":
            return u, np.ones_like(u)
        if self.transform == "exp_map":
            # clamp: nodes of a panel abutting u=1 can round to 1.0 exactly,
            # and 0 * inf from (vanishing integrand) * (jacobian) is NaN
            w = np.maximum(1.0 - u, 1e-300)
            return -np.log(w), 1.0 / w
        c = np.cos(u)                        # rational_map: x = tan u
        return np.tan(u), 1.0 / (c * c)

    def _unmap(self, x: float) -> float:
        if self.transform == "identity":
            return x
        if self.transform == "exp_map":
            return -np.expm1(-x)
        return np.arctan(x)                   # rational_map

    def _initial_breaks(self) -> list[float]:
        lo, hi = self._u_interval()
        pts = sorted(self._unmap(k) for k in self.knots)
        breaks = [lo]
        for p in pts:
            if breaks[-1] + 1e-14 < p < hi - 1e-14:
                breaks.append(p)
        breaks.append(hi)
        return breaks


@dataclass
class IntegralResult:
    value: complex | float
    est_error: float
    evaluations: int
    converged: bool


def _panel(y, aux, lo: float, hi: float):
    """Apply (G7, K15) to the 15 integrand values y on the u-panel (lo, hi).

    ``aux`` is the inner-error density of an iterated integrand at the same
    nodes, or None for a plain one.
    """
    h = 0.5 * (hi - lo)
    resk = h * np.dot(_WKRON, y)
    resg = h * np.dot(_WGAUSS, y)
    resabs = h * np.dot(_WKRON, np.abs(y))
    resasc = h * np.dot(_WKRON, np.abs(y - resk / (hi - lo)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    if aux is not None:
        err += h * np.dot(_WKRON, aux)       # inner errors of an iterated integrand
    return resk, err


def _panels(fu, pending):
    """Evaluate every pending (integral, lo, hi) panel with one call of fu.

    fu(u, which) gets the stacked nodes of all panels, panel by panel, and
    the index of the integral each node belongs to.  The rule is then applied
    row by row: one matrix product over all rows would sum in another order
    and move the last bit of the results.
    """
    u = np.concatenate([0.5 * (hi + lo) + 0.5 * (hi - lo) * _NODES
                        for _, lo, hi in pending])
    y, aux = fu(u, np.array([i for i, _, _ in pending]).repeat(len(_NODES)))
    y = y.reshape(len(pending), len(_NODES))
    if aux is not None:
        aux = aux.reshape(y.shape)
    return [_panel(y[r], None if aux is None else aux[r], a, b)
            for r, (_, a, b) in enumerate(pending)]


def _adaptive(fu, breaks: list[list[float]], spec: QuadratureSpec) -> list[IntegralResult]:
    """Worst-panel-first bisection of independent integrals run in lockstep.

    Integral i starts from the panels between consecutive ``breaks[i]`` and
    keeps its own panel list, stuck set, split count and convergence test;
    each round bisects the worst panel of every integral still running, and
    all new panels of the round go through one call of fu (see _panels).  An
    integral's result does not depend on the other integrals of the batch.
    """
    count = len(breaks)
    panels = [[] for _ in range(count)]      # (lo, hi, value, error)
    splits = [0] * count
    stuck = [set() for _ in range(count)]    # panels at float-spacing width
    converged = [False] * count
    pending = [(i, lo, hi) for i, b in enumerate(breaks)
               for lo, hi in zip(b[:-1], b[1:])]
    while pending:
        for (i, lo, hi), (val, err) in zip(pending, _panels(fu, pending)):
            panels[i].append((lo, hi, val, err))
        running = dict.fromkeys(i for i, _, _ in pending)
        pending = []
        for i in running:
            ps = panels[i]
            while True:
                total = sum(p[2] for p in ps)
                toterr = sum(p[3] for p in ps)
                if toterr <= max(spec.abs_tol, spec.rel_tol * abs(total)):
                    converged[i] = True
                    break
                if splits[i] >= spec.max_subdivisions:
                    break
                splittable = range(len(ps))
                if stuck[i]:
                    splittable = [k for k in splittable
                                  if (ps[k][0], ps[k][1]) not in stuck[i]]
                if not splittable:
                    break
                worst = max(splittable, key=lambda k: (ps[k][3], -ps[k][0]))
                lo, hi = ps[worst][:2]
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    stuck[i].add((lo, hi))
                    continue
                ps.pop(worst)
                pending += [(i, lo, mid), (i, mid, hi)]
                splits[i] += 1
                break

    results = []
    for ps, n_splits, ok in zip(panels, splits, converged):
        ps.sort(key=lambda p: p[0])
        value = sum(p[2] for p in ps)
        value = complex(value) if np.iscomplexobj(value) else float(value)
        # a split replaces one evaluated panel by two: the panels evaluated are
        # those left plus one per split
        results.append(IntegralResult(value, float(sum(p[3] for p in ps)),
                                      len(_NODES) * (len(ps) + n_splits), ok))
    return results


def integrate_1d_batch(f, axes: list[Axis],
                       spec: QuadratureSpec | None = None) -> list[IntegralResult]:
    """Integrate f over each of ``axes``, all integrals in lockstep.

    f(x, which) gets a 1-D ndarray of nodes and, node by node, the index into
    ``axes`` of the integral it belongs to; it returns the integrand values.
    When f's value at a node depends on that node and its integral only, each
    result equals, bit for bit, the integrate_1d result of that integral alone
    (its f being f(x, i)): the batch only stacks the integrand calls.  Complex
    values from f make every result of the batch complex.
    """
    spec = spec or QuadratureSpec()
    # the map depends on the axis kind only: one representative per kind
    kinds = {a.kind: a for a in axes}

    def fu(u, which):
        if len(kinds) == 1:
            x, jac = axes[0]._map(u)
        else:
            x, jac = np.empty_like(u), np.empty_like(u)
            node_kinds = np.array([a.kind for a in axes])[which]
            for kind, axis in kinds.items():
                m = node_kinds == kind
                x[m], jac[m] = axis._map(u[m])
        return np.asarray(f(x, which)) * jac, None

    return _adaptive(fu, [a._initial_breaks() for a in axes], spec)


def integrate_1d(f, axis: Axis, spec: QuadratureSpec | None = None) -> IntegralResult:
    """Integrate a vectorized callable f(x: ndarray) -> ndarray over one axis.

    Real or complex integrands; the result value matches the integrand dtype.
    Budget exhaustion is reported through converged=False, never an exception.
    """
    return integrate_1d_batch(lambda x, which: f(x), [axis], spec)[0]


def integrate_nd(f, axes: list[Axis], spec: QuadratureSpec | None = None) -> IntegralResult:
    """Iterated adaptive integration over a list of axes.

    The integrand is called as f(x_0, ..., x_{d-2}, x_last) with scalars for
    the outer coordinates and an ndarray for the innermost one.  Inner-level
    error estimates ride along as an auxiliary density so est_error covers
    the whole iterated computation, and converged is the AND over all levels.
    """
    if not 1 <= len(axes) <= 6:
        raise ValueError(f"integrate_nd supports 1..6 axes, got {len(axes)}")
    spec = spec or QuadratureSpec.for_dimension(len(axes))
    if len(axes) == 1:
        return integrate_1d(f, axes[0], spec)

    outer, rest = axes[0], list(axes[1:])
    inner_spec = spec.tightened()
    state = {"evals": 0, "ok": True}

    def fu(u, which):
        x, jac = outer._map(u)
        vals = np.empty(len(x), dtype=complex)
        aux = np.empty(len(x))
        for i, xi in enumerate(x):
            r = integrate_nd(lambda *rest_x: f(xi, *rest_x), rest, inner_spec)
            vals[i] = r.value
            aux[i] = r.est_error
            state["evals"] += r.evaluations
            state["ok"] &= r.converged
        if np.all(vals.imag == 0.0):
            vals = vals.real
        return vals * jac, aux * np.abs(jac)

    res, = _adaptive(fu, [outer._initial_breaks()], spec)
    return IntegralResult(res.value, res.est_error,
                          res.evaluations + state["evals"],
                          res.converged and state["ok"])
