"""Per-layer figures, measured from outside the program.

The benchmark wraps functions of the heattrace modules in place: each wrapper
is set at every module attribute that holds the original function, so a call
through ``heattrace.coefficients.integrate_1d`` is traced as well as one
through ``heattrace.quadrature.integrate_1d``.  Spans are aggregated in
memory per (name, parent) into a call count, a total time and a self time
(total minus the time of wrapped calls made inside it); no span is kept per
call, since ``bessel_k0`` alone runs about two million times in one round of
``identities``.  Each thread aggregates on its own and the tables are merged
when read, so the cell thread pool of ``compute_table`` needs no lock.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter


class _ThreadState:
    __slots__ = ("stack", "spans", "counters")

    def __init__(self):
        self.stack: list[list] = []              # [span name, time in children]
        self.spans: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {}


def bump(counters: dict, key: str, amount: float = 1) -> None:
    counters[key] = counters.get(key, 0) + amount


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.absent: list[str] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, fn, name, *, reentrant=True, before=None, after=None):
        """A traced stand-in for ``fn``.

        ``name`` is a span name or a callable (args, kwargs) -> name.  With
        ``reentrant=False`` a call made directly inside a span of the same name
        (a recursion) is passed through untraced.  ``before(counters, args,
        kwargs)`` and ``after(counters, parent, result)`` update counters.
        """
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            span = name(args, kwargs) if callable(name) else name
            parent = stack[-1][0] if stack else ""
            if not reentrant and parent == span:
                return fn(*args, **kwargs)
            if before is not None:
                before(state.counters, args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = state.spans.get((span, parent))
                if record is None:
                    record = state.spans[(span, parent)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if after is not None:
                after(state.counters, parent, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, owner, attr: str, name, **hooks) -> None:
        """Wrap ``owner.attr`` and every heattrace module attribute bound to it.

        A function that does not exist is recorded in ``absent`` instead.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapped = self.wrap(fn, name, **hooks)
        setattr(owner, attr, wrapped)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "heattrace" and not mod_name.startswith("heattrace."):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)

    def spans(self) -> dict[tuple[str, str], list]:
        """Merged {(name, parent): [count, total_s, self_s]} over all threads."""
        merged: dict[tuple[str, str], list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (count, total, self_time) in state.spans.items():
                rec = merged.setdefault(key, [0, 0.0, 0.0])
                rec[0] += count
                rec[1] += total
                rec[2] += self_time
        return merged

    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in state.counters.items():
                bump(merged, key, value)
        return merged


# --- the heattrace layers --------------------------------------------------------


def _quadrature_result(counters, parent, result):
    if not result.converged:
        bump(counters, "quadrature.unconverged")
    # integrate_nd's result already counts the points of the integrals its own
    # recursion made; every other call reports only its own points
    if parent != "quadrature.integrate_nd":
        bump(counters, "quadrature.evaluations", result.evaluations)


def _eval_points(counters, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    bump(counters, "potentials.eval.points", getattr(x, "size", 1))


def _h_factor_result(counters, parent, result):
    # _h_factor returns (value, rel_error, evaluations): no evaluations on a hit
    if result[2] == 0:
        bump(counters, "coefficients.h_factor.hits")


def _trace_term_name(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs.get("n")
    return f"oracle.trace_term.n{n}"


def _trace_term_result(counters, parent, result):
    bump(counters, "oracle.trace_term.evaluations", result.evaluations)


def instrument(tracer: Tracer) -> None:
    """Wrap the functions each per-layer metric is measured at."""
    from heattrace import cli, coefficients, oracle, potentials, quadrature, specfun

    tracer.install(specfun, "bessel_k0", "specfun.bessel_k0")
    tracer.install(quadrature, "integrate_1d", "quadrature.integrate_1d",
                   after=_quadrature_result)
    tracer.install(quadrature, "integrate_nd", "quadrature.integrate_nd",
                   reentrant=False, after=_quadrature_result)
    tracer.install(potentials, "eval", "potentials.eval", reentrant=False,
                   before=_eval_points)
    tracer.install(coefficients, "compute_table", "coefficients.compute_table")
    tracer.install(coefficients, "c_coefficient", "coefficients.c_coefficient")
    tracer.install(coefficients, "_h_factor", "coefficients.h_factor",
                   reentrant=False, after=_h_factor_result)
    tracer.install(coefficients, "b_nl", "coefficients.b_nl")
    tracer.install(oracle, "trace_term", _trace_term_name, after=_trace_term_result)
    tracer.install(oracle, "_autocorrelation", "oracle.autocorrelation")
    tracer.install(oracle, "_profile_transform", "oracle.profile_transform")
    tracer.install(oracle, "_cosh_kernel_integral", "oracle.cosh_kernel_integral")
    tracer.install(oracle, "verify_k0_product_identity",
                   "oracle.verify_k0_product_identity")
    tracer.install(oracle, "verify_fourier_exponential",
                   "oracle.verify_fourier_exponential")
    tracer.install(cli, "load_config", "cli.load_config")
    tracer.install(oracle, "reports_to_json", "cli.serialize")
    tracer.install(coefficients.CoefficientTable, "to_json", "cli.serialize")


def layer_values(tracer: Tracer, names, rounds: int,
                 traced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics ``names``, per round unless the README says otherwise.

    A metric named <span>.calls, <span>.s or <span>.self_s sums that figure over
    the span's parents; any other name is a counter.
    """
    by_kind: dict[str, dict[str, float]] = {"calls": {}, "s": {}, "self_s": {}}
    for (name, _parent), record in tracer.spans().items():
        for kind, value in zip(("calls", "s", "self_s"), record):
            by_kind[kind][name] = by_kind[kind].get(name, 0) + value
    calls, total, self_s = by_kind["calls"], by_kind["s"], by_kind["self_s"]
    counters = tracer.counters()

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for metric in names:
        span, kind = metric.rsplit(".", 1)
        if kind in by_kind:
            values[metric] = by_kind[kind].get(span, 0) / rounds
        else:
            values[metric] = counters.get(metric, 0) / rounds
    values["quadrature.self_s"] = (self_s.get("quadrature.integrate_1d", 0.0)
                                   + self_s.get("quadrature.integrate_nd", 0.0)) / rounds
    values["coefficients.h_factor.hit_ratio"] = ratio(
        counters.get("coefficients.h_factor.hits", 0), calls.get("coefficients.h_factor", 0))
    values["cli.load_config.s"] = ratio(total.get("cli.load_config", 0.0),
                                        calls.get("cli.load_config", 0))
    values["trace.wall_s"] = traced_wall_s
    return values
