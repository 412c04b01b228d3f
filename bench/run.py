"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload table|crosscheck|identities \
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout this file sits in.  The
run repeats whole rounds of the workload until ``--seconds`` have passed
(at least one round) and checks every round's outputs.  With ``--trace 0``
it reports the end-to-end metrics, with ``--trace 1`` the per-layer ones
(README.md lists both; the per-layer names and units are read from
``BENCHMARK.json``).  ``setup_s`` is the median set-up time of fresh
interpreters this script launches, one before the first round and one after
each round.  Outputs and the span table go to ``bench/out/``.
A summary goes to stderr; the last stdout line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description="heattrace benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("table", "crosscheck", "identities"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set-up probe: the monotonic time at which the launcher started it
    parser.add_argument("--spawned-at", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _import_heattrace():
    if not (SRC / "heattrace" / "__init__.py").is_file():
        raise SystemExit(f"error: no heattrace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import heattrace
    from heattrace import cli, coefficients, oracle  # noqa: F401  (set-up cost)

    if Path(heattrace.__file__).resolve().parent != SRC / "heattrace":
        raise SystemExit(f"error: imported heattrace from {heattrace.__file__}, "
                         f"not from {SRC}")


def _setup(args, tracer=None):
    """Import heattrace and make the workload: the part ``setup_s`` times.

    The tracer is installed before the workload is made, so that the config
    parse of the set-up is traced too.
    """
    _import_heattrace()
    from workloads import WORKLOADS

    if tracer is not None:
        layers.instrument(tracer)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return out, WORKLOADS[args.workload](ROOT, out, args.seed, reference)


def _cold_setup(argv) -> float:
    """The set-up time of a fresh interpreter, from its launch."""
    launch = [sys.executable, str(Path(__file__).resolve()), *argv,
              "--spawned-at", repr(time.monotonic())]
    done = subprocess.run(launch, stdout=subprocess.PIPE, text=True, check=True)
    return float(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args.spawned_at is not None:
        # a set-up probe: set up, print the time since launch, and stop
        _setup(args)
        print(repr(time.monotonic() - args.spawned_at))
        return 0

    # `table` runs on one CPU: unpinned, its cell thread pool contends for the
    # GIL across cores and its rounds vary with the host's load (README)
    if args.workload == "table" and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # set-up is timed in fresh interpreters, one before the first round and
    # one after each round, so that its median spans the whole run
    setups = [_cold_setup(argv)]
    tracer = layers.Tracer() if args.trace else None
    out, workload = _setup(args, tracer)

    walls, cpus, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        workload.execute()
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - cpu0)
        n_attempted, n_failed, round_problems = workload.check()
        attempted += n_attempted
        failed += n_failed
        problems += [f"round {len(walls)}: {p}" for p in round_problems]
        setups.append(_cold_setup(argv))
        if time.perf_counter() - start >= args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups)
    if tracer is None:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    else:
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(
            encoding="utf-8"))["per_layer"]
        values = layers.layer_values(tracer, [m["name"] for m in per_layer],
                                     len(walls), wall_s)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in per_layer}
        spans = [{"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
                 for (name, parent), (c, t, s) in sorted(tracer.spans().items())]
        (out / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"rounds": len(walls), "absent": tracer.absent, "spans": spans,
             "counters": tracer.counters()}, indent=2) + "\n", encoding="utf-8")
        for name in tracer.absent:
            print(f"absent (reported as 0): {name}", file=sys.stderr)

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{args.workload}: {len(walls)} round(s), wall per round "
          f"{' '.join(f'{w:.3f}' for w in walls)} s, set-up {setup_s:.3f} s, "
          f"{failed}/{attempted} failed, checks {'passed' if not problems else 'FAILED'}",
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
