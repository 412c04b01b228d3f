"""Config-driven command line entry point.

Three subcommands cover the package's workflows:

  coeffs   compute the coefficient table for a configured potential
  verify   run the integral-identity suite and the transform round-trip
  scan     tabulate resolvent trace vs asymptotic partial sum over a k grid

A single JSON config file describes the run (see the schema in the README);
``--out`` and ``--format`` override its output section, ``--threads`` bounds
the cell-level parallelism (default 1: the cells are Python code, and more
threads only contend for the interpreter lock).  Outputs are canonical: two
runs with the same config produce byte-identical files regardless of thread
count.

Exit codes: 0 when everything converged and every identity passed, 2 for
configuration problems (bad JSON, unknown keys, invalid values), 3 when the
computation ran but a cell failed to converge or an identity check failed
(partial results are still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .coefficients import MAX_ORDER, compute_table
from .oracle import (asymptotic_trace, k_min, reports_to_json, trace_term,
                     verify_fourier_exponential, verify_k0_product_identity,
                     watson_roundtrip)
from .potentials import ConfigError, Potential, from_dict
from .quadrature import QuadratureSpec

#: identity-suite defaults; every value can be overridden in the config
VERIFY_DEFAULTS = {
    "fourier_tol": 1e-9,
    "kernel_tol": 1e-5,
    "watson_tol": 1e-12,
    "seed": 20260816,
}

_KERNEL_GRID_K = (1.0, 2.0, 4.0)
_KERNEL_GRID_GAP = (0.0, 0.5, 1.5)


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run description (one-to-one with the config file)."""

    potential: Potential
    max_order: int
    quadrature: QuadratureSpec | None = None
    k_values: tuple[float, ...] | None = None
    n_max: int = 2
    k_min_override: float | None = None
    fourier_tol: float = VERIFY_DEFAULTS["fourier_tol"]
    kernel_tol: float = VERIFY_DEFAULTS["kernel_tol"]
    watson_tol: float = VERIFY_DEFAULTS["watson_tol"]
    seed: int = VERIFY_DEFAULTS["seed"]
    out_format: str = "json"
    out_path: str | None = None


def _require_keys(blob: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(blob) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def parse_config(blob) -> RunConfig:
    """Validate a decoded config tree; every complaint names the offending key."""
    if not isinstance(blob, dict):
        raise ConfigError("config root must be an object")
    _require_keys(blob, {"potential", "max_order", "quadrature", "oracle",
                         "verify", "output"}, "config")

    if "potential" not in blob:
        raise ConfigError("config is missing the required key 'potential'")
    potential = from_dict(blob["potential"])

    if "max_order" not in blob:
        raise ConfigError("config is missing the required key 'max_order'")
    max_order = blob["max_order"]
    if not isinstance(max_order, int) or isinstance(max_order, bool) or max_order < 0:
        raise ConfigError(f"max_order must be a nonnegative integer, got {max_order!r}")
    if max_order > MAX_ORDER:
        raise ConfigError(f"max_order {max_order} exceeds the supported cap "
                          f"of {MAX_ORDER}")

    quadrature = None
    if "quadrature" in blob:
        q = blob["quadrature"]
        if not isinstance(q, dict):
            raise ConfigError("quadrature section must be an object")
        _require_keys(q, {"rel_tol", "abs_tol", "max_subdivisions",
                          "truncation_tail_tol"}, "quadrature")
        try:
            quadrature = QuadratureSpec(**q)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid quadrature section: {e}") from e

    k_values = None
    n_max = 2
    k_min_override = None
    if "oracle" in blob:
        o = blob["oracle"]
        if not isinstance(o, dict):
            raise ConfigError("oracle section must be an object")
        _require_keys(o, {"k_values", "n_max", "k_min_override"}, "oracle")
        if "k_values" not in o:
            raise ConfigError("oracle section is missing the required key 'k_values'")
        kv = o["k_values"]
        if not isinstance(kv, list) or not kv:
            raise ConfigError("oracle.k_values must be a non-empty array")
        vals = []
        for v in kv:
            if not isinstance(v, (int, float)) or isinstance(v, bool) or \
                    not math.isfinite(v) or v <= 0:
                raise ConfigError(f"oracle.k_values entries must be positive "
                                  f"reals, got {v!r}")
            vals.append(float(v))
        if vals != sorted(vals):
            raise ConfigError("oracle.k_values must be sorted ascending")
        k_values = tuple(vals)
        n_max = o.get("n_max", 2)
        if not isinstance(n_max, int) or isinstance(n_max, bool) or \
                not 0 <= n_max <= 2:
            raise ConfigError(f"oracle.n_max must be an integer in 0..2, "
                              f"got {n_max!r}")
        if "k_min_override" in o:
            km = o["k_min_override"]
            if not isinstance(km, (int, float)) or isinstance(km, bool) or \
                    not math.isfinite(km) or km < 0:
                raise ConfigError(f"oracle.k_min_override must be a nonnegative "
                                  f"real, got {km!r}")
            k_min_override = float(km)

    verify_opts = dict(VERIFY_DEFAULTS)
    if "verify" in blob:
        v = blob["verify"]
        if not isinstance(v, dict):
            raise ConfigError("verify section must be an object")
        _require_keys(v, set(VERIFY_DEFAULTS), "verify")
        for key, val in v.items():
            if key == "seed":
                if not isinstance(val, int) or isinstance(val, bool) or val < 0:
                    raise ConfigError(f"verify.seed must be a nonnegative "
                                      f"integer, got {val!r}")
            elif not isinstance(val, (int, float)) or isinstance(val, bool) or \
                    not 0.0 < float(val) < 1.0:
                raise ConfigError(f"verify.{key} must lie in (0, 1), got {val!r}")
        verify_opts.update(v)

    out_format = "json"
    out_path = None
    if "output" in blob:
        out = blob["output"]
        if not isinstance(out, dict):
            raise ConfigError("output section must be an object")
        _require_keys(out, {"format", "path"}, "output")
        out_format = out.get("format", "json")
        if out_format not in ("json", "csv"):
            raise ConfigError(f"output.format must be 'json' or 'csv', "
                              f"got {out_format!r}")
        out_path = out.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ConfigError(f"output.path must be a string, got {out_path!r}")

    return RunConfig(potential=potential, max_order=max_order,
                     quadrature=quadrature, k_values=k_values, n_max=n_max,
                     k_min_override=k_min_override,
                     fourier_tol=float(verify_opts["fourier_tol"]),
                     kernel_tol=float(verify_opts["kernel_tol"]),
                     watson_tol=float(verify_opts["watson_tol"]),
                     seed=int(verify_opts["seed"]),
                     out_format=out_format, out_path=out_path)


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path!r}: {e}") from e
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path!r} is not valid JSON "
                          f"(line {e.lineno}, column {e.colno}): {e.msg}") from e
    return parse_config(blob)


# --- subcommands ------------------------------------------------------------------

def cmd_coeffs(cfg: RunConfig, threads: int) -> tuple[str, int]:
    table = compute_table(cfg.potential, cfg.max_order, cfg.quadrature,
                          threads=threads)
    text = table.to_json() if cfg.out_format == "json" else table.to_csv()
    return text, 0 if table.converged else 3


def cmd_verify(cfg: RunConfig, threads: int) -> tuple[str, int]:
    rng = np.random.default_rng(cfg.seed)
    reports = []
    for _ in range(10):
        kappa = float(rng.uniform(0.5, 3.0))
        eta = float(rng.uniform(-2.0, 2.0))
        xis = [float(x) for x in rng.uniform(-6.0, 6.0, size=4)]
        reports.append(verify_fourier_exponential(kappa, eta, xis,
                                                  tol=cfg.fourier_tol))
    for k in _KERNEL_GRID_K:
        for gap in _KERNEL_GRID_GAP:
            reports.append(verify_k0_product_identity(k, 0.0, gap,
                                                      tol=cfg.kernel_tol))
    table = compute_table(cfg.potential, cfg.max_order, cfg.quadrature,
                          threads=threads)
    reports.append(watson_roundtrip(table, t_samples=(0.01, 0.1, 1.0),
                                    tol=cfg.watson_tol))

    ok = all(r.passed for r in reports)
    if cfg.out_format == "json":
        text = reports_to_json(reports)
    else:
        lines = ["identity_name,abs_diff,passed"]
        for r in reports:
            lines.append(f"{r.identity_name},{r.abs_diff!r},{r.passed}")
        text = "\n".join(lines) + "\n"
    return text, 0 if ok else 3


def cmd_scan(cfg: RunConfig, threads: int) -> tuple[str, int]:
    if cfg.k_values is None:
        raise ConfigError("scan requires an oracle section with k_values")
    table = compute_table(cfg.potential, cfg.max_order, cfg.quadrature,
                          threads=threads)
    gate = cfg.k_min_override if cfg.k_min_override is not None \
        else k_min(cfg.potential)
    power = cfg.max_order + 3

    rows = []
    all_converged = table.converged
    for kt in cfg.k_values:
        if kt < gate:
            rows.append({"ktilde": kt, "status": "below_validity_threshold"})
            continue
        terms = [trace_term(cfg.potential, n, kt, cfg.quadrature)
                 for n in range(cfg.n_max + 1)]
        all_converged = all_converged and all(t.converged for t in terms)
        res = sum((-1.0) ** (t.n + 1) * t.value for t in terms)
        asy = asymptotic_trace(table, kt, cfg.max_order)
        diff = res - asy
        rows.append({"ktilde": kt, "resolvent_trace": res,
                     "asymptotic_trace": asy, "difference": diff,
                     "scaled_difference": diff * kt ** power, "status": "ok"})

    if cfg.out_format == "json":
        text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    else:
        lines = ["ktilde,resolvent_trace,asymptotic_trace,difference,"
                 "scaled_difference,status"]
        for row in rows:
            if row["status"] == "ok":
                lines.append(f"{row['ktilde']!r},{row['resolvent_trace']!r},"
                             f"{row['asymptotic_trace']!r},{row['difference']!r},"
                             f"{row['scaled_difference']!r},ok")
            else:
                lines.append(f"{row['ktilde']!r},,,,,{row['status']}")
        text = "\n".join(lines) + "\n"
    return text, 0 if all_converged else 3


# --- argument plumbing ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heattrace",
        description="Heat-trace expansion coefficients and their quadrature "
                    "cross-checks, driven by a JSON config file.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("coeffs", "compute the coefficient table"),
                      ("verify", "run the integral-identity suite"),
                      ("scan", "tabulate trace vs asymptotic sum over k")):
        s = sub.add_parser(name, help=doc)
        s.add_argument("--config", required=True,
                       help="path to the JSON run configuration")
        s.add_argument("--threads", type=int, default=1,
                       help="cell-level worker threads (default: 1)")
        s.add_argument("--out", default=None,
                       help="output file (overrides output.path; '-' = stdout)")
        s.add_argument("--format", choices=("json", "csv"), default=None,
                       help="output format (overrides output.format)")
    return parser


_COMMANDS = {"coeffs": cmd_coeffs, "verify": cmd_verify, "scan": cmd_scan}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = load_config(args.config)
        if args.format is not None:
            cfg = replace(cfg, out_format=args.format)
        if args.out is not None:
            cfg = replace(cfg, out_path=args.out)
        text, code = _COMMANDS[args.command](cfg, args.threads)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if cfg.out_path and cfg.out_path != "-":
        Path(cfg.out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
