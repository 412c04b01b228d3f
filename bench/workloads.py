"""The three workloads: their inputs, the timed operation and the checks.

Each workload writes and parses its config during set-up, then ``execute``
runs one round (inputs ready -> outputs written) and ``check`` reads the
outputs back and returns (attempted, failed, problems).  Every round does
the same operations, so ``failed`` is the same share of ``attempted`` in
every run.  heattrace is looked up through module attributes at call time,
so the traced run sees the calls through its wrappers.
"""

from __future__ import annotations

import json
from pathlib import Path

import checks


def _write_config(path: Path, blob: dict):
    from heattrace import cli

    path.write_text(json.dumps(blob, indent=2) + "\n", encoding="utf-8")
    return cli.load_config(str(path))


class _Workload:
    def __init__(self, root: Path, out: Path, seed: int, reference: dict):
        self.root = root
        self.out = out
        self.seed = seed
        self.reference = reference
        self.first_output: bytes | None = None

    def _same_output(self, data: bytes) -> list[str]:
        """Reruns of the same config must give byte-identical output."""
        if self.first_output is None:
            self.first_output = data
            return []
        return [] if data == self.first_output else ["output differs from the first round's"]


class Table(_Workload):
    """``heattrace coeffs`` on the skew cubic poly_bump at order 5, CLI defaults."""

    name = "table"
    #: 242 cells and 21 b_{n,l} blocks up to order 5
    OPERATIONS = 263

    def __init__(self, *args):
        super().__init__(*args)
        self.profile = self.reference["profiles"]["poly_bump"]
        self.config = self.out / "table-config.json"
        self.output = self.out / "table-output.json"
        _write_config(self.config, {
            "potential": {"family": "poly_bump", "center": 0.2, "halfwidth": 0.9,
                          "amplitude": 0.8, "poly_coeffs": [1.0, 0.5, -0.3]},
            "max_order": 5,
        })

    def execute(self):
        from heattrace import cli

        self.code = cli.main(["coeffs", "--config", str(self.config),
                              "--out", str(self.output)])

    def check(self):
        data = self.output.read_bytes()
        table = json.loads(data)
        rows = table["c"] + table["bnl"]
        failed = sum(not row["converged"] for row in rows)
        bm = {row["m"]: row["value"] for row in table["bm"]}
        an = {row["n"]: row["value"] for row in table["an"]}
        problems = self._same_output(data)
        if len(rows) != self.OPERATIONS:
            problems.append(f"{len(rows)} cells and blocks, expected {self.OPERATIONS}")
        problems += checks.exit_code(self.code, failed)
        problems += checks.leading_coefficients(bm[0], bm[1], self.profile["int_rho"],
                                                self.profile["int_rho2"])
        problems += checks.reference_cells(table["c"], self.reference["cells"])
        problems += checks.cell_symmetry(table["c"])
        problems += checks.watson(bm, an)
        return self.OPERATIONS, failed, problems


class Crosscheck(_Workload):
    """The two routes on the unit bump at ktilde = 80, through the public API."""

    name = "crosscheck"
    KTILDE = 80.0
    #: T_2 runs relaxed: at the default spec it takes minutes per k (README)
    T2_SPEC = {"rel_tol": 1e-2, "abs_tol": 2e-4}
    OPERATIONS = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.profile = self.reference["profiles"]["bump"]
        self.cfg = _write_config(self.out / "crosscheck-config.json", {
            "potential": {"family": "bump", "center": 0.0, "halfwidth": 1.0,
                          "amplitude": 1.0},
            "max_order": 3,
            "oracle": {"k_values": [self.KTILDE], "n_max": 2},
        })
        self.outputs = [self.out / f"crosscheck-{part}.json"
                        for part in ("table", "terms", "sums")]

    def execute(self):
        from heattrace import coefficients, oracle
        from heattrace.quadrature import QuadratureSpec

        p, k = self.cfg.potential, self.KTILDE
        table = coefficients.compute_table(p, self.cfg.max_order)
        terms = [oracle.trace_term(p, 0, k), oracle.trace_term(p, 1, k),
                 oracle.trace_term(p, 2, k, spec=QuadratureSpec(**self.T2_SPEC))]
        sums = {str(m): oracle.asymptotic_trace(table, k, m)
                for m in range(self.cfg.max_order + 1)}
        for path, text in zip(self.outputs, (table.to_json(),
                                             oracle.reports_to_json(terms),
                                             json.dumps(sums, indent=2) + "\n")):
            path.write_text(text, encoding="utf-8")

    def check(self):
        data = [path.read_bytes() for path in self.outputs]
        table, terms, sums = (json.loads(blob) for blob in data)
        failed = sum(not term["converged"] for term in terms)
        t0, t1, t2 = (term["value"] for term in terms)
        bm = {row["m"]: row["value"] for row in table["bm"]}
        k = self.KTILDE
        trace = -t0 + t1 - t2
        problems = self._same_output(b"".join(data))
        problems += checks.leading_coefficients(bm[0], bm[1], self.profile["int_rho"],
                                                self.profile["int_rho2"])
        problems += checks.zeroth_term(t0, k, self.profile["int_rho"])
        problems += checks.first_order_reference(t1, self.reference["t1_bump"]["value"])
        problems += checks.first_order_slope(t1, k, self.profile["int_rho2"])
        problems += checks.second_order_term(t2, k, bm[2])
        problems += checks.remainder(trace, sums["1"], k, bm[2], bm[3])
        return self.OPERATIONS, failed, problems


class Identities(_Workload):
    """``heattrace verify`` on demos/bump_order3.json with verify.seed = --seed."""

    name = "identities"
    #: 10 Fourier checks, the 3x3 kernel-product grid, one Watson round-trip
    OPERATIONS = 20

    def __init__(self, *args):
        super().__init__(*args)
        blob = json.loads((self.root / "demos" / "bump_order3.json").read_text(encoding="utf-8"))
        blob["verify"] = {"seed": self.seed}
        self.config = self.out / "identities-config.json"
        self.output = self.out / "identities-output.json"
        _write_config(self.config, blob)
        self.rhs = {(row["k"], row["gap"]): row["value"]
                    for row in self.reference["kernel_rhs"]}

    def execute(self):
        from heattrace import cli

        self.code = cli.main(["verify", "--config", str(self.config),
                              "--out", str(self.output)])

    def check(self):
        data = self.output.read_bytes()
        reports = json.loads(data)
        failed = sum(not r["passed"] for r in reports)
        problems = self._same_output(data)
        problems += checks.exit_code(self.code, failed)
        names = [r["identity_name"] for r in reports]
        expected = (["fourier_two_sided_exponential"] * 10 + ["k0_product_reduction"] * 9
                    + ["watson_laplace_roundtrip"])
        if names != expected:
            return self.OPERATIONS, failed, problems + [f"unexpected report list {names}"]
        for report in reports:
            if report["identity_name"] == "fourier_two_sided_exponential":
                problems += checks.fourier_report(report)
            elif report["identity_name"] == "k0_product_reduction":
                problems += checks.kernel_report(report, self.rhs)
            else:
                problems += checks.watson_report(report)
        return self.OPERATIONS, failed, problems


WORKLOADS = {w.name: w for w in (Table, Crosscheck, Identities)}
