"""Self-tests of the benchmark's correctness checks: each accepts the value a
run of the program produced and rejects a wrong one.

    python3 -m pytest bench/test_checks.py -q

The accepted values are program outputs of one run (order-3 table and trace
terms on the unit bump at ktilde = 80; order-5 table on the skew poly_bump).
"""

import cmath
import json
import math
from pathlib import Path

import pytest

import checks

REF = json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))
BUMP = REF["profiles"]["bump"]
K = 80.0

# unit bump, order-3 table and trace terms at ktilde = 80
B0, B1, B2, B3 = (-0.09604207606759489, 0.021729851290603838,
                  -0.005669015919601393, -0.004679390800361819)
T0, T1, T2 = 1.5006574385561702e-05, 4.2439203312594785e-08, 1.3839015919517768e-10

# skew poly_bump, order-5 table
BM = dict(enumerate([-0.06587021340229202, 0.012046558541140569, -0.002578311599036324,
                     -0.004081302149974292, 0.0020963311198710743, 0.014752963792935532]))
AN = dict(enumerate([-0.06587021340229202, 0.013593085693019528, -0.002578311599036324,
                     -0.003070170880435411, 0.0010481655599355372, 0.004439183199163427]))


def _cell(alpha, s, value, err=1e-10):
    return {"n": len(alpha), "alpha": list(alpha), "s": list(s), "value": value,
            "imag": 1e-17, "err": err}


def _symmetric_cells():
    # one orbit: pairs {(1, +), (0, -)} in both orders, and the flipped pairs
    v = 0.654268518716145
    return [_cell((1, 0), (1, -1), v), _cell((0, 1), (-1, 1), v + 3e-11),
            _cell((1, 0), (-1, 1), v - 2e-11), _cell((0, 1), (1, -1), v)]


def test_leading_coefficients():
    assert checks.leading_coefficients(B0, B1, BUMP["int_rho"], BUMP["int_rho2"]) == []
    legacy_b1 = math.sqrt(2.0) / 32.0 * BUMP["int_rho2"]
    assert checks.leading_coefficients(B0, legacy_b1, BUMP["int_rho"], BUMP["int_rho2"])
    assert checks.leading_coefficients(B0 * (1 + 1e-6), B1, BUMP["int_rho"],
                                       BUMP["int_rho2"])


def test_reference_cells():
    cells = [_cell(c["alpha"], c["s"], c["value"] * (1 + 1e-9)) for c in REF["cells"]]
    assert checks.reference_cells(cells, REF["cells"]) == []
    cells[2]["value"] *= 1 + 1e-6
    assert checks.reference_cells(cells, REF["cells"])
    assert checks.reference_cells(cells[:-1], REF["cells"])


def test_cell_symmetry():
    cells = _symmetric_cells()
    assert checks.cell_symmetry(cells) == []
    for i in range(len(cells)):
        bad = _symmetric_cells()
        bad[i]["value"] += 1e-6
        assert checks.cell_symmetry(bad), f"perturbing cell {i} went unnoticed"
    complex_cell = _symmetric_cells()
    complex_cell[1]["imag"] = 1e-6
    assert checks.cell_symmetry(complex_cell)


def test_watson():
    assert checks.watson(BM, AN) == []
    bad = dict(AN)
    bad[3] *= 1 + 1e-9
    assert checks.watson(BM, bad)


def test_zeroth_term():
    assert checks.zeroth_term(T0, K, BUMP["int_rho"]) == []
    assert checks.zeroth_term(T0 * (1 + 1e-6), K, BUMP["int_rho"])


def test_first_order_reference():
    assert checks.first_order_reference(T1, REF["t1_bump"]["value"]) == []
    assert checks.first_order_reference(T1 * (1 + 1e-4), REF["t1_bump"]["value"])


def test_first_order_slope_rejects_the_legacy_doubled_constant():
    assert checks.first_order_slope(T1, K, BUMP["int_rho2"]) == []
    # a first-order term built on sqrt2/32 instead of sqrt2/64
    assert checks.first_order_slope(2.0 * T1, K, BUMP["int_rho2"])
    assert checks.first_order_slope(T1 * (1 + 1e-3), K, BUMP["int_rho2"])


def test_second_order_term():
    assert checks.second_order_term(T2, K, B2) == []
    assert checks.second_order_term(1.01 * T2, K, B2)
    assert checks.second_order_term(0.99 * T2, K, B2)


def test_remainder():
    trace = -T0 + T1 - T2
    s1 = B0 / K ** 2 + B1 / K ** 3
    assert checks.remainder(trace, s1, K, B2, B3) == []
    assert checks.remainder(trace, s1, K, 1.1 * B2, B3)
    # the doubled first-order constant, carried into S_1
    assert checks.remainder(trace, B0 / K ** 2 + 2.0 * B1 / K ** 3, K, B2, B3)


def _fourier(kappa=1.3, eta=-0.7, xi=2.5, shift=0.0):
    value = (math.sqrt(2.0 / math.pi) * kappa / (kappa * kappa + xi * xi)
             * cmath.exp(-1j * eta * xi)) + shift
    return {"lhs": {"re": value.real, "im": value.imag},
            "parameters": {"kappa": kappa, "eta": eta, "worst_xi": xi,
                           "xi_samples": [-1.0, xi, 4.0]}}


def test_fourier_report():
    assert checks.fourier_report(_fourier(shift=3e-11)) == []
    assert checks.fourier_report(_fourier(shift=2e-9))
    assert checks.fourier_report(_fourier(shift=2e-9j))
    not_sampled = _fourier()
    not_sampled["parameters"]["xi_samples"] = [-1.0, 4.0]
    assert checks.fourier_report(not_sampled)


@pytest.mark.parametrize("row", REF["kernel_rhs"], ids=lambda r: f"k{r['k']}-gap{r['gap']}")
def test_kernel_report(row):
    rhs = {(r["k"], r["gap"]): r["value"] for r in REF["kernel_rhs"]}

    def report(lhs):
        return {"lhs": lhs, "parameters": {"k": row["k"], "y": 0.0, "yprime": row["gap"]}}

    assert checks.kernel_report(report(row["value"] - 3e-6), rhs) == []
    assert checks.kernel_report(report(row["value"] + 2e-5), rhs)
    assert checks.kernel_report(report(row["value"] - 2e-5), rhs)


def test_kernel_values_at_zero_gap_are_pi_over_k_squared():
    for row in REF["kernel_rhs"]:
        if row["gap"] == 0.0:
            assert row["value"] == pytest.approx(math.pi / row["k"] ** 2, rel=1e-15)


def test_watson_report():
    assert checks.watson_report({"passed": True, "abs_diff": 0.0}) == []
    assert checks.watson_report({"passed": True, "abs_diff": 1e-9})
    assert checks.watson_report({"passed": False, "abs_diff": 0.0})


def test_exit_code():
    assert checks.exit_code(0, 0) == []
    assert checks.exit_code(3, 2) == []
    assert checks.exit_code(0, 1)
    assert checks.exit_code(3, 0)
