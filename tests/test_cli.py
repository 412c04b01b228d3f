import json
import subprocess
import sys

import pytest

from heattrace.cli import RunConfig, _build_parser, load_config, main, parse_config
from heattrace.coefficients import CoefficientTable, closed_form_b0_b1
from heattrace.potentials import ConfigError

BUMP_TREE = {"family": "bump", "center": 0.0, "halfwidth": 1.0, "amplitude": 1.0}

FAST_QUAD = {"rel_tol": 1e-6, "abs_tol": 1e-9}


def write_config(tmp_path, name="run.json", **overrides):
    blob = {"potential": BUMP_TREE, "max_order": 1, "quadrature": FAST_QUAD}
    blob.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(blob), encoding="utf-8")
    return path


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "heattrace.cli", *argv],
                          capture_output=True, text=True)
    return proc


# --- config parsing ----------------------------------------------------------------

def test_parse_config_minimal():
    cfg = parse_config({"potential": BUMP_TREE, "max_order": 2})
    assert isinstance(cfg, RunConfig)
    assert cfg.max_order == 2
    assert cfg.quadrature is None
    assert cfg.out_format == "json"


def test_parse_config_rejects_missing_sections():
    with pytest.raises(ConfigError, match="potential"):
        parse_config({"max_order": 1})
    with pytest.raises(ConfigError, match="max_order"):
        parse_config({"potential": BUMP_TREE})


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="max_orderr"):
        parse_config({"potential": BUMP_TREE, "max_order": 1, "max_orderr": 2})
    with pytest.raises(ConfigError, match="quadrature"):
        parse_config({"potential": BUMP_TREE, "max_order": 1,
                      "quadrature": {"tol": 1e-6}})


def test_parse_config_enforces_order_cap():
    with pytest.raises(ConfigError, match="cap"):
        parse_config({"potential": BUMP_TREE, "max_order": 9})


def test_parse_config_oracle_section_rules():
    good = parse_config({"potential": BUMP_TREE, "max_order": 1,
                         "oracle": {"k_values": [10.0, 20.0], "n_max": 1}})
    assert good.k_values == (10.0, 20.0)
    assert good.n_max == 1
    for bad in ([], [10.0, 5.0], [0.0], [-1.0], ["x"]):
        with pytest.raises(ConfigError):
            parse_config({"potential": BUMP_TREE, "max_order": 1,
                          "oracle": {"k_values": bad}})
    with pytest.raises(ConfigError, match="n_max"):
        parse_config({"potential": BUMP_TREE, "max_order": 1,
                      "oracle": {"k_values": [10.0], "n_max": 3}})


def test_parse_config_output_section_rules():
    cfg = parse_config({"potential": BUMP_TREE, "max_order": 0,
                        "output": {"format": "csv", "path": "x.csv"}})
    assert (cfg.out_format, cfg.out_path) == ("csv", "x.csv")
    with pytest.raises(ConfigError, match="format"):
        parse_config({"potential": BUMP_TREE, "max_order": 0,
                      "output": {"format": "yaml"}})


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"potential": }', encoding="utf-8")
    with pytest.raises(ConfigError, match=r"line 1"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))


# --- coeffs ------------------------------------------------------------------------

def test_coeffs_writes_table_and_matches_closed_forms(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "table.json"
    code = main(["coeffs", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    table = CoefficientTable.from_json(out.read_text(encoding="utf-8"))
    b0, b1 = closed_form_b0_b1(load_config(str(cfg)).potential)
    assert table.bm_value(0) == pytest.approx(b0, rel=1e-6)
    assert table.bm_value(1) == pytest.approx(b1, rel=1e-6)


def test_coeffs_zero_amplitude_gives_zero_table(tmp_path):
    zero = dict(BUMP_TREE, amplitude=0.0)
    cfg = write_config(tmp_path, potential=zero, max_order=3)
    out = tmp_path / "table.json"
    code = main(["coeffs", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    table = CoefficientTable.from_json(out.read_text(encoding="utf-8"))
    for m in range(4):
        assert table.bm_value(m) == 0.0


def test_coeffs_csv_format_flag(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "table.csv"
    code = main(["coeffs", "--config", str(cfg), "--out", str(out),
                 "--format", "csv"])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "section,n,l,m,alpha,signs,value,err"


def test_coeffs_runs_end_to_end_as_subprocess(tmp_path):
    cfg = write_config(tmp_path)
    proc = run_cli("coeffs", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    table = CoefficientTable.from_json(proc.stdout)
    assert table.max_order == 1


def test_rejected_config_exits_2_with_message(tmp_path):
    cfg = write_config(tmp_path, max_order=9)
    proc = run_cli("coeffs", "--config", str(cfg))
    assert proc.returncode == 2
    assert "cap" in proc.stderr
    assert proc.stdout == ""


def test_bad_threads_value_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    code = main(["coeffs", "--config", str(cfg), "--threads", "0",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2


@pytest.mark.parametrize("command", ["coeffs", "verify", "scan"])
def test_threads_default_is_one(command):
    args = _build_parser().parse_args([command, "--config", "run.json"])
    assert args.threads == 1


def test_determinism_across_thread_counts(tmp_path):
    cfg = write_config(tmp_path, max_order=2)
    one = tmp_path / "t1.json"
    four = tmp_path / "t4.json"
    assert main(["coeffs", "--config", str(cfg), "--threads", "1",
                 "--out", str(one)]) == 0
    assert main(["coeffs", "--config", str(cfg), "--threads", "4",
                 "--out", str(four)]) == 0
    assert one.read_bytes() == four.read_bytes()


# --- verify ------------------------------------------------------------------------

def test_verify_default_suite_passes(tmp_path):
    cfg = write_config(tmp_path, verify={"kernel_tol": 1e-4})
    out = tmp_path / "reports.json"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text(encoding="utf-8"))
    assert len(reports) == 10 + 9 + 1
    assert all(r["passed"] for r in reports)
    names = {r["identity_name"] for r in reports}
    assert names == {"fourier_two_sided_exponential", "k0_product_reduction",
                     "watson_laplace_roundtrip"}


def test_verify_unreachable_tolerance_fails_honestly(tmp_path):
    cfg = write_config(tmp_path, verify={"fourier_tol": 1e-15,
                                         "kernel_tol": 1e-4})
    out = tmp_path / "reports.json"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    reports = json.loads(out.read_text(encoding="utf-8"))
    failed = [r for r in reports
              if r["identity_name"] == "fourier_two_sided_exponential"
              and not r["passed"]]
    assert failed
    assert all(r["abs_diff"] > 1e-15 for r in failed)


def test_verify_csv_summary(tmp_path):
    cfg = write_config(tmp_path, verify={"kernel_tol": 1e-4},
                       output={"format": "csv"})
    out = tmp_path / "reports.csv"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "identity_name,abs_diff,passed"
    assert len(lines) == 1 + 20
    for line in lines[1:]:
        name, diff, passed = line.split(",")
        float(diff)  # plain repr, no wrapped scalar types
        assert passed in ("True", "False")


# --- scan --------------------------------------------------------------------------

def test_scan_requires_oracle_section(tmp_path):
    cfg = write_config(tmp_path)
    proc = run_cli("scan", "--config", str(cfg))
    assert proc.returncode == 2
    assert "k_values" in proc.stderr


def test_scan_zero_potential_all_zero_columns(tmp_path):
    zero = dict(BUMP_TREE, amplitude=0.0)
    cfg = write_config(tmp_path, potential=zero,
                       oracle={"k_values": [6.0, 9.0], "n_max": 1})
    out = tmp_path / "scan.json"
    code = main(["scan", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert [r["status"] for r in rows] == ["ok", "ok"]
    for r in rows:
        assert r["resolvent_trace"] == 0.0
        assert r["asymptotic_trace"] == 0.0
        assert r["scaled_difference"] == 0.0


def test_scan_remainder_column_stays_bounded(tmp_path):
    cfg = write_config(tmp_path, oracle={"k_values": [10.0, 20.0, 40.0],
                                         "n_max": 1, "k_min_override": 0.0})
    out = tmp_path / "scan.csv"
    code = main(["scan", "--config", str(cfg), "--out", str(out),
                 "--format", "csv"])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("ktilde,resolvent_trace,asymptotic_trace,difference,"
                        "scaled_difference,status")
    scaled = [abs(float(line.split(",")[4])) for line in lines[1:]]
    assert len(scaled) == 3
    # truncating the trace at first order leaves a remainder whose scaled
    # magnitude may drift only by quadrature noise, never grow systematically
    for prev, nxt in zip(scaled, scaled[1:]):
        assert nxt <= 1.5 * prev


def test_scan_flags_below_threshold_rows(tmp_path):
    cfg = write_config(tmp_path, oracle={"k_values": [5.0, 16.0], "n_max": 0})
    out = tmp_path / "scan.csv"
    code = main(["scan", "--config", str(cfg), "--out", str(out),
                 "--format", "csv"])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "5.0,,,,,below_validity_threshold"
    assert lines[2].endswith(",ok")


def test_scan_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, oracle={"k_values": [16.0, 18.0], "n_max": 1})
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(a),
                 "--format", "csv"]) == 0
    assert main(["scan", "--config", str(cfg), "--out", str(b),
                 "--format", "csv"]) == 0
    assert a.read_bytes() == b.read_bytes()
