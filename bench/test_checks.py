"""Tests of the benchmark's own checker and span arithmetic.

    python3 -m pytest bench -q

Small reports are produced in-process by the CLI, checked, then corrupted:
the checker must accept the former and reject each corruption.
"""

import json
import sys
from pathlib import Path

import pytest

import checks
import run

sys.path.insert(0, str(run.ROOT / "src"))
from lorentz_embed import cli  # noqa: E402

SMALL = {
    "calibrate": ["calibrate", "--bound-name", "embedding_dimension", "--r", "0",
                  "--p", "1.5", "--n", "200", "--eps", "0.3", "--seed", "5",
                  "--validation-seed", "6", "--trials", "3", "--directions", "200"],
    "verify": ["verify", "--kind", "embedding", "--r", "0.3", "--p", "1.5",
               "--n", "300", "--k", "2", "--eps", "0.2", "--seed", "5",
               "--trials", "5", "--directions", "200"],
    "orderorder": ["verify", "--kind", "orderorder", "--case", "I", "--r", "0.3",
                   "--p", "2", "--n", "500", "--t", "3", "--seed", "5",
                   "--trials", "400"],
}
CHECKERS = {"calibrate": checks.check_calibrate,
            "verify": checks.check_verify_embedding,
            "orderorder": checks.check_orderorder}


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> dict:
    out = {}
    for name, argv in SMALL.items():
        path = tmp_path_factory.mktemp(name) / "report.json"
        assert cli.main(argv + ["--output", str(path)]) == 0
        out[name] = path.read_text()
    return out


def _get(text: str, path: tuple):
    node = json.loads(text)
    for key in path:
        node = node[key]
    return node


def _corrupt(text: str, path: tuple, value) -> str:
    report = json.loads(text)
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(report)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_valid_report_passes(reports, name):
    CHECKERS[name](checks.parse_strict(reports[name]), 3)


def test_bare_nan_is_rejected(reports):
    text = reports["verify"].replace('"M_used": ', '"M_used": NaN, "was": ', 1)
    with pytest.raises(checks.CheckError, match="NaN"):
        checks.parse_strict(text)
    with pytest.raises(checks.CheckError, match="Infinity"):
        checks.parse_strict('{"slope": -Infinity}')


@pytest.mark.parametrize("name,path", [
    ("verify", ("result", "ci_low")),
    ("verify", ("result", "ci_high")),
    ("orderorder", ("result", "ci_low")),
    ("calibrate", ("result", "details", "validation_ci_low")),
])
def test_wrong_ci_edge_is_rejected(reports, name, path):
    edge = _get(reports[name], path)
    bad = _corrupt(reports[name], path, edge - 0.01 if edge > 0.5 else edge + 0.01)
    with pytest.raises(checks.CheckError, match="Wilson"):
        CHECKERS[name](checks.parse_strict(bad), 3)


def test_nonzero_violation_count_is_rejected(reports):
    bad = _corrupt(reports["orderorder"], ("result", "implication_violations"), 1)
    with pytest.raises(checks.CheckError, match="implication_violations"):
        checks.check_orderorder(checks.parse_strict(bad), 3)


@pytest.mark.parametrize("path,value,match", [
    (("result", "M_used"), 1.0, "naive median"),
    (("result", "max_dev_quantiles", "0.5"), 1.0, "out of order"),
    (("result", "max_dev_quantiles", "max"), 0.25, "disagrees"),
])
def test_wrong_embedding_result_is_rejected(reports, path, value, match):
    bad = _corrupt(reports["verify"], path, value)
    with pytest.raises(checks.CheckError, match=match):
        checks.check_verify_embedding(checks.parse_strict(bad), 3)


@pytest.mark.parametrize("path,value,match", [
    (("result", "details", "k_use"), 1, "k_use"),
    (("result", "details", "shape_dprime"), 19.0, "shape_dprime"),
])
def test_wrong_calibration_is_rejected(reports, path, value, match):
    bad = _corrupt(reports["calibrate"], path, value)
    with pytest.raises(checks.CheckError, match=match):
        checks.check_calibrate(checks.parse_strict(bad), 3)


def test_failed_fit_rate_at_k_star_is_rejected(reports):
    k_star = _get(reports["calibrate"], ("result", "details", "k_star"))
    bad = _corrupt(reports["calibrate"], ("result", "details", "fit_rates", str(k_star)), 0.0)
    with pytest.raises(checks.CheckError, match="k_star"):
        checks.check_calibrate(checks.parse_strict(bad), 3)


def test_wrong_R_is_rejected(reports):
    R = _get(reports["orderorder"], ("result", "R"))
    bad = _corrupt(reports["orderorder"], ("result", "R"), R * 1.001)
    with pytest.raises(checks.CheckError, match="chain_K"):
        checks.check_orderorder(checks.parse_strict(bad), 3)


def test_wilson_bounds_match_textbook_values():
    assert checks.wilson_bounds(0, 10) == pytest.approx((0.0, 0.27753), abs=1e-5)
    assert checks.wilson_bounds(10, 10) == pytest.approx((0.72247, 1.0), abs=1e-5)
    assert checks.wilson_bounds(5, 10) == pytest.approx((0.23659, 0.76341), abs=1e-5)


def test_differing_repeats_are_rejected(reports, capsys):
    workload = run.WORKLOADS["orderorder-sharp"]
    text = reports["orderorder"]
    assert run.check_reports(workload, [text, text], 3)
    assert not run.check_reports(workload, [text, text.replace("400", "401", 1)], 3)
    assert "different reports" in capsys.readouterr().err


def test_self_time_subtracts_child_spans():
    spans = [["cli.main", -1, 0.0, 10.0, 0.0, {}],
             ["montecarlo.verify_embedding", 0, 1.0, 9.0, 5.0, {}],
             ["norms.lorentz_norm_columns", 1, 2.0, 5.0, 0.0,
              {"columns": 4, "entries": 40, "entries_sorted": 40}],
             ["norms.lorentz_norm_columns", 1, 6.0, 7.0, 0.0,
              {"columns": 4, "entries": 40, "entries_sorted": 0}]]
    report = {"config": {"n": 10, "trials": 4}}
    m = run.layer_metrics({"spans": spans, "generators": 7}, report)
    assert m["cli.main.self_s"] == 2.0
    assert m["montecarlo.verify_embedding.self_s"] == 4.0
    assert m["norms.lorentz_norm_columns.self_s"] == 4.0
    assert m["norms.lorentz_norm_columns.calls"] == 2
    assert m["norms.lorentz_norm_columns.columns"] == 8
    assert m["norms.lorentz_norm_columns.entries_sorted"] == 40
    assert m["norms.lorentz_norm_columns.ns_per_entry"] == 4.0 * 1e9 / 80
    assert m["sharp.sorts_per_sample"] == 0.0
    assert m["streams.generators"] == 7
    assert set(m) | {"trace.overhead_s"} == set(run.PER_LAYER)


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == [Path(__file__).parent.name]
