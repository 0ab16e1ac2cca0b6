import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lorentz_embed
from lorentz_embed import cli
from lorentz_embed.analytic import TwoSidedBound
from lorentz_embed.cli import UsageError, _build_parser, _merge_config, main
from lorentz_embed.embedding import DistortionReport
from lorentz_embed.montecarlo import EstimatorResult
from lorentz_embed.streams import RandomStream


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestBound:
    def test_bound_stdout_json(self, capsys):
        code, out, err = run(["bound", "--r", "0", "--p", "3", "--n", "10000",
                              "--eps", "0.1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["case"]["figure1"] == "ia"
        assert report["result"]["E"] > 0.0
        assert report["result"]["F"] > 0.0
        assert report["result"]["k_max"] >= 1

    def test_ellinfty_regime_above_r_one(self, capsys):
        argv = ["bound", "--p", "3", "--n", "10000", "--eps", "0.1"]
        code, out, _ = run(argv + ["--r", "1.5"], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["d_prime"] is None
        for values in (result["shape_values"], result["ledger_values"]):
            assert values["ellinfty"]["applicable"] is True
            # eps ln n / ln(1/eps) = 0.1 ln(10^4) / ln 10
            assert values["ellinfty"]["k_bound"] == pytest.approx(0.4, rel=1e-12)
        code, out, _ = run(argv + ["--r", "0"], capsys)
        result = json.loads(out)["result"]
        assert "ellinfty" not in result["shape_values"]
        assert "ellinfty" not in result["ledger_values"]

    def test_bound_missing_eps(self, capsys):
        code, out, err = run(["bound", "--r", "0", "--p", "3", "--n", "100"],
                             capsys)
        assert code == 1
        assert "eps" in err


class TestClassify:
    def test_classify_region_iv(self, capsys):
        code, out, err = run(["classify", "--r", "0.3", "--p", "1.4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["figure1"] == "iv"
        assert report["result"]["orderorder"] in {"IVa", "IVb"}


class TestSeedHandling:
    def test_simulate_requires_seed(self, capsys):
        code, out, err = run(["simulate", "--r", "0", "--p", "2",
                              "--n", "50", "--k", "3"], capsys)
        assert code == 1
        assert "master_seed" in err

    def test_bound_does_not_require_seed(self, capsys):
        code, _, _ = run(["bound", "--r", "0.2", "--p", "1.5", "--n", "1000",
                          "--eps", "0.2"], capsys)
        assert code == 0


class TestReproducibility:
    def test_simulate_reports_byte_identical(self, tmp_path, capsys):
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for path in paths:
            code, _, _ = run(["simulate", "--r", "0.3", "--p", "1.5",
                              "--n", "50", "--k", "3", "--seed", "7",
                              "--samples", "200", "--directions", "500",
                              "--output", path], capsys)
            assert code == 0
        a = open(paths[0], "rb").read()
        b = open(paths[1], "rb").read()
        assert a == b

    def test_timestamp_in_sidecar_not_report(self, tmp_path, capsys):
        path = str(tmp_path / "r.json")
        code, _, _ = run(["bound", "--r", "0", "--p", "2", "--n", "100",
                          "--eps", "0.2", "--output", path], capsys)
        assert code == 0
        assert "written_at" not in open(path).read()
        meta = load_report(path + ".meta.json")
        assert "written_at_unix" in meta


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 0.0, "p": 2.0, "n": 100, "eps": 0.3}))
        code, out, _ = run(["--config", str(cfg), "bound", "--eps", "0.1"],
                           capsys)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["eps"] == 0.1
        assert report["config"]["n"] == 100

    def test_weights_file(self, tmp_path, capsys):
        wf = tmp_path / "weights.txt"
        wf.write_text("".join(f"{1.0 / (i + 1):.17g}\n" for i in range(20)))
        code, out, _ = run(["simulate", "--weights-file", str(wf),
                            "--p", "2", "--k", "2", "--seed", "3",
                            "--samples", "200", "--directions", "100"],
                           capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["max_rel_dev"] >= 0.0

    def test_weights_file_sha256(self, tmp_path, monkeypatch, capsys):
        argv = ["simulate", "--weights-file", "weights.txt", "--p", "2",
                "--k", "2", "--seed", "3", "--samples", "200",
                "--directions", "100"]
        outs = []
        for name, content in (("a", "1\n0.5\n0.25\n"), ("b", "1\n0.5\n0.5\n")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "weights.txt").write_text(content)
            monkeypatch.chdir(tmp_path / name)
            code, out, _ = run(argv, capsys)
            assert code == 0
            config = json.loads(out)["config"]
            assert config["weights_file"] == "weights.txt"
            assert config["weights_file_sha256"] == \
                hashlib.sha256(content.encode()).hexdigest()
            outs.append(out)
        assert json.loads(outs[0])["config"]["weights_file_sha256"] != \
            json.loads(outs[1])["config"]["weights_file_sha256"]
        assert run(argv, capsys)[1] == outs[1]

    def test_no_weights_file_no_hash(self, capsys):
        code, out, _ = run(["simulate", "--r", "0", "--p", "2", "--n", "20",
                            "--k", "2", "--seed", "3", "--samples", "200",
                            "--directions", "100"], capsys)
        assert code == 0
        assert "weights_file_sha256" not in json.loads(out)["config"]

    def test_r_and_weights_file_conflict(self, tmp_path, capsys):
        wf = tmp_path / "weights.txt"
        wf.write_text("1.0\n0.5\n")
        code, _, err = run(["simulate", "--r", "0", "--weights-file", str(wf),
                            "--p", "2", "--k", "1", "--seed", "1"], capsys)
        assert code == 1
        assert "exactly one" in err


class TestExitCodes:
    def test_verify_min_success_assertion_failure(self, capsys):
        # eps tiny enough that a k = 4 Gaussian embedding into n = 50
        # essentially never achieves it, so ci_low < min_success
        code, out, _ = run(["verify", "--kind", "embedding", "--r", "0",
                            "--p", "2", "--n", "50", "--k", "4",
                            "--eps", "0.01", "--seed", "5", "--trials", "20",
                            "--directions", "500", "--min-success", "0.99"],
                           capsys)
        assert code == 2

    def test_verify_orderorder_ok(self, capsys):
        code, out, _ = run(["verify", "--kind", "orderorder", "--case", "I",
                            "--r", "0.3", "--p", "2", "--n", "200",
                            "--t", "3", "--seed", "6", "--trials", "1000"],
                           capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["implication_violations"] == 0

    def test_internal_invariant_exits_3(self, monkeypatch, capsys):
        def inconsistent(G, params, M, dirs, test_mode):
            return DistortionReport(M, 0.1, {0.5: 0.2}, dirs.shape[1], test_mode)

        monkeypatch.setattr(cli, "measure_distortion", inconsistent)
        code, out, err = run(["simulate", "--r", "0", "--p", "2", "--n", "20",
                              "--k", "2", "--seed", "3", "--samples", "200",
                              "--directions", "100"], capsys)
        assert code == 3
        assert out == ""
        assert "Traceback" in err
        assert "RuntimeError: quantile exceeds reported maximum" in err

    @pytest.mark.parametrize("build", [
        lambda: EstimatorResult(2.0, 0.0, 1.0, 100),
        lambda: DistortionReport(1.0, 0.1, {0.5: 0.2}, 10, "grid2d"),
        lambda: TwoSidedBound(2.0, 1.0, 1.0, ()),
    ], ids=["EstimatorResult", "DistortionReport", "TwoSidedBound"])
    def test_invariants_raise_runtime_error(self, build):
        with pytest.raises(RuntimeError):
            build()

    @pytest.mark.parametrize("argv, field", [
        (["verify", "--kind", "embedding", "--r", "0", "--p", "2", "--n", "20",
          "--k", "2", "--eps", "1.5", "--seed", "1"], "eps"),
        (["calibrate", "--bound-name", "embedding_dimension", "--r", "0",
          "--p", "2", "--n", "20", "--eps", "1.5", "--seed", "1",
          "--validation-seed", "2"], "eps"),
        (["calibrate", "--target", "two_sided_ratio", "--bound-name",
          "power_log_sum", "--grid-file", "grid.json", "--seed", "4",
          "--validation-seed", "4"], "validation"),
    ])
    def test_bad_field_still_exits_1(self, argv, field, tmp_path,
                                     monkeypatch, capsys):
        (tmp_path / "grid.json").write_text("[[0.0, 0.0, 100]]")
        monkeypatch.chdir(tmp_path)
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err

    def test_cli_imports_no_scipy(self):
        # scipy is imported lazily, only by calibrate's quadrature oracles
        code = ("import lorentz_embed.cli, sys; print(any(m == 'scipy' or "
                "m.startswith('scipy.') for m in sys.modules))")
        src = str(Path(lorentz_embed.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_unknown_command_usage_error(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 1

    def test_no_command_usage_error(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 1


class TestLedgerFile:
    def test_bound_reads_c_dim(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps({"c_dim": 2}))
        argv = ["bound", "--r", "0", "--p", "3", "--n", "10000", "--eps", "0.1"]
        _, out, _ = run(argv, capsys)
        code, out2, _ = run(argv + ["--ledger-file", str(ledger)], capsys)
        assert code == 0
        report, report2 = json.loads(out), json.loads(out2)
        assert report2["ledger"]["c_dim"] == 2
        assert report2["result"]["d"] == 2.0 * report["result"]["d"]

    def test_verify_orderorder_reads_c_sharp(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps({"C_sharp": 2}))
        # case II: S = C_sharp * (a sum that does not depend on the ledger)
        argv = ["verify", "--kind", "orderorder", "--case", "II", "--r", "0.3",
                "--p", "1.2", "--n", "200", "--t", "3", "--seed", "6",
                "--trials", "200"]
        _, out, _ = run(argv, capsys)
        code, out2, _ = run(argv + ["--ledger-file", str(ledger)], capsys)
        assert code == 0
        report, report2 = json.loads(out), json.loads(out2)
        assert report2["ledger"]["C_sharp"] == 2
        assert report2["result"]["S"] == 2.0 * report["result"]["S"]
        assert report2["result"]["implication_violations"] == 0

    @pytest.mark.parametrize("argv", [
        ["classify", "--r", "0.3", "--p", "1.4"],
        ["simulate", "--r", "0", "--p", "2", "--n", "50", "--k", "2", "--seed", "1"],
        ["verify", "--kind", "embedding", "--r", "0", "--p", "2", "--n", "50",
         "--k", "2", "--eps", "0.2", "--seed", "1"],
        ["calibrate", "--bound-name", "embedding_dimension", "--r", "0",
         "--p", "1.5", "--n", "100", "--eps", "0.2", "--seed", "1",
         "--validation-seed", "2"],
        ["probe", "--r", "0", "--p", "2", "--n", "50",
         "--eps-grid", "0.17,0.2,0.24,0.28", "--seed", "1"],
    ])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_rejected_where_not_read(self, argv, via_config, tmp_path, capsys):
        command = " ".join(argv[:3]) if argv[0] == "verify" else argv[0]
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps({"c_dim": 2}))
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"ledger_file": str(ledger)}))
            argv = ["--config", str(cfg)] + argv
        else:
            argv = argv + ["--ledger-file", str(ledger)]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert f"ledger_file is not read by {command}" in err

    @pytest.mark.parametrize("content, field", [
        ([1, 2], "ledger_file"),
        ({"c_dim": "2"}, "c_dim"),
        ({"c_dim": None}, "c_dim"),
        ({"c_dim": True}, "c_dim"),
        ({"C_gauss": 5}, "unknown constant name: 'C_gauss'"),
    ], ids=["list", "string", "null", "bool", "unread-constant"])
    def test_malformed_file_names_the_field(self, content, field, tmp_path, capsys):
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps(content))
        code, out, err = run(["bound", "--r", "0", "--p", "3", "--n", "100",
                              "--eps", "0.1", "--ledger-file", str(ledger)], capsys)
        assert code == 1
        assert out == ""
        assert field in err


class TestCalibrateAndProbe:
    def test_calibrate_two_sided_ratio(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([[0.0, 0.0, 100], [0.0, 0.0, 1000]]))
        code, out, _ = run(["calibrate", "--bound-name", "power_log_sum",
                            "--target", "two_sided_ratio",
                            "--grid-file", str(grid), "--seed", "1",
                            "--validation-seed", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert 0.5 < report["result"]["fitted_constant"] < 2.0

    def test_calibrate_requires_validation_seed(self, capsys):
        code, _, err = run(["calibrate", "--bound-name", "power_log_sum",
                            "--target", "two_sided_ratio", "--seed", "1"],
                           capsys)
        assert code == 1
        assert "validation_seed" in err

    def test_probe_bad_grid(self, capsys):
        code, _, err = run(["probe", "--r", "0", "--p", "2", "--n", "50",
                            "--eps-grid", "0.1,0.2", "--seed", "4",
                            "--trials", "5", "--directions", "100"], capsys)
        assert code == 1
        assert "grid too small" in err

    def test_grid_file_must_hold_lists(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([1, 2]))
        code, out, err = run(["calibrate", "--bound-name", "power_log_sum",
                              "--target", "two_sided_ratio",
                              "--grid-file", str(grid), "--seed", "1",
                              "--validation-seed", "2"], capsys)
        assert code == 1
        assert out == ""
        assert "grid_file" in err

    def test_config_eps_grid_must_be_a_list(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps_grid": 5, "r": 0, "p": 2, "n": 50,
                                   "master_seed": 1}))
        code, out, err = run(["--config", str(cfg), "probe"], capsys)
        assert code == 1
        assert out == ""
        assert "eps_grid" in err

    def test_probe_nan_slope_is_strict_json(self, capsys):
        # every k* sits at the cap, so the slope is undefined: null, not NaN
        code, out, _ = run(["probe", "--r", "0", "--p", "4", "--n", "4",
                            "--eps-grid", "0.12,0.16,0.22,0.3", "--seed", "44",
                            "--trials", "5", "--directions", "200"], capsys)
        assert code == 0

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        result = json.loads(out, parse_constant=reject)["result"]
        assert result["inconclusive"]
        assert result["slope"] is None


def write_json(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestOptionTable:
    def test_bound_rejects_weights_file(self, tmp_path, capsys):
        wf = tmp_path / "weights.txt"
        wf.write_text("1.0\n0.5\n")
        code, out, err = run(["bound", "--r", "0", "--p", "3", "--n", "100",
                              "--eps", "0.1", "--weights-file", str(wf)], capsys)
        assert code == 1
        assert out == ""
        assert "weights_file is not read by bound" in err

    def test_config_value_beats_default(self, tmp_path, capsys):
        argv = ["verify", "--kind", "orderorder", "--case", "I", "--r", "0.3",
                "--p", "2", "--n", "200", "--seed", "6", "--trials", "200"]
        _, out, _ = run(argv + ["--t", "2"], capsys)
        cfg = write_json(tmp_path, {"t": 2.0})
        code, out2, _ = run(["--config", cfg] + argv, capsys)
        assert code == 0
        report, report2 = json.loads(out), json.loads(out2)
        assert report2["config"]["t"] == 2.0
        assert report2["result"]["S"] == report["result"]["S"]
        _, out3, _ = run(argv, capsys)
        assert json.loads(out3)["result"]["S"] != report["result"]["S"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--r", "0", "--p", "2", "--n", "50", "--k", "2", "--samples", "0"],
        ["simulate", "--r", "0", "--p", "2", "--n", "50", "--k", "2", "--directions", "0"],
        ["verify", "--kind", "orderorder", "--case", "I", "--r", "0.3", "--p", "2",
         "--n", "50", "--trials", "0"],
        ["verify", "--kind", "embedding", "--r", "0", "--p", "2", "--n", "50",
         "--k", "2", "--eps", "0.2", "--trials", "0"],
        ["verify", "--kind", "embedding", "--r", "0", "--p", "2", "--n", "50",
         "--k", "2", "--eps", "0.2", "--directions", "0"],
        ["calibrate", "--bound-name", "embedding_dimension", "--r", "0", "--p", "1.5",
         "--n", "100", "--eps", "0.2", "--validation-seed", "2", "--trials", "0"],
        ["calibrate", "--bound-name", "embedding_dimension", "--r", "0", "--p", "1.5",
         "--n", "100", "--eps", "0.2", "--validation-seed", "2", "--directions", "0"],
        ["probe", "--r", "0", "--p", "2", "--n", "50",
         "--eps-grid", "0.17,0.2,0.24,0.28", "--trials", "0"],
        ["probe", "--r", "0", "--p", "2", "--n", "50",
         "--eps-grid", "0.17,0.2,0.24,0.28", "--directions", "0"],
    ])
    def test_zero_count_exits_before_sampling(self, argv, monkeypatch, capsys):
        def no_draws(self):
            raise AssertionError("sampled before the zero count was rejected")

        monkeypatch.setattr(RandomStream, "generator", no_draws)
        name = argv[-2].lstrip("-")
        code, out, err = run(argv + ["--seed", "1"], capsys)
        assert code == 1
        assert out == ""
        assert name in err

    def test_calibrate_checks_eps_before_sampling(self, monkeypatch, capsys):
        def no_draws(self):
            raise AssertionError("sampled before eps was rejected")

        monkeypatch.setattr(RandomStream, "generator", no_draws)
        code, out, err = run(["calibrate", "--bound-name", "embedding_dimension",
                              "--r", "0", "--p", "1.5", "--n", "2000", "--eps", "1.5",
                              "--seed", "1", "--validation-seed", "2",
                              "--trials", "4", "--directions", "100"], capsys)
        assert code == 1
        assert out == ""
        assert "eps" in err

    @pytest.mark.parametrize("given, message", [
        ({"n": "100"}, "n must be an integer, got '100'"),
        ({"n": 100.5}, "n must be an integer, got 100.5"),
        ({"eps": True}, "eps must be a number, got True"),
    ])
    def test_config_value_of_wrong_type(self, given, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 0, "p": 2, "n": 100, "eps": 0.1, **given}))
        code, _, err = run(["--config", str(cfg), "bound"], capsys)
        assert code == 1
        assert message in err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path, {"foo": 1})
        code, out, err = run(["--config", cfg, "classify", "--r", "0.3",
                              "--p", "1.4"], capsys)
        assert code == 1
        assert out == ""
        assert "foo is not read by classify" in err

    def test_unknown_target_in_config(self, tmp_path, capsys):
        cfg = write_json(tmp_path, {"target": "bogus"})
        code, out, err = run(["--config", cfg, "calibrate", "--bound-name",
                              "power_log_sum", "--seed", "1"], capsys)
        assert code == 1
        assert out == ""
        assert "unknown target: bogus" in err

    def test_null_falls_back_to_echoed_default(self, tmp_path, capsys):
        cfg = write_json(tmp_path, {"trials": None})
        code, out, _ = run(["--config", cfg, "verify", "--kind", "orderorder",
                            "--case", "I", "--r", "0.3", "--p", "2", "--n", "50",
                            "--seed", "6"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["trials"] == 10 ** 4
        assert report["result"]["trials"] == 10 ** 4

    def test_two_sided_ratio_rejects_trials(self, tmp_path, capsys):
        grid = write_json(tmp_path, [[0.0, 0.0, 100]], "grid.json")
        code, out, err = run(["calibrate", "--bound-name", "power_log_sum",
                              "--target", "two_sided_ratio", "--grid-file", grid,
                              "--seed", "1", "--validation-seed", "2",
                              "--trials", "5"], capsys)
        assert code == 1
        assert out == ""
        assert "trials is not read by calibrate --target two_sided_ratio" in err

    def test_verify_embedding_echoes_no_t(self, capsys):
        code, out, _ = run(["verify", "--kind", "embedding", "--r", "0", "--p", "2",
                            "--n", "50", "--k", "2", "--eps", "0.3", "--seed", "1",
                            "--trials", "5", "--directions", "100"], capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert "t" not in config
        assert config["trials"] == 5 and config["directions"] == 100

    def test_verify_embedding_rejects_t(self, capsys):
        code, _, err = run(["verify", "--kind", "embedding", "--r", "0", "--p", "2",
                            "--n", "50", "--k", "2", "--eps", "0.3", "--seed", "1",
                            "--t", "3"], capsys)
        assert code == 1
        assert "t is not read by verify --kind embedding" in err

    def test_classify_echoes_default_n(self, capsys):
        code, out, _ = run(["classify", "--r", "0.3", "--p", "1.4"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["n"] == 10 ** 4

    def test_n_with_weights_file(self, tmp_path, capsys):
        wf = tmp_path / "weights.txt"
        wf.write_text("1.0\n0.5\n")
        code, out, err = run(["simulate", "--weights-file", str(wf), "--n", "7",
                              "--p", "2", "--k", "1", "--seed", "1"], capsys)
        assert code == 1
        assert out == ""
        assert "n is set by weights_file" in err

    @pytest.mark.parametrize("content", [[1], "r", 3])
    def test_config_must_be_object(self, content, tmp_path, capsys):
        cfg = write_json(tmp_path, content)
        code, out, err = run(["--config", cfg, "classify", "--r", "0.3",
                              "--p", "1.4"], capsys)
        assert code == 1
        assert out == ""
        assert "config must be a JSON object" in err

    def test_help_lists_only_read_options(self, capsys):
        code, out, _ = run(["bound", "--help"], capsys)
        assert code == 0
        assert "--eps" in out and "--ledger-file" in out
        assert "--seed" not in out and "--weights-file" not in out


def readme_commands():
    """The lorentz-embed commands of the README's CLI block, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("lorentz-embed ")]


def test_readme_commands_resolve():
    commands = readme_commands()
    assert len(commands) == 7
    for argv in commands:
        args = _build_parser().parse_args(argv)
        try:
            config = _merge_config(args)
        except UsageError as exc:
            pytest.fail(f"{shlex.join(argv)}: {exc}")
        assert config["command"] == argv[0]
