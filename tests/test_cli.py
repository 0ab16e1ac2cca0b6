import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lorentz_embed
from lorentz_embed import cli, norms
from lorentz_embed.cli import UsageError, _build_parser, _merge_config, main
from lorentz_embed.constants import KNOWN_CONSTANTS
from lorentz_embed.embedding import DistortionReport
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

    @pytest.mark.parametrize("point", [
        "--r 0 --p 150 --n 10", "--r 0.7 --p 150 --n 10", "--r 1 --p 150 --n 10",
        "--r 1.5 --p 2000 --n 10000",
    ])
    def test_overflow_names_p_without_traceback(self, point, capsys):
        # lomain_EF overflows at p 150; at p 2000, d is inf and d_general nan
        code, out, err = run(["bound", *point.split(), "--eps", "0.1"], capsys)
        assert code == 1 and out == ""
        assert "p = " in err and "overflows" in err
        assert "Traceback" not in err and "Warning" not in err


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
        assert err == "error: missing required option: master_seed (pass --seed)\n"

    @pytest.mark.parametrize("argv, message", [
        (["bound", "--r", "0", "--p", "3"], "missing required options: n, eps"),
        (["probe", "--r", "0", "--p", "2", "--n", "50"],
         "missing required options: eps_grid, master_seed (pass --seed)"),
        (["calibrate", "--bound-name", "power_log_sum", "--target",
          "two_sided_ratio"],
         "missing required options: grid_file, master_seed (pass --seed), "
         "validation_seed"),
    ])
    def test_missing_options_named_together(self, argv, message, monkeypatch,
                                            capsys):
        def no_draws(self):
            raise AssertionError("sampled before the missing options were named")

        monkeypatch.setattr(RandomStream, "generator", no_draws)
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_bound_does_not_require_seed(self, capsys):
        code, _, _ = run(["bound", "--r", "0.2", "--p", "1.5", "--n", "1000",
                          "--eps", "0.2"], capsys)
        assert code == 0


# sha256 of the report of each command, as written with numpy 2.4.6 (the
# version reports/ was written with); weights.txt holds 1, 0.5, 0.25, 0.125
REPORT_SHA256 = {
    "bound --r 0 --p 3 --n 10000 --eps 0.1":
        "ef55f963d129c68712ba62dd569abd7590c0f111bb75f32155f3d7dcd1177b35",
    "bound --r 0.3 --p 1.4 --n 10000 --eps 0.1":
        "3fa0ea20151ac81eee91feb8596b2aae7a16cff60dfdde19c29fa6b5471cdf42",
    "bound --r 1.5 --p 2 --n 10000 --eps 0.1":
        "d9e45647ad5794a3e151a0fd7c4f07b64ca43f979d4566d92f919d1ebe12d298",
    "bound --r 0 --p 100 --n 10 --eps 0.1":
        "3934569e6c4373234c645d42fabc968d13e8718f664387e2feadf3507d83ed8e",
    "bound --r 1 --p 2 --n 10000 --eps 0.1":
        "08d48720537909884070a1f8fa6995803aa1d7fc90b8ef3ef44caef58234c7fe",
    "bound --r 0.5 --p 1.2 --n 10000 --eps 0.1":
        "20b4d3e3e3ee1e0cbd1f62115e40b8c122fa376e847e430545626d1a3b4ef27d",
    "classify --r 0.3 --p 1.4":
        "999de173a7565f6399aded08f89857cc7fbeb35b426a48eb15ca7412151e6f7b",
    "simulate --r 0.3 --p 1.5 --n 1000 --k 4 --seed 7":
        "cf6fa68c55d285bcd74506d2a57357f198e569c514026fbf7562b5bf8a94c0ff",
    "simulate --r 0.3 --p 1.5 --n 1000 --k 2 --seed 7 --mode grid2d":
        "73e752486b20977bbebe01f74c37787f086d19ee09d6bc40d009480b80b7c2c3",
    "verify --kind orderorder --case I --r 0.3 --p 2 --n 10000 --t 3 --seed 1":
        "77352c1d6e8a89c8c5868eaa91c0d9ad8c38408184ca0d6e29be58fb650b7779",
    "probe --r 0 --p 2 --n 100 --eps-grid 0.17,0.2,0.24,0.28 --seed 33":
        "c717fd5c266ae81a8566dc5a25d1544f8195a3bd969a4bcc00c00ea9ec188379",
    "probe --r 0 --p 2 --n 30 --eps-grid 0.06,0.07,0.08,0.09 --trials 5 "
    "--directions 50 --seed 1":
        "ee40f36501926f1764d2ad35c78eeb1ad7589c0cc2c1d2bfb21c5fe06e8eb9ca",
    "calibrate --bound-name embedding_dimension --r 0 --p 1.5 --n 2000 --eps 0.2 "
    "--seed 101 --validation-seed 202 --trials 4 --directions 2000":
        "62aed6b26627260467e3ed4db27d9edfa6ab413b792cd1cd92a60862dc82e886",
    "verify --kind embedding --r 0.3 --p 1.5 --n 2000 --k 8 --eps 0.2 --seed 1 "
    "--trials 10 --directions 4000":
        "e81bd299a54c3a01e5c894cc6afeafef1ef39d4ba6b8ac52587792b7fdbf5cc2",
    "verify --kind embedding --r 0.3 --p 1.5 --n 2000 --k 1 --eps 0.2 --seed 1 "
    "--trials 10 --directions 4000":
        "d0d6b30d5ede723fd25a451bc275f510dcc215c36352fb8f2e5981450060b6ed",
    "calibrate --bound-name embedding_dimension --r 0.3 --p 1.5 --n 2000 --eps 0.2 "
    "--seed 101 --validation-seed 202 --trials 4 --directions 2000":
        "813ade6592b0287441bef640dac1da46d7323a2207e3aaa4701557afd0c71cbb",
    "simulate --weights-file weights.txt --p 2 --k 2 --seed 3 --samples 200 "
    "--directions 100":
        "477c9387b3e861b993d2c46c043dd4e3312050981020379cfd0e380c96d913f9",
    "calibrate --bound-name power_log_sum --target two_sided_ratio "
    "--grid-file log_sum.json --seed 5 --validation-seed 6":
        "0a067a0973b6216154a04c1ecf78ed6969d337cb15171b239c4e116eac97a713",
    "calibrate --bound-name incomplete_gamma_decay --target two_sided_ratio "
    "--grid-file gamma.json --seed 5 --validation-seed 6":
        "6928e98e4fa26494c27c92c6244d0b7d1f2b536249a8ce47c7b0a385e4534d6f",
    "calibrate --bound-name incomplete_gamma_growth --target two_sided_ratio "
    "--grid-file gamma.json --seed 5 --validation-seed 6":
        "d37f478a487c31fc17d041fd8489362a8d5a19c1ce9d34498c70e9c5b75f7727",
    "calibrate --bound-name power_integral --target two_sided_ratio "
    "--grid-file integral.json --seed 5 --validation-seed 6":
        "e92da0743c7302123a9bab6e63b282a00d17d23a2152419c3fe771581257ce8c",
    "calibrate --bound-name median_psi --target two_sided_ratio "
    "--grid-file median_psi.json --seed 5 --validation-seed 6":
        "0a2e86227830c104b4ba1aa5ade6de45fbf3f805b22d946cd638f32470b80d85",
}
# the grid files of the two-sided calibrations above
GRID_FILES = {"log_sum.json": [[0, 0, 100], [0.5, 1, 1000], [2, 1, 10000]],
              "gamma.json": [[2, 1], [5, 0.5], [0.5, 3]],
              "integral.json": [[0.3, 10], [1, 100], [2, 1000]],
              "median_psi.json": [[0.3, 1.5, 100], [0.5, 2, 300], [1.2, 1.1, 50]]}


@pytest.mark.usefixtures("kernel_workers")
@pytest.mark.parametrize("command", REPORT_SHA256)
def test_report_bytes_pinned(command, tmp_path, monkeypatch, capsys):
    """The report of each command holds the same bytes as when it was pinned,
    at the default kernel worker count and at one. The digests hold for
    numpy 2.4.6, as reports/ does; the weights and grid files are given by
    relative paths because the paths are echoed in the config."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weights.txt").write_text("1\n0.5\n0.25\n0.125\n")
    for name, grid in GRID_FILES.items():
        (tmp_path / name).write_text(json.dumps(grid))
    code, _, _ = run(command.split() + ["--output", "report.json"], capsys)
    assert code == 0
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == REPORT_SHA256[command]


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


    def test_sidecar_records_threads_and_numpy(self, tmp_path, capsys):
        path = str(tmp_path / "v.json")
        code, _, _ = run(["verify", "--kind", "embedding", "--r", "0", "--p", "1.5",
                          "--n", "500", "--k", "3", "--eps", "0.3", "--seed", "1",
                          "--trials", "2", "--directions", "600",
                          "--output", path], capsys)
        assert code == 0
        meta = load_report(path + ".meta.json")
        assert meta["kernel_workers"] == norms._WORKERS >= 1
        assert meta["numpy_version"] == np.__version__
        threads = meta["blas_threads"]
        if norms._openblas() is None:
            assert threads is None
        elif norms._WORKERS > 1:  # the run made the kernel's pool
            assert threads == 1
        else:
            assert isinstance(threads, int) and threads >= 1
        assert "blas_threads" not in open(path).read()


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
        lambda: DistortionReport(1.0, 0.1, {0.5: 0.2}, 10, "grid2d"),
    ], ids=["DistortionReport"])
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

    @pytest.mark.parametrize("argv", [
        ["simulate", "--samples", "100", "--directions", "10"],
        ["verify", "--kind", "embedding", "--eps", "0.2", "--trials", "2",
         "--directions", "10"],
    ], ids=["simulate", "verify"])
    def test_overflowing_p_exits_1_naming_p(self, argv):
        # |x|^1000 overflows a float; the kernel's tasks, some on pool threads
        # with their own numpy error state, must print no RuntimeWarning
        src = str(Path(lorentz_embed.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "lorentz_embed.cli", *argv,
                               "--r", "0", "--p", "1000", "--n", "1000", "--k", "2",
                               "--seed", "1"], env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("error: a power sum at exponent 1000.0 overflows "
                               "a float: p is too large for these inputs\n")

    def test_cli_imports_no_scipy(self):
        # scipy is imported lazily, only by calibrate's quadrature oracles;
        # the norm kernel's thread pool is made on its first multi-block call
        code = ("import lorentz_embed.cli, sys, threading; print(any(m == 'scipy' or "
                "m.startswith('scipy.') for m in sys.modules), "
                "'concurrent.futures' in sys.modules, threading.active_count())")
        src = str(Path(lorentz_embed.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["False", "False", "1"]

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

    @pytest.mark.parametrize("name", KNOWN_CONSTANTS)
    def test_every_known_constant_moves_a_result(self, name, tmp_path, capsys):
        # a constant that no command's result reads would only be echoed
        bound = ["bound", "--p", "3", "--n", "10000", "--eps", "0.1", "--r"]
        argv = {"c2_ellinfty": bound + ["1.5"],
                "c_ellinfty_gate": bound + ["1.5"],
                "C_sharp": ["verify", "--kind", "orderorder", "--case", "II",
                            "--r", "0.3", "--p", "1.2", "--n", "200", "--t", "3",
                            "--seed", "6", "--trials", "200"]}.get(name, bound + ["0"])
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps({name: 5}))
        _, out, _ = run(argv, capsys)
        code, out2, _ = run(argv + ["--ledger-file", str(ledger)], capsys)
        assert code == 0
        report, report2 = json.loads(out), json.loads(out2)
        assert report2["ledger"][name] == 5
        assert report2["result"] != report["result"]

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
        ({"C_order": 1}, "unknown constant name: 'C_order'"),
        ({"c_order": 1}, "unknown constant name: 'c_order'"),
        ({"c_bound": 5}, "unknown constant name: 'c_bound'"),
        ({"C_bound": 7}, "unknown constant name: 'C_bound'"),
        ({"c_median_lower": 0.1}, "unknown constant name: 'c_median_lower'"),
        ({"C_median_upper": 9}, "unknown constant name: 'C_median_upper'"),
    ], ids=["list", "string", "null", "bool", "unread-constant", "C_order", "c_order",
            "c_bound", "C_bound", "c_median_lower", "C_median_upper"])
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

    @pytest.mark.parametrize("bound_name, point, message", [
        ("incomplete_gamma_growth", [1000, 1], "does not evaluate to finite numbers"),
        ("power_log_sum", [0, 2], "power_log_sum takes 3 values"),
        ("power_log_sum", [0, 0, 100.9], "n must be an integer"),
        ("median_psi", [0.3, 1.5, 100.5], "n must be an integer"),
    ], ids=["overflow", "arity", "fractional-n", "fractional-n-sampled"])
    def test_grid_point_the_oracle_cannot_evaluate(self, bound_name, point, message,
                                                    tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([point]))
        code, out, err = run(["calibrate", "--bound-name", bound_name,
                              "--target", "two_sided_ratio",
                              "--grid-file", str(grid), "--seed", "1",
                              "--validation-seed", "2"], capsys)
        assert code == 1
        assert out == ""
        assert f"grid_file point {point}: " in err and message in err

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
        ["verify", "--kind", "orderorder", "--case", "I", "--r", "0.3", "--p", "2",
         "--n", "50", "--trials", "-5"],
        ["simulate", "--r", "0", "--p", "2", "--n", "50", "--k", "2", "--samples", "-5"],
        ["verify", "--kind", "embedding", "--r", "0", "--p", "2", "--n", "50",
         "--k", "2", "--eps", "0.2", "--directions", "-5"],
        ["simulate", "--r", "0", "--p", "2", "--n", "50", "--k", "0"],
        ["verify", "--kind", "embedding", "--r", "0", "--p", "2", "--n", "50",
         "--eps", "0.2", "--k", "51"],
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

    ORDERORDER = ["verify", "--kind", "orderorder", "--case", "I", "--r", "0.3",
                  "--p", "2", "--n", "50", "--trials", "10"]
    EMBEDDING = ["verify", "--kind", "embedding", "--r", "0", "--p", "2", "--n", "50",
                 "--k", "2", "--trials", "2", "--directions", "10"]

    @pytest.mark.parametrize("argv, config, message", [
        (ORDERORDER + ["--t", "nan"], {}, "t must be finite, got nan"),
        (ORDERORDER + ["--t", "inf"], {}, "t must be finite, got inf"),
        (ORDERORDER, {"t": float("nan")}, "t must be finite, got nan"),
        (ORDERORDER, {"t": 10 ** 400}, "t must be finite, got 1000"),
        (EMBEDDING + ["--eps", "0.2", "--min-success", "nan"], {},
         "min_success must be finite"),
        (EMBEDDING, {"eps": float("inf")}, "eps must be finite, got inf"),
        (EMBEDDING + ["--eps", "0.2", "--min-success", "1.5"], {},
         "min_success must lie in [0, 1]"),
        (EMBEDDING + ["--eps", "0.2", "--min-success", "-0.1"], {},
         "min_success must lie in [0, 1]"),
        (["probe", "--r", "0", "--p", "2", "--n", "50",
          "--eps-grid", "0.17,x,0.24,0.28"], {},
         "eps_grid entry is not a number: 'x'"),
        (["calibrate", "--bound-name", "embedding_dimension", "--r", "0", "--p", "1.5",
          "--n", "2000", "--eps", "0.2", "--validation-seed", "1"], {},
         "validation seed must be distinct from the fit seed"),
    ], ids=["t-nan", "t-inf", "config-t-nan", "config-t-huge", "min-success-nan",
            "config-eps-inf", "min-success-above-1", "min-success-below-0",
            "eps-grid-word", "validation-seed-equal"])
    def test_bad_float_exits_before_sampling(self, argv, config, message, tmp_path,
                                             monkeypatch, capsys):
        def no_draws(self):
            raise AssertionError("sampled before the bad value was rejected")

        monkeypatch.setattr(RandomStream, "generator", no_draws)
        if config:  # json writes NaN and Infinity, and json.load reads them
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = ["--config", str(cfg)] + argv
        code, out, err = run(argv + ["--seed", "1"], capsys)
        assert code == 1
        assert out == ""
        assert message in err

    def test_weights_file_names_the_bad_line(self, tmp_path, monkeypatch, capsys):
        def no_draws(self):
            raise AssertionError("sampled before the weights file was read")

        monkeypatch.setattr(RandomStream, "generator", no_draws)
        wf = tmp_path / "weights.txt"
        wf.write_text("1.0\n\n0.5\nhalf\n0.25\n")
        code, out, err = run(["simulate", "--weights-file", str(wf), "--p", "2",
                              "--k", "2", "--seed", "1"], capsys)
        assert code == 1
        assert out == ""
        assert "weights_file line 4 is not a number: 'half'" in err

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

    @pytest.mark.parametrize("field, argv", [
        ("grid_file", ["calibrate", "--target", "two_sided_ratio",
                       "--bound-name", "power_log_sum", "--seed", "1",
                       "--validation-seed", "2"]),
        ("ledger_file", ["bound", "--r", "0", "--p", "3", "--n", "100", "--eps", "0.1"]),
        ("weights_file", ["simulate", "--p", "2", "--k", "2", "--seed", "1"]),
        ("output", ["bound", "--r", "0", "--p", "3", "--n", "100", "--eps", "0.1"]),
    ])
    def test_path_option_must_be_a_string(self, field, argv, tmp_path, capsys):
        # open() would take an integer for a file descriptor
        cfg = write_json(tmp_path, {field: 12345})
        code, out, err = run(["--config", cfg] + argv, capsys)
        assert code == 1
        assert out == ""
        assert f"{field} must be a path string, got 12345" in err

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

    def test_help_lists_the_selector(self, capsys):
        code, out, _ = run(["verify", "--help"], capsys)
        assert code == 0
        assert "--kind" in out and "--target" not in out and "--bound-name" not in out
        code, out, _ = run(["calibrate", "--help"], capsys)
        assert "--target" in out and "--bound-name" in out and "--kind" not in out

    @pytest.mark.parametrize("argv, moved", [
        (ORDERORDER + ["--seed", "6"], ["--kind", "orderorder"]),
        (["calibrate", "--bound-name", "power_log_sum", "--target",
          "two_sided_ratio", "--grid-file", "grid.json", "--seed", "5",
          "--validation-seed", "6"], ["--bound-name", "power_log_sum"]),
        (["calibrate", "--bound-name", "power_log_sum", "--target",
          "two_sided_ratio", "--grid-file", "grid.json", "--seed", "5",
          "--validation-seed", "6"], ["--target", "two_sided_ratio"]),
    ], ids=["kind", "bound_name", "target"])
    def test_selector_from_config_gives_the_same_report(self, argv, moved,
                                                        tmp_path, monkeypatch,
                                                        capsys):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path, [[0.0, 0.0, 100], [0.5, 1, 1000]], "grid.json")
        code, out, _ = run(argv, capsys)
        assert code == 0
        i = argv.index(moved[0])
        cfg = write_json(tmp_path, {moved[0][2:].replace("-", "_"): moved[1]})
        code, out2, _ = run(["--config", cfg] + argv[:i] + argv[i + 2:], capsys)
        assert code == 0
        assert out2 == out

    def test_verify_names_a_missing_kind(self, capsys):
        code, out, err = run(self.ORDERORDER[:1] + self.ORDERORDER[3:] + ["--seed", "6"],
                             capsys)
        assert code == 1 and out == ""
        assert err == "error: missing required option: kind\n"

    def test_kind_is_not_read_by_bound(self, capsys):
        code, out, err = run(["bound", "--r", "0", "--p", "3", "--n", "100",
                              "--eps", "0.1", "--kind", "embedding"], capsys)
        assert code == 1 and out == ""
        assert err == "error: kind is not read by bound\n"

    @pytest.mark.parametrize("target", ["two_sided_ratio", "success_rate"])
    def test_list_bound_name_in_config(self, target, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path, [[0.0, 0.0, 100]], "grid.json")
        reads = {"two_sided_ratio": ["--grid-file", "grid.json"],
                 "success_rate": ["--r", "0", "--p", "1.5", "--n", "100",
                                  "--eps", "0.2"]}[target]
        cfg = write_json(tmp_path, {"bound_name": ["x"]})
        code, out, err = run(["--config", cfg, "calibrate", "--target", target,
                              "--seed", "1", "--validation-seed", "2", *reads],
                             capsys)
        assert code == 1 and out == ""
        assert ("unknown two-sided bound ['x']" if target == "two_sided_ratio"
                else "supports only bound_name embedding_dimension") in err


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
