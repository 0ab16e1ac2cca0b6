"""Batch command-line front-end: bounds, classification, simulation,
verification, calibration and the scaling probe, with JSON reports."""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .constants import DEFAULT_LEDGER, ConstantLedger
from .embedding import measure_distortion, sample_gaussian_matrix, test_directions
from .montecarlo import (calibrate, calibrate_embedding_dimension,
                         estimate_median_norm, scaling_probe, verify_embedding,
                         verify_orderorder)
from .params import LorentzParams, WeightSequence, power_params
from .regimes import classify_case, compute_bound_report
from .streams import RandomStream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2


class UsageError(Exception):
    pass


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_weights_file(path: str) -> WeightSequence:
    """One weight per line, validated against the weight-sequence invariants."""
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                values.append(float(line))
    return WeightSequence(np.array(values))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentz-embed",
        description="Random Gaussian embeddings into Lorentz sequence spaces: "
                    "dimension bounds, simulations and verifications.")
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    sub = parser.add_subparsers(dest="command")

    def add_common(sp, stochastic: bool):
        sp.add_argument("--r", type=float)
        sp.add_argument("--weights-file")
        sp.add_argument("--p", type=float)
        sp.add_argument("--n", type=int)
        sp.add_argument("--eps", type=float)
        sp.add_argument("--ledger-file")
        sp.add_argument("--output", help="report path (default: stdout)")
        if stochastic:
            sp.add_argument("--seed", type=int, dest="master_seed")
            sp.add_argument("--trials", type=int)
            sp.add_argument("--samples", type=int)
            sp.add_argument("--directions", type=int)

    sp = sub.add_parser("bound", help="compute every applicable dimension bound")
    add_common(sp, stochastic=False)

    sp = sub.add_parser("classify", help="classify (r, p) into its parameter regime")
    add_common(sp, stochastic=False)

    sp = sub.add_parser("simulate", help="sample one Gaussian matrix and measure distortion")
    add_common(sp, stochastic=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--mode", choices=["random_sphere", "grid2d"], default="random_sphere")

    sp = sub.add_parser("verify", help="run a verification suite")
    add_common(sp, stochastic=True)
    sp.add_argument("--kind", choices=["orderorder", "embedding"], required=True)
    sp.add_argument("--case")
    sp.add_argument("--t", type=float, default=3.0)
    sp.add_argument("--k", type=int)
    sp.add_argument("--min-success", type=float)

    sp = sub.add_parser("calibrate", help="fit a ledger constant with a held-out seed")
    add_common(sp, stochastic=True)
    sp.add_argument("--bound-name", required=True)
    sp.add_argument("--validation-seed", type=int)
    sp.add_argument("--grid-file", help="JSON list of grid points for ratio targets")
    sp.add_argument("--target", choices=["two_sided_ratio", "success_rate"],
                    default="success_rate")

    sp = sub.add_parser("probe", help="fit the eps-scaling exponent of k*(eps)")
    add_common(sp, stochastic=True)
    sp.add_argument("--eps-grid", help="comma-separated eps values")

    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    config = {}
    if args.config:
        config.update(_read_json(args.config))
    for key, value in vars(args).items():
        if key == "config":
            continue
        if value is not None:
            config[key] = value
    return config


def _require(config: dict, *names):
    for name in names:
        if config.get(name) is None:
            raise UsageError(f"missing required option: {name}")


def _get_params(config: dict) -> LorentzParams:
    has_r = config.get("r") is not None
    has_wf = config.get("weights_file") is not None
    if has_r == has_wf:
        raise UsageError("exactly one of r / weights_file must be given")
    _require(config, "p")
    if has_wf:
        return LorentzParams(_load_weights_file(config["weights_file"]), config["p"])
    _require(config, "n")
    return power_params(config["r"], config["p"], config["n"])


def _get_ledger(config: dict) -> ConstantLedger:
    """The ledger of --ledger-file, accepted only where a constant is read."""
    path = config.get("ledger_file")
    if path is None:
        return DEFAULT_LEDGER
    command = config["command"]
    if command == "verify":
        command += f" --kind {config['kind']}"
    if command not in ("bound", "verify --kind orderorder"):
        raise UsageError(f"ledger_file is not read by {command}")
    return ConstantLedger.from_json(path)


def _get_stream(config: dict) -> RandomStream:
    if config.get("master_seed") is None:
        raise UsageError("missing required option: master_seed (pass --seed)")
    return RandomStream(config["master_seed"])


def _emit(config: dict, ledger: ConstantLedger, payload: dict):
    """Write the report JSON; timestamps live in a sidecar metadata file."""
    resolved = {k: v for k, v in sorted(config.items())
                if k not in ("output",) and v is not None}
    report = {"config": resolved, "ledger": ledger.to_dict(), "result": payload}
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    out = config.get("output")
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        meta = {"written_at_unix": time.time(), "report_path": out}
        with open(out + ".meta.json", "w") as fh:
            fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text + "\n")


def _cmd_bound(config: dict, ledger: ConstantLedger) -> int:
    _require(config, "r", "p", "n", "eps")
    report = compute_bound_report(config["r"], config["p"], config["n"],
                                  config["eps"], ledger)
    _emit(config, ledger, report.to_dict())
    return EXIT_OK


def _cmd_classify(config: dict, ledger: ConstantLedger) -> int:
    _require(config, "r", "p")
    n = config.get("n", 10 ** 4)
    case = classify_case(config["r"], config["p"], n)
    _emit(config, ledger, case.to_dict())
    return EXIT_OK


def _cmd_simulate(config: dict, ledger: ConstantLedger) -> int:
    params = _get_params(config)
    _require(config, "k")
    stream = _get_stream(config)
    k = config["k"]
    samples = config.get("samples") or 10 ** 4
    directions = config.get("directions") or 10 ** 4
    mode = config.get("mode", "random_sphere")
    M = estimate_median_norm(params, samples, stream.substream(0)).point
    G = sample_gaussian_matrix(params.n, k, stream.substream(1))
    dirs = test_directions(k, directions, mode, stream.substream(2))
    report = measure_distortion(G, params, M, dirs, test_mode=mode)
    _emit(config, ledger, report.to_dict())
    return EXIT_OK


def _cmd_verify(config: dict, ledger: ConstantLedger) -> int:
    stream = _get_stream(config)
    kind = config["kind"]
    if kind == "orderorder":
        _require(config, "case", "r", "p", "n")
        trials = config.get("trials") or 10 ** 4
        result = verify_orderorder(config["case"], config["r"], config["p"],
                                   config["n"], config.get("t", 3.0), trials,
                                   ledger, stream)
        _emit(config, ledger, result.to_dict())
        return EXIT_OK if result.implication_violations == 0 else EXIT_ASSERTION
    # embedding
    params = _get_params(config)
    _require(config, "k", "eps")
    trials = config.get("trials") or 100
    directions = config.get("directions") or 10 ** 4
    result = verify_embedding(params, config["k"], config["eps"], trials,
                              directions, stream)
    _emit(config, ledger, result.to_dict())
    min_success = config.get("min_success")
    if min_success is not None and result.ci_low < min_success:
        return EXIT_ASSERTION
    return EXIT_OK


def _cmd_calibrate(config: dict, ledger: ConstantLedger) -> int:
    stream = _get_stream(config)
    if config.get("validation_seed") is None:
        raise UsageError("missing required option: validation_seed")
    validation = RandomStream(config["validation_seed"])
    name = config["bound_name"]
    if config.get("target", "success_rate") == "success_rate":
        if name != "embedding_dimension":
            raise UsageError("target success_rate supports only bound_name "
                             "embedding_dimension")
        _require(config, "r", "p", "n", "eps")
        record = calibrate_embedding_dimension(
            config["r"], config["p"], config["n"], config["eps"],
            config.get("trials") or 100, config.get("directions") or 10 ** 4,
            stream, validation)
    else:
        if config.get("grid_file") is None:
            raise UsageError("missing required option: grid_file")
        grid = [tuple(point) for point in _read_json(config["grid_file"])]
        record = calibrate(name, grid, "two_sided_ratio", stream, validation)
    _emit(config, ledger, record.to_dict())
    return EXIT_OK


def _cmd_probe(config: dict, ledger: ConstantLedger) -> int:
    stream = _get_stream(config)
    _require(config, "r", "p", "n", "eps_grid")
    raw = config["eps_grid"]
    eps_grid = [float(v) for v in raw.split(",")] if isinstance(raw, str) else raw
    result = scaling_probe(config["r"], config["p"], config["n"], eps_grid,
                           config.get("trials") or 20,
                           config.get("directions") or 2000, stream)
    _emit(config, ledger, result.to_dict())
    return EXIT_OK


_COMMANDS = {"bound": _cmd_bound, "classify": _cmd_classify,
             "simulate": _cmd_simulate, "verify": _cmd_verify,
             "calibrate": _cmd_calibrate, "probe": _cmd_probe}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        config = _merge_config(args)
        ledger = _get_ledger(config)
        return _COMMANDS[args.command](config, ledger)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
