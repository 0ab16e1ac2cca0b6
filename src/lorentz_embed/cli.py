"""Batch command-line front-end: bounds, classification, simulation,
verification, calibration and the scaling probe, with JSON reports."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback

import numpy as np

from .constants import DEFAULT_LEDGER, ConstantLedger
from .embedding import (_check_k, measure_distortion, sample_gaussian_matrix,
                        test_directions)
from .montecarlo import (_check_counts, calibrate, calibrate_embedding_dimension,
                         estimate_median_norm, scaling_probe, verify_embedding,
                         verify_orderorder)
from .norms import _WORKERS, blas_threads
from .params import LorentzParams, power_params
from .regimes import classify_case, compute_bound_report
from .streams import RandomStream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)


_KIND_NAMES = {int: "an integer", float: "a number", str: "a path string"}


def _is_kind(value, kind) -> bool:
    if kind is str:
        return isinstance(value, str)
    return _is_number_list([value]) and (kind is float or isinstance(value, int))


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"{where} is not a number: {text.strip()!r}") from None


def _load_weights_file(config: dict) -> np.ndarray:
    """One weight per line, as an array that LorentzParams validates; the
    sha256 of the file's bytes is echoed in the report config."""
    with open(config["weights_file"], "rb") as fh:
        data = fh.read()
    config["weights_file_sha256"] = hashlib.sha256(data).hexdigest()
    values = [_parse_float(line, f"weights_file line {number}")
              for number, line in enumerate(data.decode().splitlines(), 1)
              if line.strip()]
    return np.array(values)


# option name -> keywords of its flag: --seed for master_seed, else --name-with-dashes
_OPTIONS = {
    "r": {"type": float},
    "weights_file": {"type": str, "help": "one weight per line; replaces --r and --n"},
    "p": {"type": float}, "n": {"type": int}, "eps": {"type": float},
    "ledger_file": {"type": str, "help": "JSON object of named constants"},
    "master_seed": {"type": int}, "trials": {"type": int},
    "samples": {"type": int}, "directions": {"type": int}, "k": {"type": int},
    "mode": {"choices": ["random_sphere", "grid2d"]}, "case": {},
    "t": {"type": float}, "min_success": {"type": float},
    "validation_seed": {"type": int},
    "grid_file": {"type": str, "help": "JSON list of grid points for ratio targets"},
    "eps_grid": {"help": "comma-separated eps values"},
    "kind": {"choices": ["orderorder", "embedding"]},
    "target": {"choices": ["two_sided_ratio", "success_rate"]}, "bound_name": {},
}

# command -> (the option that picks its _READS entry, that option's default
# or None where it is required)
_SELECTORS = {"verify": ("kind", None), "calibrate": ("target", "success_rate")}


def _reads(names: str, **defaults) -> dict:
    return {**{name.rstrip("!"): ... if name.endswith("!") else None
               for name in names.split()}, **defaults}


# dispatch key -> the options it reads with their defaults (None: none; ...:
# required, marked "!"), which the parser, the --config check and the echoed
# config follow; _get_params takes one of r and weights_file, and n with r.
_READS = {
    "bound": _reads("r! p! n! eps! ledger_file"),
    "classify": _reads("r! p!", n=10 ** 4),
    "simulate": _reads("r weights_file p! n k! master_seed!", samples=10 ** 4,
                       directions=10 ** 4, mode="random_sphere"),
    "verify --kind orderorder": _reads("case! r! p! n! master_seed! ledger_file",
                                       t=3.0, trials=10 ** 4),
    "verify --kind embedding": _reads("r weights_file p! n k! eps! master_seed! "
                                      "min_success", trials=100, directions=10 ** 4),
    "calibrate --target success_rate": _reads(
        "bound_name! r! p! n! eps! master_seed! validation_seed!",
        trials=100, directions=10 ** 4),
    "calibrate --target two_sided_ratio": _reads(
        "bound_name! grid_file! master_seed! validation_seed!"),
    "probe": _reads("r! p! n! eps_grid! master_seed!", trials=20, directions=2000),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentz-embed",
        description="Random Gaussian embeddings into Lorentz sequence spaces: "
                    "dimension bounds, simulations and verifications.")
    parser.add_argument("--config", help="JSON object of options by name "
                                         "(e.g. master_seed); flags override it")
    sub = parser.add_subparsers(dest="command")
    for command, (_, text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        reads = {name for key, names in _READS.items()
                 if key.split()[0] == command for name in names}
        reads.update(_SELECTORS.get(command, ())[:1])
        # every command parses every option, so that an unread one is
        # rejected by name; --help lists only those it reads
        for name, keywords in _OPTIONS.items():
            flag = "--seed" if name == "master_seed" else "--" + name.replace("_", "-")
            if name not in reads:
                keywords = {**keywords, "help": argparse.SUPPRESS}
            sp.add_argument(flag, dest=name, **keywords)
        sp.add_argument("--output", help="report path (default: stdout)")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """The defaults of the command's _READS entry, then the --config file,
    then the flags; a null counts as absent, and an option it does not read, a
    float option that is not finite or a missing required one is an error."""
    given = _read_json(args.config) if args.config else {}
    if not isinstance(given, dict):
        raise UsageError("config must be a JSON object")
    for name, value in given.items():  # flags are typed by the parser already
        kind = str if name == "output" else _OPTIONS.get(name, {}).get("type")
        if kind and value is not None and not _is_kind(value, kind):
            raise UsageError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    flags = {k: v for k, v in vars(args).items() if k != "config"}
    given = {k: v for source in (given, flags) for k, v in source.items()
             if v is not None}
    command = given["command"]
    selector, default = _SELECTORS.get(command, (None, None))
    if selector and given.setdefault(selector, default) is None:
        raise UsageError(f"missing required option: {selector}")
    key = f"{command} --{selector} {given[selector]}" if selector else command
    if key not in _READS:
        raise UsageError(f"unknown {selector}: {given[selector]}")
    for name in given:
        if name not in _READS[key] and name not in ("command", "output", selector):
            raise UsageError(f"{name} is not read by {key}")
        # false for NaN, infinities and JSON integers too large for a float
        kind = _OPTIONS.get(name, {}).get("type")
        if kind is float and not abs(given[name]) <= sys.float_info.max:
            raise UsageError(f"{name} must be finite, got {given[name]}")
    missing = [name + " (pass --seed)" if name == "master_seed" else name
               for name, default in _READS[key].items()
               if default is ... and name not in given]
    if missing:
        noun = "options" if len(missing) > 1 else "option"
        raise UsageError(f"missing required {noun}: {', '.join(missing)}")
    return {**_READS[key], **given}


def _get_params(config: dict) -> LorentzParams:
    has_r = config["r"] is not None
    has_wf = config["weights_file"] is not None
    if has_r == has_wf:
        raise UsageError("exactly one of r / weights_file must be given")
    if has_wf:
        if config["n"] is not None:
            raise UsageError("n is set by weights_file; give only one of them")
        return LorentzParams(_load_weights_file(config), config["p"])
    if config["n"] is None:
        raise UsageError("missing required option: n")
    return power_params(config["r"], config["p"], config["n"])


def _get_ledger(config: dict) -> ConstantLedger:
    path = config.get("ledger_file")
    return DEFAULT_LEDGER if path is None else ConstantLedger.from_json(path)


def _emit(config: dict, ledger: ConstantLedger, payload: dict):
    """Write the report JSON; timestamps, the kernel's worker count, the
    BLAS thread count at the end of the run (null where numpy's OpenBLAS is
    not found) and numpy's version live in a sidecar metadata file."""
    resolved = {k: v for k, v in sorted(config.items())
                if k not in ("output",) and v is not None}
    report = {"config": resolved, "ledger": ledger.to_dict(), "result": payload}
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    out = config.get("output")
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        meta = {"written_at_unix": time.time(), "report_path": out,
                "kernel_workers": _WORKERS, "blas_threads": blas_threads(),
                "numpy_version": np.__version__}
        with open(out + ".meta.json", "w") as fh:
            fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text + "\n")


def _cmd_bound(config: dict, ledger: ConstantLedger) -> tuple:
    return compute_bound_report(config["r"], config["p"], config["n"],
                                config["eps"], ledger), EXIT_OK


def _cmd_classify(config: dict, ledger: ConstantLedger) -> tuple:
    return classify_case(config["r"], config["p"], config["n"]), EXIT_OK


def _cmd_simulate(config: dict, ledger: ConstantLedger) -> tuple:
    params = _get_params(config)
    stream = RandomStream(config["master_seed"])
    k, mode = config["k"], config["mode"]
    _check_counts(directions=config["directions"])
    _check_k(params.n, k)
    if mode == "grid2d" and k != 2:
        raise UsageError("grid2d mode requires k = 2")
    M = estimate_median_norm(params, config["samples"], stream.substream(0))
    G = sample_gaussian_matrix(params.n, k, stream.substream(1))
    dirs = test_directions(k, config["directions"], mode, stream.substream(2))
    return measure_distortion(G, params, M, dirs, test_mode=mode), EXIT_OK


def _cmd_verify(config: dict, ledger: ConstantLedger) -> tuple:
    stream = RandomStream(config["master_seed"])
    if config["kind"] == "orderorder":
        result = verify_orderorder(config["case"], config["r"], config["p"],
                                   config["n"], config["t"], config["trials"],
                                   ledger, stream)
        return result, EXIT_OK if result.implication_violations == 0 else EXIT_ASSERTION
    # embedding
    params = _get_params(config)
    min_success = config["min_success"]
    if min_success is not None and not 0.0 <= min_success <= 1.0:
        raise UsageError(f"min_success must lie in [0, 1], got {min_success}")
    result = verify_embedding(params, config["k"], config["eps"], config["trials"],
                              config["directions"], stream)
    failed = min_success is not None and result.ci_low < min_success
    return result, EXIT_ASSERTION if failed else EXIT_OK


def _cmd_calibrate(config: dict, ledger: ConstantLedger) -> tuple:
    stream = RandomStream(config["master_seed"])
    validation = RandomStream(config["validation_seed"])
    name = config["bound_name"]
    if config["target"] == "success_rate":
        if name != "embedding_dimension":
            raise UsageError("target success_rate supports only bound_name "
                             "embedding_dimension")
        return calibrate_embedding_dimension(
            config["r"], config["p"], config["n"], config["eps"],
            config["trials"], config["directions"], stream, validation), EXIT_OK
    grid = _read_json(config["grid_file"])
    if not isinstance(grid, list) or not all(map(_is_number_list, grid)):
        raise UsageError("grid_file must hold a JSON list of lists of numbers")
    return calibrate(name, grid, stream, validation), EXIT_OK


def _cmd_probe(config: dict, ledger: ConstantLedger) -> tuple:
    stream = RandomStream(config["master_seed"])
    raw = config["eps_grid"]
    eps_grid = ([_parse_float(v, "eps_grid entry") for v in raw.split(",")]
                if isinstance(raw, str) else raw)
    if not _is_number_list(eps_grid):
        raise UsageError("eps_grid must be a list of numbers or a "
                         "comma-separated string")
    return scaling_probe(config["r"], config["p"], config["n"], eps_grid,
                         config["trials"], config["directions"], stream), EXIT_OK


# command -> (its function, its help line); the function returns the result
# and the exit code, and main writes the report
_COMMANDS = {
    "bound": (_cmd_bound, "compute every applicable dimension bound"),
    "classify": (_cmd_classify, "classify (r, p) into its parameter regime"),
    "simulate": (_cmd_simulate, "sample one Gaussian matrix and measure distortion"),
    "verify": (_cmd_verify, "run a verification suite"),
    "calibrate": (_cmd_calibrate, "fit a ledger constant with a held-out seed"),
    "probe": (_cmd_probe, "fit the eps-scaling exponent of k*(eps)"),
}


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
        result, code = _COMMANDS[args.command][0](config, ledger)
        _emit(config, ledger, result.to_dict())
        return code
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # a broken invariant, not a bad input
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
