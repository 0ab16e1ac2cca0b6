"""Benchmark of the lorentz-embed CLI: three workloads, timed from outside.

    python3 bench/run.py --workload calibrate-flat [--seed 0] [--seconds 30] [--trace 0]

Run from the root of a source checkout; the CLI is imported from ./src. Each
operation is one fresh process running one CLI command (bench/child.py), so a
run repeats the same command, with the same seeds, until --seconds have
passed. Before that, one untimed process fills the bytecode caches and
SETUP_PROBES processes only import the CLI. --seed offsets the README seeds
(--seed 0 runs the README commands' seeds). The last line of standard output
is one JSON object: correct, attempted, failed and metrics -- the end-to-end
metrics with --trace 0, the per-layer ones with --trace 1, which adds one
process run under bench/spans.py after the untraced ones.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 5
PROCESS_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "columns_per_s": "1/s"}
PER_LAYER = {
    "norms.lorentz_norm_columns.self_s": "s",
    "norms.lorentz_norm_columns.calls": "count",
    "norms.lorentz_norm_columns.ns_per_entry": "ns",
    "norms.lorentz_norm_columns.columns": "count",
    "norms.lorentz_norm_columns.entries_sorted": "count",
    "sharp.sharp_norm_columns.self_s": "s",
    "sharp.grad_functional_columns.self_s": "s",
    "sharp.sorts_per_sample": "ratio",
    "embedding.sample_gaussian_matrix.self_s": "s",
    "embedding.sample_gaussian_matrix.calls": "count",
    "embedding.test_directions.self_s": "s",
    "montecarlo.verify_embedding.self_s": "s",
    "montecarlo.verify_embedding.calls": "count",
    "montecarlo.estimate_median_norm.self_s": "s",
    "montecarlo.estimate_median_norm.peak_rss_delta_mb": "MB",
    "montecarlo.verify_orderorder.self_s": "s",
    "streams.generators": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def _embedding_columns(report: dict) -> int:
    """Nominal n-vectors: the median samples plus trials x directions per
    verify_embedding call (one per probed k and one for validation in calibrate)."""
    cfg = report["config"]
    details = report["result"].get("details")
    calls = len(details["fit_rates"]) + 1 if details else 1
    return checks.MEDIAN_SAMPLES + calls * cfg["trials"] * cfg["directions"]


def _orderorder_columns(report: dict) -> int:
    return report["config"]["trials"]


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], list]   # seed offset -> lorentz-embed arguments
    check: Callable[[dict, int], None]
    columns: Callable[[dict], int]


WORKLOADS = {
    # r = 0: constant weights, no sort; 13 verify_embedding calls in the k-search
    "calibrate-flat": Workload(
        lambda s: ["calibrate", "--bound-name", "embedding_dimension", "--r", "0",
                   "--p", "1.5", "--n", "2000", "--eps", "0.2",
                   "--seed", str(101 + s), "--validation-seed", str(202 + s),
                   "--trials", "4", "--directions", "2000"],
        checks.check_calibrate, _embedding_columns),
    # r = 0.3: power weights force the column sort; one k, no search
    "verify-sorted": Workload(
        lambda s: ["verify", "--kind", "embedding", "--r", "0.3", "--p", "1.5",
                   "--n", "2000", "--k", "8", "--eps", "0.2", "--seed", str(1 + s),
                   "--trials", "10", "--directions", "4000"],
        checks.check_verify_embedding, _embedding_columns),
    # tall sampled chunks through sharp; no G @ D, no median, no bootstrap
    "orderorder-sharp": Workload(
        lambda s: ["verify", "--kind", "orderorder", "--case", "I", "--r", "0.3",
                   "--p", "2", "--n", "10000", "--t", "3", "--seed", str(1 + s),
                   "--trials", "6000"],
        checks.check_orderorder, _orderorder_columns),
}


def run_process(workdir: Path, tag: str, command: list, trace: bool = False) -> dict:
    """Run bench/child.py once; return its times, peak RSS and report, with
    an "error" entry if it exited non-zero or left a stamp or report missing.

    Times count from just before the spawn. An empty command is a set-up probe.
    """
    stamp = workdir / f"{tag}.stamp.json"
    trace_file = workdir / f"{tag}.trace.json"
    report = workdir / f"{tag}.report.json"
    argv = [sys.executable, str(BENCH / "child.py"), str(stamp),
            str(trace_file) if trace else "-"]
    if command:
        argv += command + ["--output", str(report)]
    with open(workdir / f"{tag}.stderr", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"peak_rss_mb": usage.ru_maxrss / 1024.0}
    if stamp.is_file():
        times = json.loads(stamp.read_text())
        out["setup_s"] = times["ready"] - start
        if "done" in times:
            out["wall_s"] = times["done"] - start
    if report.is_file():
        out["report"] = report.read_text()
    if trace and trace_file.is_file():
        out["trace"] = json.loads(trace_file.read_text())
    needed = ("setup_s", "wall_s", "report") if command else ("setup_s",)
    if proc.returncode != 0 or any(key not in out for key in needed):
        out["error"] = f"exit code {proc.returncode}: " \
            + (workdir / f"{tag}.stderr").read_text()[-2000:]
    return out


def layer_metrics(trace: dict, report: dict) -> dict:
    """Per-layer totals from the spans: self time is a span's duration minus
    the time of its child spans. A layer the workload never calls reads 0."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, _, start, end, rss_rise, counts) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "rss_rise": 0.0,
                                     "columns": 0, "entries": 0, "entries_sorted": 0})
        t["calls"] += 1
        t["self_s"] += end - start - child_time[i]
        t["rss_rise"] = max(t["rss_rise"], rss_rise)
        for key, value in counts.items():
            t[key] += value

    def get(name: str, field: str):
        return totals.get(name, {}).get(field, 0)

    norm = "norms.lorentz_norm_columns"
    entries = get(norm, "entries")
    cfg = report["config"]
    sharp_sorted = get("sharp.sharp_norm_columns", "entries_sorted") \
        + get("sharp.grad_functional_columns", "entries_sorted")
    return {
        f"{norm}.self_s": get(norm, "self_s"),
        f"{norm}.calls": get(norm, "calls"),
        f"{norm}.ns_per_entry": get(norm, "self_s") * 1e9 / entries if entries else 0.0,
        f"{norm}.columns": get(norm, "columns"),
        f"{norm}.entries_sorted": get(norm, "entries_sorted"),
        "sharp.sharp_norm_columns.self_s": get("sharp.sharp_norm_columns", "self_s"),
        "sharp.grad_functional_columns.self_s":
            get("sharp.grad_functional_columns", "self_s"),
        "sharp.sorts_per_sample": sharp_sorted / (cfg["n"] * cfg["trials"]),
        "embedding.sample_gaussian_matrix.self_s":
            get("embedding.sample_gaussian_matrix", "self_s"),
        "embedding.sample_gaussian_matrix.calls":
            get("embedding.sample_gaussian_matrix", "calls"),
        "embedding.test_directions.self_s": get("embedding.test_directions", "self_s"),
        "montecarlo.verify_embedding.self_s": get("montecarlo.verify_embedding", "self_s"),
        "montecarlo.verify_embedding.calls": get("montecarlo.verify_embedding", "calls"),
        "montecarlo.estimate_median_norm.self_s":
            get("montecarlo.estimate_median_norm", "self_s"),
        "montecarlo.estimate_median_norm.peak_rss_delta_mb":
            get("montecarlo.estimate_median_norm", "rss_rise"),
        "montecarlo.verify_orderorder.self_s": get("montecarlo.verify_orderorder", "self_s"),
        "streams.generators": trace["generators"],
        "cli.main.self_s": get("cli.main", "self_s"),
    }


def check_reports(workload: Workload, texts: list, oracle_seed: int) -> bool:
    """Every repeat must write the same bytes; that one report must pass its checks."""
    try:
        if any(text != texts[0] for text in texts):
            raise checks.CheckError("repeated runs of one command wrote different reports")
        workload.check(checks.parse_strict(texts[0]), oracle_seed)
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False
    return True


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    command = workload.argv(seed)
    run_process(workdir, "warmup", [])
    setup = []
    for i in range(SETUP_PROBES):
        probe = run_process(workdir, f"probe{i}", [])
        if "error" in probe:
            raise RuntimeError(f"set-up probe failed: {probe['error']}")
        setup.append(probe["setup_s"])
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(run_process(workdir, f"run{len(runs)}", command))
    traced = run_process(workdir, "traced", command, trace=True) if trace else None
    attempted = runs + ([traced] if traced else [])
    ok = [r for r in runs if "error" not in r]
    for r in attempted:
        if "error" in r:
            print(f"operation failed: {r['error']}", file=sys.stderr)
    if not ok or (traced and "error" in traced):
        raise RuntimeError("no operation completed")
    texts = [r["report"] for r in ok] + ([traced["report"]] if traced else [])
    correct = check_reports(workload, texts, oracle_seed=seed)
    walls = [r["wall_s"] for r in ok]
    if trace:
        report = json.loads(texts[0])
        values = layer_metrics(traced["trace"], report)
        values["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
        units = PER_LAYER
    else:
        columns = workload.columns(json.loads(texts[0]))
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup + [r["setup_s"] for r in ok]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "columns_per_s": statistics.median(columns / w for w in walls),
        }
        units = END_TO_END
    return {"correct": correct, "attempted": len(attempted),
            "failed": len(runs) - len(ok),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to the README seeds (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "lorentz_embed" / "cli.py").is_file():
        print(f"error: no lorentz_embed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir)
        if not any(RUN_DIR.iterdir()):
            RUN_DIR.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
