#!/usr/bin/env python3
"""lungmix benchmark: time whole passes of a workload, check every output.

    python3 bench/run.py --workload wave-lungmix --seed 0 --seconds 30 --trace 0

Passes run one at a time, each in a fresh child process (`one_pass.py`),
until `--seconds` have gone by. Every pass's outputs are checked; a pass that
crashes or fails the check counts as failed. End-to-end figures are medians
over the passes, so that one pass slowed by a neighbour on a small shared
box does not move them.

With `--trace 0` the last line of stdout is a JSON object whose metrics are
the end-to-end ones (wall_s, pairs_per_s, peak_rss_mb, setup_s). With
`--trace 1` passes alternate untraced and traced, and the metrics are the
per-layer ones, medians over the traced passes, plus the tracing overhead
(median traced wall_s minus median untraced wall_s). The lines before it
give the same figures for people: quartiles, pass count, failed fraction,
core count and, for `experiment`, the Sc table.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PASS_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "pairs_per_s": "pairs/s", "peak_rss_mb": "MB", "setup_s": "s"}


def run_pass(workload: str, seed: int, work: Path, trace_to: Path | None) -> dict:
    """Run one pass in a child process; returns its report plus `error`."""
    work.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "one_pass.py"),
           "--workload", workload, "--seed", str(seed), "--dir", str(work)]
    if trace_to is not None:
        cmd += ["--trace-to", str(trace_to)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {PASS_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    with open(work / "result.json") as fh:
        report = json.load(fh)
    try:
        report["error"] = workloads.WORKLOADS[workload].check(work, seed, report)
    except Exception as exc:  # missing or malformed output: a failed pass, not a crash
        report["error"] = f"output check raised {exc!r}"
    return report


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "lungmix" / "__init__.py").is_file():
        print(f"no lungmix sources under {ROOT / 'src'}; run from a lungmix checkout", file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_run"
    work = run_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    trace_to = run_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    passes: list[tuple[bool, dict]] = []
    start = time.perf_counter()
    try:
        while True:
            # in a traced run, odd passes are traced and even ones give the baseline
            traced = bool(args.trace) and len(passes) % 2 == 1
            pass_dir = work / f"pass{len(passes):03d}"
            report = run_pass(args.workload, args.seed, pass_dir, trace_to if traced else None)
            shutil.rmtree(pass_dir, ignore_errors=True)
            passes.append((traced, report))
            if report["error"]:
                print(f"pass {len(passes) - 1} failed: {report['error']}", file=sys.stderr)
            if time.perf_counter() - start >= args.seconds and len(passes) >= 1 + args.trace:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for _, r in passes if r["error"])
    # a pass whose output check failed still ran to the end and was timed
    plain = [r for traced, r in passes if not traced and "wall_s" in r]
    traced_ok = [r for traced, r in passes if traced and "wall_s" in r]
    if not plain or (args.trace and not traced_ok):
        print("no pass ran to the end; nothing to report", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  nproc {len(os.sched_getaffinity(0))}  "
          f"passes {len(passes)}  failed {failed}  failed_frac {failed / len(passes):.4g} ratio")
    series = {
        "wall_s": [r["wall_s"] for r in plain],
        "pairs_per_s": [r["pairs"] / r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": [r["import_s"] + r["corpus_s"] for r in plain],
    }
    for name, unit in END_TO_END.items():
        q1, med, q3 = quartiles(series[name])
        print(f"  {name:<12} {med:10.4f} {unit:<8} (q1 {q1:.4f}, q3 {q3:.4f}, n {len(series[name])})")
    if "table" in plain[0]:
        table = workloads.parse_table(plain[0]["table"])
        print("  sc_" + "  sc_".join(f"{k} {v[2]:.2f} %" for k, v in table.items()))

    if args.trace:
        metrics = {
            "setup.import_s": (statistics.median(r["import_s"] for r in plain + traced_ok), "s"),
            "setup.corpus_s": (statistics.median(r["corpus_s"] for r in plain + traced_ok), "s"),
            "trace.overhead_s": (
                statistics.median(r["wall_s"] for r in traced_ok) - statistics.median(series["wall_s"]),
                "s",
            ),
        }
        for key in traced_ok[0]["layers"]:
            metrics[key] = (statistics.median(r["layers"][key] for r in traced_ok), layer_unit(key))
        print(f"  traced passes {len(traced_ok)}; spans of the last one in {trace_to}")
        for key, (value, unit) in metrics.items():
            print(f"  {key:<44} {value:14.6g} {unit}")
    else:
        metrics = {name: (statistics.median(series[name]), unit) for name, unit in END_TO_END.items()}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_unit(key: str) -> str:
    suffix = key.rsplit(".", 1)[1]
    return {"self_s": "s", "wall_s": "s", "bytes": "bytes", "reuse": "ratio",
            "cpu_per_wall": "ratio", "overlap": "ratio"}.get(suffix, "count")


if __name__ == "__main__":
    sys.exit(main())
