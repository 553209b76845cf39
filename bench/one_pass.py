"""One benchmark pass in a fresh process: set up, run once, report.

    python3 bench/one_pass.py --workload NAME --seed N --dir DIR [--trace-to FILE]

Set-up is the import of lungmix plus whatever the workload builds before the
pass (its corpus). The pass is timed on its own. `ru_maxrss` is a lifetime
high-water mark, which is why every pass gets its own process. With
`--trace-to`, the pass runs with every layer function wrapped and the spans
are written to FILE. The report goes to DIR/result.json.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--trace-to", type=Path)
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import lungmix  # noqa: F401  (timed: import is part of set-up)
    import lungmix.augment
    import lungmix.cli

    t1 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    namespaces = workload.setup(args.dir, args.seed)
    t2 = time.perf_counter()

    tracer = None
    if args.trace_to:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(namespaces)

    c0 = time.process_time()
    t3 = time.perf_counter()
    extra = workload.run(args.dir, args.seed)
    wall = time.perf_counter() - t3
    cpu = time.process_time() - c0

    report = {
        "import_s": t1 - t0,
        "corpus_s": t2 - t1,
        "setup_s": t2 - t0,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pairs": workload.pairs_written(args.dir),
        **extra,
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        tracer.dump(args.trace_to)
    with open(args.dir / "result.json", "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
