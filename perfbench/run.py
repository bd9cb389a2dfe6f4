"""Benchmark of the jtvsampling pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, each in a fresh process

One workload runs in this process against the library in ``src/``. The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The lines before it report the run
environment, the workload's sizes, every metric with its unit, the exact
counts and (traced) the self time of each layer. Spans of a traced run are
written to ``.perfbench_work/`` in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("cli-pipeline", "plan-scale", "recon-stream", "oracle-tiny")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def blas_library(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def run_one(args):
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # read by the BLAS when numpy loads
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import jtvsampling
    if Path(jtvsampling.__file__).resolve().parent != SRC / "jtvsampling":
        print(f"error: imported {jtvsampling.__file__}, not the checkout's src/", file=sys.stderr)
        return 2
    from harness import REPORTED_ONLY, result_line, run_workload
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    WORKDIR.mkdir(exist_ok=True)
    env = {"nproc": nproc, "blas_threads": nproc, "blas_thread_vars": list(BLAS_THREAD_VARS),
           "numpy": np.__version__, "blas": blas_library(np), "python": sys.version.split()[0],
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print("env " + json.dumps(env))
    print("workload " + json.dumps({"name": workload.name, "sizes": workload.sizes,
                                    "loop": "closed, 1 client"}))
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), WORKDIR)
    print("run " + json.dumps(result.info))

    line = result_line(result, args.trace)
    for name, m in line["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    if not args.trace:
        for name, unit in REPORTED_ONLY.items():
            print(f"metric {name} {result.metrics[name]!r} {unit}")
    failed = line["failed"]
    print(f"metric fail_ratio {failed / result.attempted!r} ratio "
          f"({failed} failed of {result.attempted} attempted)")
    for op, reason in result.failures[:5]:
        print(f"failure op {op}: {reason}")
    if args.trace:
        print("counts " + json.dumps(result.counts))
        wall = sum(s for _, s in result.self_times)
        for name, secs in result.self_times:
            print(f"self_time {name} {secs:.6f} s {secs / wall:.4f} of traced op wall")
        trace_path = WORKDIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        result.tracer.write(trace_path, result.tracer.spans[0].start)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


def run_all(args):
    """Each workload in a fresh process, so peak_rss_mb is its own; then one
    table of every ``metric`` line they printed."""
    table, correct = {}, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0:
            print(f"[{name}] exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines:
            if line.startswith("metric "):
                _, metric, value, unit = line.split()[:4]
                table.setdefault(f"{metric} [{unit}]", {})[name] = float(value)
        correct[name] = json.loads(lines[-1])["correct"]
    print(f"{'metric':40s}" + "".join(f"{w:>15s}" for w in WORKLOAD_NAMES))
    for metric, row in table.items():
        print(f"{metric:40s}" + "".join(f"{row.get(w, float('nan')):15.6g}" for w in WORKLOAD_NAMES))
    print(f"{'correct':40s}" + "".join(f"{str(correct[w]):>15s}" for w in WORKLOAD_NAMES))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "jtvsampling" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}/jtvsampling", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
