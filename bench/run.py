"""sharpsphere benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload ascent-L8 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from src/ with no
install step. With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced pass,
plus the tracing overhead against an untraced pass of the same operations.
The line before it records provenance. See bench/NOTES.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import sharpsphere; "
                "print(time.perf_counter() - t)")


# One BLAS thread: on a 2-core VM two threads made q_value swing between 8 and
# 33 ms from run to run, while one thread stayed at 20-26 ms.
BLAS_THREADS = 1


def import_seconds() -> float:
    """Package import time (numpy included) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def git_sha():
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def run_ops(workload, inputs, gauge=None):
    """Closed loop over the inputs: (seconds per op, values, failure count).

    A gauge, if given, is read after every operation.
    """
    times, values, failed = [], [], 0
    for inp in inputs:
        t0 = time.perf_counter()
        try:
            vals, failure = workload.run(inp)
        except Exception:        # one broken op must not hide the others' timings
            traceback.print_exc()
            vals, failure = None, "raised"
        times.append(time.perf_counter() - t0)
        if gauge is not None:
            gauge.read()
        values.append(vals)
        if failure is not None:
            failed += 1
            print(f"{workload.name}: operation failed: {failure}", file=sys.stderr)
    return times, values, failed


def untraced(workload, seed: int, n_ops: int):
    """End-to-end metrics, times divided by the run's host factor; also the raw times."""
    from hostgauge import HostGauge
    # allocated first and resident throughout, so its bytes come off ru_maxrss exactly
    gauge = HostGauge()
    gauge.read()
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    import sharpsphere  # noqa: F401  (so the builds below do not time the import)
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        builds.append(time.perf_counter() - t0)
    gauge.read()
    setup = statistics.median(imports) + statistics.median(builds)
    times, _, failed = run_ops(workload, workload.inputs(seed, n_ops), gauge)
    host = gauge.factor()
    peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - gauge.nbytes
    metrics = {
        "setup_s": (setup / host, "s"),
        "wall_s": (sum(times) / host, "s"),
        "op_p50_s": (statistics.median(times) / host, "s"),
        "peak_rss_mb": (peak_bytes / 1e6, "MB"),
        "ops_ok_share": ((n_ops - failed) / n_ops, "share"),
    }
    raw = {"raw_setup_s": setup, "raw_wall_s": sum(times),
           "raw_op_p50_s": statistics.median(times), "host_factor": host}
    return {"correct": failed == 0, "attempted": n_ops, "failed": failed,
            "metrics": metrics}, raw


def traced_pass(workload, inputs, gauge=None):
    """Set-up and the closed loop with every layer traced: (times, values, failed, spans)."""
    from tracing import Instrumented, Tracer
    tracer = Tracer()
    with Instrumented(tracer) as inst:
        workload.setup()
        if workload.workspace is not None:
            inst.watch_workspace(workload.workspace)
        times, values, failed = run_ops(workload, inputs, gauge)
    return times, values, failed, tracer.spans


def traced(workload, seed: int, n_ops: int):
    """Untraced pass, then the same operations traced; values must agree bitwise.

    The per-layer times are raw. The two wall times, and so the tracing
    overhead, are divided by each pass's own host factor.
    """
    from hostgauge import HostGauge
    from tracing import layer_metrics
    inputs = workload.inputs(seed, n_ops)
    gauge = HostGauge()
    workload.setup()
    gauge.read()
    times_u, values_u, failed_u = run_ops(workload, inputs, gauge)
    host_u = gauge.factor()
    gauge.readings.clear()
    gauge.read()
    times_t, values_t, failed_t, spans = traced_pass(workload, inputs, gauge)
    host_t = gauge.factor()
    identical = values_u == values_t
    if not identical:
        print(f"{workload.name}: traced values differ from untraced ones", file=sys.stderr)
    ws = workload.workspace
    metrics = layer_metrics(spans, 0.0 if ws is None else float(ws.basis.nbytes))
    wall_u, wall_t = sum(times_u) / host_u, sum(times_t) / host_t
    metrics["trace.untraced_wall_s"] = (wall_u, "s")
    metrics["trace.traced_wall_s"] = (wall_t, "s")
    metrics["trace.overhead_share"] = (wall_t / wall_u - 1.0, "share")
    failed = max(failed_u, failed_t)
    return {"correct": identical and failed == 0, "attempted": n_ops,
            "failed": failed, "metrics": metrics}, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sharpsphere" / "__init__.py").is_file():
        print(f"error: no sharpsphere sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    # fixed before numpy loads; import probes inherit it through the environment
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    # the work per run is fixed by --seconds, not by how fast the code runs,
    # so a faster commit does the same operations in less wall time
    n_ops = max(1, round(args.seconds / workload.nominal_op_s))
    if args.trace:
        n_ops = math.ceil(n_ops / 2)   # each op runs twice, untraced and traced
        result, raw = traced(workload, args.seed, n_ops)
    else:
        result, raw = untraced(workload, args.seed, n_ops)

    info = provenance(args.seed)
    info.update(workload=workload.name, ops=n_ops, seconds=args.seconds,
                trace=args.trace, **raw)
    print(json.dumps({"provenance": info}))
    result["metrics"] = {k: {"value": float(v), "unit": u}
                         for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
