"""depthnav benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload fly --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ./src, never
from an installed copy.  Before the JSON line the program prints the run
environment and the workload's named metrics, one per line; the last line
is {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list; the traced run also writes its spans to .perfbench_out/.

Workloads, metrics and the layer -> end-to-end mapping: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: the loop under test is a single client, and a fixed thread
# count keeps float results bit-reproducible and runs steady on a small,
# shared machine.  The cap must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS cap)

SETUP_REPEATS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("fly", "collect", "train"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole rounds until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    if not (SRC / "depthnav" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'depthnav'} not found; run from a depthnav checkout")
    sys.path.insert(0, str(SRC))
    import depthnav

    if Path(depthnav.__file__).resolve().parent != SRC / "depthnav":
        sys.exit(f"error: imported depthnav from {depthnav.__file__}, not {SRC}")


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_cap": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(wl, rec, seconds: float) -> tuple[int, float]:
    """Whole rounds until `seconds` have passed; returns (rounds, busy s)."""
    t0, c0 = time.perf_counter(), rec.check_s
    rounds = 0
    while True:
        rec.group = f"round{rounds}"
        wl.run_round(rounds)
        rounds += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return rounds, time.perf_counter() - t0 - (rec.check_s - c0)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_package()
    import harness
    from workloads import WORKLOADS

    env = environment()
    print("env " + json.dumps(env), flush=True)

    rec = harness.Recorder(trace=bool(args.trace))
    wl = WORKLOADS[args.workload](rec, args.seed)
    patches = harness.install(rec, wl.hooks())
    try:
        setup_s, setup_digests = [], set()
        for _ in range(SETUP_REPEATS):
            t0, c0 = time.perf_counter(), rec.check_s
            setup_digests.add(wl.setup())
            setup_s.append(time.perf_counter() - t0 - (rec.check_s - c0))
        if len(setup_digests) != 1:
            rec.fail("repeated set-up on one seed gave different inputs")

        rec.first.clear()
        rounds, busy_s = measure(wl, rec, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured_first = dict(rec.first)
        e2e = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": wl.ops / busy_s,
            "op_ms_p50": float(np.percentile(wl.op_ms, 50)),
            "op_ms_p90": float(np.percentile(wl.op_ms, 90)),
        }
        named = wl.named_metrics(busy_s)
        attempted = wl.ops
        print(f"run {args.workload} seed={args.seed} rounds={rounds} busy_s={busy_s:.3f} "
              f"ops={wl.ops} ({wl.ops_unit}) latency_samples={len(wl.op_ms)}", flush=True)

        if args.trace:
            spans = list(rec.spans)
            harness.check_span_tree(rec)
            layers = {**harness.layer_metrics(spans), **wl.layer_counts()}
            # the same rounds again without spans: the difference is the tracing cost
            rec.trace = False
            t0, c0 = time.perf_counter(), rec.check_s
            for r in range(rounds):
                wl.run_round(r)
            plain_s = time.perf_counter() - t0 - (rec.check_s - c0)
            layers["trace.overhead_pct"] = 100.0 * (busy_s - plain_s) / plain_s
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            rec.spans = spans
            rec.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")

        # determinism probe: rerun round 0's prefix, require identical outputs
        rec.trace = False
        rec.first = {}
        probes = wl.probe()
        probes += [(f"first {key} output", rec.first[key] == value)
                   for key, value in measured_first.items() if key in rec.first]
        for what, same in probes:
            if not same:
                rec.fail(f"determinism probe: {what} differs on rerun")
        attempted += len(probes)
        print(f"probe {len(probes)} comparisons: "
              + ", ".join(f"{what}={'same' if same else 'DIFFERENT'}" for what, same in probes),
              flush=True)
    finally:
        patches.restore()

    failed = len(rec.failures)
    named.update(ops_attempted=(attempted, "count"), ops_failed=(failed, "count"))
    for name, (value, unit) in named.items():
        print(f"metric {name} {value:.6g} {unit}")
    if args.trace:
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
