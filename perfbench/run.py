"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kcover-stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` times the workload with
tracing off and prints the end-to-end metrics; ``--trace 1`` re-drives it
layer by layer under benchmark-owned spans, prints the per-layer table and
metrics, and writes a Perfetto-loadable trace.  The metric names and units
come from ``BENCHMARK.json``.  Every run also writes a result record (seed,
``nproc``, Python/numpy/scipy versions, metrics, failures) under
``perfbench/results/``, which ``compare.py`` reads.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "work"
SETUP_REPS = 3
WORKLOAD_NAMES = (
    "kcover-stream",
    "setcover-multipass",
    "distributed-columnar",
    "serve-mixed",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_untraced(workload, tally, seconds: float, import_seconds: float) -> dict:
    """Set up, then time operations until ``seconds`` pass."""
    setup = [timed(workload.setup) for _ in range(SETUP_REPS)]
    workload.prepare()
    start = time.perf_counter()
    last = 0.0
    # Stop before an operation that would overrun the measured window, but
    # never before the workload's minimum number of operations.
    while time.perf_counter() - start + last <= seconds or (
        len(workload.latencies) < workload.min_ops
        and tally.attempted < 4 * workload.min_ops
    ):
        # Every operation starts from the same collected heap, so a cyclic
        # collection owed by set-up or an earlier operation is not billed to it.
        gc.collect()
        last = workload.operate(tally)
    if not workload.latencies:
        raise RuntimeError("no operation succeeded: " + " | ".join(tally.failures))
    metrics = workload.end_to_end()
    metrics["setup_s"] = import_seconds + statistics.median(setup)
    return metrics


def run_traced(workload, tally, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced operations with traced piecewise re-drives.

    Like the untraced run, it stops before a cycle that would overrun
    ``seconds``; every reported layer time is a per-cycle mean.
    """
    from repro import obs

    import layers

    for _ in range(SETUP_REPS):
        workload.setup()
    workload.prepare()
    workload.prepare_redrive()
    layer_sums: dict[str, float] = defaultdict(float)
    untraced = traced = popcount = map_max = 0.0
    cycles = 0
    extras = workload.traced_extras(tally)
    start = time.perf_counter()
    last = 0.0
    while cycles == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        gc.collect()
        untraced += workload.untraced_baseline(tally)
        gc.collect()
        tracer = obs.Tracer()
        obs.global_metrics().reset()
        with obs.tracing(tracer):
            with layers.span(layers.ROOT):
                counts = workload.redrive(tally)
        records = tracer.records()
        for layer, spent in layers.self_times(records).items():
            layer_sums[layer] += spent
        traced += layers.root_seconds(records)
        popcount += obs.global_metrics().histogram("kernel.popcount_seconds").total
        machine_spans = [
            r.duration for r in records if r.name == "map.machine" and r.lane != "main"
        ]
        map_max += max(machine_spans, default=0.0)
        cycles += 1
        last = time.perf_counter() - began
    obs.write_trace(trace_path, records)
    layer_means = {layer: total / cycles for layer, total in layer_sums.items()}
    print(layers.layer_table(layer_means, traced / cycles))
    metrics = {metric: layer_means.get(layer, 0.0) for metric, layer in layers.TIME_LAYERS}
    metrics.update(counts)
    metrics.update(extras)
    metrics.update({
        "datasets.build_s": statistics.median(workload.build_seconds),
        "coverage.kernel_popcount_s": popcount / cycles,
        "distributed.map_max_s": map_max / cycles,
        "api.unattributed_s": layer_means.get(layers.ROOT, 0.0),
        "api.traced_op_s": traced / cycles,
        "obs.overhead_ratio": traced / untraced if untraced else 0.0,
    })
    return metrics


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"error: {ROOT} is not a checkout of the repository "
            "(needs src/repro and BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: the in-process import is part of set-up)

    import_seconds = time.perf_counter() - start

    import checks
    import workloads

    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tally = checks.Tally()
    workload = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed, args.tiny)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    try:
        if args.trace:
            trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}-{stamp}.json"
            values = run_traced(workload, tally, args.seconds, trace_path)
            wanted = spec["per_layer"]
            print(f"trace written to {trace_path.relative_to(ROOT)}")
        else:
            values = run_untraced(workload, tally, args.seconds, import_seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if args.trace:
        values.update({name: 0.0 for name in missing})
    elif missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        **environment(args),
        **result,
        "latencies_s": workload.latencies,
        "failures": tally.failures,
    }
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for failure in tally.failures:
        print(f"failed: {failure}")
    print("env: " + json.dumps(environment(args), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
