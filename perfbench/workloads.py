"""The four benchmark workloads.

Each workload generates its input from the seed, times one kind of
operation, checks every answer outside the library (see ``checks.py``) and,
for the traced run, re-drives the same operation piecewise through the
library's public functions with a benchmark-owned span around each call.

* ``kcover-stream`` -- ``solve(instance)`` with library defaults on an
  input larger than the sketch's edge budget: admission, eviction, the
  sketch copy and the greedy do almost all the work.
* ``setcover-multipass`` -- ``solve(instance, "setcover/sketch")``: the
  same admission reached as scalar events across many small per-guess
  sketches, over five passes.
* ``distributed-columnar`` -- a ``repro run`` subprocess over a columnar
  directory: import, graph materialisation, sharding, process-pool
  shipping and the merge dominate.
* ``serve-mixed`` -- two closed-loop thread clients against one
  ``QueryEngine``: cached reads, plus one write in 64 that rebuilds under
  the store lock and evicts.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.api import ProblemContext, StreamSpec, get_solver
from repro.api.specs import QuerySpec
from repro.core.hashing import UniformHash
from repro.coverage.bitset import KernelCache
from repro.coverage.io import open_columnar, write_columnar_columns
from repro.datasets import get_dataset
from repro.distributed import DistributedKCover
from repro.distributed.coordinator import StreamingMergeTree
from repro.distributed.partition import EdgePartitioner
from repro.distributed.worker import ShardRecomputeJob, execute_map_job
from repro.offline.greedy import greedy_k_cover
from repro.serve import QueryEngine, SketchKey, SketchStore, drive_queries
from repro.streaming.passes import MultiPassDriver
from repro.streaming.stream import EdgeStream

import checks
from layers import span

#: Input sizes: (num_sets, num_elements, k) per workload, full and tiny.
SIZES = {
    "kcover-stream": {"full": (400, 200_000, 10), "tiny": (40, 3_000, 5)},
    "setcover-multipass": {"full": (100, 10_000, 10), "tiny": (30, 800, 5)},
    "distributed-columnar": {"full": (400, 200_000, 10), "tiny": (40, 3_000, 5)},
    "serve-mixed": {"full": (200, 100_000, 10), "tiny": (40, 3_000, 5)},
}

KCOVER_EPSILON = 0.2  # StreamingKCover's and `repro run`'s default epsilon
SETCOVER_EPSILON = 0.3  # StreamingSetCover's default epsilon
MACHINES = 4
WORKERS = 2
SERVE_BATCH = 128  # queries per closed-loop drive; two of them are writes
WRITE_EVERY = 64


def _median(values):
    return statistics.median(values) if values else 0.0


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Set-up, one timed operation, its checks, and the piecewise re-drive."""

    name = ""
    #: Fewest timed operations a run makes, whatever ``--seconds`` says.
    min_ops = 3

    def __init__(self, root: Path, workdir: Path, seed: int, tiny: bool) -> None:
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.tiny = tiny
        self.num_sets, self.num_elements, self.k = SIZES[self.name][
            "tiny" if tiny else "full"
        ]
        self.build_seconds: list[float] = []
        self.latencies: list[float] = []
        self.op_wall = 0.0
        self.reference_problems: list[str] = []
        self.last = None

    # -- set-up ---------------------------------------------------------
    def generate(self, dataset: str = "planted_kcover"):
        """Build the instance from the seed, timing the dataset layer."""
        start = time.perf_counter()
        instance = get_dataset(dataset).build(
            self.num_sets, self.num_elements, k=self.k, seed=self.seed
        )
        self.build_seconds.append(time.perf_counter() - start)
        return instance

    def setup(self) -> None:
        """Everything the system needs before the first operation (timed)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed references: numpy columns, planted value, pinned digest."""
        self.columns = checks.edge_columns(self.instance.graph)
        self.planted = self.instance.planted_solution
        self.planted_value = checks.coverage(self.columns, self.planted)

    def check_pinned(self, answer) -> list[str]:
        """Problems when ``answer``'s digest differs from the pinned one."""
        if self.tiny:
            return []
        expected = checks.pinned_digest(self.name, self.seed)
        got = checks.digest(answer)
        if expected is not None and got != expected:
            return [f"digest {got} != pinned {expected}"]
        return []

    # -- operations -----------------------------------------------------
    def operate(self, tally: checks.Tally) -> float:
        """Run one timed operation, check it, return its wall seconds."""
        raise NotImplementedError

    def end_to_end(self) -> dict[str, float]:
        """The workload's end-to-end metrics from the operations so far."""
        raise NotImplementedError

    def redrive(self, tally: checks.Tally) -> dict[str, float]:
        """One traced, piecewise operation; returns its layer counters."""
        raise NotImplementedError

    def prepare_redrive(self) -> None:
        """Untimed state the re-drive needs before its first cycle."""

    def untraced_baseline(self, tally: checks.Tally) -> float:
        """The re-drive's untraced twin, for ``obs.overhead_ratio``."""
        return self.operate(tally)

    def traced_extras(self, tally: checks.Tally) -> dict[str, float]:
        """Per-layer metrics measured outside the re-drive (default none)."""
        return {}


# ---------------------------------------------------------------------- #
# in-process streaming solves
# ---------------------------------------------------------------------- #
class _SolveWorkload(Workload):
    """A workload whose operation is one in-process ``solve()``."""

    def setup(self) -> None:
        self.instance = self.generate()

    def solve(self):
        raise NotImplementedError

    def check(self, report) -> list[str]:
        raise NotImplementedError

    def operate(self, tally: checks.Tally) -> float:
        start = time.perf_counter()
        try:
            report = self.solve()
        except Exception as error:  # a failed operation, counted below
            tally.record([f"solve raised {error!r}"])
            return time.perf_counter() - start
        seconds = time.perf_counter() - start
        self.latencies.append(seconds)
        self.op_wall += seconds
        self.last = report
        tally.record(self.check(report) + self.check_pinned(list(report.solution)))
        return seconds

    def context(self, problem: str) -> ProblemContext:
        """The context ``solve(instance)`` resolves (seed 0, no backend)."""
        return ProblemContext(
            graph=self.instance.graph,
            problem=problem,
            k=self.instance.k,
            seed=0,
            instance=self.instance,
        )

    def end_to_end(self) -> dict[str, float]:
        report = self.last
        covered = checks.coverage(self.columns, report.solution)
        return {
            "op_p50_s": _median(self.latencies),
            "ops_per_s": len(self.latencies) / self.op_wall,
            "peak_rss_mb": _rss_mb(),
            "space_peak_edges": float(report.space_peak),
            "coverage_ratio": covered / self.planted_value,
            "cover_size_ratio": len(report.solution) / len(self.planted),
        }


class KCoverStream(_SolveWorkload):
    name = "kcover-stream"

    def solve(self):
        return repro.solve(self.instance)

    def check(self, report) -> list[str]:
        problems = []
        covered = checks.coverage(self.columns, report.solution)
        if covered != report.coverage:
            problems.append(f"coverage {report.coverage} != numpy {covered}")
        floor = checks.kcover_floor(self.planted_value, KCOVER_EPSILON)
        if covered < floor:
            problems.append(f"coverage {covered} below (1-1/e-eps)*Opt = {floor:.0f}")
        if len(report.solution) > self.k:
            problems.append(f"{len(report.solution)} sets chosen, k = {self.k}")
        return problems

    def redrive(self, tally: checks.Tally) -> dict[str, float]:
        graph = self.instance.graph
        algorithm = get_solver("kcover/sketch").builder(self.context("k_cover"))
        with span("streaming.stream_build"):
            stream = EdgeStream.from_graph(graph, order="random", seed=0)
        driver = MultiPassDriver(stream)
        algorithm.start_pass(0)
        with span("streaming.drive"):
            events = list(driver.new_pass())
        with span("core.rank"):
            UniformHash(0).value_many(self.columns[1].astype(np.uint64))
        with span("core.admit"):
            for event in events:
                algorithm.process(event)
        algorithm.finish_pass(0)
        with span("core.sketch_finalize"):
            sketch = algorithm.sketch()
        with span("offline.greedy"):
            selected = greedy_k_cover(sketch.graph, self.k).selected[: self.k]
            solution = tuple(dict.fromkeys(int(s) for s in selected))
        with span("coverage.evaluate"):
            graph.coverage(solution)
        tally.record(_mismatch("re-drive", solution, self.last.solution))
        info = algorithm.describe()
        return {
            "streaming.events": float(len(events)),
            "streaming.passes": float(driver.passes_used),
            **_builder_counts(info, sketch.threshold),
        }


class SetCoverMultipass(_SolveWorkload):
    name = "setcover-multipass"
    options = {"scale": 0.1}

    def setup(self) -> None:
        self.instance = self.generate("planted_setcover")

    def solve(self):
        return repro.solve(self.instance, "setcover/sketch", options=self.options)

    def check(self, report) -> list[str]:
        problems = []
        covered = checks.coverage(self.columns, report.solution)
        if covered != report.coverage:
            problems.append(f"coverage {report.coverage} != numpy {covered}")
        if covered != self.planted_value:
            problems.append(f"covers {covered} of {self.planted_value} elements")
        ceiling = checks.setcover_ceiling(
            len(self.planted), self.instance.graph.num_elements, SETCOVER_EPSILON
        )
        if len(report.solution) > ceiling:
            problems.append(
                f"{len(report.solution)} sets above (1+eps)*ln(m)*Opt = {ceiling:.1f}"
            )
        return problems

    def redrive(self, tally: checks.Tally) -> dict[str, float]:
        graph = self.instance.graph
        algorithm = get_solver("setcover/sketch").builder(
            self.context("set_cover"), **self.options
        )
        with span("streaming.stream_build"):
            stream = EdgeStream.from_graph(graph, order="random", seed=0)
        driver = MultiPassDriver(stream)
        events_seen = 0
        pass_index = 0
        while True:
            algorithm.start_pass(pass_index)
            with span("streaming.drive"):
                events = list(driver.new_pass())
            with span("core.admit"):
                for event in events:
                    algorithm.process(event)
            with span("core.setcover_finish"):
                algorithm.finish_pass(pass_index)
            events_seen += len(events)
            pass_index += 1
            if not algorithm.wants_another_pass():
                break
        solution = tuple(dict.fromkeys(int(s) for s in algorithm.result()))
        with span("coverage.evaluate"):
            graph.coverage(solution)
        tally.record(_mismatch("re-drive", solution, self.last.solution))
        return {
            "streaming.events": float(events_seen),
            "streaming.passes": float(driver.passes_used),
        }


def _mismatch(what: str, answer: tuple, reference: tuple) -> list[str]:
    """A problem when an answer differs from the ``solve()`` reference."""
    return [] if answer == reference else [f"{what} answer {answer} != solve() {reference}"]


def _builder_counts(info: dict, threshold: float) -> dict[str, float]:
    """The sketch builder's admission counters, under their metric names."""
    seen = float(info["edges_seen"])
    stored = float(info["stored_edges"])
    return {
        "core.edges_seen": seen,
        "core.edges_stored": stored,
        "core.edges_discarded": float(info["edges_discarded"]),
        "core.evictions": float(info["evictions"]),
        "core.threshold": float(threshold),
        "core.admit_ratio": stored / seen if seen else 0.0,
    }


# ---------------------------------------------------------------------- #
# the CLI over a columnar directory
# ---------------------------------------------------------------------- #
class DistributedColumnar(Workload):
    name = "distributed-columnar"

    #: CLI rows that must equal the in-process solve() of the same configuration.
    SAME_ROWS = (
        "machine_load_max", "communication_edges", "coordinator_edges",
        "merge_count", "peak_resident_sketches", "coverage_estimate",
        "merged_threshold",
    )
    peak_rss_kb = 0

    def setup(self) -> None:
        self.instance = self.generate()
        sets, elements = checks.edge_columns(self.instance.graph)
        self.column_dir = self.workdir / f"columns-{len(self.build_seconds)}"
        write_columnar_columns(
            sets.astype(np.uint64),
            elements.astype(np.uint64),
            self.column_dir,
            num_sets=self.instance.graph.num_sets,
        )

    def env(self) -> dict[str, str]:
        src = str(self.root / "src")
        path = os.environ.get("PYTHONPATH")
        return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}

    def cli_args(self) -> list[str]:
        return [
            sys.executable, "-m", "repro.cli", "run",
            "--edges", str(self.column_dir),
            "--k", str(self.k),
            "--machines", str(MACHINES),
            "--executor", "process",
            "--workers", str(WORKERS),
            "--scale", "0.1",
            "--seed", str(self.seed),
        ]

    def prepare(self) -> None:
        # The check reads the columns with numpy alone, not through the library.
        self.columns = (
            np.load(self.column_dir / "set_ids.npy").astype(np.int64),
            np.load(self.column_dir / "elements.npy").astype(np.int64),
        )
        self.planted = self.instance.planted_solution
        self.planted_value = checks.coverage(self.columns, self.planted)
        self.reference = repro.solve(
            open_columnar(self.column_dir),
            "kcover/distributed",
            problem_kind="k_cover",
            k=self.k,
            seed=self.seed,
            executor="process",
            max_workers=WORKERS,
            options={
                "epsilon": KCOVER_EPSILON,
                "scale": 0.1,
                "num_machines": MACHINES,
                "strategy": "random",
            },
        )
        covered = checks.coverage(self.columns, self.reference.solution)
        if covered != self.reference.coverage:
            self.reference_problems.append(
                f"reference coverage {self.reference.coverage} != numpy {covered}"
            )
        self.reference_problems += self.check_pinned(list(self.reference.solution))

    def run_cli(self, *extra: str) -> tuple[float, subprocess.CompletedProcess]:
        """One ``repro run`` from spawn to exit, with its peak RSS.

        The child is reaped with ``wait4`` so its resource usage (its own and
        that of its pool workers) is told apart from the benchmark's other
        children; output goes to files, so waiting cannot block on a pipe.
        """
        args = self.cli_args() + list(extra)
        out_path, err_path = self.workdir / "cli.out", self.workdir / "cli.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(args, stdout=out, stderr=err, env=self.env(), cwd=self.root)
            killer = threading.Timer(120, child.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        done = subprocess.CompletedProcess(
            args, child.returncode,
            out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"),
        )
        return seconds, done

    def check(self, done: subprocess.CompletedProcess) -> list[str]:
        if done.returncode != 0:
            return [f"repro run exited {done.returncode}: {done.stderr.strip()[-300:]}"]
        table = _parse_table(done.stdout)
        ref = self.reference
        expected = {
            "coverage": ref.coverage,
            "solution_size": ref.solution_size,
            **{row: ref.extra[row] for row in self.SAME_ROWS},
        }
        problems = list(self.reference_problems)
        for row, want in expected.items():
            got = _number(table.get(row))
            # Integers print exactly; floats with four significant digits.
            tolerance = 0 if isinstance(want, int) else 5e-4 * abs(want)
            if got is None or abs(got - want) > tolerance:
                problems.append(f"{row} {table.get(row)} != solve() {want}")
        floor = checks.kcover_floor(self.planted_value, KCOVER_EPSILON)
        if (_number(table.get("coverage")) or 0) < floor:
            problems.append(f"coverage below (1-1/e-eps)*Opt = {floor:.0f}")
        return problems

    def operate(self, tally: checks.Tally) -> float:
        seconds, done = self.run_cli()
        if done.returncode == 0:
            self.latencies.append(seconds)
            self.op_wall += seconds
            self.last = _parse_table(done.stdout)
        tally.record(self.check(done))
        return seconds

    def end_to_end(self) -> dict[str, float]:
        table = self.last
        return {
            "op_p50_s": _median(self.latencies),
            "ops_per_s": len(self.latencies) / self.op_wall,
            "peak_rss_mb": self.peak_rss_kb / 1024.0,
            "space_peak_edges": float(table["machine_load_max"]),
            "coverage_ratio": int(table["coverage"]) / self.planted_value,
            "cover_size_ratio": int(table["solution_size"]) / len(self.planted),
        }

    def redrive(self, tally: checks.Tally) -> dict[str, float]:
        with span("cli.import"):
            imported = subprocess.run(
                [sys.executable, "-c", "import repro.cli"],
                env=self.env(), cwd=self.root, timeout=120,
            )
        with span("coverage.io.to_graph"):
            columns = open_columnar(self.column_dir)
            graph = columns.to_graph()
        with span("distributed.partition"):
            EdgePartitioner(
                MACHINES, strategy="random", seed=self.seed,
                total_edges=columns.num_edges,
            ).assign(columns.set_ids, columns.elements)
        algorithm = DistributedKCover(
            graph.num_sets, max(1, graph.num_elements), k=self.k,
            epsilon=KCOVER_EPSILON, num_machines=MACHINES, strategy="random",
            scale=0.1, seed=self.seed, executor="process", max_workers=WORKERS,
        )
        jobs = [
            ShardRecomputeJob(
                machine_id=machine, path=str(columns.path), strategy="random",
                seed=self.seed, num_machines=MACHINES, params=algorithm.params,
                hash_seed=self.seed, batch_size=algorithm.batch_size,
            )
            for machine in range(MACHINES)
        ]
        tree = StreamingMergeTree(algorithm.params, hash_seed=self.seed)
        machines = []
        with algorithm.mapper.pool_scope():
            arrivals = algorithm.mapper.map_unordered(execute_map_job, jobs)
            while True:
                with span("distributed.map"):
                    arrival = next(arrivals, None)
                if arrival is None:
                    break
                machines.append(arrival[1])
                with span("distributed.reduce"):
                    tree.add(arrival[1])
        with span("distributed.reduce"):
            merged = tree.result()
        with span("distributed.greedy"):
            selected = greedy_k_cover(merged.graph, self.k).selected
            solution = tuple(dict.fromkeys(int(s) for s in selected))
        with span("coverage.evaluate"):
            graph.coverage(solution)
        problems = _mismatch("re-drive", solution, self.reference.solution)
        if imported.returncode != 0:
            problems.append(f"import repro.cli exited {imported.returncode}")
        tally.record(problems)
        stored = [m.edges_stored for m in machines]
        seen = float(sum(m.edges_processed for m in machines))
        return {
            "distributed.merges": float(tree.merge_count),
            "distributed.peak_resident_sketches": float(tree.peak_resident),
            "distributed.communication_edges": float(sum(stored)),
            "distributed.load_skew": max(stored) / (sum(stored) / len(stored)),
            "core.edges_seen": seen,
            "core.edges_stored": float(sum(stored)),
            "core.threshold": float(merged.threshold),
            "core.admit_ratio": sum(stored) / seen if seen else 0.0,
        }

    def traced_extras(self, tally: checks.Tally) -> dict[str, float]:
        """The CLI's own metrics export: the parallel layer's queue and work."""
        metrics_path = self.workdir / "cli-metrics.json"
        _seconds, done = self.run_cli("--metrics", str(metrics_path))
        tally.record(self.check(done))
        if done.returncode != 0:
            return {}
        snapshot = json.loads(metrics_path.read_text(encoding="utf-8"))

        def read(name: str, field: str) -> float:
            return float(snapshot.get(name, {}).get(field, 0.0))

        return {
            "parallel.jobs": read("parallel.jobs", "value"),
            "parallel.queue_wait_s": read("parallel.queue_wait_seconds", "sum"),
            "parallel.execute_s": read("parallel.execute_seconds", "sum"),
        }


def _number(text: str | None) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _parse_table(stdout: str) -> dict[str, str]:
    """The ``quantity value`` rows the CLI prints, as a dict of strings."""
    rows = {}
    for line in stdout.splitlines()[2:]:
        parts = line.split()
        if len(parts) == 2:
            rows[parts[0]] = parts[1]
    return rows


# ---------------------------------------------------------------------- #
# cached serving
# ---------------------------------------------------------------------- #
class ServeMixed(Workload):
    name = "serve-mixed"
    backend = "auto"
    min_ops = 400  # queries: every run sends at least this many

    def query_specs(self) -> dict[str, QuerySpec]:
        """Reads on two resident builds, writes on two that evict each other."""
        k = self.k
        base = {"scale": 0.1}
        return {
            "read-a": QuerySpec(k=k, options=base),
            "read-a-forbid": QuerySpec(k=k, options=base, forbidden=(0,)),
            "read-b": QuerySpec(k=k, options={**base, "epsilon": 0.3}),
            "write-1": QuerySpec(k=k, options={**base, "seed": 1000 + 2 * self.seed}),
            "write-2": QuerySpec(k=k, options={**base, "seed": 1001 + 2 * self.seed}),
        }

    def batch(self) -> list[str]:
        """One closed-loop batch: a write every WRITE_EVERY queries, else reads."""
        reads = ("read-a", "read-b", "read-a-forbid")
        labels = []
        for position in range(SERVE_BATCH):
            if position % WRITE_EVERY == 0:
                labels.append(f"write-{position // WRITE_EVERY % 2 + 1}")
            else:
                labels.append(reads[position % len(reads)])
        return labels

    def setup(self) -> None:
        self.instance = self.generate()
        # Capacity: the two read builds plus one write; each write evicts the
        # previous write's build, never a read's.
        self.engine = QueryEngine(
            self.instance, store=SketchStore(capacity=3), seed=self.seed,
            coverage_backend=self.backend,
        )
        self.specs = self.query_specs()
        for label in ("read-a", "read-b"):
            self.engine.query(self.specs[label])

    def prepare(self) -> None:
        super().prepare()
        self.reference = {}
        self.covered = {}
        for label, spec in self.specs.items():
            options = dict(spec.options)
            if spec.forbidden:
                options["forbidden"] = list(spec.forbidden)
            # The engine's stream settings: random order seeded like the
            # engine, batches of 1024 events.
            report = repro.solve(
                self.instance, "kcover/sketch", k=spec.k, options=options,
                stream=StreamSpec(order="random", seed=self.seed), batch_size=1024,
                seed=self.seed, coverage_backend=self.backend,
            )
            self.reference[label] = report.solution
            self.covered[label] = checks.coverage(self.columns, report.solution)
            if self.covered[label] != report.coverage:
                self.reference_problems.append(
                    f"{label}: solve() coverage {report.coverage} != numpy {self.covered[label]}"
                )
        self.reference_problems += self.check_pinned(
            {label: list(solution) for label, solution in self.reference.items()}
        )
        self.space_peak = 0
        self.drive_wall = 0.0

    def check(self, label: str, report) -> list[str]:
        mismatch = _mismatch(f"{label} served", report.solution, self.reference[label])
        problems = self.reference_problems + mismatch
        if not mismatch and report.coverage != self.covered[label]:
            problems.append(f"{label}: coverage {report.coverage} != numpy {self.covered[label]}")
        floor = checks.kcover_floor(self.planted_value, KCOVER_EPSILON)
        if not self.specs[label].forbidden and report.coverage < floor:
            problems.append(f"{label}: coverage below (1-1/e-eps)*Opt = {floor:.0f}")
        return problems

    def drive(self, tally: checks.Tally, clients: int, executor: str):
        labels = self.batch()
        try:
            load = drive_queries(
                self.engine, [self.specs[label] for label in labels],
                clients=clients, executor=executor,
            )
        except Exception as error:  # the whole batch failed
            for _ in labels:
                tally.record([f"drive raised {error!r}"])
            return None, labels
        for label, report in zip(labels, load.reports):
            tally.record(self.check(label, report))
            if label == "read-a":
                self.space_peak = report.space_peak
        return load, labels

    def operate(self, tally: checks.Tally) -> float:
        load, _labels = self.drive(tally, clients=WORKERS, executor="thread")
        if load is None:
            return 0.0
        self.latencies += load.latencies
        self.drive_wall += load.wall_seconds
        return load.wall_seconds

    def end_to_end(self) -> dict[str, float]:
        unforbidden = [
            self.covered[label] for label, spec in self.specs.items() if not spec.forbidden
        ]
        return {
            "op_p50_s": _median(self.latencies),
            "ops_per_s": len(self.latencies) / self.drive_wall,
            "peak_rss_mb": _rss_mb(),
            "space_peak_edges": float(self.space_peak),
            "coverage_ratio": min(unforbidden) / self.planted_value,
            "cover_size_ratio": len(self.reference["read-a"]) / len(self.planted),
        }

    # -- traced run -----------------------------------------------------
    def traced_extras(self, tally: checks.Tally) -> dict[str, float]:
        """Latency by cache outcome and store counters from a 2-client drive."""
        before = self.engine.store.stats()
        load, labels = self.drive(tally, clients=WORKERS, executor="thread")
        after = self.engine.store.stats()
        if load is None:
            return {}
        hits = [lat for lat, r in zip(load.latencies, load.reports) if r.extra["cache_hit"]]
        misses = [lat for lat, r in zip(load.latencies, load.reports) if not r.extra["cache_hit"]]
        return {
            "serve.hit_s": _median(hits),
            "serve.miss_s": _median(misses),
            "serve.query_p95_s": load.latency.quantile(95),
            "serve.hit_ratio": len(hits) / len(labels),
            "serve.builds": float(after["builds"] - before["builds"]),
            "serve.evictions": float(after["evictions"] - before["evictions"]),
        }

    def untraced_baseline(self, tally: checks.Tally) -> float:
        """The re-drive's untraced twin: the same batch from one serial client."""
        load, _labels = self.drive(tally, clients=1, executor="serial")
        return load.wall_seconds if load is not None else 0.0

    def prepare_redrive(self) -> None:
        self.redrive_store = SketchStore(capacity=3)
        self.redrive_info: dict = {}
        for label in ("read-a", "read-b"):
            self._lookup(label)

    def _build(self, algorithm):
        """One engine build: stream the dataset through ``algorithm``."""
        with span("streaming.stream_build"):
            stream = EdgeStream.from_graph(
                self.instance.graph, order="random", seed=self.seed
            )
        driver = MultiPassDriver(stream)
        algorithm.start_pass(0)
        with span("streaming.drive"):
            batches = list(driver.new_batch_pass(1024))
        with span("core.admit"):
            for batch in batches:
                algorithm.process_batch(batch)
        algorithm.finish_pass(0)
        with span("core.sketch_finalize"):
            sketch = algorithm.sketch()
        self.redrive_info = {
            "streaming.events": float(sum(len(b) for b in batches)),
            "streaming.passes": float(driver.passes_used),
            **_builder_counts(algorithm.describe(), sketch.threshold),
        }
        return sketch, KernelCache(sketch.graph)

    def _lookup(self, label: str):
        """The engine's k-cover lookup: a probe solver derives the build key."""
        spec = self.specs[label]
        ctx = ProblemContext(
            graph=self.instance.graph, problem="k_cover", k=spec.k, seed=self.seed,
            instance=self.instance, coverage_backend=self.backend,
        )
        with span("serve.lookup"):
            probe = get_solver("kcover/sketch").builder(ctx, **spec.options)
            params = probe.params
            key = SketchKey(
                self.engine.fingerprint, "kcover/sketch",
                (params.edge_budget, params.degree_cap, params.eviction_slack,
                 int(spec.options.get("seed", self.seed))),
            )
            entry, _hit = self.redrive_store.get_or_build(key, lambda: self._build(probe))
        return entry

    def redrive(self, tally: checks.Tally) -> dict[str, float]:
        graph = self.instance.graph
        for label in self.batch():
            spec = self.specs[label]
            sketch, kernels = self._lookup(label)
            with span("coverage.kernel_pack"):
                kernel = kernels.get(self.backend)
            with span("offline.greedy"):
                selected = greedy_k_cover(
                    sketch.graph, spec.k, forbidden=spec.forbidden, kernel=kernel
                ).selected[: spec.k]
                solution = tuple(dict.fromkeys(int(s) for s in selected))
            with span("coverage.evaluate"):
                graph.coverage(solution)
            tally.record(_mismatch(f"{label} re-drive", solution, self.reference[label]))
        return dict(self.redrive_info)


WORKLOADS = {
    cls.name: cls
    for cls in (KCoverStream, SetCoverMultipass, DistributedColumnar, ServeMixed)
}
