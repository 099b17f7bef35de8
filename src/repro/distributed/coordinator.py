"""Coordinator: merge machine sketches and solve coverage problems on the merge.

The merge rule exploits the structure of ``H_{<=n}``:

1. Every machine used the **same** hash function, so an element's rank is
   global.  A machine's sketch contains, for every element below its local
   threshold, *all* of that element's shard edges (up to the degree cap).
2. The coordinator therefore keeps only elements whose rank is below the
   **minimum** of the machines' thresholds — for those elements the union of
   the shard edges is the element's full (capped) global edge set.
3. The union is then re-capped and re-trimmed to the global edge budget in
   rank order, exactly as the offline Algorithm 1 would, yielding a sketch of
   the *whole* input.  In particular the merged threshold follows Algorithm
   1's convention: the hash of the last **admitted** element when the budget
   truncates the union, the global minimum otherwise.

This is the composability property the companion paper builds its MapReduce
algorithms on; :class:`DistributedKCover` packages it into a two-round
distributed k-cover: round 1 — machines sketch their shards; round 2 — the
coordinator merges and runs the offline greedy (optionally on a packed
coverage kernel, see ``coverage_backend``).

Reduce modes
------------
The merge operator is associative and commutative (the admission pass
depends only on the multiset of surviving ``(set, element, rank)`` rows, not
on how they were grouped), so the reduce does not have to be a barrier.
:class:`StreamingMergeTree` merges machine sketches pairwise **as they
arrive** from :meth:`~repro.parallel.ParallelMapper.map_unordered` — a
binary-counter tree that keeps at most ``O(log num_machines)`` sketches
resident for *any* arrival order and produces the byte-identical final
sketch the one-shot barrier merge produces (property-tested across
executors, worker counts and adversarial arrival orders).  The ``reduce``
knob selects the mode; ``streaming`` is the default.

The whole pipeline is columnar: sharding decides whole
:class:`~repro.streaming.batches.EventBatch` columns at a time
(:class:`~repro.distributed.partition.EdgePartitioner`), workers ingest
batches through the sketch builder's vectorised path, and the merge itself
stacks the shard sketches' edge columns and runs one lexsort admission pass.
:meth:`DistributedKCover.run_from_columnar` closes the loop for on-disk
inputs: with a parallel executor **every** partition strategy ships only a
job description — ``row_range`` slices carry path + row bounds
(:class:`~repro.distributed.worker.ColumnarSliceJob`), every other strategy
carries path + routing parameters and recomputes its shard locally
(:class:`~repro.distributed.worker.ShardRecomputeJob`) — so the coordinator
never materialises a single per-edge Python tuple and no edge bytes cross a
process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.sketch import CoverageSketch, admit_columns
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.distributed.partition import EdgePartitioner, row_range_bounds
from repro.distributed.worker import (
    DEFAULT_MAP_BATCH,
    ColumnarSliceJob,
    MachineShardJob,
    MachineSketch,
    MapJob,
    ShardRecomputeJob,
    execute_map_job,
)
from repro.offline.greedy import greedy_k_cover
from repro.parallel import ExecutorBackend, ParallelMapper, as_mapper
from repro.streaming.batches import EventBatch
from repro.streaming.stream import EdgeStream
from repro.utils.validation import check_positive_int

__all__ = [
    "REDUCE_MODES",
    "merge_machine_sketches",
    "StreamingMergeTree",
    "DistributedRunReport",
    "DistributedKCover",
]

#: How the coordinator gathers machine sketches: ``barrier`` holds all of
#: them and merges once; ``streaming`` merges pairwise as they arrive,
#: keeping O(log machines) resident.  Both produce byte-identical runs.
REDUCE_MODES = ("barrier", "streaming")

#: Reduce telemetry (process-global; the per-run truth stays in the report).
#: Created once at import so :func:`repro.obs.MetricsRegistry.reset` between
#: runs zeroes these handles in place instead of orphaning them.
_MERGES = obs.global_metrics().counter(
    "distributed.merges", help="pairwise sketch merges run by any reduce"
)
_FOLD_HEIGHT = obs.global_metrics().histogram(
    "distributed.fold_height",
    buckets=obs.SIZE_BUCKETS,
    help="merge-tree subtree height at each streaming fold",
)
_RESIDENT = obs.global_metrics().gauge(
    "distributed.resident_sketches",
    help="machine sketches held by the coordinator right now (max = peak)",
)


def merge_machine_sketches(
    machine_sketches: Sequence[MachineSketch],
    params: SketchParams,
    *,
    hash_seed: int = 0,
) -> CoverageSketch:
    """Merge per-shard sketches into a sketch of the union of the shards.

    The shard sketches' ``(set, element, rank)`` columns are stacked and
    :func:`repro.core.sketch.admit_columns` — Algorithm 1's admission, the
    same function :func:`~repro.core.sketch.build_h_leq_n` runs — admits
    them in one lexsort pass.  ``hash_seed`` names the hash every machine
    shared; the ranks themselves travel with the columns.  When
    the union overflows the edge budget the merged threshold is the hash of
    the last *admitted* element, matching
    :func:`repro.core.sketch.build_h_leq_n` (the data-dependent ``p*``); a
    union that fits keeps the global minimum of the machine thresholds.
    """
    if not machine_sketches:
        raise ValueError("need at least one machine sketch to merge")
    return _merge_sketches([ms.sketch for ms in machine_sketches], params)


def _merge_sketches(
    sketches: Sequence[CoverageSketch], params: SketchParams
) -> CoverageSketch:
    """The admission pass over raw sketches (the associative merge operator).

    Associativity/commutativity, which the streaming tree relies on: the
    lexsort realises one global total order by ``(rank, element, set)``, so
    the surviving rows depend only on the *multiset* of input rows.  An
    intermediate merge can only (a) drop whole elements whose rank exceeds
    its own admitted threshold — but that threshold is itself >= the final
    one, so those elements would be dropped at the root anyway — and (b)
    cap an element's owners to the smallest ``degree_cap`` set ids —
    smallest-of-union selection, which is associative.  Hash ties between
    distinct elements (probability ~2^-64) are the only caveat, the same
    caveat the barrier merge already carries.
    """
    global_threshold = min(sketch.threshold for sketch in sketches)
    columns = [sketch.edge_columns() for sketch in sketches]
    return admit_columns(
        np.concatenate([c[0] for c in columns]),
        np.concatenate([c[1] for c in columns]),
        np.concatenate([sketch.edge_ranks() for sketch in sketches]),
        params,
        ceiling=global_threshold,
    )


@dataclass
class _MergeNode:
    """One in-flight subtree of the streaming reduce.

    ``carried`` accumulates the degree-cap truncation flags the *flat* merge
    would have computed: an intermediate pass sees already-capped child
    degrees, so its own ``truncated_elements`` under-reports whenever the
    true union degree exceeded the cap at a lower level.  The propagation
    rule ``computed ∪ ((left ∪ right) ∩ admitted)`` restores exactly the
    flat set (leaves carry nothing — the barrier merge ignores the machines'
    own shard-level flags the same way).
    """

    height: int
    sketch: CoverageSketch
    carried: frozenset[int]


class StreamingMergeTree:
    """Incremental pairwise reduce of machine sketches, O(log M) resident.

    Sketches enter as height-0 subtrees; whenever two subtrees of equal
    height exist they merge immediately (a binary counter over subtree
    heights), so at most ``log2(M) + 1`` sketches are ever resident at the
    coordinator **regardless of arrival order** — a fixed-shape tree would
    degrade to ``M/2`` resident under an adversarial order.  Because the
    merge operator is associative and commutative (see
    :func:`_merge_sketches`), the final sketch is byte-identical to the
    one-shot barrier merge for every arrival order, even though the
    intermediate groupings differ.

    ``peak_resident`` and ``merge_count`` feed the run report;
    :meth:`result` drains the remaining subtrees (total pairwise merges:
    ``M - 1``) and may be called once.
    """

    def __init__(self, params: SketchParams, *, hash_seed: int = 0) -> None:
        self.params = params
        self.hash_seed = hash_seed
        self._slots: list[_MergeNode | None] = []
        self._added = 0
        #: Pairwise merge passes run so far (``M - 1`` after :meth:`result`).
        self.merge_count = 0
        #: Sketches currently held (slots plus the one being sifted in).
        self.resident = 0
        #: High-water mark of ``resident`` — the memory model the report and
        #: the benchmark gate: O(log M) vs the barrier's M.
        self.peak_resident = 0

    def add(self, machine_sketch: MachineSketch) -> None:
        """Fold one arriving machine sketch into the tree (carry-merge)."""
        node = _MergeNode(
            height=0, sketch=machine_sketch.sketch, carried=frozenset()
        )
        self._added += 1
        self.resident += 1
        self.peak_resident = max(self.peak_resident, self.resident)
        _RESIDENT.set(self.resident)
        while node.height < len(self._slots) and self._slots[node.height] is not None:
            other = self._slots[node.height]
            self._slots[node.height] = None
            node = self._merge_pair(other, node)
        if node.height == len(self._slots):
            self._slots.append(None)
        self._slots[node.height] = node

    def _merge_pair(self, left: _MergeNode, right: _MergeNode) -> _MergeNode:
        """Merge two subtrees, propagating the carried truncation flags."""
        height = max(left.height, right.height) + 1
        with obs.span("reduce.fold", height=height):
            merged = _merge_sketches(
                [left.sketch, right.sketch], self.params
            )
        carried = frozenset(merged.truncated_elements) | frozenset(
            element
            for element in (left.carried | right.carried)
            if element in merged.element_hashes
        )
        self.merge_count += 1
        self.resident -= 1
        _MERGES.inc()
        _FOLD_HEIGHT.observe(height)
        _RESIDENT.set(self.resident)
        return _MergeNode(height=height, sketch=merged, carried=carried)

    def result(self) -> CoverageSketch:
        """Drain the remaining subtrees into the final merged sketch."""
        nodes = [node for node in self._slots if node is not None]
        if not nodes:
            raise ValueError("no machine sketches were added to the merge tree")
        self._slots = []
        node = nodes[0]
        for other in nodes[1:]:
            node = self._merge_pair(node, other)
        if self.merge_count == 0:
            # A single machine never pairs up, but the barrier merge still
            # runs one admission pass over that lone sketch — match it.
            with obs.span("reduce.merge", machines=1):
                merged = _merge_sketches([node.sketch], self.params)
            self.merge_count += 1
            _MERGES.inc()
            return merged
        return node.sketch.with_truncated(node.carried)


@dataclass
class DistributedRunReport:
    """Everything measured about one distributed run."""

    solution: list[int]
    coverage_estimate: float
    num_machines: int
    strategy: str
    rounds: int
    shard_edges: list[int] = field(default_factory=list)
    machine_stored_edges: list[int] = field(default_factory=list)
    coordinator_edges: int = 0
    communication_edges: int = 0
    merged_threshold: float = 1.0
    coverage_backend: str | None = None
    executor: str = "serial"
    map_workers: int = 1
    #: Which reduce gathered the machine sketches (see :data:`REDUCE_MODES`).
    reduce_mode: str = "barrier"
    #: Most machine sketches the coordinator held at once: ``num_machines``
    #: for the barrier, O(log num_machines) for the streaming tree.
    peak_resident_sketches: int = 0
    #: Merge passes the reduce ran: 1 for the barrier, ``num_machines - 1``
    #: pairwise passes for the streaming tree.
    merge_count: int = 0

    @property
    def max_machine_load(self) -> int:
        """Largest number of edges any machine had to store."""
        return max(self.machine_stored_edges, default=0)

    @property
    def min_machine_load(self) -> int:
        """Smallest number of edges any machine had to store."""
        return min(self.machine_stored_edges, default=0)

    @property
    def mean_machine_load(self) -> float:
        """Mean number of stored edges per machine."""
        if not self.machine_stored_edges:
            return 0.0
        return sum(self.machine_stored_edges) / len(self.machine_stored_edges)

    def as_dict(self) -> dict[str, object]:
        """Flatten for experiment tables.

        The per-machine load distribution is reported as min/mean/max columns
        for both the raw shard sizes and the stored (post-sketch) edges, so
        load-balance across sharding strategies shows up in result tables.
        """
        shard = self.shard_edges
        return {
            "num_machines": self.num_machines,
            "strategy": self.strategy,
            "rounds": self.rounds,
            "solution_size": len(self.solution),
            "coverage_estimate": self.coverage_estimate,
            "shard_edges_min": min(shard, default=0),
            "shard_edges_mean": (sum(shard) / len(shard)) if shard else 0.0,
            "shard_edges_max": max(shard, default=0),
            "machine_load_min": self.min_machine_load,
            "machine_load_mean": self.mean_machine_load,
            "machine_load_max": self.max_machine_load,
            "coordinator_edges": self.coordinator_edges,
            "communication_edges": self.communication_edges,
            "merged_threshold": self.merged_threshold,
            "coverage_backend": self.coverage_backend or "-",
            "executor": self.executor,
            "map_workers": self.map_workers,
            "reduce_mode": self.reduce_mode,
            "peak_resident_sketches": self.peak_resident_sketches,
            "merge_count": self.merge_count,
        }


class DistributedKCover:
    """Two-round distributed (MapReduce-style) k-cover via composable sketches.

    Parameters
    ----------
    num_sets, num_elements:
        Instance dimensions (known to every machine, as in the paper).
    k, epsilon:
        Problem and accuracy parameters.
    num_machines:
        Number of simulated machines.
    strategy:
        Edge partitioning strategy (see :mod:`repro.distributed.partition`).
    params:
        Explicit sketch budgets (defaults to Algorithm 3's choice).
    coverage_backend:
        Optional packed-bitset kernel backend name (``"auto"``, ``"bytes"``,
        ``"words"``); the coordinator's greedy then runs on a kernel packed
        from the merged sketch (same selections, faster on dense merges).
    batch_size:
        Map-phase batch size for the columnar paths.
    executor:
        Executor backend for the map phase (``"serial"``, ``"thread"``,
        ``"process"``, ``"auto"``, an
        :class:`~repro.parallel.ExecutorBackend` or a prebuilt
        :class:`~repro.parallel.ParallelMapper`); ``None`` keeps the serial
        loop.  Every backend produces byte-identical runs (property-tested).
    max_workers:
        Pool-size cap for the parallel executors (defaults to the usable
        CPU count).
    reduce:
        Reduce mode (see :data:`REDUCE_MODES`).  ``"streaming"`` (default)
        merges machine sketches pairwise as they complete — overlapping the
        reduce with the slowest mappers and holding O(log num_machines)
        sketches instead of all of them — ``"barrier"`` gathers every sketch
        first and merges once.  Byte-identical outcomes either way.
    """

    def __init__(
        self,
        num_sets: int,
        num_elements: int,
        k: int,
        epsilon: float = 0.2,
        *,
        num_machines: int = 4,
        strategy: str = "random",
        params: SketchParams | None = None,
        mode: str = "scaled",
        scale: float = 1.0,
        seed: int = 0,
        coverage_backend: str | None = None,
        batch_size: int = DEFAULT_MAP_BATCH,
        executor: str | ExecutorBackend | ParallelMapper | None = None,
        max_workers: int | None = None,
        reduce: str = "streaming",
    ) -> None:
        from repro.core.kcover import default_kcover_params

        check_positive_int(num_machines, "num_machines")
        check_positive_int(k, "k")
        check_positive_int(batch_size, "batch_size")
        if reduce not in REDUCE_MODES:
            raise ValueError(
                f"unknown reduce mode {reduce!r}; expected one of {REDUCE_MODES}"
            )
        self.num_sets = num_sets
        self.num_elements = num_elements
        self.k = k
        self.epsilon = epsilon
        self.num_machines = num_machines
        self.strategy = strategy
        self.seed = seed
        self.coverage_backend = coverage_backend
        self.batch_size = batch_size
        self.reduce = reduce
        self.mapper = as_mapper(executor, max_workers)
        self.params = params or default_kcover_params(
            num_sets, num_elements, k, epsilon, mode=mode, scale=scale
        )

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #
    def run(self, edges: Iterable[tuple[int, int]]) -> DistributedRunReport:
        """Execute the two distributed rounds on an in-memory edge set.

        The edges are packed into one columnar batch up front; sharding and
        the map phase then run entirely on the batched engine (identical
        results to per-edge sharding plus scalar workers, property-tested).
        """
        batch = edges if isinstance(edges, EventBatch) else EventBatch.from_edges(edges)
        return self.run_batched([batch], total_edges=len(batch))

    def run_batched(
        self,
        batches: Iterable[EventBatch],
        *,
        total_edges: int | None = None,
    ) -> DistributedRunReport:
        """Map a stream of edge batches across the machines and reduce.

        Each batch is routed in one vectorised assignment, each machine's
        sub-batch goes through its sketch builder's native ``process_batch``,
        and no per-edge Python objects are created anywhere.  ``total_edges``
        is only needed by the ``row_range`` strategy.

        With a parallel executor the sub-batches are first collected per
        machine and then fanned out as one
        :class:`~repro.distributed.worker.MachineShardJob` per machine —
        batch boundaries do not change a builder's final state (property-
        tested), so the collected feed is byte-identical to the serial
        incremental one.  Collection holds the whole pass's columns in
        coordinator memory (and the process backend additionally pickles
        each shard to its child), where the serial loop holds one batch at
        a time — the parallel win costs ``O(total_edges)`` resident.  For
        on-disk workloads prefer :meth:`run_from_columnar`, whose jobs ship
        no edge data for any strategy.
        """
        partitioner = EdgePartitioner(
            self.num_machines,
            strategy=self.strategy,
            seed=self.seed,
            total_edges=total_edges,
        )
        if not self.mapper.is_serial:
            return self._run_batched_parallel(batches, partitioner)
        builders = [
            StreamingSketchBuilder(self.params, hash_fn=UniformHash(self.seed))
            for _ in range(self.num_machines)
        ]
        shard_edges = [0] * self.num_machines
        for batch in batches:
            for machine, sub in enumerate(partitioner.split(batch)):
                if len(sub):
                    builders[machine].process_batch(sub)
                    shard_edges[machine] += len(sub)
        return self._reduce(self._drain_builders(builders), shard_edges)

    @staticmethod
    def _drain_builders(
        builders: Sequence[StreamingSketchBuilder],
    ) -> Iterator[MachineSketch]:
        """Finalise the serial builders one at a time (lazily, in machine order).

        Yielding lazily lets the streaming reduce fold machine ``i``'s
        sketch into the merge tree before machine ``i+1``'s is even built,
        so the serial path gets the same O(log M) resident-sketch bound as
        the parallel one.
        """
        for machine_id, builder in enumerate(builders):
            with obs.span("map.machine", machine=machine_id):
                sketch = builder.sketch()
            yield MachineSketch(
                machine_id=machine_id,
                sketch=sketch,
                edges_processed=builder.edges_seen,
                edges_stored=sketch.num_edges,
            )

    def _run_batched_parallel(
        self, batches: Iterable[EventBatch], partitioner: EdgePartitioner
    ) -> DistributedRunReport:
        """Route every batch, then fan the collected shards over the executor."""
        chunks: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(self.num_machines)
        ]
        for batch in batches:
            for machine, sub in enumerate(partitioner.split(batch)):
                if len(sub):
                    chunks[machine].append((sub.set_ids, sub.elements))
        jobs = []
        for machine_id, parts in enumerate(chunks):
            if parts:
                set_ids = np.concatenate([p[0] for p in parts])
                elements = np.concatenate([p[1] for p in parts])
            else:
                set_ids = np.empty(0, dtype=np.uint64)
                elements = np.empty(0, dtype=np.uint64)
            jobs.append(
                MachineShardJob(
                    machine_id=machine_id,
                    set_ids=set_ids,
                    elements=elements,
                    params=self.params,
                    hash_seed=self.seed,
                    batch_size=self.batch_size,
                    num_sets=self.params.num_sets,
                )
            )
        shard_edges = [len(job.set_ids) for job in jobs]
        return self._map_reduce(jobs, shard_edges)

    def run_from_columnar(self, source) -> DistributedRunReport:
        """Execute the rounds straight off a columnar directory (or view).

        ``source`` is a path written by
        :func:`repro.coverage.io.write_columnar` or an already-open
        :class:`repro.coverage.io.ColumnarEdges`.  The coordinator touches
        no edge data at all: with the ``row_range`` strategy each worker
        streams its own contiguous row slice of the memory-mapped columns,
        and under a parallel executor every *other* strategy ships a
        :class:`~repro.distributed.worker.ShardRecomputeJob` — path plus
        routing parameters — whose worker re-opens the directory, re-runs
        the deterministic partitioner locally and keeps only its own rows.
        Either way **zero edge bytes** are pickled to workers for every
        strategy.  Results are byte-identical to :meth:`run` on the same
        edges in file order (property-tested per strategy).

        A serial mapper routes non-``row_range`` strategies through
        :meth:`run_batched` instead — one scan of the file feeding all the
        builders beats ``num_machines`` redundant scans when there is no
        parallelism to hide them — and an in-memory-only view (no backing
        path) has nothing for a child to re-open, so it takes the same
        routed path.
        """
        from repro.coverage.io import ColumnarEdges, open_columnar

        columns = source if isinstance(source, ColumnarEdges) else open_columnar(source)
        if self.strategy != "row_range":
            if self.mapper.is_serial or columns.path is None:
                stream = EdgeStream.from_columnar(columns, order="given")
                return self.run_batched(
                    stream.iter_batches(self.batch_size), total_edges=stream.num_events
                )
            jobs: list[MapJob] = [
                ShardRecomputeJob(
                    machine_id=i,
                    path=str(columns.path),
                    strategy=self.strategy,
                    seed=self.seed,
                    num_machines=self.num_machines,
                    params=self.params,
                    hash_seed=self.seed,
                    batch_size=self.batch_size,
                )
                for i in range(self.num_machines)
            ]
            # Shard sizes are discovered by the workers themselves (each
            # job's edges_processed is its shard's row count).
            return self._map_reduce(jobs, shard_edges=None)
        bounds = row_range_bounds(columns.num_edges, self.num_machines)
        ship_paths = (
            self.mapper.backend.requires_pickling and columns.path is not None
        )
        slice_jobs: list[MapJob] = []
        for i in range(self.num_machines):
            if ship_paths:
                slice_jobs.append(
                    ColumnarSliceJob(
                        machine_id=i,
                        path=str(columns.path),
                        row_start=int(bounds[i]),
                        row_stop=int(bounds[i + 1]),
                        params=self.params,
                        hash_seed=self.seed,
                        batch_size=self.batch_size,
                    )
                )
            else:
                slice_jobs.append(
                    MachineShardJob(
                        machine_id=i,
                        set_ids=columns.set_ids[bounds[i] : bounds[i + 1]],
                        elements=columns.elements[bounds[i] : bounds[i + 1]],
                        params=self.params,
                        hash_seed=self.seed,
                        batch_size=self.batch_size,
                        num_sets=max(1, columns.num_sets),
                        num_elements_hint=columns.num_elements,
                    )
                )
        shard_edges = [int(bounds[i + 1] - bounds[i]) for i in range(self.num_machines)]
        return self._map_reduce(slice_jobs, shard_edges)

    # ------------------------------------------------------------------ #
    # round 1: map (executor fan-out)
    # ------------------------------------------------------------------ #
    def _map_reduce(
        self, jobs: Sequence[MapJob], shard_edges: list[int] | None
    ) -> DistributedRunReport:
        """Fan the map jobs over the executor and reduce in the configured mode.

        One :meth:`~repro.parallel.ParallelMapper.pool_scope` wraps the whole
        run, so the map fan-out and a streaming reduce's as-completed gather
        share a single pool instead of paying worker start-up per call.  In
        ``streaming`` mode sketches flow straight from
        :meth:`~repro.parallel.ParallelMapper.map_unordered` into the merge
        tree — the reduce overlaps the slowest mappers; in ``barrier`` mode
        the ordered gather lands first and one flat merge follows.
        """
        with self.mapper.pool_scope():
            if self.reduce == "streaming":
                arrivals = (
                    sketch
                    for _, sketch in self.mapper.map_unordered(execute_map_job, jobs)
                )
                return self._reduce(arrivals, shard_edges)
            return self._reduce(self._map_jobs(jobs), shard_edges)

    def _map_jobs(self, jobs: Sequence[MapJob]) -> list[MachineSketch]:
        """Fan the map jobs over the executor; gather in machine-id order.

        The mapper already returns results in input order; the explicit sort
        re-asserts the invariant the barrier merge's report depends on.
        After the call, ``self.mapper.last_execution`` says what actually
        ran (the sandbox fallback degrades to serial), and the report
        records that truth.
        """
        machine_sketches = self.mapper.map(execute_map_job, jobs)
        machine_sketches.sort(key=lambda ms: ms.machine_id)
        return machine_sketches

    # ------------------------------------------------------------------ #
    # round 2: reduce
    # ------------------------------------------------------------------ #
    def _reduce(
        self,
        machine_sketches: Iterable[MachineSketch],
        shard_edges: list[int] | None,
    ) -> DistributedRunReport:
        """Merge the machine sketches (barrier or streaming) and solve.

        ``machine_sketches`` may arrive in any order — the streaming tree is
        order-independent and the per-machine stats are keyed by machine id.
        ``shard_edges=None`` means the callers didn't route the shards
        themselves (shard-recompute jobs); each machine's ``edges_processed``
        is then its shard size.  ``self.mapper.last_execution`` is read
        *after* the sketches are drained, so it reflects what the map phase
        actually ran on (including the sandbox fallback).
        """
        stats: dict[int, tuple[int, int]] = {}
        if self.reduce == "streaming":
            tree = StreamingMergeTree(self.params, hash_seed=self.seed)
            for ms in machine_sketches:
                stats[ms.machine_id] = (ms.edges_processed, ms.edges_stored)
                tree.add(ms)
            merged = tree.result()
            peak_resident, merge_count = tree.peak_resident, tree.merge_count
        else:
            gathered = sorted(machine_sketches, key=lambda ms: ms.machine_id)
            stats = {
                ms.machine_id: (ms.edges_processed, ms.edges_stored)
                for ms in gathered
            }
            _RESIDENT.set(len(gathered))
            with obs.span("reduce.merge", machines=len(gathered)):
                merged = merge_machine_sketches(
                    gathered, self.params, hash_seed=self.seed
                )
            _MERGES.inc()
            _RESIDENT.set(1)
            peak_resident, merge_count = len(gathered), 1
        machine_ids = sorted(stats)
        machine_stored_edges = [stats[i][1] for i in machine_ids]
        if shard_edges is None:
            shard_edges = [stats[i][0] for i in machine_ids]
        execution = self.mapper.last_execution

        from repro.coverage.bitset import kernel_for

        with obs.span("distributed.greedy", k=self.k):
            kernel = kernel_for(merged, self.coverage_backend)
            solution = greedy_k_cover(merged, self.k, kernel=kernel).selected
        return DistributedRunReport(
            solution=solution,
            coverage_estimate=merged.estimate_coverage(solution),
            num_machines=self.num_machines,
            strategy=self.strategy,
            rounds=2,
            shard_edges=shard_edges,
            machine_stored_edges=machine_stored_edges,
            coordinator_edges=merged.num_edges,
            communication_edges=sum(machine_stored_edges),
            merged_threshold=merged.threshold,
            coverage_backend=kernel.backend.name if kernel is not None else None,
            executor=execution[0],
            map_workers=execution[1],
            reduce_mode=self.reduce,
            peak_resident_sketches=peak_resident,
            merge_count=merge_count,
        )
