"""Vectorised coverage evaluation with packed bitsets.

Greedy, local search and the experiment sweeps evaluate ``C(S)`` thousands of
times; the pure-Python set unions in :class:`BipartiteGraph` are fine for
streaming-sized sketches but become the bottleneck for large offline
reference runs.  Following the HPC guidance (vectorise the hot loop, keep the
algorithmic code unchanged), :class:`BitsetCoverage` packs every set's
membership into bit rows so that

* union of a family  = bitwise OR over rows,
* coverage value     = popcount of the union,
* marginal gain      = popcount of ``candidate AND NOT covered``,

all as whole-array operations.  The packing layout and popcount strategy come
from a pluggable :class:`~repro.coverage.kernels.KernelBackend` (``"bytes"``
for the original ``uint8`` lanes, ``"words"`` for ``uint64`` lanes touching
8x fewer lanes, ``"auto"`` to pick the fastest available); all backends are
bit-for-bit identical on every query (property-tested).

On top of the kernels, :meth:`greedy_k_cover` is *lazy* by default
(CELF-style): a max-heap of stale upper bounds over the vectorised marginal
gains means each selection step re-evaluates only the candidates whose bound
still beats the current best, via the :meth:`gains_for` subset kernel —
instead of recomputing all ``n`` gains per step as the eager path does.  The
evaluator is a drop-in read-only companion to a :class:`BipartiteGraph`:
results are bit-for-bit identical (property-tested) and substantially faster
on dense instances (``benchmarks/bench_offline_throughput.py`` quantifies the
difference).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.kernels import (
    KernelBackend,
    canonical_backend_name,
    resolve_kernel_backend,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sketch import CoverageSketch

__all__ = ["BitsetCoverage", "KernelCache", "kernel_for"]


def kernel_for(
    graph: "BipartiteGraph | CoverageSketch", backend: str | KernelBackend | None
) -> "BitsetCoverage | None":
    """A packed kernel of ``graph``, or ``None`` when no backend is requested.

    The shared guard for solvers whose *offline phase* optionally runs on a
    kernel (the streaming family packs its sketch, the distributed
    coordinator its merged sketch): ``backend=None`` keeps the set-based
    path, and an empty graph skips packing — there is nothing to evaluate,
    and callers' greedy handles the graph directly.  A
    :class:`~repro.core.sketch.CoverageSketch` is packed from its columns,
    without materialising its graph.
    """
    if backend is None or graph.num_edges == 0:
        return None
    return BitsetCoverage(graph, backend=backend)


#: How many stale heap entries the lazy greedy re-evaluates per vectorised
#: :meth:`BitsetCoverage.gains_for` call.  Small enough that little work is
#: wasted when the refreshed top stays on top (the common CELF case), large
#: enough to amortise the per-call numpy overhead (measured best around 32
#: on zipf-heavy workloads whose gains decay fast between steps).
_LAZY_CHUNK = 32


class BitsetCoverage:
    """Packed-bitset evaluator of the coverage function of a fixed graph.

    Parameters
    ----------
    graph:
        The bipartite membership graph; it is snapshotted at construction
        (later mutations of the graph are not reflected).  Either input is
        packed from its ``edge_columns()``, so a
        :class:`~repro.core.sketch.CoverageSketch` packs byte-identically to
        its graph without materialising it.
    backend:
        A :class:`~repro.coverage.kernels.KernelBackend`, a registered
        backend name (``"bytes"``, ``"words"``), or ``"auto"`` (default) to
        pick the fastest available.
    """

    def __init__(
        self,
        graph: "BipartiteGraph | CoverageSketch",
        *,
        backend: str | KernelBackend = "auto",
    ) -> None:
        self._backend = resolve_kernel_backend(backend)
        self._num_sets = graph.num_sets
        # Sorted unique elements plus one scatter of the (set, element)
        # columns; a sketch supplies its columns without building a graph.
        set_ids, members = graph.edge_columns()
        elements, position = np.unique(members, return_inverse=True)
        set_ids = set_ids.astype(np.intp, copy=False)
        self._elements = elements.astype(np.int64)
        self._num_elements = len(elements)
        dense = np.zeros((graph.num_sets, max(1, self._num_elements)), dtype=bool)
        dense[set_ids, position] = True
        sizes = np.bincount(set_ids, minlength=graph.num_sets).astype(np.int64)
        # Rows are packed along the element axis: shape (n, lanes) in the
        # backend's lane dtype.
        self._packed = self._backend.pack(dense)
        self._set_sizes = sizes

    # ------------------------------------------------------------------ #
    # basic facts
    # ------------------------------------------------------------------ #
    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self._num_sets

    @property
    def num_elements(self) -> int:
        """Number of elements in the snapshot."""
        return self._num_elements

    @property
    def backend(self) -> KernelBackend:
        """The packing/popcount backend in use."""
        return self._backend

    def set_size(self, set_id: int) -> int:
        """``|S|`` for one set."""
        return int(self._set_sizes[set_id])

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed rows (what a cache entry keeps resident)."""
        return int(self._packed.nbytes)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def _popcount(self, row: np.ndarray) -> int:
        return int(self._backend.popcount(row, None))

    @staticmethod
    def _as_index(set_ids: Iterable[int] | np.ndarray) -> np.ndarray:
        """Index array of set ids, with no intermediate Python list.

        numpy integer arrays pass through as-is (the hot sweep path); other
        iterables are converted element-wise.
        """
        if isinstance(set_ids, np.ndarray):
            return set_ids.astype(np.intp, copy=False)
        return np.fromiter((int(s) for s in set_ids), dtype=np.intp)

    def empty_bits(self) -> np.ndarray:
        """An all-zero packed bit-row (the union of no sets)."""
        return self._backend.empty_row(self._packed.shape[1])

    def union_bits(self, set_ids: Iterable[int] | np.ndarray) -> np.ndarray:
        """The packed union bit-row of a family of sets."""
        ids = self._as_index(set_ids)
        if ids.size == 0:
            return self.empty_bits()
        return np.bitwise_or.reduce(self._packed[ids], axis=0)

    def coverage(self, set_ids: Iterable[int] | np.ndarray) -> int:
        """``C(S) = |∪ S|``."""
        return self._popcount(self.union_bits(set_ids))

    def coverage_fraction(self, set_ids: Iterable[int] | np.ndarray) -> float:
        """Fraction of the snapshot's elements covered."""
        if self._num_elements == 0:
            return 1.0
        return self.coverage(set_ids) / self._num_elements

    def marginal_gains(self, covered_bits: np.ndarray) -> np.ndarray:
        """Marginal gain of *every* set against an already-covered bit-row.

        This is the vectorised inner step of eager greedy: one call evaluates
        all ``n`` candidates.  ``covered_bits`` must be a packed row from
        this evaluator (:meth:`union_bits` / :meth:`empty_bits`).
        """
        remaining = np.bitwise_and(self._packed, np.bitwise_not(covered_bits))
        return self._backend.popcount(remaining, 1)

    def gains_for(
        self, set_ids: Iterable[int] | np.ndarray, covered_bits: np.ndarray
    ) -> np.ndarray:
        """Marginal gains of an index subset of sets (the lazy-greedy kernel).

        Re-evaluates only the ``set_ids`` rows instead of all ``n``; the
        result is aligned with the input order.
        """
        ids = self._as_index(set_ids)
        if ids.size == 0:
            return np.zeros(0, dtype=np.int64)
        remaining = np.bitwise_and(self._packed[ids], np.bitwise_not(covered_bits))
        return self._backend.popcount(remaining, 1)

    # ------------------------------------------------------------------ #
    # greedy
    # ------------------------------------------------------------------ #
    def greedy(
        self,
        *,
        max_sets: int | None = None,
        target_coverage: int | None = None,
        forbidden: Iterable[int] = (),
        lazy: bool = True,
    ) -> tuple[list[int], int, list[int], int]:
        """Greedy selection loop on the packed rows.

        Runs until ``max_sets`` sets are chosen, ``target_coverage`` elements
        are covered, or no remaining set has positive marginal gain —
        mirroring :func:`repro.offline.greedy._lazy_greedy` so the same
        vectorised path serves k-cover, set cover and partial cover, on full
        instances and sketches alike.

        Returns ``(selected, coverage, gains, evaluations)`` where ``gains``
        is the realised marginal gain per step and ``evaluations`` counts
        marginal-gain evaluations (a proxy for time).
        """
        if lazy:
            return self._greedy_lazy(max_sets, target_coverage, frozenset(forbidden))
        return self._greedy_eager(max_sets, target_coverage, frozenset(forbidden))

    def _limit(self, max_sets: int | None) -> int:
        return self._num_sets if max_sets is None else min(max_sets, self._num_sets)

    def _greedy_eager(
        self, max_sets: int | None, target_coverage: int | None, forbidden: frozenset[int]
    ) -> tuple[list[int], int, list[int], int]:
        covered = self.empty_bits()
        chosen: list[int] = []
        gains_log: list[int] = []
        covered_count = 0
        evaluations = 0
        available = np.ones(self._num_sets, dtype=bool)
        for set_id in forbidden:
            # Ids outside the snapshot are ignored, matching the graph-based
            # greedy (a forbidden id that cannot be selected anyway is a
            # no-op, not a mask of some other row).
            if 0 <= set_id < self._num_sets:
                available[set_id] = False
        limit = self._limit(max_sets)
        while len(chosen) < limit and (
            target_coverage is None or covered_count < target_coverage
        ):
            gains = self.marginal_gains(covered)
            evaluations += self._num_sets
            gains[~available] = -1
            best = int(np.argmax(gains))
            gain = int(gains[best])
            if gain <= 0:
                break
            chosen.append(best)
            gains_log.append(gain)
            available[best] = False
            covered = np.bitwise_or(covered, self._packed[best])
            covered_count += gain
        return chosen, covered_count, gains_log, evaluations

    def _greedy_lazy(
        self, max_sets: int | None, target_coverage: int | None, forbidden: frozenset[int]
    ) -> tuple[list[int], int, list[int], int]:
        covered = self.empty_bits()
        chosen: list[int] = []
        gains_log: list[int] = []
        covered_count = 0
        limit = self._limit(max_sets)

        # Max-heap of (-upper_bound, set_id, version): ``version`` is the
        # number of selections made when the bound was computed.  Set sizes
        # are the exact gains at version 0, so initialisation is free of any
        # per-row popcount — but counts as one evaluation per set to stay
        # comparable with the heap greedy's accounting.
        heap: list[tuple[int, int, int]] = [
            (-int(self._set_sizes[set_id]), set_id, 0)
            for set_id in range(self._num_sets)
            if set_id not in forbidden
        ]
        heapq.heapify(heap)
        evaluations = len(heap)

        while heap and len(chosen) < limit and (
            target_coverage is None or covered_count < target_coverage
        ):
            version = len(chosen)
            if heap[0][2] != version:
                # Refresh a small chunk of stale tops in one vectorised
                # subset-gain call; fresh entries caught in the chunk go
                # straight back unchanged.
                stale: list[int] = []
                while heap and len(stale) < _LAZY_CHUNK and heap[0][2] != version:
                    stale.append(heapq.heappop(heap)[1])
                fresh_gains = self.gains_for(
                    np.asarray(stale, dtype=np.intp), covered
                )
                evaluations += len(stale)
                for set_id, gain in zip(stale, fresh_gains.tolist()):
                    heapq.heappush(heap, (-gain, set_id, version))
                continue
            neg_gain, set_id, _ = heapq.heappop(heap)
            gain = -neg_gain
            if gain <= 0:
                break
            chosen.append(set_id)
            gains_log.append(gain)
            covered = np.bitwise_or(covered, self._packed[set_id])
            covered_count += gain
        return chosen, covered_count, gains_log, evaluations

    def greedy_k_cover(
        self, k: int, *, lazy: bool = True, forbidden: Iterable[int] = ()
    ) -> tuple[list[int], int]:
        """Vectorised greedy k-cover; returns (selection, coverage).

        ``lazy=True`` (default) uses the CELF max-heap of stale upper bounds;
        ``lazy=False`` recomputes all ``n`` marginal gains every step.  Both
        resolve ties to the smallest set id among the maximal-gain
        candidates — the same policy as
        :func:`repro.offline.greedy.greedy_k_cover` — so all the greedy
        paths produce identical selections (property-tested), and switching
        backends or laziness never changes a reported result.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        selected, covered_count, _, _ = self.greedy(
            max_sets=k, target_coverage=None, forbidden=forbidden, lazy=lazy
        )
        return selected, covered_count

    def evaluate_many(
        self, families: Sequence[Iterable[int] | np.ndarray] | np.ndarray
    ) -> list[int]:
        """Coverage of several families (convenience for sweeps).

        A 2-D integer array evaluates directly as one stacked OR-reduction
        over a ``(families, sets, lanes)`` gather — no per-family Python
        objects at all.  Sequences of equal-length non-empty families take
        the same stacked path; ragged inputs fall back to per-family
        evaluation.
        """
        if isinstance(families, np.ndarray) and families.ndim == 2:
            if families.shape[0] == 0 or families.shape[1] == 0:
                return [0] * families.shape[0]
            gathered = self._packed[families.astype(np.intp, copy=False)]
            unions = np.bitwise_or.reduce(gathered, axis=1)
            return self._backend.popcount(unions, 1).tolist()
        rows = [self._as_index(family) for family in families]
        lengths = {row.size for row in rows}
        if len(lengths) == 1 and lengths != {0}:
            gathered = self._packed[np.stack(rows)]
            unions = np.bitwise_or.reduce(gathered, axis=1)
            return self._backend.popcount(unions, 1).tolist()
        return [self.coverage(row) for row in rows]


class KernelCache:
    """Per-graph cache of packed kernels, one per *canonical* backend name.

    The packing step is the expensive part of answering a query against an
    already-built sketch, and the packed rows are immutable — so a sketch
    held by the serving layer keeps one :class:`BitsetCoverage` per backend
    and every subsequent query (any ``k``, any forbidden set) reuses it.
    ``"auto"`` and the concrete backend it resolves to share one slot, so a
    client asking for ``"auto"`` and one asking for ``"words"`` never pack
    the same graph twice.

    A :class:`~repro.core.sketch.CoverageSketch` source is packed from its
    edge columns, so serving a cached sketch never materialises its graph.
    Mirrors :func:`kernel_for`: ``backend=None`` and empty graphs yield
    ``None`` (the set-based path / nothing to evaluate).  Concurrent lookups
    from the thread backend are safe — at worst two threads both pack the
    same backend once and one dict assignment wins; both objects are
    read-only and bit-identical.
    """

    def __init__(self, graph: "BipartiteGraph | CoverageSketch") -> None:
        self._graph = graph
        self._kernels: dict[str, BitsetCoverage] = {}

    @property
    def graph(self) -> "BipartiteGraph | CoverageSketch":
        """The graph (or sketch) whose kernels are cached."""
        return self._graph

    def get(self, backend: str | KernelBackend | None) -> "BitsetCoverage | None":
        """The cached kernel for ``backend``, packing on first use."""
        if backend is None or self._graph.num_edges == 0:
            return None
        name = canonical_backend_name(backend)
        kernel = self._kernels.get(name)
        if kernel is None:
            kernel = BitsetCoverage(self._graph, backend=name)
            self._kernels[name] = kernel
        return kernel

    def __len__(self) -> int:
        return len(self._kernels)

    @property
    def nbytes(self) -> int:
        """Total bytes of packed rows across all cached backends."""
        return sum(kernel.nbytes for kernel in self._kernels.values())

    def backends(self) -> tuple[str, ...]:
        """Canonical names of the backends packed so far (sorted)."""
        return tuple(sorted(self._kernels))
