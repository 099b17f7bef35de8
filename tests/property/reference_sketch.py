"""A tiny per-edge reference of Algorithm 2, the oracle for the batch kernel.

This is the builder's original per-edge admission rule: a rank dict, an
eviction max-heap and a dict-of-sets graph, one Python step per edge.  The
property tests feed it and :class:`~repro.core.streaming_sketch.
StreamingSketchBuilder` the same streams and compare every observable.
"""

from __future__ import annotations

import heapq

from repro.coverage.bipartite import BipartiteGraph
from repro.streaming.space import SpaceMeter


class ReferenceBuilder:
    """Per-edge Algorithm 2 with the same counters as the columnar builder."""

    def __init__(self, params, rank, *, space: SpaceMeter | None = None, rank_source="hash"):
        self.params = params
        self.rank = rank
        self.rank_source = rank_source
        self.space = space if space is not None else SpaceMeter(unit="edges")
        self.graph = BipartiteGraph(params.num_sets)
        self.ranks: dict[int, float] = {}
        self.heap: list[tuple[float, int]] = []
        self.truncated: set[int] = set()
        self.threshold = 1.0
        self.seen = 0
        self.discarded = 0
        self.evictions = 0

    def add_edge(self, set_id: int, element: int) -> bool:
        self.seen += 1
        rank = self.rank(element)
        if rank >= self.threshold:
            self.discarded += 1
            return False
        if element in self.ranks:
            if self.graph.element_degree(element) >= self.params.degree_cap:
                self.truncated.add(element)
                self.discarded += 1
                return False
            if not self.graph.add_edge(set_id, element):
                self.discarded += 1
                return False
        else:
            self.ranks[element] = rank
            heapq.heappush(self.heap, (-rank, element))
            self.graph.add_edge(set_id, element)
        self.space.charge(1)
        self._evict_if_needed()
        return True

    def _evict_if_needed(self) -> None:
        limit = self.params.edge_budget + self.params.eviction_slack
        while self.graph.num_edges > limit and len(self.ranks) > 1:
            while self.heap:
                neg_rank, element = self.heap[0]
                if element in self.ranks and -neg_rank == self.ranks[element]:
                    break
                heapq.heappop(self.heap)  # stale entry
            if not self.heap:
                break
            neg_rank, element = heapq.heappop(self.heap)
            del self.ranks[element]
            self.space.release(self.graph.remove_element(element))
            self.truncated.discard(element)
            self.threshold = min(self.threshold, -neg_rank)
            self.evictions += 1

    def sketch_threshold(self) -> float:
        """``p*`` by the builder's ``sketch()`` convention."""
        rejected = self.evictions > 0 or self.threshold < 1.0
        if self.ranks and rejected:
            return max(self.ranks.values())
        if self.ranks:
            return 1.0
        return self.threshold

    def describe(self) -> dict:
        return {
            "rank_source": self.rank_source,
            "stored_edges": self.graph.num_edges,
            "tracked_elements": len(self.ranks),
            "edges_seen": self.seen,
            "edges_discarded": self.discarded,
            "evictions": self.evictions,
            "admission_threshold": self.threshold,
            "space_peak": self.space.peak,
        }
