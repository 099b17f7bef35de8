"""The columnar sketch representation: validation, lazy graph, packing."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.setcover_outliers import GuessChecker
from repro.core.sketch import CoverageSketch
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import BitsetCoverage, KernelCache
from repro.coverage.kernels import list_kernel_backends
from repro.distributed.worker import build_machine_sketch
from repro.errors import InvalidInstanceError
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival


def _built(planted_kcover, *, edge_budget=150, degree_cap=6, seed=3):
    params = SketchParams.explicit(
        planted_kcover.n, planted_kcover.m, 4, 0.3,
        edge_budget=edge_budget, degree_cap=degree_cap,
    )
    builder = StreamingSketchBuilder(params, seed=seed)
    builder.consume(planted_kcover.graph.edges())
    return builder


class TestSetIdValidation:
    def _rejected_element(self, builder):
        """An element whose rank clears the current admission threshold."""
        hash_fn = UniformHash(builder.seed)
        return next(
            e for e in range(10**6, 10**7) if hash_fn.value(e) >= builder.admission_threshold
        )

    def test_threshold_rejected_edge_with_bad_set_id_raises(self, planted_kcover):
        builder = _built(planted_kcover)
        assert builder.admission_threshold < 1.0
        element = self._rejected_element(builder)
        bad = planted_kcover.n + 5
        batch = EventBatch.from_edges([(0, 1), (bad, element)])
        with pytest.raises(
            InvalidInstanceError, match=rf"set id {bad} out of range \[0, {planted_kcover.n}\)"
        ):
            builder.process_batch(batch)

    def test_buffered_and_immediate_paths_check_every_set_id(self, planted_kcover):
        builder = _built(planted_kcover)
        element = self._rejected_element(builder)
        bad = planted_kcover.n
        with pytest.raises(InvalidInstanceError, match="out of range"):
            builder.add_edge(bad, element)
        builder.process(EdgeArrival(bad, element))
        with pytest.raises(InvalidInstanceError, match="out of range"):
            builder.sketch()

    def test_bad_buffered_arrival_raises_on_every_read(self, planted_kcover):
        builder = _built(planted_kcover)
        seen = builder.edges_seen
        bad = planted_kcover.n
        for event in (EdgeArrival(0, 1), EdgeArrival(bad, 2), EdgeArrival(1, 3)):
            builder.process(event)
        with pytest.raises(InvalidInstanceError, match="out of range"):
            builder.sketch()
        # The window stayed pending: a second read fails the same way
        # instead of returning a sketch without it.
        with pytest.raises(InvalidInstanceError, match="out of range"):
            builder.edges_seen
        builder._own._pending.clear()
        assert builder.edges_seen == seen


class TestLazyGraph:
    def test_graph_is_built_on_first_access_and_never_pickled(self, planted_kcover):
        sketch = _built(planted_kcover).sketch()
        assert sketch._graph is None
        graph = sketch.graph
        assert sketch.graph is graph
        assert graph.num_edges == sketch.num_edges
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone._graph is None
        assert sorted(clone.graph.edges()) == sorted(graph.edges())
        assert clone.element_hashes == sketch.element_hashes

    def test_columns_are_rank_sorted_and_read_only(self, planted_kcover):
        sketch = _built(planted_kcover).sketch()
        sets, elements = sketch.edge_columns()
        ranks = sketch.edge_ranks()
        assert len(sets) == len(elements) == len(ranks) == sketch.num_edges
        assert np.all(np.diff(ranks) >= 0)
        for column in (sets, elements, ranks):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_member_sets_match_the_graph(self, planted_kcover):
        sketch = _built(planted_kcover).sketch()
        members = sketch.member_sets()
        assert [frozenset(m) for m in members] == [
            sketch.graph.elements_of(s) for s in range(sketch.num_sets)
        ]


class TestColumnPacking:
    @pytest.mark.parametrize("backend", list_kernel_backends())
    def test_packed_rows_are_byte_identical_to_the_graph_packing(self, planted_kcover, backend):
        sketch = _built(planted_kcover).sketch()
        from_columns = BitsetCoverage(sketch, backend=backend)
        assert sketch._graph is None
        from_graph = BitsetCoverage(sketch.graph, backend=backend)
        assert from_columns._packed.dtype == from_graph._packed.dtype
        assert from_columns._packed.tobytes() == from_graph._packed.tobytes()
        assert from_columns._set_sizes.tolist() == from_graph._set_sizes.tolist()
        assert from_columns._elements.tolist() == from_graph._elements.tolist()

    def test_kernel_cache_and_guess_checker_skip_the_graph(self, planted_kcover):
        sketch = _built(planted_kcover).sketch()
        KernelCache(sketch).get("auto")
        assert sketch._graph is None
        checker = GuessChecker(
            3, 0.05, 0.1, 1.0, planted_kcover.n, planted_kcover.m,
            scale=0.05, coverage_backend="auto",
        )
        for set_id, element in planted_kcover.graph.edges():
            checker.process(EdgeArrival(set_id, element))
        final = checker.finalize()
        checker.check()
        assert final._graph is None


class TestGraphBuiltSketch:
    def test_pickle_round_trip_keeps_partial_hashes(self, figure1_graph):
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=10, degree_cap=3)
        hashes = {e: 0.1 * (i + 1) for i, e in enumerate(list(figure1_graph.elements())[:3])}
        sketch = CoverageSketch(
            graph=figure1_graph, params=params, threshold=0.5, element_hashes=hashes
        )
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.element_hashes == hashes
        assert clone.graph == figure1_graph
        assert clone.num_elements == figure1_graph.num_elements

    def test_graph_from_columns_matches_edge_by_edge_build(self, planted_kcover):
        graph = planted_kcover.graph
        sets, elements = graph.edge_columns()
        rebuilt = BipartiteGraph.from_columns(graph.num_sets, sets, elements)
        assert rebuilt == graph
        assert rebuilt.num_edges == graph.num_edges
        assert all(rebuilt.sets_of(e) == graph.sets_of(e) for e in graph.elements())


class TestWorkerFeed:
    def test_lazy_mixed_shard_matches_one_batch(self, planted_kcover):
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.3, edge_budget=150, degree_cap=6
        )
        edges = list(planted_kcover.graph.edges())
        third = len(edges) // 3

        def shard():
            yield from edges[:third]
            yield EventBatch.from_edges(edges[third : 2 * third])
            yield from (EdgeArrival(s, e) for s, e in edges[2 * third :])

        lazy = build_machine_sketch(0, shard(), params, hash_seed=5)
        whole = build_machine_sketch(0, EventBatch.from_edges(edges), params, hash_seed=5)
        assert lazy.edges_processed == whole.edges_processed == len(edges)
        assert sorted(lazy.sketch.graph.edges()) == sorted(whole.sketch.graph.edges())
        assert lazy.sketch.threshold == whole.sketch.threshold


class TestGraphCoverage:
    def test_repeated_evaluations_match_the_union_and_follow_mutations(self, planted_kcover):
        graph = planted_kcover.graph.copy()
        families = [(0, 1, 2), (3,), (), (1, 1, 4)]

        def union(family):
            return len(set().union(*(graph.elements_of(s) for s in family)))

        for _ in range(3):
            assert [graph.coverage(f) for f in families] == [union(f) for f in families]
        element = next(iter(graph.elements_of(3)))
        graph.remove_edge(3, element)
        assert graph.coverage([3]) == graph.coverage([3]) == union([3])
        graph.add_edge(3, 10**9)
        assert graph.coverage([3]) == graph.coverage([3]) == union([3])
        graph.remove_element(10**9)
        assert graph.coverage([3]) == graph.coverage([3]) == union([3])
        with pytest.raises(InvalidInstanceError):
            graph.coverage([graph.num_sets])
