"""The columnar admission kernel against the per-edge reference of Algorithm 2.

Random streams with duplicate edges and over-cap elements, tight budgets
(including ``eviction_slack=0`` and the single-element-guard regime
``degree_cap > edge_budget + eviction_slack``), both rank sources, and every
feed the builder offers — batches of 1, 7 and 1024 edges, random split
points, buffered ``process()`` and immediate ``add_edge()`` — must leave the
builder in exactly the reference's state: the sketch, its element hashes,
truncated set and threshold, ``describe()``, and the space meter's current,
peak, total charged and violations.  Builders sharing one meter (ensemble
replicas, per-guess set-cover checkers) must reproduce the per-edge feed's
shared peak.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_sketch import ReferenceBuilder
from repro.core.ensemble import SketchEnsemble
from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.setcover_outliers import StreamingSetCoverOutliers
from repro.core.streaming_sketch import (
    _DENSE_DOMINANCE,
    StreamingSketchBuilder,
    _earlier_at_most,
)
from repro.datasets import planted_setcover_instance
from repro.errors import SpaceBudgetExceeded
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.space import SpaceMeter
from repro.utils.rng import derive_seed, spawn_rng


@st.composite
def scenarios(draw):
    num_sets = draw(st.integers(1, 6))
    universe = draw(st.integers(1, 40))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, num_sets - 1), st.integers(0, universe - 1)),
            max_size=160,
        )
    )
    params = SketchParams.explicit(
        num_sets,
        universe,
        2,
        0.5,
        edge_budget=draw(st.integers(1, 25)),
        degree_cap=draw(st.integers(1, 8)),
        eviction_slack=draw(st.one_of(st.none(), st.just(0), st.integers(0, 6))),
    )
    rank_source = draw(st.sampled_from(["hash", "permutation"]))
    seed = draw(st.integers(0, 40))
    meter_budget = draw(st.one_of(st.none(), st.integers(1, 30)))
    return edges, params, rank_source, seed, meter_budget


def _pair(params, rank_source, seed, meter_budget):
    def meter():
        return SpaceMeter(budget=meter_budget, enforce=False, unit="edges")

    builder = StreamingSketchBuilder(
        params, seed=seed, rank_source=rank_source, space=meter()
    )
    ranker = StreamingSketchBuilder(params, seed=seed, rank_source=rank_source)
    reference = ReferenceBuilder(
        params, ranker._rank, space=meter(), rank_source=rank_source
    )
    return builder, reference


def _assert_same(builder, reference):
    sketch = builder.sketch()
    assert sorted(sketch.graph.edges()) == sorted(reference.graph.edges())
    assert sketch.element_hashes == reference.ranks
    assert sketch.truncated_elements == frozenset(reference.truncated)
    assert sketch.threshold == reference.sketch_threshold()
    assert builder.describe() == reference.describe()
    for field in ("current", "peak", "total_charged", "violations"):
        assert getattr(builder.space, field) == getattr(reference.space, field), field


def _batch(edges):
    return EventBatch.from_edges(edges)


@settings(max_examples=150, deadline=None)
@given(scenarios(), st.sampled_from([1, 7, 1024]))
def test_fixed_batches_match_reference(scenario, batch_size):
    edges, params, rank_source, seed, meter_budget = scenario
    builder, reference = _pair(params, rank_source, seed, meter_budget)
    for start in range(0, len(edges), batch_size):
        builder.process_batch(_batch(edges[start : start + batch_size]))
    for set_id, element in edges:
        reference.add_edge(set_id, element)
    _assert_same(builder, reference)


@settings(max_examples=150, deadline=None)
@given(scenarios(), st.lists(st.integers(0, 160), max_size=8))
def test_random_splits_match_reference(scenario, cuts):
    edges, params, rank_source, seed, meter_budget = scenario
    builder, reference = _pair(params, rank_source, seed, meter_budget)
    bounds = [0, *sorted(c for c in cuts if c <= len(edges)), len(edges)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        builder.process_batch(_batch(edges[lo:hi]))
    for set_id, element in edges:
        reference.add_edge(set_id, element)
    _assert_same(builder, reference)


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_buffered_process_and_add_edge_match_reference(scenario):
    edges, params, rank_source, seed, meter_budget = scenario
    buffered, reference = _pair(params, rank_source, seed, meter_budget)
    immediate, _ = _pair(params, rank_source, seed, meter_budget)
    for set_id, element in edges:
        buffered.process(EdgeArrival(set_id, element))
        assert immediate.add_edge(set_id, element) == reference.add_edge(set_id, element)
    _assert_same(buffered, reference)
    _assert_same(immediate, reference)


def test_single_element_guard_keeps_the_last_element():
    # degree_cap > edge_budget + eviction_slack: one element can overflow
    # the budget on its own and must never be evicted.
    params = SketchParams.explicit(
        8, 20, 2, 0.5, edge_budget=2, degree_cap=6, eviction_slack=0
    )
    edges = [(s, 3) for s in range(6)] + [(0, e) for e in range(10)] + [(7, 3), (1, 4)]
    for batch_size in (1, 7, 1024):
        builder, reference = _pair(params, "hash", 5, None)
        for start in range(0, len(edges), batch_size):
            builder.process_batch(_batch(edges[start : start + batch_size]))
        for set_id, element in edges:
            reference.add_edge(set_id, element)
        assert reference.space.peak > params.max_stored_edges + 1
        _assert_same(builder, reference)


@pytest.mark.parametrize("feed", ["batch", "process"])
def test_enforcing_meter_raises_at_the_same_usage(feed):
    params = SketchParams.explicit(5, 60, 2, 0.5, edge_budget=20, degree_cap=3)
    rng = spawn_rng(3, "enforcing-meter-stream")
    edges = list(zip(rng.integers(0, 5, 200).tolist(), rng.integers(0, 60, 200).tolist()))
    builder = StreamingSketchBuilder(
        params, seed=1, space=SpaceMeter(budget=12, enforce=True)
    )
    reference = ReferenceBuilder(
        params, UniformHash(1).value, space=SpaceMeter(budget=12, enforce=True)
    )
    with pytest.raises(SpaceBudgetExceeded) as expected:
        for set_id, element in edges:
            reference.add_edge(set_id, element)
    with pytest.raises(SpaceBudgetExceeded) as got:
        if feed == "batch":
            builder.process_batch(_batch(edges))
        else:
            for set_id, element in edges:
                builder.process(EdgeArrival(set_id, element))
            builder.flush()
    assert (got.value.used, got.value.budget) == (expected.value.used, expected.value.budget)
    assert builder.space.peak == reference.space.peak == 13
    # The meter stops counting at the violating charge, as charge(1) does.
    for field in ("current", "total_charged", "violations"):
        assert getattr(builder.space, field) == getattr(reference.space, field), field


def _evicting_edges(num_sets=12, num_elements=300, seed=4):
    rng = spawn_rng(seed, "evicting-stream")
    count = 900
    return list(
        zip(
            rng.integers(0, num_sets, count).tolist(),
            rng.integers(0, num_elements, count).tolist(),
        )
    )


@pytest.mark.parametrize("feed", ["process", "batch-7", "consume"])
def test_ensemble_shared_meter_peak_matches_reference(feed):
    params = SketchParams.explicit(12, 300, 2, 0.5, edge_budget=40, degree_cap=4)
    edges = _evicting_edges()
    ensemble = SketchEnsemble(params, replicas=3, seed=9)
    shared = SpaceMeter(unit="edges")
    references = [
        ReferenceBuilder(
            params,
            UniformHash(derive_seed(9, f"ensemble-replica-{index}")).value,
            space=shared,
        )
        for index in range(3)
    ]
    if feed == "process":
        for set_id, element in edges:
            ensemble.process(EdgeArrival(set_id, element))
    elif feed == "batch-7":
        for start in range(0, len(edges), 7):
            ensemble.process_batch(_batch(edges[start : start + 7]))
    else:
        ensemble.consume(edges)
    for set_id, element in edges:
        for reference in references:
            reference.add_edge(set_id, element)
    assert all(reference.evictions > 0 for reference in references)
    ensemble.sketches()
    for field in ("current", "peak", "total_charged"):
        assert getattr(ensemble.space, field) == getattr(shared, field), field
    for builder, reference in zip(ensemble._builders, references):
        assert sorted(builder.sketch().graph.edges()) == sorted(reference.graph.edges())


def test_guess_checkers_shared_meter_peak_matches_reference():
    instance = planted_setcover_instance(30, 3000, cover_size=6, seed=23)
    algorithm = StreamingSetCoverOutliers(
        instance.n, instance.m, 0.1, scale=0.001, seed=4
    )
    shared = SpaceMeter(unit="edges")
    references = [
        ReferenceBuilder(checker.params, checker.builder.hash_fn.value, space=shared)
        for checker in algorithm._checkers
    ]
    edges = list(instance.graph.edges())
    spawn_rng(2, "checker-order").shuffle(edges)
    for set_id, element in edges:
        algorithm.process(EdgeArrival(set_id, element))
        for reference in references:
            reference.add_edge(set_id, element)
    assert any(reference.evictions > 0 for reference in references)
    algorithm.describe()
    for field in ("current", "peak", "total_charged"):
        assert getattr(algorithm.space, field) == getattr(shared, field), field


@pytest.mark.parametrize("seed", range(6))
def test_dominance_count_levels_match_brute_force(seed):
    # Large enough for the level-by-level path; ties are frequent.
    rng = spawn_rng(seed, "dominance-count")
    ranks = rng.integers(0, 40, int(rng.integers(500, 900))) / 41.0
    queries = np.sort(rng.choice(len(ranks), size=150, replace=False))
    assert len(ranks) * len(queries) > _DENSE_DOMINANCE
    expected = [int(np.count_nonzero(ranks[:q] <= ranks[q])) for q in queries.tolist()]
    assert _earlier_at_most(ranks, queries).tolist() == expected


@pytest.mark.parametrize("rank_source", ["hash", "permutation"])
def test_long_buffered_stream_matches_reference(rank_source):
    # Several flush windows, each with a wide eviction band.
    rng = spawn_rng(7, "long-stream")
    edges = list(zip(rng.integers(0, 50, 20_000).tolist(), rng.integers(0, 3000, 20_000).tolist()))
    params = SketchParams.explicit(50, 3000, 2, 0.5, edge_budget=300, degree_cap=5)
    builder, reference = _pair(params, rank_source, 11, 400)
    for set_id, element in edges:
        builder.process(EdgeArrival(set_id, element))
        reference.add_edge(set_id, element)
    assert reference.evictions > 100
    _assert_same(builder, reference)


@pytest.mark.parametrize("replicas", [1, 2])
def test_reading_one_replica_flushes_the_shared_buffer(replicas):
    params = SketchParams.explicit(12, 300, 2, 0.5, edge_budget=40, degree_cap=4)
    ensemble = SketchEnsemble(params, replicas=replicas, seed=9)
    edges = _evicting_edges()[:50]
    for set_id, element in edges:
        ensemble.process(EdgeArrival(set_id, element))
    for builder in reversed(ensemble._builders):
        assert builder.edges_seen == len(edges)


def test_reading_a_single_guess_checker_flushes_the_shared_buffer():
    instance = planted_setcover_instance(30, 3000, cover_size=6, seed=23)
    algorithm = StreamingSetCoverOutliers(
        instance.n, instance.m, 0.1, scale=0.001, seed=4, max_guesses=1
    )
    (checker,) = algorithm._checkers
    edges = list(instance.graph.edges())[:100]
    for set_id, element in edges:
        algorithm.process(EdgeArrival(set_id, element))
    assert checker.builder.edges_seen == len(edges)
