"""The coverage sketch of Section 2: ``H_p``, ``H'_p`` and ``H_{<=n}``.

Construction pipeline (offline view, Figure 1 / Algorithm 1):

1. ``H_p`` — keep every set vertex and exactly the elements whose hash value
   ``h(e)`` is at most ``p`` (a uniform element sample at rate ``p``).
2. ``H'_p`` — additionally cap the degree of every kept element at
   ``n log(1/ε) / (ε k)``, discarding surplus edges arbitrarily.
3. ``H_{<=n}`` — instead of fixing ``p``, admit elements in increasing hash
   order until the number of stored edges reaches the edge budget of
   Definition 2.1; the resulting threshold ``p*`` is data dependent.

The central guarantee (Theorem 2.7): with probability ``1 − 3e^{−δ''}``, any
α-approximate k-cover solution computed **on the sketch** is an
``(α − 12ε)``-approximate solution on the original input.  The estimator of
Lemma 2.2, ``C(S) ≈ |Γ(H_p, S)| / p``, is also exposed.

:class:`CoverageSketch` is the result object shared by the offline builder in
this module and the streaming builder in
:mod:`repro.core.streaming_sketch`; everything downstream (Algorithms 3–6)
only sees this object.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.coverage.bipartite import BipartiteGraph
from repro.core.hashing import HashFamily, UniformHash
from repro.core.params import SketchParams
from repro.utils.validation import check_open_unit

__all__ = [
    "CoverageSketch",
    "admit_columns",
    "hash_ranks",
    "build_hp",
    "apply_degree_cap",
    "build_hp_prime",
    "build_h_leq_n",
]


def _frozen(array: np.ndarray, dtype) -> np.ndarray:
    """A read-only view of ``array`` as ``dtype`` (shared with its producer)."""
    view = np.asarray(array, dtype=dtype).view()
    view.flags.writeable = False
    return view


class CoverageSketch:
    """A degree-capped, element-sampled subgraph plus its sampling threshold.

    The sketch's own representation is three edge columns ``(set, element,
    rank)`` sorted by ``(rank, element, set)``; :attr:`graph` is a
    :class:`BipartiteGraph` view built on first access, cached, and never
    pickled.  A sketch constructed from a graph (the offline ``H_p``
    builders, tests) derives its columns from it, ranking elements missing
    from ``element_hashes`` as NaN.

    Attributes
    ----------
    params:
        The budgets the sketch was built with.
    threshold:
        The effective sampling probability ``p*``: the largest hash value
        among admitted elements (1.0 when every element was admitted).
    truncated_elements:
        Elements whose degree hit the cap and lost edges (``H'_p ≠ H_p``).
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        params: SketchParams,
        threshold: float,
        element_hashes: Mapping[int, float] | None = None,
        truncated_elements: frozenset[int] = frozenset(),
    ) -> None:
        hashes = dict(element_hashes or {})
        sets, elements = graph.edge_columns()
        ranks = np.fromiter(
            (hashes.get(e, np.nan) for e in elements.tolist()),
            dtype=np.float64,
            count=len(elements),
        )
        order = np.lexsort((sets, elements, ranks))
        self._init(
            sets[order], elements[order], ranks[order], params, threshold, truncated_elements
        )
        self._num_sets = graph.num_sets
        self._graph = graph
        self._hashes = hashes

    @classmethod
    def from_columns(
        cls,
        sets: np.ndarray,
        elements: np.ndarray,
        ranks: np.ndarray,
        *,
        params: SketchParams,
        threshold: float,
        truncated_elements: frozenset[int] = frozenset(),
    ) -> "CoverageSketch":
        """A sketch over edge columns already sorted by ``(rank, element, set)``.

        The arrays are shared, not copied; the sketch only reads them.
        """
        sketch = cls.__new__(cls)
        sketch._init(sets, elements, ranks, params, threshold, truncated_elements)
        return sketch

    def _init(self, sets, elements, ranks, params, threshold, truncated) -> None:
        self._sets = _frozen(sets, np.int64)
        self._elements = _frozen(elements, np.uint64)
        self._ranks = _frozen(ranks, np.float64)
        self.params = params
        self.threshold = float(threshold)
        self.truncated_elements = frozenset(truncated)
        self._num_sets = params.num_sets
        self._graph: BipartiteGraph | None = None
        self._hashes: dict[int, float] | None = None
        self._members: list[set[int]] | None = None
        self._run_starts: np.ndarray | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.update(_graph=None, _hashes=None, _members=None, _run_starts=None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for name in ("_sets", "_elements", "_ranks"):
            getattr(self, name).flags.writeable = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CoverageSketch(edges={self.num_edges}, elements={self.num_elements}, "
            f"threshold={self.threshold})"
        )

    # ------------------------------------------------------------------ #
    # representation
    # ------------------------------------------------------------------ #
    def edge_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(set, element)`` columns, sorted by ``(rank, element, set)``."""
        return self._sets, self._elements

    def edge_ranks(self) -> np.ndarray:
        """Read-only rank of each row of :meth:`edge_columns`."""
        return self._ranks

    @property
    def num_sets(self) -> int:
        """Number of set vertices ``n``."""
        return self._num_sets

    @property
    def graph(self) -> BipartiteGraph:
        """The sketch subgraph (all ``n`` set vertices), built once on first use."""
        if self._graph is None:
            self._graph = BipartiteGraph.from_columns(
                self.num_sets, self._sets, self._elements
            )
        return self._graph

    @property
    def element_hashes(self) -> dict[int, float]:
        """Hash value of every admitted element (rank-ordered)."""
        if self._hashes is None:
            starts = self._starts()
            starts = starts[~np.isnan(self._ranks[starts])]
            self._hashes = dict(
                zip(self._elements[starts].tolist(), self._ranks[starts].tolist())
            )
        return self._hashes

    def member_sets(self) -> list[set[int]]:
        """Each set's sketch elements, indexed by set id (cached; read only)."""
        if self._members is None:
            order = np.argsort(self._sets, kind="stable")
            bounds = np.searchsorted(self._sets[order], np.arange(self.num_sets + 1))
            elements = self._elements[order].tolist()
            self._members = [
                set(elements[a:b]) for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())
            ]
        return self._members

    def _starts(self) -> np.ndarray:
        """Row index of each element's first edge."""
        if self._run_starts is None:
            # An element's rows are contiguous (its rank is fixed), so a run
            # starts wherever the element id changes.
            fresh = np.ones(len(self._elements), dtype=bool)
            fresh[1:] = self._elements[1:] != self._elements[:-1]
            self._run_starts = np.flatnonzero(fresh)
        return self._run_starts

    # ------------------------------------------------------------------ #
    # sizes
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Edges stored in the sketch (the space the paper counts)."""
        return len(self._sets)

    @property
    def num_elements(self) -> int:
        """Admitted (sampled) elements."""
        return len(self._starts())

    # ------------------------------------------------------------------ #
    # coverage estimation (Lemma 2.2)
    # ------------------------------------------------------------------ #
    def sketch_coverage(self, set_ids: Iterable[int]) -> int:
        """``|Γ(H, S)|`` — coverage inside the sketch."""
        chosen = np.fromiter((int(s) for s in set_ids), dtype=np.int64)
        bad = (chosen < 0) | (chosen >= self.num_sets)
        if bad.any():
            # Same error as the graph view raises.
            self.graph.coverage(chosen[bad].tolist())
        covered = self._elements[np.isin(self._sets, chosen)]
        return len(np.unique(covered))

    def estimate_coverage(self, set_ids: Iterable[int]) -> float:
        """Estimate ``C(S)`` on the original input as ``|Γ(H, S)| / p*``."""
        if self.threshold <= 0.0:
            return 0.0
        return self.sketch_coverage(set_ids) / self.threshold

    def estimate_total_elements(self) -> float:
        """Estimate ``m`` (the ground-set size) as ``(#sampled elements) / p*``."""
        if self.threshold <= 0.0:
            return 0.0
        return self.num_elements / self.threshold

    def coverage_fraction(self, set_ids: Iterable[int]) -> float:
        """Fraction of the *sketch's* elements covered by ``set_ids``.

        Algorithm 4 checks its coverage condition against the sketch, not the
        original graph — this is that quantity.
        """
        total = self.num_elements
        if total == 0:
            return 1.0
        return self.sketch_coverage(set_ids) / total

    def restrict_to_threshold(self, p: float) -> "CoverageSketch":
        """Return the sub-sketch of elements with hash at most ``p``.

        This realises the nesting ``H'_{p_j} ⊆ H'_{p*} ⊆ H'_{p_{j+1}}`` used
        in the proof of Theorem 2.7 and is handy for ablations.
        """
        check_open_unit(p, "p")
        rows = int(np.searchsorted(self._ranks, p, side="right"))
        kept = set(self._elements[:rows].tolist())
        return self._sub(
            rows,
            threshold=min(p, self.threshold),
            truncated_elements=frozenset(t for t in self.truncated_elements if t in kept),
        )

    def with_truncated(self, truncated_elements: frozenset[int]) -> "CoverageSketch":
        """The same sketch with another truncated-element set."""
        return self._sub(
            self.num_edges, threshold=self.threshold, truncated_elements=truncated_elements
        )

    def _sub(self, rows: int, **fields) -> "CoverageSketch":
        """A sketch over this one's first ``rows`` rows (same set vertices)."""
        sub = CoverageSketch.from_columns(
            self._sets[:rows], self._elements[:rows], self._ranks[:rows],
            params=self.params, **fields,
        )
        sub._num_sets = self._num_sets
        return sub

    def describe(self) -> Mapping[str, float | int]:
        """Summary dict for reports."""
        return {
            "edges": self.num_edges,
            "elements": self.num_elements,
            "threshold": self.threshold,
            "truncated_elements": len(self.truncated_elements),
            "edge_budget": self.params.edge_budget,
            "degree_cap": self.params.degree_cap,
        }


def admit_columns(
    sets: np.ndarray,
    elements: np.ndarray,
    ranks: np.ndarray,
    params: SketchParams,
    *,
    ceiling: float = 1.0,
) -> CoverageSketch:
    """Algorithm 1's admission over an edge multiset, as one lexsort pass.

    Rows ranked above ``ceiling`` are dropped; the rest are ordered by
    ``(rank, element, set)``, duplicate pairs removed, each element capped
    to its ``degree_cap`` smallest set ids, and elements admitted in rank
    order while the stored-edge prefix is below ``edge_budget``.  When the
    budget truncates the input, ``p*`` is the rank of the last admitted
    element; otherwise it is ``ceiling``.  The result depends only on the
    multiset of rows, which makes it the distributed merge operator too.
    """
    keep = ranks <= ceiling
    sets, elements, ranks = sets[keep], elements[keep], ranks[keep]
    # One stable lexsort realises the admission order: elements by (rank, id),
    # each element's owners by ascending set id — so the degree cap keeps the
    # smallest-id owners.  Duplicate pairs (duplicate input edges, possibly
    # from different shards) are then adjacent.
    order = np.lexsort((sets, elements, ranks))
    sets, elements, ranks = sets[order], elements[order], ranks[order]
    fresh = np.ones(len(sets), dtype=bool)
    fresh[1:] = (elements[1:] != elements[:-1]) | (sets[1:] != sets[:-1])
    sets, elements, ranks = sets[fresh], elements[fresh], ranks[fresh]
    if len(elements) == 0:
        return CoverageSketch.from_columns(
            sets, elements, ranks, params=params, threshold=ceiling
        )
    # Element runs are contiguous after the sort; cap each run's degree and
    # admit runs while the stored-edge prefix is below the budget.
    starts_mask = np.ones(len(elements), dtype=bool)
    starts_mask[1:] = elements[1:] != elements[:-1]
    run_starts = np.flatnonzero(starts_mask)
    run_id = np.cumsum(starts_mask) - 1
    degrees = np.diff(np.append(run_starts, len(elements)))
    within_run = np.arange(len(elements)) - run_starts[run_id]
    capped_degrees = np.minimum(degrees, params.degree_cap)
    edges_before = np.concatenate(([0], np.cumsum(capped_degrees)[:-1]))
    admitted_runs = edges_before < params.edge_budget
    stored = (within_run < params.degree_cap) & admitted_runs[run_id]
    admitted_rows = run_starts[admitted_runs]
    truncated = frozenset(
        elements[run_starts[admitted_runs & (degrees > params.degree_cap)]].tolist()
    )
    if bool(admitted_runs.all()) or len(admitted_rows) == 0:
        threshold = ceiling
    else:
        threshold = float(ranks[admitted_rows[-1]])
    return CoverageSketch.from_columns(
        sets[stored],
        elements[stored],
        ranks[stored],
        params=params,
        threshold=threshold,
        truncated_elements=truncated,
    )


def hash_ranks(hash_fn: HashFamily, elements: np.ndarray) -> np.ndarray:
    """Hash values of an element column (vectorised when the family allows)."""
    value_many = getattr(hash_fn, "value_many", None)
    if value_many is not None:
        return value_many(elements)
    return np.fromiter(
        (hash_fn.value(e) for e in elements.tolist()), dtype=np.float64, count=len(elements)
    )


# ---------------------------------------------------------------------- #
# offline builders
# ---------------------------------------------------------------------- #
def build_hp(
    graph: BipartiteGraph, p: float, hash_fn: HashFamily | None = None, *, seed: int = 0
) -> BipartiteGraph:
    """Build ``H_p``: keep the elements with hash value at most ``p``.

    Parameters
    ----------
    graph:
        The full input graph.
    p:
        The sampling threshold in ``(0, 1]``.
    hash_fn:
        The element hash; defaults to :class:`UniformHash` with ``seed``.
    """
    check_open_unit(p, "p")
    hash_fn = hash_fn or UniformHash(seed)
    keep = [element for element in graph.elements() if hash_fn.value(element) <= p]
    return graph.induced_on_elements(keep)


def apply_degree_cap(
    graph: BipartiteGraph, degree_cap: int, *, deterministic: bool = True
) -> tuple[BipartiteGraph, frozenset[int]]:
    """Build ``H'_p`` from ``H_p``: cap every element's degree at ``degree_cap``.

    Surplus edges are discarded "arbitrarily" in the paper; here the kept
    edges are the ones with the smallest set ids when ``deterministic`` is
    true (reproducible), otherwise insertion order is used.

    Returns the capped graph and the frozenset of elements that lost edges.
    """
    if degree_cap < 1:
        raise ValueError("degree_cap must be >= 1")
    capped = BipartiteGraph(graph.num_sets)
    truncated: set[int] = set()
    for element in graph.elements():
        owners = sorted(graph.sets_of(element)) if deterministic else list(graph.sets_of(element))
        if len(owners) > degree_cap:
            truncated.add(element)
            owners = owners[:degree_cap]
        for set_id in owners:
            capped.add_edge(set_id, element)
    return capped, frozenset(truncated)


def build_hp_prime(
    graph: BipartiteGraph,
    p: float,
    params: SketchParams,
    hash_fn: HashFamily | None = None,
    *,
    seed: int = 0,
) -> CoverageSketch:
    """Build ``H'_p`` as a :class:`CoverageSketch` (sampling + degree cap)."""
    hash_fn = hash_fn or UniformHash(seed)
    hp = build_hp(graph, p, hash_fn)
    capped, truncated = apply_degree_cap(hp, params.degree_cap)
    hashes = {element: hash_fn.value(element) for element in capped.elements()}
    return CoverageSketch(
        graph=capped,
        params=params,
        threshold=p,
        element_hashes=hashes,
        truncated_elements=truncated,
    )


def build_h_leq_n(
    graph: BipartiteGraph,
    params: SketchParams,
    hash_fn: HashFamily | None = None,
    *,
    seed: int = 0,
) -> CoverageSketch:
    """Offline construction of ``H_{<=n}`` (Algorithm 1).

    Elements are admitted in increasing hash order; each contributes at most
    ``degree_cap`` edges; admission stops once the number of stored edges
    reaches ``params.edge_budget`` (or the input is exhausted).  The
    resulting data-dependent threshold ``p*`` is the hash of the last
    admitted element (1.0 if every element was admitted, matching the
    convention that the sketch then *is* the input restricted by the cap).
    """
    hash_fn = hash_fn or UniformHash(seed)
    sets, elements = graph.edge_columns()
    return admit_columns(sets, elements, hash_ranks(hash_fn, elements), params)
