"""Streaming construction of ``H_{<=n}`` over an edge-arrival stream.

This is Algorithm 2 of the paper.  Each arriving element is hashed to a rank
in ``[0, 1)``; an edge is kept only while its element ranks below the
*admission threshold* ``p`` (initially 1.0), each element keeps at most
``degree_cap`` edges, and whenever more than ``L = edge_budget +
eviction_slack`` edges are stored the highest-ranked tracked element is
evicted and ``p`` drops to its rank, so it can never re-enter.  Elements
ranked below the final threshold keep all their (capped) edges and elements
above it keep none, which is what makes the streaming sketch equal the
offline one up to the boundary element.

Representation
--------------
The builder's whole state is three resident columns ``(set, element, rank)``
sorted by ``(rank, element, set)`` plus one truncation flag per row: an
eviction is a suffix cut, and a batch's lookups are binary searches.

Batch rule
----------
Every arrival goes through one vectorised admission kernel.  A *unit* is an
arrival that neither repeats an earlier ``(set, element)`` pair nor lies
beyond its element's first ``degree_cap`` distinct sets; whether an arrival
is a unit depends only on the stream, not on the builder state.  Then:

* after each arrival, ``p`` is the ``(L+1)``-th smallest rank among the
  resident units plus every unit that has arrived so far (unchanged while
  there are at most ``L``);
* unit ``j`` is stored iff ``#resident units ranked <= rho_j + #earlier
  batch units ranked <= rho_j <= L``.  Units ranked below the batch-end
  threshold ``p_end`` are stored outright, so only the band
  ``[p_end, p_start)`` needs that dominance count;
* evictions are the resident elements ranked ``>= p_end`` plus the band
  elements whose first unit was stored (each element counted once);
* the truncated elements are the resident elements that had an over-cap
  arrival;
* the space meter sees exactly the per-edge charge/release sequence: the
  stored count after every arrival follows from the stored flags and from
  the evicted elements' sizes, since without the guard below each overflow
  evicts exactly one element, in decreasing rank order.

The single-element guard is kept: the last tracked element is never
evicted.  It can only act when one element can hold more than ``L`` edges
(``degree_cap`` and ``num_sets`` both above ``L``); builders with such
parameters admit one arrival per kernel call.  Comparison work per call is
``O(batch · log resident)``; the resident columns are spliced with one copy.

Scalar entry points
-------------------
:meth:`StreamingSketchBuilder.process` (the ``StreamingAlgorithm`` path)
appends to a pending column buffer and returns ``None``; the buffer goes
through the kernel every :data:`FLUSH_EVERY` arrivals and before any read of
the builder (its properties, :meth:`~StreamingSketchBuilder.sketch` and
:meth:`~StreamingSketchBuilder.describe`) — but not in ``finish_pass``.
:meth:`~StreamingSketchBuilder.consume` feeds its iterable in batches.
:meth:`~StreamingSketchBuilder.add_edge` stays immediate and returns whether
the edge was stored: a hash-and-compare rejection, then a one-edge kernel
call.  Every window is validated as a whole before admission; a buffered
window with an invalid edge stays pending, so every later read raises.

Builders that read one stream and share one space meter (ensemble replicas,
per-guess set-cover checkers) go through an :class:`AdmissionGroup`, which
buffers once and charges the shared meter with the exact interleaving of
the per-edge feed: replica ``i`` sees arrival ``t`` after replicas ``< i``.

Rank sources
------------
* ``"hash"`` (default): ranks come from a :class:`UniformHash`, requiring no
  knowledge of the ground set.
* ``"permutation"``: the ground set size ``m`` is known; Algorithm 2's
  explicit trick of pre-sampling ``edge_budget + degree_cap`` elements and
  ranking them by a random permutation is used, and *unsampled* elements are
  discarded outright.  This variant uses only ``O~(|H_{<=n}|)`` random bits,
  as the paper notes.

Exact rank ties between distinct elements (probability ~2^-53 per pair for
the hash source, impossible for the permutation source) are the one caveat:
the per-edge rule would keep one of the tied elements tracked.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.hashing import HashFamily, UniformHash
from repro.core.params import SketchParams
from repro.core.sketch import CoverageSketch, hash_ranks
from repro.errors import InvalidInstanceError
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.space import SpaceMeter
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_non_negative_int

__all__ = ["AdmissionGroup", "StreamingSketchBuilder"]

#: Pending scalar arrivals (and :meth:`StreamingSketchBuilder.consume`'s
#: chunks) go through the admission kernel in windows of this many edges.
FLUSH_EVERY = 8192

_EMPTY = np.empty(0, dtype=np.int64)

#: Up to this many (query, arrival) pairs the dominance count compares them
#: all at once instead of level by level.
_DENSE_DOMINANCE = 1 << 16


class _Window:
    """One builder's pass over an edge window, for meter accounting.

    ``stored`` flags the arrivals stored on arrival; ``settled`` is the
    stored-edge count after each arrival's evictions; ``start`` the count
    before the window.
    """

    __slots__ = ("stored", "settled", "start")

    def __init__(self, stored: np.ndarray, settled: np.ndarray, start: int) -> None:
        self.stored = stored
        self.settled = settled
        self.start = start


def _charge(space: SpaceMeter, windows: Sequence[_Window]) -> None:
    """Charge one meter for builders that read the same window in order.

    Replays the per-edge feed's usage: while builder ``i`` stores arrival
    ``t``, builders ``< i`` already settled ``t`` and builders ``> i`` still
    hold their count after ``t - 1``.  The charges reach the meter in that
    order (arrival, then builder).
    """
    if len(windows[0].stored) == 0:
        return
    befores = [np.concatenate(([w.start], w.settled[:-1])) for w in windows]
    other = space.current - sum(w.start for w in windows)
    # Per arrival: what the builders still to go hold, and what the ones
    # already past it hold.
    waiting = sum(befores)
    passed = 0
    usages, keys = [], []
    for i, (window, before) in enumerate(zip(windows, befores)):
        usages.append((other + 1 + passed + waiting)[window.stored])
        keys.append(window.stored.nonzero()[0] * len(windows) + i)
        waiting = waiting - before
        passed = passed + window.settled
    usage = np.concatenate(usages)
    if len(windows) > 1:
        usage = usage[np.argsort(np.concatenate(keys))]
    space.apply(usage, current=other + sum(int(w.settled[-1]) for w in windows))


def _earlier_at_most(values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``#{i < q : values[i] <= values[q]}`` for each position ``q`` in ``queries``.

    Small inputs compare every pair at once; larger ones run offline
    dominance counting one vectorised merge level at a time: at level ``w``
    every query in the right half of a ``2w``-aligned block counts the left
    half's keys that are ``<=`` its own.
    """
    n = len(values)
    counts = np.zeros(len(queries), dtype=np.int64)
    if n < 2 or len(queries) == 0:
        return counts
    if n * len(queries) <= _DENSE_DOMINANCE:
        earlier = np.arange(n) < queries[:, None]
        return np.count_nonzero(earlier & (values <= values[queries][:, None]), axis=1)
    keys = np.unique(values, return_inverse=True)[1]
    span = int(keys.max()) + 1
    positions = np.arange(n)
    width = 1
    while width < n:
        in_right = (queries // width) & 1 == 1
        if in_right.any():
            left = (positions // width) & 1 == 0
            left_keys = np.sort((positions[left] // (2 * width)) * span + keys[left])
            q = queries[in_right]
            block = (q // (2 * width)) * span
            counts[in_right] += np.searchsorted(
                left_keys, block + keys[q], side="right"
            ) - np.searchsorted(left_keys, block, side="left")
        width *= 2
    return counts


def _validated_columns(
    num_sets: int, set_ids: Sequence[int] | np.ndarray, elements: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A window's ``(set, element)`` columns, range-checked as a whole."""
    sets = np.asarray(set_ids)
    elems = np.asarray(elements)
    for column, name in ((sets, "set_id"), (elems, "element")):
        if column.size and column.dtype.kind not in "iu":
            bad = next(
                (v for v in column.tolist() if isinstance(v, bool) or not isinstance(v, int)),
                None,
            )
            if bad is not None:
                raise TypeError(f"{name} must be an integer, got {type(bad).__name__}")
    if sets.size:
        out = (sets < 0) | (sets >= num_sets)
        if out.any():
            bad = int(sets[np.argmax(out)])
            raise InvalidInstanceError(f"set id {bad} out of range [0, {num_sets})")
    if elems.dtype.kind != "u" and elems.size and (elems < 0).any():
        check_non_negative_int(int(elems[np.argmax(elems < 0)]), "element")
    return sets.astype(np.int64, copy=False), elems.astype(np.uint64, copy=False)


class StreamingSketchBuilder:
    """Incrementally builds a :class:`CoverageSketch` from edge arrivals.

    Parameters
    ----------
    params:
        The sketch budgets (edge budget, degree cap, eviction slack).
    hash_fn:
        Rank source for the ``"hash"`` mode; defaults to
        :class:`UniformHash` seeded with ``seed``.
    seed:
        Seed for the default hash function / the permutation sampling.
    rank_source:
        ``"hash"`` or ``"permutation"`` (see module docstring).
    space:
        Optional external :class:`SpaceMeter` to charge; a fresh one is
        created otherwise.  One unit is charged per stored edge.
    """

    def __init__(
        self,
        params: SketchParams,
        *,
        hash_fn: HashFamily | None = None,
        seed: int = 0,
        rank_source: str = "hash",
        space: SpaceMeter | None = None,
    ) -> None:
        if rank_source not in ("hash", "permutation"):
            raise ValueError("rank_source must be 'hash' or 'permutation'")
        self.params = params
        self.hash_fn = hash_fn or UniformHash(seed)
        self.rank_source = rank_source
        self.seed = seed
        self.space = space if space is not None else SpaceMeter(unit="edges")
        # Resident columns, sorted by (rank, element, set), plus a per-row
        # flag marking elements that lost an over-cap arrival.
        self._sets = np.empty(0, dtype=np.int64)
        self._elements = np.empty(0, dtype=np.uint64)
        self._ranks = np.empty(0, dtype=np.float64)
        self._truncated = np.empty(0, dtype=bool)
        self._admission_threshold = 1.0
        self._edges_seen = 0
        self._edges_discarded = 0
        self._evictions = 0
        # The builder's own feed (a group of one charging its own meter) and
        # the external group it belongs to, if any: reads flush both.
        self._own = AdmissionGroup([self], self.space, external=False)
        self._shared: AdmissionGroup | None = None
        self._permutation_ranks: tuple[np.ndarray, np.ndarray] | None = None
        if rank_source == "permutation":
            self._permutation_ranks = self._sample_permutation()

    # ------------------------------------------------------------------ #
    # rank handling
    # ------------------------------------------------------------------ #
    def _sample_permutation(self) -> tuple[np.ndarray, np.ndarray]:
        """Pre-sample Algorithm 2's element set Π and rank it by position.

        Π has ``edge_budget + degree_cap`` elements drawn uniformly without
        replacement from the ground set ``0 .. m-1``; the rank of a sampled
        element is its (normalised) position in a random permutation of Π.
        The result is ``(elements, ranks)``: the sampled element ids sorted
        ascending plus their aligned ranks — ``O(|Π|)`` space, preserving
        the sketch's sublinear-space story — probed by binary search;
        unsampled elements rank ``inf`` and are always discarded.
        """
        rng = spawn_rng(self.seed, "algorithm2-permutation")
        population = self.params.num_elements
        size = min(self.params.sample_size, population)
        sample = rng.choice(population, size=size, replace=False)
        permutation = rng.permutation(size)
        ranks = (permutation.astype(np.float64) + 1.0) / (max(1, population) + 1)
        order = np.argsort(sample)
        return sample[order].astype(np.uint64), ranks[order]

    def _rank(self, element: int) -> float:
        if self._permutation_ranks is not None:
            return float(self._rank_batch(np.array([element], dtype=np.uint64))[0])
        return self.hash_fn.value(element)

    def _rank_batch(self, elements: np.ndarray) -> np.ndarray:
        """Vectorised ranks of a whole element column.

        Bit-identical to calling :meth:`_rank` per element: the sorted
        permutation sample is probed with one ``searchsorted`` gather, and
        the hash path defers to the hash family's ``value_many`` when it
        exposes one.
        """
        if self._permutation_ranks is not None:
            sampled, sample_ranks = self._permutation_ranks
            out = np.full(len(elements), np.inf, dtype=np.float64)
            if len(sampled):
                index = np.searchsorted(sampled, elements)
                index_clipped = np.minimum(index, len(sampled) - 1)
                hit = (index < len(sampled)) & (sampled[index_clipped] == elements)
                out[hit] = sample_ranks[index_clipped[hit]]
            return out
        return hash_ranks(self.hash_fn, elements)

    # ------------------------------------------------------------------ #
    # stream interface
    # ------------------------------------------------------------------ #
    @property
    def stored_edges(self) -> int:
        """Number of edges currently stored."""
        self.flush()
        return len(self._ranks)

    @property
    def evictions(self) -> int:
        """Number of element evictions performed so far."""
        self.flush()
        return self._evictions

    @property
    def edges_seen(self) -> int:
        """Number of stream edges observed so far."""
        self.flush()
        return self._edges_seen

    @property
    def edges_discarded(self) -> int:
        """Number of stream edges discarded on arrival."""
        self.flush()
        return self._edges_discarded

    @property
    def admission_threshold(self) -> float:
        """Current rank threshold below which new elements are admitted."""
        self.flush()
        return self._admission_threshold

    def add_edge(self, set_id: int, element: int) -> bool:
        """Process one membership edge now; returns whether it was stored."""
        self.flush()
        sets, elements = _validated_columns(self.params.num_sets, [set_id], [element])
        rank = self._rank(element)
        if rank >= self._admission_threshold:
            self._edges_seen += 1
            self._edges_discarded += 1
            return False
        window = self._admit_window(sets, elements, np.array([rank]))
        _charge(self.space, [window])
        return bool(window.stored[0])

    def process(self, event: EdgeArrival) -> None:
        """Buffer one :class:`EdgeArrival`; it is admitted at the next flush."""
        self._own.process(event)

    def flush(self) -> None:
        """Push every pending arrival meant for this builder through the kernel."""
        self._own.flush()
        if self._shared is not None:
            self._shared.flush()

    def process_batch(self, batch: EventBatch) -> int:
        """Process a whole columnar edge batch; returns the edges stored.

        Every set id in the batch is range-checked up front, so an invalid
        id fails the batch even when its edge would have been rejected.
        """
        return self._own.process_batch(batch)

    def consume(self, events: Iterable[EdgeArrival | tuple[int, int]]) -> None:
        """Feed a whole iterable of edges / events through the builder."""
        self._own.consume(events)

    # ------------------------------------------------------------------ #
    # the admission kernel
    # ------------------------------------------------------------------ #
    def _admit_window(
        self, sets: np.ndarray, elements: np.ndarray, ranks: np.ndarray
    ) -> _Window:
        """Admit one validated, ranked edge window (see the module docstring)."""
        count = len(ranks)
        start = len(self._ranks)
        limit = self.params.edge_budget + self.params.eviction_slack
        guarded = self._guard_possible()
        if guarded and count > 1:
            # The single-element guard can act: admit one arrival at a time.
            windows = [
                self._admit_window(sets[i : i + 1], elements[i : i + 1], ranks[i : i + 1])
                for i in range(count)
            ]
            return _Window(
                np.concatenate([w.stored for w in windows]),
                np.concatenate([w.settled for w in windows]),
                start,
            )
        self._edges_seen += count
        stored = np.zeros(count, dtype=bool)
        live = (ranks < self._admission_threshold).nonzero()[0]
        if len(live) == 0:
            self._edges_discarded += count
            return _Window(stored, np.full(count, start, dtype=np.int64), start)

        resident_ranks = self._ranks
        s, e, r = sets[live], elements[live], ranks[live]
        lo, hi = self._element_runs(e, r)
        unit, over_cap, at = self._classify(s, e, lo, hi)

        # Threshold after the window: the (L+1)-th smallest unit rank.
        p_start = self._admission_threshold
        unit_ranks = r[unit]
        p_end = p_start
        if start + len(unit_ranks) > limit:
            ordered = np.sort(unit_ranks)
            merged_at = np.arange(len(ordered)) + resident_ranks.searchsorted(
                ordered, side="right"
            )
            below = int(merged_at.searchsorted(limit))
            if below < len(ordered) and merged_at[below] == limit:
                p_end = float(ordered[below])
            else:
                p_end = float(resident_ranks[limit - below])
            if guarded:
                p_end = self._guarded(p_end, p_start, unit_ranks)

        # Stored flags: below p_end outright, the band by dominance count.
        kept = unit & (r < p_end)
        stored_live = kept
        if p_end < p_start:
            band = unit & ~kept
            stored_live = kept | band
            if not guarded and band.any():
                unit_index = unit.nonzero()[0]
                queries = band[unit_index].nonzero()[0]
                earlier = _earlier_at_most(unit_ranks, queries)
                resident = resident_ranks.searchsorted(unit_ranks[queries], side="right")
                stored_live[unit_index[queries]] = resident + earlier <= limit
        stored[live] = stored_live

        # Evictions: resident rows and stored band units ranked >= p_end,
        # one element at a time in decreasing rank order.
        cut = int(resident_ranks.searchsorted(p_end, side="left"))
        gone_sizes = _EMPTY
        evicted_band = stored_live & ~kept
        if cut < start or evicted_band.any():
            gone_ranks = np.concatenate((resident_ranks[cut:], r[evicted_band]))
            gone_elements = np.concatenate((self._elements[cut:], e[evicted_band]))
            order = np.lexsort((gone_elements, gone_ranks))[::-1]
            gone_elements = gone_elements[order]
            fresh = np.ones(len(order), dtype=bool)
            fresh[1:] = gone_elements[1:] != gone_elements[:-1]
            gone_sizes = np.diff(np.append(fresh.nonzero()[0], len(order)))

        # Stored-edge count after every arrival (for the meter).
        settled = stored.cumsum()
        taken = int(settled[-1])
        settled += start
        if len(gone_sizes):
            released = np.zeros(count, dtype=np.int64)
            if guarded:
                released[0] = gone_sizes.sum()
            else:
                overflow = limit - start + gone_sizes.cumsum() - gone_sizes
                released[stored.nonzero()[0][overflow]] = gone_sizes
            settled -= released.cumsum()

        marked = over_cap & (r < p_end)
        self._splice(
            cut, (s[kept], e[kept], r[kept]), at[kept], e[marked], (lo[marked], hi[marked])
        )
        self._admission_threshold = p_end
        self._evictions += len(gone_sizes)
        self._edges_discarded += count - taken
        return _Window(stored, settled, start)

    def _guard_possible(self) -> bool:
        """Whether one element alone can hold more than ``L`` edges."""
        params = self.params
        limit = params.edge_budget + params.eviction_slack
        return min(params.degree_cap, params.num_sets) > limit

    def _element_runs(self, e: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each arrival's element run ``[lo, hi)`` in the resident columns."""
        ranks, elements = self._ranks, self._elements
        lo = ranks.searchsorted(r, side="left")
        hi = ranks.searchsorted(r, side="right")
        found = (hi > lo).nonzero()[0]
        if len(found):
            shared = (elements[lo[found]] != e[found]) | (elements[hi[found] - 1] != e[found])
            for i in found[shared].tolist():
                # Distinct elements share this rank: narrow to e's own rows.
                base, run = lo[i], elements[lo[i] : hi[i]]
                lo[i] = base + run.searchsorted(e[i], side="left")
                hi[i] = base + run.searchsorted(e[i], side="right")
        return lo, hi

    def _classify(
        self, s: np.ndarray, e: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unit and over-cap flags of each arrival, plus its insertion row.

        An arrival repeats a pair when the pair is resident or arrived
        earlier in the window; it is over the cap when its element already
        had ``degree_cap`` distinct sets (resident plus earlier new pairs).
        """
        n = len(s)
        by_pair = np.lexsort((s, e))
        e_sorted, s_sorted = e[by_pair], s[by_pair]
        first = np.ones(n, dtype=bool)
        first[1:] = (e_sorted[1:] != e_sorted[:-1]) | (s_sorted[1:] != s_sorted[:-1])
        new_pair = np.zeros(n, dtype=bool)
        new_pair[by_pair] = first

        # Insertion row of each arrival's set inside its element's run
        # (vectorised bisection over the resident set column).
        at = lo.copy()
        active = (hi > lo).nonzero()[0]
        if len(active):
            upper = hi.copy()
            sets = self._sets
            while len(active):
                mid = (at[active] + upper[active]) >> 1
                right = sets[mid] < s[active]
                at[active[right]] = mid[right] + 1
                upper[active[~right]] = mid[~right]
                active = active[at[active] < upper[active]]
            resident = (at < hi).nonzero()[0]
            new_pair[resident[sets[at[resident]] == s[resident]]] = False

        degree = hi - lo
        cap = self.params.degree_cap
        if int(degree.max()) + n < cap:
            return new_pair, np.zeros(n, dtype=bool), at
        # Distinct sets each arrival's element already had: resident rows
        # plus the new pairs that arrived before it in the window.
        by_element = e.argsort(kind="stable")
        grouped = new_pair[by_element].astype(np.int64)
        starts = np.ones(n, dtype=bool)
        starts[1:] = e[by_element][1:] != e[by_element][:-1]
        before = grouped.cumsum() - grouped
        start_rows = starts.nonzero()[0]
        before -= np.repeat(before[start_rows], np.diff(np.append(start_rows, n)))
        prior = np.empty(n, dtype=np.int64)
        prior[by_element] = before
        over_cap = degree + prior >= cap
        return new_pair & ~over_cap, over_cap, at

    def _guarded(self, p_end: float, p_start: float, unit_ranks: np.ndarray) -> float:
        """The single-element guard for a one-arrival window.

        When the overflow would evict every tracked element, the lowest one
        stays and ``p`` drops only to the second-lowest element's rank (or
        not at all when only one element is tracked).
        """
        ranks = np.unique(np.concatenate((self._ranks, unit_ranks)))
        if p_end > ranks[0]:
            return p_end
        return float(ranks[1]) if len(ranks) > 1 else p_start

    def _splice(
        self,
        cut: int,
        rows: tuple[np.ndarray, np.ndarray, np.ndarray],
        at: np.ndarray,
        truncated: np.ndarray,
        truncated_runs: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Cut the evicted suffix and insert the window's kept rows.

        ``rows`` are the kept ``(set, element, rank)`` columns and ``at``
        their insertion rows; ``truncated`` lists the elements newly marked
        truncated, ``truncated_runs`` the ``[lo, hi)`` rows they already hold.
        """
        flags = self._truncated[:cut]
        if len(truncated):
            flags = flags.copy()
            lo, hi = truncated_runs
            lengths = hi - lo
            offsets = np.arange(lengths.sum()) - np.repeat(lengths.cumsum() - lengths, lengths)
            flags[np.repeat(lo, lengths) + offsets] = True
        columns = (self._sets, self._elements, self._ranks, flags)
        if len(at) == 0:
            self._sets, self._elements, self._ranks, self._truncated = (
                c[:cut] for c in columns
            )
            return
        sets, elements, ranks = rows
        new_flags = (
            np.isin(elements, truncated) if len(truncated) else np.zeros(len(at), dtype=bool)
        )
        order = np.lexsort((sets, elements, ranks))
        # Row of each inserted edge in the spliced columns (np.insert's rule).
        placed = at[order] + np.arange(len(order))
        old_rows = np.ones(cut + len(order), dtype=bool)
        old_rows[placed] = False
        spliced = []
        for old, new in zip(columns, (sets, elements, ranks, new_flags)):
            out = np.empty(len(old_rows), dtype=old.dtype)
            out[old_rows] = old[:cut]
            out[placed] = new[order]
            spliced.append(out)
        self._sets, self._elements, self._ranks, self._truncated = spliced

    # ------------------------------------------------------------------ #
    # result
    # ------------------------------------------------------------------ #
    def sketch(self) -> CoverageSketch:
        """Finalize and return the sketch built so far.

        The threshold ``p*`` is the largest rank among retained elements when
        any eviction (or admission rejection) occurred, and 1.0 when the
        whole stream fit in the budget — mirroring the offline convention.
        The sketch shares the resident columns (they are never modified in
        place), so finalizing copies nothing.
        """
        self.flush()
        saw_rejection = self._evictions > 0 or self._admission_threshold < 1.0
        if len(self._ranks) and saw_rejection:
            threshold = float(self._ranks[-1])
        elif len(self._ranks):
            threshold = 1.0
        else:
            threshold = self._admission_threshold
        return CoverageSketch.from_columns(
            self._sets,
            self._elements,
            self._ranks,
            params=self.params,
            threshold=threshold,
            truncated_elements=frozenset(np.unique(self._elements[self._truncated]).tolist()),
        )

    def describe(self) -> dict[str, float | int | str]:
        """Diagnostics for logging and tests."""
        self.flush()
        return {
            "rank_source": self.rank_source,
            "stored_edges": len(self._ranks),
            "tracked_elements": self.sketch().num_elements,
            "edges_seen": self._edges_seen,
            "edges_discarded": self._edges_discarded,
            "evictions": self._evictions,
            "admission_threshold": self._admission_threshold,
            "space_peak": self.space.peak,
        }


def _unzip(events: list[EdgeArrival]) -> tuple[list[int], list[int]]:
    """The ``(sets, elements)`` columns of buffered arrivals."""
    return [e.set_id for e in events], [e.element for e in events]


def _chunks(events: Iterable[EdgeArrival | tuple[int, int]]):
    """``(sets, elements)`` lists of at most :data:`FLUSH_EVERY` edges."""
    sets: list[int] = []
    elements: list[int] = []
    for event in events:
        if isinstance(event, EdgeArrival):
            sets.append(event.set_id)
            elements.append(event.element)
        else:
            set_id, element = event
            sets.append(set_id)
            elements.append(element)
        if len(sets) >= FLUSH_EVERY:
            yield sets, elements
            sets, elements = [], []
    if sets:
        yield sets, elements


class AdmissionGroup:
    """Builders that read one edge stream and charge one shared space meter.

    Each arrival is offered to every builder in order, as the per-edge feed
    would; the group buffers scalar arrivals once, admits each window into
    every builder, and charges ``space`` with the exact interleaved usage
    (see :func:`_charge`).  ``space`` must be the meter every builder holds;
    reading any member builder flushes the group first.

    A window is validated as a whole before any builder sees it; a buffered
    window that fails validation stays pending, so every later read raises
    the same error.  When an enforcing meter trips, the meter stops at the
    first charge over its budget, but the builders have admitted the whole
    window: the run is over and their state is not meant to be read.
    ``external=False`` marks a builder's own feed, which does not register
    itself with the builder.
    """

    def __init__(
        self,
        builders: Sequence[StreamingSketchBuilder],
        space: SpaceMeter,
        *,
        external: bool = True,
    ) -> None:
        self.builders = list(builders)
        self.space = space
        self._pending: list[EdgeArrival] = []
        if external:
            for builder in self.builders:
                builder._shared = self

    def add_edge(self, set_id: int, element: int) -> None:
        """Offer one edge to every builder now."""
        self.flush()
        for builder in self.builders:
            builder.add_edge(set_id, element)

    def process(self, event: EdgeArrival) -> None:
        """Buffer one arrival; it is admitted at the next flush."""
        pending = self._pending
        pending.append(event)
        if len(pending) >= FLUSH_EVERY:
            self.flush()

    def process_batch(self, batch: EventBatch) -> int:
        """Admit a columnar edge batch into every builder; returns the edges stored."""
        if batch.offsets is not None:
            raise TypeError("StreamingSketchBuilder consumes edge batches, got a set batch")
        self.flush()
        if len(batch) == 0:
            return 0
        return self._feed(*self._validated(batch.set_ids, batch.elements))

    def consume(self, events: Iterable[EdgeArrival | tuple[int, int]]) -> None:
        """Feed a whole iterable of edges / events to every builder."""
        self.flush()
        for sets, elements in _chunks(events):
            self._feed(*self._validated(sets, elements))

    def flush(self) -> None:
        """Admit the pending :meth:`process` arrivals."""
        if self._pending:
            columns = self._validated(*_unzip(self._pending))
            self._pending = []
            self._feed(*columns)

    def _validated(self, set_ids, elements) -> tuple[np.ndarray, np.ndarray]:
        return _validated_columns(self.builders[0].params.num_sets, set_ids, elements)

    def _feed(self, sets: np.ndarray, elems: np.ndarray) -> int:
        """Admit one validated window into every builder and charge the meter."""
        for builder in self.builders:
            if builder._own is not self:
                builder._own.flush()
        windows = [
            builder._admit_window(sets, elems, builder._rank_batch(elems))
            for builder in self.builders
        ]
        _charge(self.space, windows)
        return sum(int(np.count_nonzero(w.stored)) for w in windows)
