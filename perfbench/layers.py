"""Benchmark-owned spans and the per-layer accounting built on them.

The traced run re-drives a workload through the library's public functions
and wraps each call in a span named ``bench/<layer>``.  The spans go into a
:class:`repro.obs.Tracer` that is installed as the process tracer for the
re-drive, so the library's own spans (and worker spans adopted from process
pools) land in the same Perfetto trace.  Only the ``bench/`` spans enter the
accounting: a layer's time is the sum of its spans' self times, where a
span's self time is its duration minus that of its directly nested
``bench/`` spans.  The root span ``bench/op`` covers the whole operation;
its self time is the time no layer accounts for (``api.unattributed_s``),
so the layer times plus that residue add up to the root's duration.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

PREFIX = "bench/"
ROOT = "op"

#: Per-layer time metrics in table order: (metric name, span layer).
TIME_LAYERS = (
    ("cli.import_s", "cli.import"),
    ("coverage.io.to_graph_s", "coverage.io.to_graph"),
    ("streaming.stream_build_s", "streaming.stream_build"),
    ("streaming.drive_s", "streaming.drive"),
    ("core.rank_s", "core.rank"),
    ("core.admit_s", "core.admit"),
    ("core.sketch_finalize_s", "core.sketch_finalize"),
    ("core.setcover_finish_s", "core.setcover_finish"),
    ("serve.lookup_s", "serve.lookup"),
    ("coverage.kernel_pack_s", "coverage.kernel_pack"),
    ("offline.greedy_s", "offline.greedy"),
    ("distributed.partition_s", "distributed.partition"),
    ("distributed.map_s", "distributed.map"),
    ("distributed.reduce_s", "distributed.reduce"),
    ("distributed.greedy_s", "distributed.greedy"),
    ("coverage.evaluate_s", "coverage.evaluate"),
)


def span(layer: str):
    """A benchmark-owned span for one call into ``layer``."""
    from repro import obs

    return obs.span(PREFIX + layer)


def self_times(records: Iterable) -> dict[str, float]:
    """Seconds of self time per layer over the ``bench/`` spans in ``records``.

    Worker lanes are skipped: their spans overlap the coordinator's wait and
    would be counted twice.  The root layer's entry is the unattributed time.
    """
    records = [r for r in records if r.lane == "main"]
    by_id = {r.span_id: r for r in records}
    nested = defaultdict(float)
    for record in records:
        if not record.name.startswith(PREFIX):
            continue
        parent = by_id.get(record.parent_id)
        while parent is not None and not parent.name.startswith(PREFIX):
            parent = by_id.get(parent.parent_id)
        if parent is not None:
            nested[parent.span_id] += record.duration
    totals: dict[str, float] = defaultdict(float)
    for record in records:
        if record.name.startswith(PREFIX):
            layer = record.name[len(PREFIX):]
            totals[layer] += record.duration - nested[record.span_id]
    return dict(totals)


def root_seconds(records: Iterable) -> float:
    """Total duration of the ``bench/op`` root spans in ``records``."""
    return sum(r.duration for r in records if r.name == PREFIX + ROOT)


def layer_table(layer_seconds: dict[str, float], total: float) -> str:
    """The per-layer table: self time and share of the traced operation."""
    rows = [
        (metric, layer_seconds.get(layer, 0.0))
        for metric, layer in TIME_LAYERS
        if layer_seconds.get(layer, 0.0) > 0.0
    ]
    rows.append(("api.unattributed_s", layer_seconds.get(ROOT, 0.0)))
    width = max(len(name) for name, _ in rows)
    lines = [f"{'layer':<{width}}  {'self_s':>10}  {'share':>7}"]
    for name, seconds in rows:
        share = seconds / total if total else 0.0
        lines.append(f"{name:<{width}}  {seconds:>10.4f}  {share:>7.1%}")
    summed = sum(seconds for _, seconds in rows)
    lines.append(f"{'sum (traced op)':<{width}}  {summed:>10.4f}  {total:>7.4f}s")
    return "\n".join(lines)
