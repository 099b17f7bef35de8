"""Tier-1 dogfood test: the repository lints itself clean.

Every contract the rules defend (determinism, picklability, spec
round-trips, hot-path vectorisation, registry hygiene) is enforced over the
entire tree — any new violation, or any suppression without a justification,
fails this test.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]
LINTED_TREES = ("src", "benchmarks", "tests", "examples")


def test_repository_lints_clean():
    report = lint_paths([REPO_ROOT / tree for tree in LINTED_TREES], rules=["all"])
    assert report.clean, "\n" + render_text(report)
    # Sanity: the walk really covered the tree, with every rule active —
    # eight per-file plus two project rules.
    assert report.files_scanned > 100
    assert len(report.rules) >= 10
