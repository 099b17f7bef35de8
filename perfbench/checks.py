"""Output checks: every timed operation is verified outside the library.

Coverage is recomputed with numpy from the input's edge columns, the
paper's guarantees are checked against the planted optimum, and solution
digests are compared with the ones pinned in ``pinned.json``.  An operation
that raises, exits non-zero or fails any check counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

PINNED_PATH = Path(__file__).with_name("pinned.json")


def edge_columns(graph) -> tuple[np.ndarray, np.ndarray]:
    """The graph's edges as parallel int64 (set, element) columns."""
    pairs = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0].copy(), pairs[:, 1].copy()


def coverage(columns: tuple[np.ndarray, np.ndarray], solution) -> int:
    """Number of distinct elements the sets in ``solution`` cover."""
    sets, elements = columns
    chosen = np.isin(sets, np.asarray(list(solution), dtype=np.int64))
    return int(np.unique(elements[chosen]).size)


def kcover_floor(planted_value: int, epsilon: float) -> float:
    """Theorem 3.1: a k-cover answer covers at least (1-1/e-eps)*Opt_k."""
    return (1.0 - 1.0 / math.e - epsilon) * planted_value


def setcover_ceiling(planted_size: int, num_elements: int, epsilon: float) -> float:
    """Theorem 3.4: a set cover has at most (1+eps)*ln(m)*Opt sets."""
    return (1.0 + epsilon) * math.log(num_elements) * planted_size


def digest(value) -> str:
    """A short, order-sensitive content digest of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def pinned_digest(workload: str, seed: int) -> str | None:
    """The digest pinned for ``workload`` at ``seed``, if one is pinned."""
    pinned = json.loads(PINNED_PATH.read_text(encoding="utf-8"))
    return pinned.get("digests", {}).get(str(seed), {}).get(workload)


class Tally:
    """Counts attempted and failed operations, keeping the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, problems: list[str]) -> None:
        """Count one operation; any problem marks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append("; ".join(problems))
