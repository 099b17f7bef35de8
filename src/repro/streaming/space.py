"""Space accounting for streaming algorithms.

The whole point of the paper is the space complexity (``O~(n)`` edges instead
of ``O~(m)`` or ``O~(nm)``), so every streaming algorithm in this library
reports how many edges / words it actually stored.  :class:`SpaceMeter`
centralises that accounting and can optionally *enforce* a budget, raising
:class:`repro.errors.SpaceBudgetExceeded` when an algorithm exceeds it — this
is how the lower-bound experiments constrain their competitors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SpaceBudgetExceeded

__all__ = ["SpaceMeter"]


@dataclass
class SpaceMeter:
    """Tracks the current and peak number of stored items.

    Parameters
    ----------
    budget:
        Optional hard limit; ``charge`` beyond the limit raises
        :class:`SpaceBudgetExceeded` when ``enforce`` is true.
    enforce:
        Whether exceeding the budget raises (otherwise it is only recorded).
    unit:
        Human-readable unit name used in error messages and reports
        (typically ``"edges"`` or ``"words"``).
    """

    budget: int | None = None
    enforce: bool = True
    unit: str = "edges"
    current: int = 0
    peak: int = 0
    total_charged: int = 0
    violations: int = 0
    _checkpoints: dict[str, int] = field(default_factory=dict)

    def charge(self, amount: int = 1) -> None:
        """Record that ``amount`` additional items are now stored."""
        if amount < 0:
            raise ValueError("use release() to free space")
        self.current += amount
        self.total_charged += amount
        if self.current > self.peak:
            self.peak = self.current
        if self.budget is not None and self.current > self.budget:
            self.violations += 1
            if self.enforce:
                raise SpaceBudgetExceeded(self.current, self.budget, self.unit)

    def release(self, amount: int = 1) -> None:
        """Record that ``amount`` items were discarded."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        self.current = max(0, self.current - amount)

    def apply(self, usage: np.ndarray, *, current: int) -> None:
        """Apply a run of unit charges and releases, given the usage after each charge.

        Equivalent to the ``charge(1)`` / ``release`` calls it summarises:
        ``usage[i]`` is the usage right after the ``i``-th charge, in order,
        and ``current`` the usage once the run ends.  An enforcing meter
        stops at the first charge over the budget and raises, counting the
        charges up to it, exactly as ``charge(1)`` would.
        """
        usage = np.asarray(usage)
        if len(usage) and self.budget is not None:
            over = usage > self.budget
            if over.any():
                if self.enforce:
                    first = int(np.argmax(over))
                    self.total_charged += first + 1
                    self.violations += 1
                    self.current = int(usage[first])
                    self.peak = max(self.peak, self.current)
                    raise SpaceBudgetExceeded(self.current, self.budget, self.unit)
                self.violations += int(np.count_nonzero(over))
        if len(usage):
            self.total_charged += len(usage)
            self.peak = max(self.peak, int(usage.max()))
        self.current = current

    def set_current(self, value: int) -> None:
        """Set the current usage directly (peak is updated accordingly)."""
        if value < 0:
            raise ValueError("value must be non-negative")
        delta = value - self.current
        if delta > 0:
            self.charge(delta)
        else:
            self.release(-delta)

    def checkpoint(self, name: str) -> None:
        """Record the current usage under a name (e.g. per streaming pass)."""
        self._checkpoints[name] = self.current

    @property
    def checkpoints(self) -> dict[str, int]:
        """Mapping of checkpoint name → recorded usage."""
        return dict(self._checkpoints)

    @property
    def within_budget(self) -> bool:
        """Whether the peak usage stayed within the budget (if any)."""
        return self.budget is None or self.peak <= self.budget

    def as_dict(self) -> dict[str, int | str | bool | None]:
        """Summary for experiment reports."""
        return {
            "unit": self.unit,
            "budget": self.budget,
            "peak": self.peak,
            "current": self.current,
            "total_charged": self.total_charged,
            "within_budget": self.within_budget,
            "violations": self.violations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpaceMeter(peak={self.peak}, current={self.current}, "
            f"budget={self.budget}, unit={self.unit!r})"
        )
