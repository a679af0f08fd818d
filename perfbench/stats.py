"""Summary statistics of one benchmark run: medians, the tail rule, errors."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: Samples a tail percentile must have ranked beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples ranked beyond it.

    Returns ``(value, percentile, n_beyond)``: with the ``n`` values sorted
    ascending, the value at 1-based rank ``n - TAIL_BEYOND`` has exactly
    ``TAIL_BEYOND`` values ranked after it, and its percentile is
    ``100 * (n - TAIL_BEYOND) / n``.  ``None`` when ``n <= TAIL_BEYOND``:
    no percentile has enough samples beyond it.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


@dataclass
class OpLog:
    """Attempted, failed and timed ops of one run.

    A failed op is one that raised, was refused, or whose output check
    failed.  It counts against :attr:`error_rate`, and its latency and
    samples are dropped: a failed op delivers nothing and meets no latency
    target.
    """

    seconds: List[float] = field(default_factory=list)
    #: Per op, the factor taking its time to nominal host speed (see
    #: :class:`perfbench.host.Calibration`); 1 until the runner sets it.
    scales: List[float] = field(default_factory=list)
    samples: List[int] = field(default_factory=list)
    good: List[bool] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def record(self, seconds: float, samples: int) -> int:
        """Log one op that returned; returns its index for later checks."""
        self.seconds.append(float(seconds))
        self.scales.append(1.0)
        self.samples.append(int(samples))
        self.good.append(True)
        return len(self.good) - 1

    def record_error(self, seconds: float, reason: str) -> None:
        """Log one op that raised or was refused."""
        index = self.record(seconds, 0)
        self.fail(index, reason)

    def fail(self, index: int, reason: str) -> None:
        """Mark op ``index`` as failed (idempotent per op)."""
        if self.good[index]:
            self.good[index] = False
            self.failures.append(reason)

    @property
    def attempted(self) -> int:
        return len(self.good)

    @property
    def failed(self) -> int:
        return self.good.count(False)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def good_latencies(self) -> List[float]:
        """Latencies of good ops at nominal host speed."""
        return [s * k for s, k, ok in zip(self.seconds, self.scales, self.good) if ok]

    @property
    def raw_latencies(self) -> List[float]:
        """Latencies of good ops as measured."""
        return [s for s, ok in zip(self.seconds, self.good) if ok]

    @property
    def good_samples(self) -> int:
        return sum(n for n, ok in zip(self.samples, self.good) if ok)
