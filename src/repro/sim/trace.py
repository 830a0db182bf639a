"""Lightweight tracing and statistics collection.

The benchmark harness needs per-phase latency distributions (max, mean,
percentiles) over thousands of simulated processes; :class:`StatSeries`
accumulates samples cheaply and summarizes them with numpy, which is
imported only when a summary is asked for: the headline ``max`` is pure
Python, so a plain KAP run never loads numpy.
:class:`Tracer` records (time, category, payload) tuples for debugging
and for determinism fingerprints in tests.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from math import copysign, isnan
from typing import TYPE_CHECKING, Any, Iterable, Optional

if TYPE_CHECKING:
    import numpy as np

__all__ = ["StatSeries", "Summary", "Tracer"]


@dataclass(frozen=True)
class Summary:
    """Summary statistics over one latency series (seconds)."""

    count: int
    max: float
    min: float
    mean: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict form for tabular printing / JSON dumps."""
        return {
            "count": self.count, "max": self.max, "min": self.min,
            "mean": self.mean, "p50": self.p50, "p95": self.p95,
            "p99": self.p99,
        }


class StatSeries:
    """An append-only series of float samples with numpy summarization."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: list[float] = []

    def add(self, value: float) -> None:
        """Record one sample."""
        self._samples.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        """Record many samples."""
        self._samples.extend(float(v) for v in values)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def values(self) -> "np.ndarray":
        """Samples as a numpy array (copy)."""
        import numpy as np
        return np.asarray(self._samples, dtype=np.float64)

    def max(self) -> float:
        """Largest sample, equal to ``summary().max`` without numpy;
        raises ``ValueError`` on an empty series."""
        samples = self._samples
        if not samples:
            raise ValueError(f"no samples in series {self.name!r}")
        m = max(samples)
        if isnan(sum(samples)) or (m == 0.0 and any(
                copysign(1.0, v) < 0.0 for v in samples if v == 0.0)):
            # numpy propagates NaN, and the sign of a zero maximum over
            # mixed +0.0/-0.0 depends on its SIMD loop: defer to it for
            # those series (simulated latencies never produce either).
            return float(self.values.max())
        return m

    def summary(self) -> Summary:
        """Summarize; raises ``ValueError`` on an empty series."""
        if not self._samples:
            raise ValueError(f"no samples in series {self.name!r}")
        import numpy as np
        arr = self.values
        return Summary(
            count=int(arr.size),
            max=float(arr.max()),
            min=float(arr.min()),
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
        )


class Tracer:
    """Ring-buffered event trace.

    ``capacity`` bounds memory during huge runs; ``None`` keeps
    everything (useful in unit tests asserting exact sequences).
    """

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self._records: deque[tuple[float, str, Any]] = deque(maxlen=capacity)
        self.enabled = True

    def record(self, t: float, category: str, payload: Any = None) -> None:
        """Append a trace record (no-op when disabled)."""
        if not self.enabled:
            return
        self._records.append((t, category, payload))

    def records(self, category: Optional[str] = None) -> list[tuple[float, str, Any]]:
        """All records, optionally filtered by category."""
        if category is None:
            return list(self._records)
        return [r for r in self._records if r[1] == category]

    def fingerprint(self) -> str:
        """Order-sensitive digest of the trace — equal traces, equal
        digest.  Uses sha1 rather than the builtin ``hash()`` so the
        value is stable across processes (``hash()`` of strings is
        randomized per-interpreter by ``PYTHONHASHSEED``) and can be
        recorded or compared between runs.
        """
        h = hashlib.sha1()
        for t, cat, payload in self._records:
            h.update(f"{round(t, 12)!r}|{cat}|{payload!r}\n".encode())
        return h.hexdigest()

    def clear(self) -> None:
        """Drop all records."""
        self._records.clear()
