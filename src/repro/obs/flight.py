"""Flight recorder: a per-broker black box for post-mortem diagnosis.

Full span tracing is too heavy to leave on at the 8k-65k-producer
scales the ROADMAP targets, yet when a chaos run stalls the *recent
past* of every broker is exactly what the post-mortem needs.  The
:class:`FlightRecorder` squares that: a fixed-capacity ring buffer of
compact structured records that stays on **always** — tracing off,
sanitizers off, benchmarks included — because an append is O(1) and
allocates nothing once the ring is full: five slot stores, comparable
to the per-message counter update the broker already pays.

Records read back as 6-tuples ``(t, seq, kind, a, b, c)``:

- ``t`` — simulated time of the record;
- ``seq`` — per-recorder monotonically increasing sequence number
  (total order within one broker even when ``t`` ties);
- ``kind`` — a short string tag (``send``, ``event``, ``dispatch``,
  ``retransmit``, ``kvs_promote``, ...);
- ``a``/``b``/``c`` — kind-specific payload slots (topic, rank,
  version, ...), kept to cheap scalars/small tuples.

The ring is stored in columns, because one recorder lives on every
broker and its footprint multiplies by the node count: times in an
``array('d')`` (8 bytes, no float object) and ``kind``/``a``/``b``/``c``
in four lists (one pointer each), about 40 bytes per retained record
against ~190 for a tuple per record.  ``seq`` is not stored at all: it
is the record's absolute append index, recovered from the position.
:meth:`records` rebuilds the tuples on demand, so snapshots are
unchanged.

The recorder is a **pure observer** in the simulation's sense: it
schedules no events, draws no randomness, and never affects message
sizes — so enabling it (it is never disabled) cannot perturb the
event stream, and same-seed runs produce bit-identical rings.

Capacity is rounded up to a power of two so the hot-path index is a
single mask; the columns grow by append up to capacity, then old
records are overwritten silently and the overwrite count is reported
as ``dropped`` in :meth:`snapshot`.
"""

from __future__ import annotations

from array import array

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Fixed-capacity columnar ring of structured flight records."""

    __slots__ = ("capacity", "_mask", "_t", "_kind", "_a", "_b", "_c",
                 "_n")

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        cap = 1
        while cap < capacity:
            cap <<= 1
        self.capacity = cap
        self._mask = cap - 1
        self.clear()

    # -- hot path -------------------------------------------------------
    def rec(self, t: float, kind: str, a=None, b=None, c=None) -> None:
        """Append one record (O(1): five column stores, one add)."""
        i = self._n
        if i < self.capacity:
            self._t.append(t)
            self._kind.append(kind)
            self._a.append(a)
            self._b.append(b)
            self._c.append(c)
        else:
            j = i & self._mask
            self._t[j] = t
            self._kind[j] = kind
            self._a[j] = a
            self._b[j] = b
            self._c[j] = c
        self._n = i + 1

    # -- introspection --------------------------------------------------
    @property
    def appended(self) -> int:
        """Total records ever appended (including overwritten ones)."""
        return self._n

    @property
    def dropped(self) -> int:
        """Records lost to ring wrap-around."""
        n = self._n - self.capacity
        return n if n > 0 else 0

    @property
    def peak(self) -> int:
        """Peak ring occupancy (records simultaneously retained)."""
        return self._n if self._n < self.capacity else self.capacity

    def __len__(self) -> int:
        return self.peak

    def records(self) -> list:
        """Retained records, oldest first (each a 6-tuple)."""
        n = self._n
        cols = (self._t, self._kind, self._a, self._b, self._c)
        if n > self.capacity:
            # Full ring: the oldest record sits at the next write slot.
            j = n & self._mask
            cols = tuple(col[j:] + col[:j] for col in cols)
        t, kind, a, b, c = cols
        return list(zip(t, range(n - len(t), n), kind, a, b, c))

    def snapshot(self) -> dict:
        """JSON-able dump: retained records plus occupancy telemetry."""
        return {
            "capacity": self.capacity,
            "appended": self._n,
            "dropped": self.dropped,
            "peak": self.peak,
            "records": [list(r) for r in self.records()],
        }

    def clear(self) -> None:
        """Reset the ring (tests / reuse between workload phases)."""
        self._t = array("d")
        self._kind = []
        self._a = []
        self._b = []
        self._c = []
        self._n = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FlightRecorder {self.peak}/{self.capacity} "
                f"(appended={self._n})>")
