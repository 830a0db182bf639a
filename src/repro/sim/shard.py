"""Sharded event loop: per-subtree sub-kernels under a conservative
lookahead barrier.

The single-heap kernel processes one global total order; at 65k
producers the heap and the per-event dispatch dominate wall-clock.
This module splits the event loop into per-shard heaps — one shard per
group of tree subtrees — exploiting the one structural fact the LogGP
fabric guarantees: **every interaction between nodes crosses the
network**, and the cheapest cross-node hop costs at least ``L =
per_message_overhead + latency`` simulated seconds (the IPC loopback
between co-located endpoints costs even more).  ``L`` is therefore a
safe lookahead horizon in the classic conservative-PDES sense: a shard
may freely process events earlier than ``min(other shards' next event
time) + L``, because nothing the other shards have yet to do can
schedule into it before that.

Two execution modes, chosen automatically:

- **merged** — pop the globally smallest ``(time, priority, seq)``
  entry across all shard heaps.  The sequence counter is global, so
  this is *provably the identical total order* the single-heap kernel
  produces: any observer (the SAN105 replay fingerprint hook above
  all) sees byte-for-byte the same stream.  Used whenever an
  ``event_hook`` is installed, a ``max_events`` budget or ``until``
  bound applies, or the lookahead is zero (e.g. a zero-latency
  fabric — the "fall back to a single shard" edge case).
- **burst** — repeatedly pick the shard with the earliest next event
  and drain it up to the barrier horizon.  Within a horizon window
  shards process in wall-clock order, not simulated-time order, so
  this mode is reserved for hook-free full-drain runs (the KAP bench);
  results (latencies, byte counts, event totals) are unchanged because
  no cross-shard interaction can occur inside the window.

Cross-shard scheduling happens at exactly one point:
:meth:`ShardedSimulation.deliver_timeout`, the network's delivery
site, homes the arrival event in the destination node's shard.  All
other scheduling stays in the shard whose event is being processed, so
the hot inlined ``heappush(sim._heap, ...)`` paths in the kernel are
untouched — ``self._heap`` is simply rebound to the active shard's
heap.
"""

from __future__ import annotations

from heapq import heapify, heappop
from typing import Optional

from .kernel import Simulation, SimulationError, Timeout

__all__ = ["ShardedSimulation", "shard_map_from_topology"]

_INF = float("inf")


def shard_map_from_topology(topology, nshards: int) -> dict[int, int]:
    """Partition tree ranks into ``nshards`` shards by subtree.

    Every rank is assigned the shard of its ancestor at the first tree
    level with at least ``nshards`` ranks (round-robin over that
    level); ranks above that level — the trunk, including the root —
    share shard 0.  Whole subtrees land in one shard, so the only
    cross-shard traffic is trunk traffic, which is exactly the traffic
    with full per-hop network latency.
    """
    if nshards < 1:
        raise ValueError("nshards must be positive")
    size, k = topology.size, topology.arity
    # First level holding >= nshards ranks (level d has k**d ranks).
    depth, width = 0, 1
    while width < nshards and width < size:
        depth += 1
        width *= k
    mapping: dict[int, int] = {}
    for rank in range(size):
        d, r = 0, rank
        anc = [rank]
        while r != 0:
            r = (r - 1) // k
            anc.append(r)
            d += 1
        if d < depth:
            mapping[rank] = 0
            continue
        # Ancestor at exactly `depth`; its index among that level's
        # ranks gives the round-robin shard.
        a = anc[d - depth]
        first = (k ** depth - 1) // (k - 1) if k > 1 else depth
        mapping[rank] = (a - first) % nshards
    return mapping


class ShardedSimulation(Simulation):
    """A :class:`Simulation` whose heap is split into per-shard heaps.

    Parameters
    ----------
    nshards:
        Number of sub-kernels.  1 behaves exactly like the base class.
    lookahead:
        The conservative barrier horizon ``L`` (minimum cross-shard
        link delay, in simulated seconds).  ``<= 0`` disables burst
        mode entirely — the kernel then always runs merged, which is
        event-identical to a single shard.

    Use :meth:`set_shard_map` (or :func:`shard_map_from_topology`) to
    home each node's delivery events; unmapped nodes fall to shard 0.
    """

    def __init__(self, seed: int = 0, *, strict: bool = True,
                 nshards: int = 1, lookahead: float = 0.0):
        super().__init__(seed=seed, strict=strict)
        if nshards < 1:
            raise ValueError("nshards must be positive")
        self.nshards = nshards
        self.lookahead = float(lookahead)
        #: ``_heaps[0]`` is the heap the base class created; setup-time
        #: scheduling (before :meth:`run`) lands there.
        self._heaps: list[list] = [self._heap] + [
            [] for _ in range(nshards - 1)]
        self._shard_of: dict[int, int] = {}
        #: Lower bound on the earliest event in any *non-active* shard
        #: (burst mode): shrinks when the active shard schedules a
        #: delivery into another shard, so the drain horizon tightens
        #: immediately and causality can never be violated.
        self._xmin = _INF

    def set_shard_map(self, mapping: dict[int, int]) -> None:
        """Assign node ids to shards (values are taken mod nshards)."""
        self._shard_of = {node: shard % self.nshards
                          for node, shard in mapping.items()}

    def shard_of(self, node_id: int) -> int:
        """Shard homing ``node_id``'s delivery events."""
        return self._shard_of.get(node_id, 0)

    # -- scheduling ----------------------------------------------------
    def deliver_timeout(self, node_id: int, delay: float) -> Timeout:
        target = self._heaps[self._shard_of.get(node_id, 0)]
        cur = self._heap
        if target is cur:
            return Timeout(self, delay)
        self._heap = target
        try:
            ev = Timeout(self, delay)
        finally:
            self._heap = cur
        t = self.now + delay
        if t < self._xmin:
            self._xmin = t
        return ev

    def _note_dead(self) -> None:
        # Compact *all* shard heaps in place (same invisibility
        # argument as the base class; rebinding any heap mid-run would
        # strand events the inlined push paths still target).
        self._ndead += 1
        if self._ndead > 512 and self._ndead * 2 > sum(
                len(h) for h in self._heaps):
            for heap in self._heaps:
                heap[:] = [e for e in heap if not e[3]._dead]
                heapify(heap)
            self._ndead = 0

    # -- merged mode ---------------------------------------------------
    def _step(self, max_events: Optional[int] = None) -> bool:
        """Pop and process the globally next live event across shards.

        The ``(time, priority, seq)`` key is a total order with a
        *global* sequence counter, so the merged pop sequence is
        exactly the single-heap kernel's processing order — replay
        fingerprints match by construction.
        """
        best = None
        best_key = None
        for h in self._heaps:
            while h and h[0][3]._dead:
                heappop(h)
                if self._ndead > 0:
                    self._ndead -= 1
            if h and (best_key is None or h[0] < best_key):
                best_key = h[0]
                best = h
        if best is None:
            return False
        entry = heappop(best)
        ev = entry[3]
        self._heap = best
        t = entry[0]
        self.now = t
        self._nevents += 1
        if max_events is not None and self._nevents > max_events:
            raise SimulationError(
                f"event budget {max_events} exhausted at t={self.now:g}")
        if self.event_hook is not None:
            self.event_hook(t, entry[1], ev)
        ev._run_callbacks()
        return True

    def _min_head(self) -> Optional[float]:
        """Earliest live event time across shards (clearing dead heads)."""
        best = None
        for h in self._heaps:
            while h and h[0][3]._dead:
                heappop(h)
                if self._ndead > 0:
                    self._ndead -= 1
            if h and (best is None or h[0][0] < best):
                best = h[0][0]
        return best

    # -- drivers -------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        if self.nshards <= 1:
            return super().run(until, max_events)
        if (until is None and max_events is None
                and self.event_hook is None and self.lookahead > 0.0):
            return self._run_burst()
        if until is None:
            while self._step(max_events):
                pass
            return self.now
        while True:
            head = self._min_head()
            if head is None:
                break
            if head > until:
                self.now = float(until)
                return self.now
            self._step(max_events)
        if until > self.now:
            self.now = float(until)
        return self.now

    def _run_burst(self) -> float:
        """Pick the earliest shard, drain it to the lookahead horizon,
        repeat.  See the module docstring for the safety argument; the
        horizon is ``_xmin + L`` with ``_xmin`` maintained *live* by
        :meth:`deliver_timeout`, so a delivery scheduled into another
        shard mid-drain tightens the horizon before the next event."""
        heaps = self._heaps
        L = self.lookahead
        max_now = self.now
        while True:
            best = None
            best_t = _INF
            other = _INF
            for h in heaps:
                while h and h[0][3]._dead:
                    heappop(h)
                    if self._ndead > 0:
                        self._ndead -= 1
                if not h:
                    continue
                t = h[0][0]
                if t < best_t:
                    other = best_t
                    best_t = t
                    best = h
                elif t < other:
                    other = t
            if best is None:
                if max_now > self.now:
                    self.now = max_now
                return self.now
            self._heap = best
            self._xmin = other
            while best:
                entry = best[0]
                ev = entry[3]
                if ev._dead:
                    heappop(best)
                    if self._ndead > 0:
                        self._ndead -= 1
                    continue
                if entry[0] >= self._xmin + L:
                    break
                heappop(best)
                self.now = entry[0]
                self._nevents += 1
                # Inlined callback dispatch (byte-for-byte the tight
                # run loop of the base kernel).
                ev._state = 2  # Event.PROCESSED
                cb1 = ev._cb1
                callbacks = ev.callbacks
                ev._cb1 = None
                ev.callbacks = None
                if cb1 is not None:
                    cb1(ev)
                if callbacks:
                    for fn in callbacks:
                        fn(ev)
            if self.now > max_now:
                max_now = self.now
