"""Flight recorder: ring semantics and always-on broker integration.

The :class:`~repro.obs.flight.FlightRecorder` is the per-broker black
box behind the post-mortem tentpole: always on, O(1) append, pure
observer.  These tests pin the ring arithmetic (wrap, peak, dropped,
ordering) and the integration contract — every broker records its
message-plane activity, and same-seed runs produce bit-identical
rings (the "pure observer" promise, stronger than the SAN105
fingerprint which only sees the event stream).
"""

import json

from hypothesis import given, strategies as st

from repro import make_cluster, standard_session
from repro.kvs import KvsClient
from repro.obs import FlightRecorder


# ----------------------------------------------------------------------
# ring unit behaviour
# ----------------------------------------------------------------------
class TestRing:
    def test_capacity_rounds_up_to_power_of_two(self):
        assert FlightRecorder(1).capacity == 1
        assert FlightRecorder(3).capacity == 4
        assert FlightRecorder(1000).capacity == 1024
        assert FlightRecorder(1024).capacity == 1024

    def test_append_below_capacity(self):
        fr = FlightRecorder(8)
        for i in range(5):
            fr.rec(float(i), "k", i)
        assert fr.appended == 5
        assert fr.dropped == 0
        assert fr.peak == 5
        assert len(fr) == 5
        assert [r[3] for r in fr.records()] == [0, 1, 2, 3, 4]

    def test_wrap_overwrites_oldest(self):
        fr = FlightRecorder(4)
        for i in range(10):
            fr.rec(float(i), "k", i)
        assert fr.appended == 10
        assert fr.dropped == 6
        assert fr.peak == fr.capacity == 4
        # Retained records are the newest 4, oldest first.
        assert [r[3] for r in fr.records()] == [6, 7, 8, 9]

    def test_records_carry_monotonic_seq(self):
        fr = FlightRecorder(4)
        for i in range(7):
            fr.rec(0.0, "k")          # identical timestamps
        seqs = [r[1] for r in fr.records()]
        assert seqs == sorted(seqs) == [3, 4, 5, 6]

    def test_record_shape(self):
        fr = FlightRecorder(2)
        fr.rec(1.5, "send", "topic", 3, ("x", 1))
        t, seq, kind, a, b, c = fr.records()[0]
        assert (t, seq, kind, a, b, c) == (1.5, 0, "send", "topic", 3,
                                           ("x", 1))

    def test_snapshot_is_jsonable_shape(self):
        fr = FlightRecorder(4)
        fr.rec(0.1, "k", 1)
        snap = fr.snapshot()
        assert snap["capacity"] == 4
        assert snap["appended"] == 1
        assert snap["dropped"] == 0
        assert snap["peak"] == 1
        assert snap["records"] == [[0.1, 0, "k", 1, None, None]]

    def test_clear_resets(self):
        fr = FlightRecorder(4)
        for i in range(9):
            fr.rec(0.0, "k")
        fr.clear()
        assert fr.appended == 0 and fr.dropped == 0
        assert fr.records() == []


class _TupleRing:
    """Reference model: one ``(t, seq, kind, a, b, c)`` tuple per slot
    of a preallocated ring -- the row layout the columnar ring must
    reproduce record for record."""

    def __init__(self, capacity):
        cap = 1
        while cap < capacity:
            cap <<= 1
        self.capacity = cap
        self.clear()

    def rec(self, t, kind, a=None, b=None, c=None):
        self.buf[self.n & (self.capacity - 1)] = (t, self.n, kind, a, b, c)
        self.n += 1

    def records(self):
        lo = max(0, self.n - self.capacity)
        return [self.buf[i & (self.capacity - 1)]
                for i in range(lo, self.n)]

    def snapshot(self):
        return {"capacity": self.capacity, "appended": self.n,
                "dropped": max(0, self.n - self.capacity),
                "peak": min(self.n, self.capacity),
                "records": [list(r) for r in self.records()]}

    def clear(self):
        self.buf = [None] * self.capacity
        self.n = 0


_slot = st.one_of(st.none(), st.integers(-2**40, 2**40),
                  st.text(max_size=6),
                  st.tuples(st.text(max_size=3), st.integers(0, 9)))
_rec = st.tuples(st.floats(0.0, 1e6), st.sampled_from(["send", "event"]),
                 _slot, _slot, _slot)


# Small capacities (rounded up to 1..16) so most record lists wrap.
@given(st.integers(1, 12), st.lists(_rec, max_size=80), st.integers(0, 80))
def test_columnar_ring_matches_tuple_ring(capacity, recs, clear_at):
    ring, ref = FlightRecorder(capacity), _TupleRing(capacity)
    assert ring.capacity == ref.capacity
    for k, rec in enumerate(recs):
        if k == clear_at:
            ring.clear()
            ref.clear()
            assert ring.records() == [] and ring.appended == 0
        ring.rec(*rec)
        ref.rec(*rec)
        assert ring.peak == len(ring) == ref.snapshot()["peak"]
        assert ring.dropped == ref.snapshot()["dropped"]
    assert ring.records() == ref.records()
    assert json.dumps(ring.snapshot()) == json.dumps(ref.snapshot())


# ----------------------------------------------------------------------
# broker integration: always on, deterministic
# ----------------------------------------------------------------------
def _run_workload(seed: int = 3):
    cluster = make_cluster(8, seed=seed)
    session = standard_session(cluster)
    session.start()
    sim = cluster.sim

    def client(rank):
        kvs = KvsClient(session.connect(rank, collective=False))
        yield kvs.put(f"flight.r{rank}", rank)
        yield kvs.commit()
        value = yield kvs.get(f"flight.r{rank}")
        assert value == rank

    procs = [sim.spawn(client(r)) for r in (2, 5, 7)]
    sim.run(until=30.0)
    assert all(p.triggered and p.ok for p in procs)
    snaps = session.flight_snapshots()
    session.stop()
    return snaps


def test_brokers_record_without_tracing_enabled():
    """The recorder is on even with tracing/sanitizers off."""
    snaps = _run_workload()
    assert set(snaps) == set(range(8))
    # The root (rank 0, KVS master) dispatched the commits, applied
    # the new root versions, and published the setroot events.
    kinds_root = {r[2] for r in snaps[0]["records"]}
    assert "dispatch" in kinds_root
    assert "kvs_apply_root" in kinds_root
    assert "event" in kinds_root
    total = sum(s["appended"] for s in snaps.values())
    assert total > 0


def _normalize(snaps):
    """Renumber the process-global request ids some records carry
    (msgid allocation never resets between runs in one process) so
    same-seed rings can be compared record for record."""
    out = {}
    for rank, s in snaps.items():
        ids: dict = {}
        recs = []
        for t, seq, kind, a, b, c in (tuple(r) for r in s["records"]):
            if kind in ("dispatch", "replay", "dup_parked") \
                    and b is not None:
                b = ids.setdefault(b, len(ids))
            recs.append((t, seq, kind, a, b, c))
        out[rank] = dict(s, records=recs)
    return out


def test_same_seed_rings_identical():
    """Pure-observer contract: two same-seed runs must leave every
    broker's ring identical, record for record (modulo the process-
    global request-id counter, renumbered by ``_normalize``)."""
    assert _normalize(_run_workload(seed=11)) == \
        _normalize(_run_workload(seed=11))


def test_session_flight_peak_and_plane_bytes():
    cluster = make_cluster(4, seed=1)
    session = standard_session(cluster)
    session.start()
    sim = cluster.sim

    def client():
        kvs = KvsClient(session.connect(3, collective=False))
        yield kvs.put("a", 1)
        yield kvs.commit()

    proc = sim.spawn(client())
    sim.run(until=10.0)
    assert proc.triggered and proc.ok
    assert session.flight_peak() > 0
    planes = session.plane_bytes()
    # The commit crossed the tree plane; event planes saw the setroot.
    assert planes.get("tree", 0) > 0
    assert sum(planes.values()) > 0
    session.stop()
