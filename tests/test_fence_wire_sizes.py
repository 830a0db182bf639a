"""Fence wire sizes are exact at every hop.

A fence aggregate keeps the size of its pending objects as a running
sum (``_FenceAgg.objs_size``) and interns each flushed objs dict with
that size, so a hop is sized with one probe instead of a walk over
every object.  These tests check the claimed sizes against the real
encoding:

- every ``kvs.fencedata`` request's ``size()`` equals the header plus
  the length of the payload's actual canonical encoding, on unique
  values, redundant values (both Fig 3 modes) and a fence that spans
  ``_recover_after_down``;
- the size interned for each flushed objs dict is the dict's encoded
  length.

The A/B against interning off (every hop summed object by object) is
``test_payload_interning.test_fingerprint_identical_with_interning_off``.
"""

import pytest

from repro import make_cluster
from repro.cmb import CommsSession, ModuleSpec
from repro.cmb.broker import Broker
from repro.cmb.message import HEADER_BYTES, MessageType
from repro.cmb.modules import HeartbeatModule, LiveModule
from repro.jsonutil import canonical_dumps, interned_size
from repro.kap import KapConfig, run_kap
from repro.kvs import KvsClient, KvsModule


@pytest.fixture
def fencedata(monkeypatch):
    """Record ``(claimed size, encoded size, interned objs size, encoded
    objs size, payload keys)`` for every fencedata request sent."""
    seen = []
    send = Broker._send

    def spy(self, peer_rank, plane, msg):
        if (msg.mtype is MessageType.REQUEST
                and msg.topic.endswith(".fencedata")):
            objs = msg.payload["objs"]
            seen.append((msg.size(),
                         HEADER_BYTES + len(canonical_dumps(msg.payload)),
                         interned_size(objs),
                         len(canonical_dumps(objs)),
                         frozenset(msg.payload)))
        send(self, peer_rank, plane, msg)

    monkeypatch.setattr(Broker, "_send", spy)
    return seen


def _assert_exact(seen):
    assert seen
    for claimed, encoded, interned, objs_encoded, _keys in seen:
        assert claimed == encoded
        if interned is not None:
            assert interned == objs_encoded


@pytest.mark.parametrize("redundant", [False, True],
                         ids=["unique", "redundant"])
def test_kap_fence_hops_are_exact(fencedata, redundant):
    cfg = KapConfig(nnodes=31, procs_per_node=4, value_size=96,
                    redundant_values=redundant, nconsumers=0, naccess=0,
                    seed=2)
    run_kap(cfg)
    _assert_exact(fencedata)
    # Every non-root broker flushed at least once, and the objs dicts
    # were sized by probe (interned), not by the fallback walk.
    assert len(fencedata) >= cfg.nnodes - 1
    probed = [s for s in fencedata if s[2] is not None]
    assert len(probed) == len(fencedata)
    if redundant:
        # One shared value: the union by SHA1 keeps one object per hop.
        assert {s[3] for s in fencedata} == {fencedata[0][3]}


def test_fence_across_recover_after_down_is_exact(fencedata):
    """Half the clients fence, an interior broker dies, the rest fence
    after the overlay healed.  The long aggregation window keeps partial
    aggregates (objects included) pending when ``_recover_after_down``
    resets them, so the survivors' re-emitted aggregates (tagged
    ``fepoch``) test the reset of the running size; the fence commits
    every survivor's value."""
    n, dead = 15, 1
    cluster = make_cluster(n, seed=11)
    session = CommsSession(cluster, modules=[
        ModuleSpec(KvsModule, fence_window=0.5),
        ModuleSpec(HeartbeatModule, period=0.05, max_epochs=80),
        ModuleSpec(LiveModule)]).start()
    sim = cluster.sim
    ranks = [r for r in range(n) if r != dead]
    late = set(ranks[::2])
    value = "v" * 80

    def client(rank):
        kvs = KvsClient(session.connect(rank))
        yield kvs.put(f"wire.k{rank}", f"{value}{rank}")
        if rank in late:
            yield sim.timeout(1.0)
        yield kvs.fence("wire.f", len(ranks))
        peer = ranks[(ranks.index(rank) + 1) % len(ranks)]
        got = yield kvs.get(f"wire.k{peer}")
        assert got == f"{value}{peer}"

    procs = [sim.spawn(client(r)) for r in ranks]
    sim.run(until=0.2)
    pending = sum(len(session.module_at(r, "kvs")._fences.get(
        "wire.f").objs) for r in ranks
        if "wire.f" in session.module_at(r, "kvs")._fences)
    assert pending > 0
    session.fail_rank(dead)
    sim.run(until=4.0)
    assert all(p.ok for p in procs)
    assert session.module_at(0, "kvs").fence_epoch > 0
    _assert_exact(fencedata)
    assert any("fepoch" in s[4] for s in fencedata)
    session.stop()
