"""Sharded event loop: equivalence, lookahead safety, shard mapping.

The contract of :mod:`repro.sim.shard` has two halves:

- **merged mode** (any hook/budget/bound installed, or zero
  lookahead): popping the globally smallest ``(time, priority, seq)``
  across shard heaps with a *global* sequence counter is exactly the
  single-heap total order — SAN105 fingerprints must match
  byte-for-byte.
- **burst mode** (hook-free full drains with positive lookahead):
  shards drain out of global time order inside the conservative
  horizon, so the event *stream* may interleave differently, but
  every observable result (event counts, wire bytes, simulated
  latencies, final clock) must be identical because no cross-shard
  interaction fits inside the horizon window.
"""

import pytest

from repro.cmb.topology import TreeTopology
from repro.kap import KapConfig, run_kap
from repro.sim import Simulation
from repro.sim.shard import ShardedSimulation, shard_map_from_topology

GOLDEN_KAP_256 = "52654cf1c7ec6e222120c2123f5d6763dbdc9834"


# -- shard_map_from_topology --------------------------------------------

class TestShardMap:
    def test_binary_tree_two_shards_split_at_level_one(self):
        topo = TreeTopology(8, arity=2)
        m = shard_map_from_topology(topo, 2)
        # Rank 1's subtree {1,3,4,7} -> shard 0; rank 2's {2,5,6} -> 1;
        # the root shares shard 0.
        assert m[0] == 0
        assert {m[1], m[3], m[4], m[7]} == {0}
        assert {m[2], m[5], m[6]} == {1}

    def test_whole_subtrees_share_a_shard(self):
        topo = TreeTopology(63, arity=2)
        m = shard_map_from_topology(topo, 4)
        for rank in range(1, 63):
            parent = (rank - 1) // 2
            if parent >= 3:  # below the split level, same shard
                assert m[rank] == m[parent], (rank, parent)

    def test_round_robin_when_shards_exceed_level_width(self):
        # 3 shards on a binary tree: level 2 (4 ranks) is the first
        # with >= 3, distributed round-robin.
        topo = TreeTopology(15, arity=2)
        m = shard_map_from_topology(topo, 3)
        assert [m[r] for r in (3, 4, 5, 6)] == [0, 1, 2, 0]
        assert m[0] == m[1] == m[2] == 0  # trunk

    def test_more_shards_than_ranks_is_fine(self):
        topo = TreeTopology(4, arity=2)
        m = shard_map_from_topology(topo, 8)
        assert set(m) == {0, 1, 2, 3}
        assert all(0 <= s < 8 for s in m.values())

    def test_wide_arity(self):
        topo = TreeTopology(32, arity=32)
        m = shard_map_from_topology(topo, 4)
        assert m[0] == 0
        # Level 1 holds all 31 children: round-robin over 4 shards.
        assert [m[r] for r in (1, 2, 3, 4, 5)] == [0, 1, 2, 3, 0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shard_map_from_topology(TreeTopology(4), 0)


# -- deliver_timeout homing ---------------------------------------------

class TestDeliveryHoming:
    def test_cross_shard_delivery_lands_in_target_heap(self):
        sim = ShardedSimulation(nshards=2, lookahead=1.0)
        sim.set_shard_map({0: 0, 1: 1})
        n0, n1 = len(sim._heaps[0]), len(sim._heaps[1])
        sim.deliver_timeout(1, 5.0)
        assert len(sim._heaps[1]) == n1 + 1
        assert len(sim._heaps[0]) == n0
        # The foreign arrival tightens the burst horizon immediately.
        assert sim._xmin == 5.0

    def test_same_shard_delivery_stays_put(self):
        sim = ShardedSimulation(nshards=2, lookahead=1.0)
        sim.set_shard_map({0: 0, 1: 1})
        sim.deliver_timeout(0, 5.0)
        assert len(sim._heaps[1]) == 0
        assert sim._xmin == float("inf")

    def test_unmapped_nodes_default_to_shard_zero(self):
        sim = ShardedSimulation(nshards=2, lookahead=1.0)
        sim.deliver_timeout(99, 1.0)
        assert len(sim._heaps[1]) == 0


def test_run_until_keeps_clock_a_float():
    for horizon in (5, 20):    # stops on a later event / drains first
        sim = ShardedSimulation(nshards=2, lookahead=1.0)
        sim.timeout(10.0)
        sim.run(until=horizon)
        assert type(sim.now) is float and sim.now == float(horizon)


# -- kernel-level burst/merged equivalence ------------------------------

def _pingpong(sim, log, rounds=20, gap=1.5):
    """Two 'nodes' exchanging cross-shard deliveries ``gap`` apart
    (> lookahead), logging (time, node) at each arrival."""
    def arrive(node, k):
        def cb(_ev):
            log.append((sim.now, node))
            if k < rounds:
                ev = sim.deliver_timeout(1 - node, gap)
                ev._cb1 = arrive(1 - node, k + 1)
        return cb

    ev = sim.deliver_timeout(0, 1.0)
    ev._cb1 = arrive(0, 0)


class TestKernelEquivalence:
    def test_burst_pingpong_matches_single_kernel(self):
        ref_log = []
        ref = Simulation(seed=1)
        _pingpong(ref, ref_log)
        ref.run()

        log = []
        sim = ShardedSimulation(seed=1, nshards=2, lookahead=1.0)
        sim.set_shard_map({0: 0, 1: 1})
        _pingpong(sim, log)
        sim.run()
        assert log == ref_log
        assert sim.now == ref.now

    def test_zero_lookahead_falls_back_to_merged(self):
        """A zero-latency fabric gives no safe horizon: the kernel must
        run merged (single-shard-identical order) instead of bursting."""
        log = []
        sim = ShardedSimulation(seed=1, nshards=2, lookahead=0.0)
        sim.set_shard_map({0: 0, 1: 1})
        _pingpong(sim, log, gap=0.0)

        ref_log = []
        ref = Simulation(seed=1)
        _pingpong(ref, ref_log, gap=0.0)
        ref.run()
        sim.run()
        assert log == ref_log

    def test_until_bound_runs_merged_and_stops_on_time(self):
        log = []
        sim = ShardedSimulation(seed=1, nshards=2, lookahead=1.0)
        sim.set_shard_map({0: 0, 1: 1})
        _pingpong(sim, log)
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert all(t <= 5.0 for t, _ in log)
        sim.run()  # resumes to completion
        assert len(log) == 21


# -- heap compaction ported to sub-kernels ------------------------------

class TestShardedHeapCompaction:
    def test_compaction_spans_all_shard_heaps(self):
        """Dead entries parked in a *foreign* shard heap must be
        compacted too — in place, so the inlined push paths keep
        hitting the same list objects."""
        sim = ShardedSimulation(nshards=2, lookahead=1.0)
        sim.set_shard_map({0: 0, 1: 1})
        done = []

        def body():
            doomed = [sim.deliver_timeout(1, 100.0) for _ in range(600)]
            heap1 = sim._heaps[1]
            assert len(heap1) >= 600
            yield sim.timeout(1.0)
            for t in doomed:
                t.abandon()
            assert sim._ndead < 600       # compaction ran
            assert sim._heaps[1] is heap1  # in place, not rebound
            assert len(heap1) < 600
            yield sim.timeout(1.0)
            done.append(sim.now)

        sim.spawn(body())
        sim.run()
        assert done == [2.0]
        assert sim.now == 2.0  # dead entries never advanced the clock

    def test_compaction_mid_burst_keeps_later_events(self):
        sim = ShardedSimulation(nshards=2, lookahead=1.0)
        sim.set_shard_map({0: 0, 1: 1})
        done = []

        def body():
            doomed = [sim.timeout(100.0) for _ in range(600)]
            yield sim.timeout(1.0)
            for t in doomed:
                t.abandon()
            yield sim.timeout(1.0)  # scheduled post-compaction
            done.append(sim.now)

        sim.spawn(body())
        sim.run()
        assert done == [2.0]


# -- end-to-end KAP equivalence -----------------------------------------

def _cfg(**kw):
    return KapConfig(**kw)


class TestKapEquivalence:
    # Three scales: tiny, the golden paper point, and a mid-size
    # config with different value size / sync mode.
    SCALES = {
        "tiny": dict(nnodes=8, procs_per_node=2, value_size=64,
                     nputs=2, naccess=2, seed=3),
        "golden": dict(nnodes=16, procs_per_node=16, value_size=64,
                       seed=1),
        "mid": dict(nnodes=32, procs_per_node=4, value_size=256,
                    seed=7),
    }

    @pytest.mark.parametrize("name", sorted(SCALES))
    def test_merged_fingerprint_identity(self, name):
        """With the fingerprint hook installed the sharded kernel runs
        merged: the event stream must be byte-identical to one shard."""
        kw = self.SCALES[name]
        one = run_kap(_cfg(**kw), sanitize=True)
        four = run_kap(_cfg(**kw, shards=4), sanitize=True)
        assert four.event_fingerprint == one.event_fingerprint
        assert four.events == one.events
        assert four.sanitizer_findings == []
        if name == "golden":
            assert one.event_fingerprint == GOLDEN_KAP_256

    @pytest.mark.parametrize("name", sorted(SCALES))
    def test_burst_results_identical(self, name):
        """Hook-free runs burst; every observable must still match the
        single-shard run exactly."""
        kw = self.SCALES[name]
        one = run_kap(_cfg(**kw))
        four = run_kap(_cfg(**kw, shards=4))
        assert four.events == one.events
        assert four.bytes_sent == one.bytes_sent
        assert four.total_time == one.total_time
        assert four.max_producer_latency == one.max_producer_latency
        assert four.max_sync_latency == one.max_sync_latency
        assert four.max_consumer_latency == one.max_consumer_latency
        assert four.plane_bytes == one.plane_bytes
