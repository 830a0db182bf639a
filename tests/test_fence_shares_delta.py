"""The lossy-fabric fence: per-origin share deltas with acked watermarks.

Two checks:

- a Hypothesis property test drives the real delta/merge/ack helpers
  (:mod:`repro.kvs.shares`) over a small fence tree whose links drop,
  duplicate and reorder flushes and responses, reset their watermarks,
  and whose relay can lose its state (which every rank then hears
  of, as on ``live.down``).  Every held share must always
  be a true prefix of its origin's contribution log, and after the
  heartbeat anti-entropy settles, the master must hold every log in
  full and commit each op exactly once;
- a linearity gate: fence-only KAP with a zero-rate ``FaultPlan``
  (which switches the fence to the shares protocol) must move the
  same tree bytes and reach the same max fence latency as the clean
  protocol, within 10%.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kap.driver as kap_driver
from repro.kap import KapConfig, run_kap
from repro.kvs.shares import advance_marks, merge_deltas, take_deltas
from repro.sim import FaultPlan

# ----------------------------------------------------------------------
# property test: a fence tree over a faulty fabric
# ----------------------------------------------------------------------
#: origin -> the origin its flushes go to (``None``: the master).
#: Origins 2 and 3 reduce through relay 1; origin 4 talks to the
#: master directly.
PARENT = {0: None, 1: 0, 2: 1, 3: 1, 4: 0}


class _Node:
    """One rank's view of a fence: its own log prefix plus the shares
    merged from below, and the watermarks of its outgoing link."""

    def __init__(self, origin: int, log: list):
        self.origin = origin
        self.log = log            # contributions: lists of ops
        self.made = 0             # contributions entered so far
        self.ops: list = []       # the ops of those contributions
        self.shares: dict = {}
        self.sent: dict = {}
        self.acked: dict = {}
        self.epoch = 0            # bumped on every link reset
        self.total = 0            # running total of merged counts
        self.committed: list = []

    def contribute(self) -> None:
        if self.made < len(self.log):
            self.ops.extend(self.log[self.made])
            self.made += 1
            self.total += 1

    def own_share(self) -> None:
        if self.made:
            self.shares[self.origin] = [self.made, self.ops]

    def reset_link(self) -> None:
        self.sent, self.acked = {}, {}
        self.epoch += 1

    def lose_state(self) -> None:
        """The rank forgot everything it merged from below."""
        self.shares = {}
        self.total = self.made
        self.reset_link()


class _Fabric:
    def __init__(self, logs: dict):
        self.nodes = {o: _Node(o, logs[o]) for o in PARENT}
        self.nprocs = sum(len(log) for log in logs.values())
        self.requests: list = []   # (src, deltas, marks, epoch)
        self.responses: list = []  # (src, ok, marks, epoch)
        self.commits = 0

    def flush(self, o: int) -> None:
        node = self.nodes[o]
        node.own_share()
        if PARENT[o] is None:
            self.maybe_commit()
            return
        deltas, marks = take_deltas(node.shares, node.sent)
        if deltas:
            self.requests.append((o, deltas, marks, node.epoch))

    def maybe_commit(self) -> None:
        master = self.nodes[0]
        if self.commits == 0 and master.total >= self.nprocs:
            self.commits += 1
            for origin in sorted(master.shares):
                master.committed.extend(master.shares[origin][1])

    def deliver(self, i: int) -> None:
        src, deltas, marks, epoch = self.requests.pop(i)
        dst = self.nodes[PARENT[src]]
        grown = merge_deltas(dst.shares, deltas, skip=dst.origin)
        self.responses.append((src, grown is not None, marks, epoch))
        if grown:
            dst.total += grown
            self.flush(dst.origin)

    def answer(self, i: int) -> None:
        src, ok, marks, epoch = self.responses.pop(i)
        node = self.nodes[src]
        if epoch != node.epoch:
            return                  # a response for a reset link
        if ok:
            advance_marks(node.acked, marks)
        else:
            # EAGAIN: rewind the (unchanged) link to zero and resend.
            node.sent, node.acked = {}, {}
            self.flush(src)

    def lose_state(self, o: int) -> None:
        """Rank ``o`` restarts empty.  As on ``live.down`` in shares
        mode, every rank then forgets its link's watermarks and
        resends in full: acks the lost rank gave are void."""
        self.nodes[o].lose_state()
        for p in PARENT:
            self.nodes[p].reset_link()
            self.flush(p)

    def pulse(self) -> None:
        """Heartbeat anti-entropy: rewind every link to its acks."""
        for o in PARENT:
            node = self.nodes[o]
            node.sent = dict(node.acked)
            self.flush(o)

    def check_prefixes(self) -> None:
        for node in self.nodes.values():
            held = 0
            for origin, (count, ops) in node.shares.items():
                if origin == node.origin:
                    continue        # refreshed before every flush
                owner = self.nodes[origin]
                assert count <= owner.made, "count overshoots its origin"
                want = [op for c in owner.log[:count] for op in c]
                assert ops == want, "held ops are not the origin's prefix"
                held += count
            assert node.total == held + node.made


_logs = st.fixed_dictionaries({
    o: st.lists(st.integers(0, 2), min_size=0, max_size=6)
    for o in PARENT})
#: A client entering flushes at once (as the fence window would), so
#: deltas pile up in flight and get lost and reordered (the ``EAGAIN``
#: path) often.
_steps = st.lists(st.tuples(
    st.sampled_from(["enter", "enter", "deliver", "deliver", "drop",
                     "dup", "answer", "lose_answer", "reset",
                     "lose_state", "pulse"]),
    st.integers(0, 63)), min_size=8, max_size=120)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sizes=_logs, steps=_steps)
def test_deltas_converge_exactly_once_under_faults(sizes, steps):
    logs = {o: [[(o, c, j) for j in range(n)] for c, n in enumerate(ns)]
            for o, ns in sizes.items()}
    fab = _Fabric(logs)
    nodes = fab.nodes
    for kind, k in steps:
        o = k % len(PARENT)
        if kind == "enter":
            nodes[o].contribute()
            fab.flush(o)
        elif kind in ("deliver", "drop", "dup") and fab.requests:
            i = k % len(fab.requests)
            if kind == "deliver":
                fab.deliver(i)
            elif kind == "drop":
                fab.requests.pop(i)
            else:
                fab.requests.append(fab.requests[i])
        elif kind in ("answer", "lose_answer") and fab.responses:
            i = k % len(fab.responses)
            if kind == "answer":
                fab.answer(i)
            else:
                fab.responses.pop(i)
        elif kind == "reset":
            nodes[o].reset_link()
        elif kind == "lose_state" and o == 1:
            fab.lose_state(1)       # only the relay: the master commits
        elif kind == "pulse":
            fab.pulse()
        fab.check_prefixes()
    # Every client enters; the fabric heals; pulses repair the rest.
    for node in nodes.values():
        while node.made < len(node.log):
            node.contribute()
        fab.flush(node.origin)
    for _round in range(20):
        while fab.requests or fab.responses:
            if fab.requests:
                fab.deliver(0)
            else:
                fab.answer(0)
            fab.check_prefixes()
        fab.pulse()
        if not fab.requests:
            break
    assert not fab.requests, "anti-entropy never went quiet"
    master = nodes[0]
    for origin, node in nodes.items():
        if origin != 0 and node.made:
            assert master.shares[origin] == [node.made, node.ops]
    assert fab.commits == 1
    every_op = sorted(op for log in logs.values() for c in log for op in c)
    assert sorted(master.committed) == every_op
    assert len(set(master.committed)) == len(master.committed)


def test_merge_rejects_base_beyond_prefix_without_merging():
    shares = {7: [1, [("a", "s1")]]}
    deltas = {"7": [3, 2, [("c", "s3")]], "8": [1, 0, [("d", "s4")]]}
    assert merge_deltas(shares, deltas) is None
    assert shares == {7: [1, [("a", "s1")]]}     # origin 8 not merged
    assert merge_deltas(shares, {"7": [2, 1, [("b", "s2")]]}) == 1
    assert merge_deltas(shares, {"7": [2, 1, [("b", "s2")]]}) == 0
    assert shares == {7: [2, [("a", "s1"), ("b", "s2")]]}


def test_take_deltas_ships_only_news():
    shares = {1: [2, [("a", "x"), ("b", "y")]]}
    sent: dict = {}
    deltas, marks = take_deltas(shares, sent)
    assert deltas == {"1": [2, 0, [("a", "x"), ("b", "y")]]}
    assert marks == sent == {1: (2, 2)}
    assert take_deltas(shares, sent) == ({}, {})
    shares[1] = [3, shares[1][1] + [("c", "z")]]
    deltas, _marks = take_deltas(shares, sent)
    assert deltas == {"1": [3, 2, [("c", "z")]]}


# ----------------------------------------------------------------------
# linearity gate: a zero-rate fault plan costs nothing on the fence
# ----------------------------------------------------------------------
def _fence_only(nnodes: int, monkeypatch, *, plan: bool):
    build = kap_driver.make_cluster

    def planned(*args, **kwargs):
        cluster = build(*args, **kwargs)
        cluster.network.fault_plan = FaultPlan(seed=1)
        return cluster

    with monkeypatch.context() as mp:
        if plan:
            mp.setattr(kap_driver, "make_cluster", planned)
        res = run_kap(KapConfig(nnodes=nnodes, procs_per_node=16,
                                value_size=64, nconsumers=0, naccess=0,
                                seed=1))
    return res.plane_bytes["tree"], res.max_sync_latency


@pytest.mark.parametrize("nnodes", [32, 128])
def test_zero_rate_plan_fence_is_linear(nnodes, monkeypatch):
    clean_bytes, clean_fence = _fence_only(nnodes, monkeypatch, plan=False)
    bytes_, fence = _fence_only(nnodes, monkeypatch, plan=True)
    assert bytes_ <= 1.1 * clean_bytes, (bytes_, clean_bytes)
    assert fence <= 1.1 * clean_fence, (fence, clean_fence)
