"""Footprint budgets for the always-on per-broker state.

One broker runs on every node, so any fixed per-broker cost multiplies
by the node count.  These tests pin, with ``tracemalloc``, the bytes
that the two always-on structures retain per item -- the flight-
recorder ring and the broker's replay cache -- and check that a plain
KAP run never imports numpy.
"""

import gc
import os
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro.cmb.errors import EPROTO
from repro.cmb.message import Message
from repro.cmb.session import ModuleSpec
from repro.obs import FlightRecorder

from .test_cmb_broker import EchoModule, make_session

#: Retained bytes per flight record: one double and four list slots
#: (40 B) plus list over-allocation.
FLIGHT_BYTES_PER_RECORD = 64
#: Retained bytes per replay-cache entry at the default ``replay_cap``:
#: one dict slot of a table that churn keeps at 4x the live entries.
#: An error entry adds its ``(payload, error, errnum, err_rank)`` tuple.
REPLAY_BYTES_PER_OK_ENTRY = 80
REPLAY_BYTES_PER_ERROR_ENTRY = 160


def _retained(fn) -> int:
    """Bytes still allocated after ``fn()`` returns."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("capacity", [64, 1024])
def test_flight_ring_bytes_per_record(capacity):
    times = [i * 1e-6 for i in range(4 * capacity)]
    ring = []

    def fill():
        fr = FlightRecorder(capacity)
        for t in times:
            fr.rec(t, "send", "kvs.put", 7, None)
        ring.append(fr)

    per_record = _retained(fill) / capacity
    assert ring[0].peak == capacity
    assert per_record <= FLIGHT_BYTES_PER_RECORD, per_record


@pytest.mark.parametrize("kind, budget", [
    ("ok", REPLAY_BYTES_PER_OK_ENTRY),
    ("error", REPLAY_BYTES_PER_ERROR_ENTRY)])
def test_replay_cache_bytes_per_entry(kind, budget):
    _, session = make_session(n=1, modules=[ModuleSpec(EchoModule)])
    broker = session.brokers[0]
    broker._emit_response = lambda req, resp: None
    # Fill the flight ring first: an error answer records into it, and
    # a full ring overwrites in place.
    for _ in range(broker.flight.capacity):
        broker.flight.rec(0.0, "k")
    pairs = []
    for i in range(3 * broker.replay_cap):
        req = Message(topic="echo.ping", payload={"i": i}, src_rank=0)
        req.ensure_context(origin_rank=0)
        pairs.append((req, req.make_response({"i": i}) if kind == "ok"
                      else req.make_response(error="bad", errnum=EPROTO,
                                             err_rank=0)))

    def answer():
        for req, resp in pairs:
            broker._finish_request(req, resp)

    retained = _retained(answer)
    entries = len(broker._replay["echo"])
    assert entries == broker.replay_cap
    assert retained / entries <= budget, retained / entries


def test_plain_kap_run_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys\n"
        "from repro.kap import KapConfig, run_kap\n"
        "r = run_kap(KapConfig(nnodes=4, procs_per_node=2, value_size=16,"
        " nconsumers=4, naccess=2, seed=1))\n"
        "assert r.max_producer_latency > 0 and r.max_sync_latency > 0\n"
        "assert r.max_consumer_latency > 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0]"
        " == 'numpy')\n"
        "assert not loaded, loaded[:5]\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
