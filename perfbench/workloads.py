"""Workload shapes, per-seed inputs and the code that runs them.

Three closed-loop workloads (every client waits for each reply):

- ``kap-fence``: KAP write/fence only, large unique values, read path
  idle -- fence aggregation and payload sizing dominate.
- ``kap-get``: KAP read-heavy (Fig 4a), small values in one
  directory -- directory fault-in, the slave cache and get RPCs.
- ``chaos-loss``: put/fence/get rounds, back to back with no think
  time, on a fabric that drops 1% of messages, heartbeats on -- the
  shares fence protocol, broker retransmit/replay, ``sim.faults`` and
  the liveness plane.

A run's inputs are a sequence of *cases* drawn from its ``--seed``:
each case fixes the simulation (and fault-plan) seed and, for KAP, a
value size drawn from a narrow band around the nominal one.  The
system under test only ever sees the generated ``KapConfig`` or
fault-plan parameters.

Each workload's run returns a dict with the simulated metrics
(``sim``), the exact counts (``counts``) and the client operations
attempted and failed (``ops``, ``failed``), and raises
:class:`WorkloadError` when the result fails its correctness check.
"""

from __future__ import annotations

import json
import random
from typing import Optional

from repro import make_cluster, standard_session
from repro.cmb import CommsSession, ModuleSpec, TreeTopology
from repro.cmb.modules import BarrierModule
from repro.kap import KapConfig, run_kap
from repro.kvs import KvsClient, KvsModule
from repro.sim import FaultPlan

__all__ = ["SHAPES", "TINY_SHAPES", "WorkloadError", "make_cases",
           "nominal_ops", "run_case", "setup_case"]

#: Nominal shapes.  ``value_band`` is the half-width of the per-case
#: value-size draw (bytes) around ``value_size``.
SHAPES: dict[str, dict] = {
    "kap-fence": {"kind": "kap", "nnodes": 1024, "procs_per_node": 16,
                  "value_size": 2048, "value_band": 64,
                  "nconsumers": 0, "naccess": 0, "stride": 1},
    "kap-get": {"kind": "kap", "nnodes": 128, "procs_per_node": 16,
                "value_size": 12, "value_band": 4,
                "nconsumers": None, "naccess": 8, "stride": 1},
    "chaos-loss": {"kind": "chaos", "nnodes": 127, "nclients": 128,
                   "drop_rate": 0.01, "iters": 4,
                   "hb_period": 0.05, "timeout": 0.5, "retries": 8},
}

#: The same workloads on shapes small enough for the self-check.
TINY_SHAPES: dict[str, dict] = {
    "kap-fence": {**SHAPES["kap-fence"], "nnodes": 8, "procs_per_node": 2,
                  "value_size": 256, "value_band": 8},
    "kap-get": {**SHAPES["kap-get"], "nnodes": 8, "procs_per_node": 2},
    "chaos-loss": {**SHAPES["chaos-loss"], "nnodes": 15, "nclients": 16,
                   "iters": 2},
}

#: Simulated-time horizon for the chaos workload's client phase and
#: for its verification read (seconds).
CHAOS_RUN_UNTIL = 60.0
CHAOS_VERIFY_UNTIL = 20.0


class WorkloadError(Exception):
    """A workload's output failed its correctness check."""

    def __init__(self, message: str, ops: int, failed: int):
        super().__init__(message)
        self.ops = ops
        self.failed = failed


def make_cases(name: str, seed: int, count: int,
               shapes: dict = SHAPES) -> list[dict]:
    """The first ``count`` input cases of workload ``name`` for ``seed``.

    The same ``(name, seed)`` always yields the same sequence, and a
    longer sequence extends a shorter one.
    """
    shape = shapes[name]
    rng = random.Random(f"{name}:{seed}")
    cases = []
    for _ in range(count):
        case = {"seed": rng.randrange(1, 2 ** 31)}
        if shape["kind"] == "kap":
            band = shape["value_band"]
            case["value_size"] = shape["value_size"] + rng.randint(-band,
                                                                   band)
        cases.append(case)
    return cases


def nominal_ops(shape: dict) -> int:
    """Client operations one case issues: puts, fences and gets, plus
    the chaos workload's verification reads."""
    if shape["kind"] == "kap":
        nprocs = shape["nnodes"] * shape["procs_per_node"]
        consumers = (nprocs if shape["nconsumers"] is None
                     else shape["nconsumers"])
        return 2 * nprocs + consumers * shape["naccess"]
    return shape["nclients"] * shape["iters"] * 4


def _kap_config(shape: dict, case: dict) -> KapConfig:
    return KapConfig(nnodes=shape["nnodes"],
                     procs_per_node=shape["procs_per_node"],
                     value_size=case["value_size"],
                     nconsumers=shape["nconsumers"],
                     naccess=shape["naccess"], stride=shape["stride"],
                     seed=case["seed"])


def setup_case(shape: dict, case: dict) -> CommsSession:
    """Build and start the cluster and comms session the workload runs
    on, with the same public constructors its run uses."""
    if shape["kind"] == "kap":
        cfg = _kap_config(shape, case)
        cluster = make_cluster(cfg.nnodes, seed=cfg.seed)
        return CommsSession(
            cluster,
            topology=TreeTopology(cfg.nnodes, arity=cfg.tree_arity),
            modules=[ModuleSpec(KvsModule), ModuleSpec(BarrierModule)],
        ).start()
    return _chaos_session(shape, case)[0]


def run_case(shape: dict, case: dict, *, trace_out: Optional[str] = None,
             stats_out: Optional[str] = None) -> dict:
    """Run one case to a verified result."""
    if shape["kind"] == "kap":
        return _run_kap(shape, case, trace_out, stats_out)
    return _run_chaos(shape, case, trace_out, stats_out)


# ----------------------------------------------------------------------
# shared result extraction
# ----------------------------------------------------------------------
def _msg_kinds(msg_counts: dict) -> dict:
    out = {"request": 0, "response": 0, "event": 0, "error": 0}
    for (_mod, _plane, kind), n in msg_counts.items():
        if kind in out:
            out[kind] += n
    return out


def _client_replies(msg_counts: dict) -> int:
    """Replies delivered to clients (one per client RPC attempt)."""
    return sum(n for (_mod, plane, kind), n in msg_counts.items()
               if plane == "ipc" and kind in ("response", "error"))


def _net_counts(*, events: int, bytes_sent: int, plane_bytes: dict,
                level_bytes: dict, msg_counts: dict, flight_peak: int,
                interned: int) -> dict:
    kinds = _msg_kinds(msg_counts)
    return {
        "sim.events": events,
        "net.bytes": bytes_sent,
        "net.bytes.tree": plane_bytes.get("tree", 0),
        "net.bytes.event_down": plane_bytes.get("event_down", 0),
        "net.bytes.level0": level_bytes.get(0, 0),
        "net.bytes.level1": level_bytes.get(1, 0),
        "net.bytes.level2": level_bytes.get(2, 0),
        "cmb.msgs.request": kinds["request"],
        "cmb.msgs.response": kinds["response"],
        "cmb.msgs.event": kinds["event"],
        "cmb.msgs.error": kinds["error"],
        "api.client_rpcs": _client_replies(msg_counts),
        "obs.flight_peak": flight_peak,
        "kvs.interned_bytes_saved": interned,
    }


def _write_stats(path: str, session: CommsSession, meta: dict) -> None:
    doc = {"meta": meta, "aggregate": session.metrics_aggregate()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


# ----------------------------------------------------------------------
# KAP
# ----------------------------------------------------------------------
def _run_kap(shape: dict, case: dict, trace_out: Optional[str],
             stats_out: Optional[str]) -> dict:
    cfg = _kap_config(shape, case)
    ops = nominal_ops(shape)
    try:
        res = run_kap(cfg, trace_out=trace_out, stats_out=stats_out)
    except (RuntimeError, AssertionError) as exc:
        # run_kap raises on deadlock and asserts every get's value size.
        raise WorkloadError(f"KAP failed: {exc!r}", ops, ops) from exc
    phases = ((res.producer, cfg.producers), (res.sync, cfg.nprocs),
              (res.consumer, cfg.consumers))
    for series, want in phases:
        if len(series) != want:
            raise WorkloadError(
                f"KAP {series.name}: {len(series)} of {want} processes "
                f"finished", ops, ops)
    counts = _net_counts(
        events=res.events, bytes_sent=res.bytes_sent,
        plane_bytes=res.plane_bytes, level_bytes=res.level_bytes,
        msg_counts=res.msg_counts, flight_peak=res.flight_peak,
        interned=res.interned_bytes_saved)
    counts.update({"cmb.retransmits": 0, "cmb.reroutes": 0,
                   "cmb.replay_hits": 0, "cmb.dups_parked": 0,
                   "api.client_retries": 0, "faults.drops": 0,
                   "faults.dups": 0})
    return {
        "sim": {"sim_max_put_ms": res.max_producer_latency * 1e3,
                "sim_max_fence_ms": res.max_sync_latency * 1e3,
                "sim_max_get_ms": res.max_consumer_latency * 1e3,
                "sim_makespan_ms": res.total_time * 1e3},
        "counts": counts,
        "ops": ops, "failed": 0,
        "trace_until_ms": None,
    }


# ----------------------------------------------------------------------
# chaos-loss
# ----------------------------------------------------------------------
def _chaos_session(shape: dict, case: dict):
    cluster = make_cluster(shape["nnodes"], seed=case["seed"])
    plan = FaultPlan(seed=case["seed"], drop_rate=shape["drop_rate"])
    cluster.network.fault_plan = plan
    session = standard_session(
        cluster, with_heartbeat=True, hb_period=shape["hb_period"],
        hb_max_epochs=int((CHAOS_RUN_UNTIL + CHAOS_VERIFY_UNTIL)
                          / shape["hb_period"]))
    return session.start(), plan


def _run_until(sim, procs, horizon: float) -> None:
    """Advance in slices until every process in ``procs`` finished or
    the clock passes ``horizon`` (heartbeats never drain the heap)."""
    while sim.now < horizon and not all(p.triggered for p in procs):
        sim.run(until=min(horizon, sim.now + 0.5))


def _run_chaos(shape: dict, case: dict, trace_out: Optional[str],
               stats_out: Optional[str]) -> dict:
    n, nclients, iters = shape["nnodes"], shape["nclients"], shape["iters"]
    session, plan = _chaos_session(shape, case)
    if trace_out:
        session.enable_tracing()
    cluster = session.cluster
    sim = cluster.sim

    lat: dict[str, list[float]] = {"put": [], "fence": [], "get": []}
    acked: list[tuple[str, list]] = []
    finish: list[float] = []
    handles = []
    errors: list[str] = []
    done_ops = [0]

    def client(idx: int, rank: int):
        # Errors are tallied, not raised: an exception escaping a
        # process would abort sim.run() for every other client.
        try:
            handle = session.connect(rank)
            handles.append(handle)
            kvs = KvsClient(handle, timeout=shape["timeout"],
                            retries=shape["retries"])
            for it in range(iters):
                key = f"chaos.k{it}.{idx}"
                t = sim.now
                yield kvs.put(key, [idx, it])
                lat["put"].append(sim.now - t)
                done_ops[0] += 1
                t = sim.now
                yield kvs.fence(f"chaos.f{it}", nclients)
                lat["fence"].append(sim.now - t)
                done_ops[0] += 1
                acked.append((key, [idx, it]))
                peer = (idx + 1) % nclients
                t = sim.now
                got = yield kvs.get(f"chaos.k{it}.{peer}")
                lat["get"].append(sim.now - t)
                if got != [peer, it]:
                    errors.append(f"client {idx} iter {it}: read {got!r}")
                    return
                done_ops[0] += 1
        except Exception as exc:  # noqa: BLE001 - tallied below
            errors.append(f"client {idx} (t={sim.now:.4f}): {exc!r}")
            return
        finish.append(sim.now)

    procs = [sim.spawn(client(i, i % n),
                       name=f"bench-client-{i}")
             for i in range(nclients)]
    _run_until(sim, procs, CHAOS_RUN_UNTIL)
    sim.run(until=sim.now + 1.0)  # settle in-flight bookkeeping
    errors.extend(f"client {i}: hung"
                  for i, p in enumerate(procs) if not p.triggered)

    # Hung-waiter census: a converged run leaves no held fence, no
    # version or replication waiter and no deferred fence behind.
    hung = 0
    for broker in session.brokers:
        kvs_mod = broker.modules.get("kvs") if broker.alive else None
        if kvs_mod is None:
            continue
        census = kvs_mod.waiter_census()
        hung += (len(census["version_waiters"])
                 + sum(f["held"] for f in census["fences"].values())
                 + len(census["repl_waiters"])
                 + len(census["fence_deferred"]))
    # Read before the verification pass adds its own traffic.
    retry = session.retry_stats()
    fstats = plan.stats()
    client_retries = sum(h.retries for h in handles)

    # Verification over a clean fabric: every acknowledged write must be
    # readable at the root.
    cluster.network.fault_plan = None
    verify_t0 = sim.now
    verified = [0, 0]

    def verifier():
        kvs = KvsClient(session.connect(0, collective=False),
                        timeout=10.0)
        for key, want in acked:
            try:
                got = yield kvs.get(key)
            except Exception as exc:  # noqa: BLE001 - tallied below
                got = repr(exc)
            if got == want:
                verified[0] += 1
            else:
                verified[1] += 1
                errors.append(f"verify {key}: read {got!r}")

    vproc = sim.spawn(verifier(), name="bench-verifier")
    _run_until(sim, [vproc], sim.now + CHAOS_VERIFY_UNTIL)
    if not (vproc.triggered and vproc.ok):
        errors.append("verifier did not complete")
    if hung:
        errors.append(f"{hung} hung waiter(s)")

    ops = nominal_ops(shape)
    if errors:
        failed = ops - done_ops[0] - verified[0]
        raise WorkloadError("; ".join(errors[:5]), ops, max(1, failed))

    msg_counts = session.message_counts()
    counts = _net_counts(
        events=sim.event_count,
        bytes_sent=cluster.network.total_bytes_sent(),
        plane_bytes=session.plane_bytes(),
        level_bytes=session.level_bytes(), msg_counts=msg_counts,
        flight_peak=session.flight_peak(),
        interned=sum(b.modules["kvs"].interned_bytes_saved()
                     for b in session.brokers))
    counts.update({"cmb.retransmits": retry["retransmits"],
                   "cmb.reroutes": retry["reroutes"],
                   "cmb.replay_hits": retry["replay_hits"],
                   "cmb.dups_parked": retry["dups_parked"],
                   "api.client_retries": client_retries,
                   "faults.drops": fstats["drops"],
                   "faults.dups": fstats["dups"]})
    if stats_out:
        _write_stats(stats_out, session,
                     {"kind": "chaos", "sim_time": sim.now})
    session.stop()
    if trace_out:
        session.span_tracer.write_chrome_trace(trace_out)
    return {
        "sim": {"sim_max_put_ms": max(lat["put"]) * 1e3,
                "sim_max_fence_ms": max(lat["fence"]) * 1e3,
                "sim_max_get_ms": max(lat["get"]) * 1e3,
                "sim_makespan_ms": max(finish) * 1e3},
        "counts": counts,
        "ops": ops, "failed": 0,
        # Verification reads are traced too; the critical-path split
        # considers only calls the workload's clients issued.
        "trace_until_ms": verify_t0 * 1e3,
    }
