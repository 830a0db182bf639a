"""Time-to-result benchmark for the Flux reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kap-fence --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  Every pass runs in a fresh
interpreter (``worker.py``), one at a time, so each reports its own
peak RSS and none inherits another's caches.  Host times are wall
seconds rescaled to reference core speed by the worker's speed probe.

``--trace 0`` (end-to-end view) first builds the workload's session a
few times (``setup_s``), then runs one case per pass until
``--seconds`` is spent (at least :data:`MIN_PASSES`), and reports
medians: the host time of the whole workload call including its set-up
(``time_to_result_s``) and peak RSS.  The first case runs twice, and
both passes must agree exactly on every simulated metric and count.

``--trace 1`` (per-layer view) runs the seed's first case untraced
:data:`TRACED_PLAIN` times, once under ``cProfile`` (host self time per
layer) and once with span recording on (critical-path split of the
slowest fence and get, from the ``trace_out`` export).  Every pass
must report identical simulated metrics and counts.

Any failed check prints ``"correct": false`` and exits 1.  The last
line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(HERE, ".work")

#: Cases drawn per run; a ``--trace 0`` run stops when they run out.
MAX_CASES = 64
#: Fewest passes a ``--trace 0`` run makes, however long they take.
MIN_PASSES = 6
#: Setup passes per ``--trace 0`` run (each builds the session
#: ``worker.SETUP_REPEATS`` times).
SETUP_PASSES = 3
#: Untraced passes in a ``--trace 1`` run.
TRACED_PLAIN = 3
#: Every run ends within this many seconds, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0


class CheckFailed(Exception):
    """A pass failed or two passes disagreed; carries the op tally."""

    def __init__(self, message: str, ops: int, failed: int):
        super().__init__(message)
        self.ops = ops
        self.failed = failed


class Runner:
    """Spawns worker passes for one workload and keeps the op tally."""

    def __init__(self, workload: str, shape: dict, deadline: float):
        self.workload = workload
        self.shape = shape
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + HERE)

    def run_pass(self, mode: str, case: dict, prefix: str = "") -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise CheckFailed("out of time", 0, 0)
        cmd = [sys.executable, WORKER, mode, json.dumps(self.shape),
               json.dumps(case), prefix]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise CheckFailed(f"{mode} pass timed out", 0, 0) from exc
        lines = proc.stdout.strip().splitlines()
        out = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or "error" in out:
            sys.stderr.write(proc.stderr)
            raise CheckFailed(
                f"{mode} pass failed: {out.get('error', proc.returncode)}",
                out.get("ops", 0), out.get("failed", 0))
        if mode != "setup":
            self.attempted += out["ops"]
            self.failed += out["failed"]
        return out


def _same(a: dict, b: dict, what: str) -> None:
    """Every simulated metric and count of two passes must match."""
    for part in ("sim", "counts"):
        if a[part] != b[part]:
            diff = sorted(k for k in a[part] if a[part][k] != b[part].get(k))
            raise CheckFailed(f"{what}: {part} differ in {diff[:5]}", 0, 0)


def end_to_end(runner: Runner, cases: list[dict], seconds: float) -> dict:
    setup = []
    for _ in range(SETUP_PASSES):
        setup += runner.run_pass("setup", cases[0])["setup_s"]
    t0 = time.monotonic()
    reps: list[dict] = []
    while True:
        # Pass 0 and pass 1 both run case 0 (the repeat check); pass i
        # runs case i - 1 after that.
        i = len(reps)
        reps.append(runner.run_pass("plain", cases[max(0, i - 1)]))
        if i == 1:
            _same(reps[0], reps[1], "repeated case")
        elapsed = time.monotonic() - t0
        per_pass = elapsed / len(reps)
        if (len(reps) >= MIN_PASSES
                and (elapsed + per_pass > seconds or len(reps) >= len(cases))):
            break
    return {
        "time_to_result_s": statistics.median(r["time_s"] for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }


def per_layer(runner: Runner, case: dict) -> dict:
    plain = [runner.run_pass("plain", case) for _ in range(TRACED_PLAIN)]
    prof = runner.run_pass("profile", case)
    os.makedirs(WORK_DIR, exist_ok=True)
    prefix = os.path.join(WORK_DIR, f"{runner.workload}-{os.getpid()}")
    try:
        spans = runner.run_pass("spans", case, prefix)
        for other, what in ((plain[1:], "repeated case"),
                            ([prof], "profiled pass"),
                            ([spans], "span pass")):
            for rep in other:
                _same(plain[0], rep, what)
        from critpath import slowest_split
        until = spans["trace_until_ms"]
        cp = slowest_split(prefix + ".trace.json",
                           {"fence": "rpc:kvs.fence", "get": "rpc:kvs.get"},
                           until_us=None if until is None else until * 1e3)
        with open(prefix + ".stats.json", encoding="utf-8") as fh:
            aggregate = json.load(fh)["aggregate"]
    finally:
        for suffix in (".trace.json", ".stats.json"):
            if os.path.exists(prefix + suffix):
                os.remove(prefix + suffix)
    sim, counts = plain[0]["sim"], plain[0]["counts"]
    # Every client issues one fence per round, so the slowest traced
    # fence is the reported maximum.  A KAP consumer's latency spans
    # all of its gets, so the slowest single get can only be shorter.
    tol = 1e-6 * max(1.0, sim["sim_max_fence_ms"])
    if "fence" in cp and abs(cp["fence"]["total_ms"]
                             - sim["sim_max_fence_ms"]) > tol:
        raise CheckFailed(f"slowest traced fence {cp['fence']['total_ms']}"
                          f" ms != sim_max_fence_ms", 0, 0)
    if "get" in cp and cp["get"]["total_ms"] > sim["sim_max_get_ms"] + tol:
        raise CheckFailed(f"slowest traced get {cp['get']['total_ms']} ms"
                          f" > sim_max_get_ms", 0, 0)
    took = statistics.median(p["time_s"] for p in plain)
    metrics = {f"host_self_s.{layer}": t
               for layer, t in prof["host_self_s"].items()}
    metrics["host.wall_s"] = statistics.median(p["wall_s"] for p in plain)
    metrics["host.speed_factor"] = statistics.median(
        p["speed_factor"] for p in plain)
    metrics["trace.overhead_ratio"] = prof["time_s"] / took
    metrics["trace.span_overhead_ratio"] = spans["time_s"] / took
    metrics["sim.host_us_per_event"] = took / counts["sim.events"] * 1e6
    metrics.update(counts)
    metrics["cmb.retry_amplification"] = (
        (counts["api.client_retries"] + counts["cmb.retransmits"]
         + counts["cmb.reroutes"]) / plain[0]["ops"])
    cache = {k: _counter(aggregate, f"kvs_cache_{k}_total")
             for k in ("hits", "misses", "faults")}
    metrics.update({f"kvs.cache_{k}": v for k, v in cache.items()})
    looked = cache["hits"] + cache["misses"]
    metrics["kvs.cache_hit_ratio"] = cache["hits"] / looked if looked else 0.0
    for op in ("fence", "get"):
        split = cp.get(op, {})
        for part in ("client_ms", "net_ms", "dispatch_ms", "other_ms",
                     "hops"):
            metrics[f"cp.{op}.{part}"] = split.get(part, 0)
    for name in ("sim_max_put_ms", "sim_max_fence_ms", "sim_max_get_ms",
                 "sim_makespan_ms"):
        metrics[name] = sim[name]
    metrics["ops_failed_frac"] = runner.failed / runner.attempted
    return metrics


def _counter(aggregate: dict, name: str) -> int:
    return sum(m["value"] for m in aggregate["metrics"] if m["name"] == name)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run the self-check shapes instead")
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running pass is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"run.py: no repro package under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import workloads
    shapes = workloads.TINY_SHAPES if args.tiny else workloads.SHAPES
    runner = Runner(args.workload, shapes[args.workload],
                    time.monotonic() + HARD_LIMIT_S)
    cases = workloads.make_cases(args.workload, args.seed, MAX_CASES,
                                 shapes)
    specs = spec.PER_LAYER if args.trace else spec.END_TO_END
    correct = True
    try:
        values = (per_layer(runner, cases[0]) if args.trace
                  else end_to_end(runner, cases, args.seconds))
    except CheckFailed as exc:
        sys.stderr.write(f"run.py: {args.workload}: {exc}\n")
        correct = False
        runner.attempted += exc.ops
        runner.failed += exc.failed
        values = {}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in specs if name in values}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct,
                      "attempted": max(1, runner.attempted),
                      "failed": runner.failed if correct
                      else max(1, runner.failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
