"""One benchmark pass in a fresh interpreter.

Usage: ``python3 worker.py MODE SHAPE_JSON CASE_JSON [OUT_PREFIX]``

Modes:

- ``plain``: run the case untraced; report wall time, peak RSS,
  simulated metrics and counts.
- ``profile``: the same under ``cProfile`` (no span recording), plus
  host self time per layer.
- ``spans``: the same with span recording on, exporting the Chrome
  trace to ``OUT_PREFIX.trace.json`` and the metrics aggregate to
  ``OUT_PREFIX.stats.json``.
- ``setup``: build and start the case's session a few times and
  report each build's time.

Every timed region runs under a :class:`SpeedSampler`; reported times
(``time_s``, ``setup_s``) are wall seconds rescaled to reference core
speed, and ``wall_s``/``speed_factor`` give the raw wall time and the
rescaling factor.

Prints one JSON object on its last line of output.  A case that fails
its correctness check prints ``{"error": ..., "ops": n, "failed": k}``
and exits 1.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

from repro import jsonutil

import spec
import workloads

SETUP_REPEATS = 3

#: How often the speed probe runs while a measurement is under way.
PROBE_PERIOD_S = 0.05
#: The probe's duration on an uncontended core of the machine the
#: committed baseline was recorded on (2-vCPU VM, CPython 3.11).
PROBE_REF_S = 1.7e-4

_REPRO_DIR = os.path.dirname(os.path.abspath(jsonutil.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: The probe's only data: small enough to stay in the L1 cache, so its
#: time does not depend on what the workload left in the caches or on
#: the workload's heap.
_PROBE_TABLE = dict.fromkeys(range(128), 0)


def _probe() -> float:
    """Time a fixed loop of small-dict reads and writes, which shares
    no code or data with the system under test."""
    t0 = time.perf_counter()
    table = _PROBE_TABLE
    acc = 0
    for i in range(2000):
        table[i & 127] = i
        acc += table[i & 63]
    return time.perf_counter() - t0


class SpeedSampler:
    """Tracks how fast this core runs during a measurement.

    Co-tenants of a shared host slow a core by up to about 2x, in
    phases lasting seconds to minutes, and that slowdown hits the probe
    and the workload alike.  Only a probe in this process tracks it: one run
    by the parent between passes, or on the other core during a pass,
    does not.  The sampler runs the probe once on entry, every
    :data:`PROBE_PERIOD_S` from a ``SIGALRM`` handler (same thread, so
    no extra thread competes for the core), and once on exit.
    ``factor()`` is the mean probe time over :data:`PROBE_REF_S`;
    dividing a wall time, less the probe time spent inside it
    (``spent``), by the factor gives seconds at reference speed.

    With a ``profiler``, the sampler enables it for the body of the
    ``with`` block and pauses it around each probe, so the probes'
    time is not charged to any layer.
    """

    def __init__(self, profiler=None) -> None:
        self.profiler = profiler
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, _signum, _frame) -> None:
        if self.profiler is not None:
            self.profiler.disable()
        took = _probe()
        self.samples.append(took)
        self.spent += took
        if self.profiler is not None:
            self.profiler.enable()

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(_probe())
        signal.signal(signal.SIGALRM, self._tick)
        if self.profiler is not None:
            self.profiler.enable()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self.profiler is not None:
            self.profiler.disable()
        self.samples.append(_probe())

    def factor(self) -> float:
        return statistics.fmean(self.samples) / PROBE_REF_S


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    path = os.path.abspath(filename) if filename[:1] != "~" else filename
    if path.startswith(_REPRO_DIR):
        rel = path[len(_REPRO_DIR):].replace(os.sep, "/")
        for prefix, layer in spec.LAYER_PREFIXES:
            if rel.startswith(prefix):
                return layer
        return "other"
    if path.startswith(_BENCH_DIR):
        return "other"
    return "outside"


def layer_self_times(profiler) -> dict[str, float]:
    """Self (exclusive) time per layer from a finished ``cProfile`` run."""
    import pstats
    out = dict.fromkeys(spec.LAYERS, 0.0)
    for (filename, _line, _func), row in pstats.Stats(
            profiler).stats.items():
        out[layer_of(filename)] += row[2]
    return out


def _run(mode: str, shape: dict, case: dict, prefix: str) -> dict:
    if mode == "setup":
        with SpeedSampler() as sampler:
            builds = []
            for _ in range(SETUP_REPEATS):
                spent = sampler.spent
                t0 = time.perf_counter()
                session = workloads.setup_case(shape, case)
                builds.append((time.perf_counter() - t0,
                               sampler.spent - spent))
                session.stop()
                del session
                gc.collect()
        factor = sampler.factor()
        return {"setup_s": [(wall - probe) / factor
                            for wall, probe in builds]}

    kwargs = {}
    if mode == "spans":
        kwargs = {"trace_out": prefix + ".trace.json",
                  "stats_out": prefix + ".stats.json"}
    profiler = None
    if mode == "profile":
        import cProfile
        profiler = cProfile.Profile()
    with SpeedSampler(profiler) as sampler:
        t0 = time.perf_counter()
        out = workloads.run_case(shape, case, **kwargs)
        wall = time.perf_counter() - t0
    out["wall_s"] = wall
    out["speed_factor"] = sampler.factor()
    out["time_s"] = (wall - sampler.spent) / out["speed_factor"]
    out["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    intern = jsonutil.intern_stats()
    out["counts"]["jsonutil.intern_hits"] = intern["hits"]
    out["counts"]["jsonutil.intern_bytes_saved"] = intern["bytes_saved"]
    if profiler is not None:
        out["host_self_s"] = layer_self_times(profiler)
    return out


def main(argv: list[str]) -> int:
    mode, shape, case = argv[0], json.loads(argv[1]), json.loads(argv[2])
    prefix = argv[3] if len(argv) > 3 else ""
    try:
        out = _run(mode, shape, case, prefix)
    except workloads.WorkloadError as exc:
        print(json.dumps({"error": str(exc), "ops": exc.ops,
                          "failed": exc.failed}))
        return 1
    except Exception as exc:  # noqa: BLE001 - a raising run fails all ops
        traceback.print_exc()
        ops = workloads.nominal_ops(shape)
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}",
                          "ops": ops, "failed": ops}))
        return 1
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
