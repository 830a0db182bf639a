"""Workload names and the metrics the benchmark prints, with units.

Kept free of ``repro`` imports so the command line can be parsed, and
``BENCHMARK.json`` checked against it, without the package.
"""

NAMES = ("kap-fence", "kap-get", "chaos-loss")

#: Layer of a profiled function, by its source file's path under the
#: ``repro`` package; the first matching prefix wins.
LAYER_PREFIXES = (
    ("sim/kernel.py", "sim.kernel"),
    ("sim/network.py", "sim.network"),
    ("sim/faults.py", "sim.faults"),
    ("cmb/broker.py", "cmb.broker"),
    ("cmb/api.py", "cmb.api"),
    ("cmb/message.py", "cmb.message"),
    ("cmb/module.py", "cmb.module"),
    ("cmb/modules/", "cmb.modules"),
    ("kvs/module.py", "kvs.module"),
    ("kvs/cache.py", "kvs.cache"),
    ("kvs/store.py", "kvs.store"),
    ("kvs/api.py", "kvs.other"),
    ("kvs/master.py", "kvs.other"),
    ("kvs/hashtree.py", "kvs.other"),
    ("jsonutil.py", "jsonutil"),
    ("obs/", "obs"),
    ("kap/", "kap"),
)

#: Layers of ``host_self_s``.  ``other`` holds repro files matching no
#: prefix (session, topology, cluster construction) and the benchmark's
#: own code; ``outside`` holds builtins and the standard library.
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES)) + (
    "other", "outside")

#: Times are seconds at reference core speed (see ``worker.py``).
END_TO_END = (
    ("time_to_result_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    tuple((f"host_self_s.{layer}", "s") for layer in LAYERS)
    + (("host.wall_s", "s"),
       ("host.speed_factor", "ratio"),
       ("trace.overhead_ratio", "ratio"),
       ("trace.span_overhead_ratio", "ratio"),
       ("sim.events", "count"),
       ("sim.host_us_per_event", "us"),
       ("net.bytes", "bytes"),
       ("net.bytes.tree", "bytes"),
       ("net.bytes.event_down", "bytes"),
       ("net.bytes.level0", "bytes"),
       ("net.bytes.level1", "bytes"),
       ("net.bytes.level2", "bytes"),
       ("cmb.msgs.request", "count"),
       ("cmb.msgs.response", "count"),
       ("cmb.msgs.event", "count"),
       ("cmb.msgs.error", "count"),
       ("api.client_rpcs", "count"),
       ("cmb.retransmits", "count"),
       ("cmb.reroutes", "count"),
       ("cmb.replay_hits", "count"),
       ("cmb.dups_parked", "count"),
       ("api.client_retries", "count"),
       ("faults.drops", "count"),
       ("faults.dups", "count"),
       ("cmb.retry_amplification", "ratio"),
       ("kvs.cache_hits", "count"),
       ("kvs.cache_misses", "count"),
       ("kvs.cache_faults", "count"),
       ("kvs.cache_hit_ratio", "ratio"),
       ("jsonutil.intern_hits", "count"),
       ("jsonutil.intern_bytes_saved", "bytes"),
       ("kvs.interned_bytes_saved", "bytes"),
       ("obs.flight_peak", "count"))
    + tuple((f"cp.{op}.{part}", "count" if part == "hops" else "ms")
            for op in ("fence", "get")
            for part in ("client_ms", "net_ms", "dispatch_ms", "other_ms",
                         "hops"))
    + (("sim_max_put_ms", "ms"),
       ("sim_max_fence_ms", "ms"),
       ("sim_max_get_ms", "ms"),
       ("sim_makespan_ms", "ms"),
       ("ops_failed_frac", "ratio")))
