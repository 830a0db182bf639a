"""Command-line entry point for one KAP run.

Mirrors how the paper drove KAP "with varying arguments to its
parameters in batch mode":

    python -m repro.kap --nodes 64 --procs-per-node 16 --value-size 2048
    python -m repro.kap --nodes 32 --redundant --sync fence
    python -m repro.kap --nodes 32 --naccess 4 --dir-width 128

Prints the per-phase latency summaries (max is the paper's headline
metric) plus run accounting.
"""

from __future__ import annotations

import argparse
import sys

from .config import KapConfig
from .driver import run_kap


def build_parser() -> argparse.ArgumentParser:
    """The KAP parameter space as CLI flags."""
    p = argparse.ArgumentParser(
        prog="python -m repro.kap",
        description="Run one KVS Access Patterns (KAP) benchmark on the "
                    "simulated cluster.")
    p.add_argument("--nodes", type=int, default=64,
                   help="compute nodes in the comms session (default 64)")
    p.add_argument("--procs-per-node", type=int, default=16,
                   help="tester processes per node (default 16)")
    p.add_argument("--producers", type=int, default=None,
                   help="producer count (default: all processes)")
    p.add_argument("--consumers", type=int, default=None,
                   help="consumer count (default: all processes)")
    p.add_argument("--value-size", type=int, default=8,
                   help="bytes per stored value (default 8)")
    p.add_argument("--nputs", type=int, default=1,
                   help="puts per producer (default 1)")
    p.add_argument("--naccess", type=int, default=1,
                   help="gets per consumer (default 1)")
    p.add_argument("--stride", type=int, default=1,
                   help="consumer access stride (default 1)")
    p.add_argument("--redundant", action="store_true",
                   help="producers write identical values")
    p.add_argument("--dir-width", type=int, default=None,
                   help="max objects per KVS directory "
                        "(default: single directory)")
    p.add_argument("--sync", choices=("fence", "commit_wait"),
                   default="fence", help="synchronization primitive")
    p.add_argument("--tree-arity", type=int, default=2,
                   help="comms tree fan-out (default 2 = binary)")
    p.add_argument("--seed", type=int, default=0,
                   help="simulation seed (default 0)")
    p.add_argument("--trace-out", metavar="FILE", default=None,
                   help="write a Chrome/Perfetto trace-event JSON of "
                        "the run's span trees")
    p.add_argument("--stats-out", metavar="FILE", default=None,
                   help="write per-broker metrics registries plus the "
                        "session aggregate as JSON")
    return p


def main(argv: list[str] | None = None) -> int:
    """Parse args, run KAP, print the phase report; returns exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = KapConfig(
            nnodes=args.nodes, procs_per_node=args.procs_per_node,
            nproducers=args.producers, nconsumers=args.consumers,
            value_size=args.value_size, nputs=args.nputs,
            naccess=args.naccess, stride=args.stride,
            redundant_values=args.redundant, dir_width=args.dir_width,
            sync=args.sync, tree_arity=args.tree_arity, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))

    print(f"KAP: {config.nnodes} nodes x {config.procs_per_node} procs "
          f"({config.producers} producers, {config.consumers} consumers), "
          f"vsize={config.value_size}, nputs={config.nputs}, "
          f"naccess={config.naccess}, "
          f"{'redundant' if config.redundant_values else 'unique'} values, "
          f"dir_width={config.dir_width}, sync={config.sync}, "
          f"arity={config.tree_arity}")
    result = run_kap(config, trace_out=args.trace_out,
                     stats_out=args.stats_out)

    print(f"\n{'phase':<10} {'count':>7} {'max(ms)':>9} {'mean(ms)':>9} "
          f"{'p99(ms)':>9}")
    for phase, summary in result.summaries().items():
        if summary is None:
            print(f"{phase:<10} {'-':>7} {'-':>9} {'-':>9} {'-':>9}")
        else:
            print(f"{phase:<10} {summary.count:>7} "
                  f"{summary.max * 1e3:>9.3f} {summary.mean * 1e3:>9.3f} "
                  f"{summary.p99 * 1e3:>9.3f}")
    print(f"\ntotal simulated time : {result.total_time * 1e3:.3f} ms")
    print(f"simulation events    : {result.events}")
    print(f"fabric bytes moved   : {result.bytes_sent / 1e6:.2f} MB")
    if args.trace_out:
        print(f"trace written        : {args.trace_out}")
    if args.stats_out:
        print(f"stats written        : {args.stats_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
