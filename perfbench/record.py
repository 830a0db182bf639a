"""Run the benchmark over several seeds and summarize every metric.

Usage (from the repository root)::

    python3 perfbench/record.py --seeds 1-10 [--out perfbench/baseline.json]

For every workload in ``BENCHMARK.json``, runs ``run.py --trace 0``
for its ``run_seconds`` once per seed, then ``run.py --trace 1`` once
on the first seed.  Prints, for every
end-to-end metric, the median, the quartiles and the spread (quartile
distance over the median, as ``statistics.quantiles(values, n=4)``
gives them) beside the bound ``BENCHMARK.json`` fixes.  The spread of
``setup_s`` is shown but not held to its bound, as the benchmark
contract holds only its median (a second set of runs must not be worse
than the first by more than the bound).  With ``--out``, writes
the summary plus the traced run's per-layer values as a JSON record.
Exits 1 if a run fails or a spread (other than ``setup_s``) exceeds
its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not out["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    return out


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default="")
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    record = {"machine": {"python": platform.python_version(),
                          "cpus": os.cpu_count(),
                          "platform": platform.platform()},
              "seeds": seeds, "run_seconds": bench["run_seconds"],
              "workloads": {}}
    seconds = bench["run_seconds"]
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [_run(workload, s, seconds, 0) for s in seeds]
        e2e = {}
        for name, bound in bounds.items():
            summary = summarize([r["metrics"][name]["value"] for r in runs])
            summary["unit"] = runs[0]["metrics"][name]["unit"]
            e2e[name] = summary
            held = name != "setup_s"
            flag = ("" if summary["spread"] <= bound / 3
                    else " (over bound/3)" if summary["spread"] <= bound
                    else " OVER BOUND")
            if held and summary["spread"] > bound:
                ok = False
            print(f"{workload:10s} {name:18s} median {summary['median']:12.6g}"
                  f"  q1 {summary['q1']:12.6g}  q3 {summary['q3']:12.6g}"
                  f"  spread {summary['spread']:.4f} / bound {bound}"
                  f"{flag if held else ' (not held)'}", flush=True)
        traced = _run(workload, seeds[0], seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer": {"seed": seeds[0], "metrics": traced["metrics"]},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
