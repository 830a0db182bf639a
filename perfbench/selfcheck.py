"""Fast self-check of the benchmark on tiny shapes (about 20 s).

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

Runs ``run.py --tiny`` on every workload in both views and checks the
result line: exactly the keys ``correct``/``attempted``/``failed``/
``metrics``, a correct run, and every metric ``BENCHMARK.json`` names
for that view printed with its unit under a name matching
``[A-Za-z0-9_.-]+``.  Also checks that ``BENCHMARK.json`` agrees with
``spec.py``, and that the command fails without printing a result in a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _fail(message: str) -> None:
    raise SystemExit(f"selfcheck: {message}")


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_spec(bench: dict) -> None:
    for key, want in (("end_to_end", spec.END_TO_END),
                      ("per_layer", spec.PER_LAYER)):
        got = [(m["name"], m["unit"]) for m in bench[key]]
        if got != list(want):
            _fail(f"BENCHMARK.json {key} does not match spec.py")
    if [w["name"] for w in bench["workloads"]] != list(spec.NAMES):
        _fail("BENCHMARK.json workloads do not match spec.py")


def check_result(proc: subprocess.CompletedProcess, metrics: list[dict],
                 what: str) -> None:
    if proc.returncode != 0:
        _fail(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        _fail(f"{what}: result keys {sorted(out)}")
    if out["correct"] is not True or out["failed"] != 0:
        _fail(f"{what}: run not correct")
    if not isinstance(out["attempted"], int) or out["attempted"] < 1:
        _fail(f"{what}: attempted {out['attempted']!r}")
    for m in metrics:
        got = out["metrics"].get(m["name"])
        if not NAME.fullmatch(m["name"]):
            _fail(f"{what}: bad metric name {m['name']!r}")
        if got is None or got.get("unit") != m["unit"]:
            _fail(f"{what}: metric {m['name']} missing or without unit")
        if not isinstance(got.get("value"), (int, float)):
            _fail(f"{what}: metric {m['name']} value {got.get('value')!r}")
    extra = set(out["metrics"]) - {m["name"] for m in metrics}
    if extra:
        _fail(f"{what}: metrics not in BENCHMARK.json: {sorted(extra)}")


def check_bare_directory() -> None:
    """Without the repository's sources the command must fail quietly."""
    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _run(bare, spec.NAMES[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        _fail("bare directory: expected a failure without a result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_spec(bench)
    for workload in spec.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            check_result(_run(ROOT, workload, trace), bench[key],
                         f"{workload} --trace {trace}")
    check_bare_directory()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
