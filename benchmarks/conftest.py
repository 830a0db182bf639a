"""Shared infrastructure for the benchmark harness.

Each ``bench_*`` module regenerates one of the paper's tables/figures:
it sweeps the relevant KAP parameters on the simulator, prints the
same series the paper plots, persists them under ``benchmarks/out/``,
and asserts the qualitative shape (who wins, how it grows).
pytest-benchmark additionally times a representative configuration so
simulator performance regressions are visible.

Scale: defaults are laptop-sized (8-64 nodes x 4 procs).  Set
``KAP_PAPER_SCALE=1`` to sweep the paper's 64-512 nodes x 16 procs
(minutes of wall time and several GB of RAM at the largest points).
"""

import json
import os
import pathlib
import platform

import pytest

import repro

#: Paper scale toggle.
PAPER_SCALE = os.environ.get("KAP_PAPER_SCALE") == "1"

#: Node counts swept (x PROCS_PER_NODE processes).
NODE_COUNTS = (64, 128, 256, 512) if PAPER_SCALE else (8, 16, 32, 64)
PROCS_PER_NODE = 16 if PAPER_SCALE else 4

#: Value sizes for Figures 2-3 (paper sweeps 8..32768).
VALUE_SIZES = (8, 512, 8192, 32768) if PAPER_SCALE else (8, 512, 2048)

OUT_DIR = pathlib.Path(__file__).parent / "out"


def run_metadata() -> dict:
    """Sweep dimensions + environment for benchmark JSON documents.

    Deliberately excludes wall-clock timestamps so regenerating an
    unchanged benchmark yields a byte-identical document.
    """
    return {
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "paper_scale": PAPER_SCALE,
        "node_counts": list(NODE_COUNTS),
        "procs_per_node": PROCS_PER_NODE,
        "value_sizes": list(VALUE_SIZES),
    }


def write_table(name: str, text: str, data=None) -> None:
    """Persist a regenerated figure table and echo it to stdout.

    Alongside the human-readable ``out/<name>.txt``, always writes
    machine-readable ``out/BENCH_<name>.json``: run metadata, the
    table's lines, and — when the bench passes ``data`` — its raw
    series/rows (JSON-serializable; int dict keys become strings).
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    doc = {"name": name, "meta": run_metadata(),
           "table": text.splitlines()}
    if data is not None:
        doc["data"] = data
    jpath = OUT_DIR / f"BENCH_{name}.json"
    jpath.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"\n{text}\n[written to {path} and {jpath}]")


@pytest.fixture(scope="session")
def scale():
    """The active sweep dimensions, as a dict for bench modules."""
    return {
        "nodes": NODE_COUNTS,
        "ppn": PROCS_PER_NODE,
        "vsizes": VALUE_SIZES,
        "paper": PAPER_SCALE,
    }
