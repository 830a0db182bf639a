"""Critical-path split of the slowest client call, from a trace export.

Reads the Chrome trace-event JSON that ``trace_out`` writes (one
``ph: "X"`` event per span, with ``trace_id``/``span_id``/``parent_id``
in its args), picks the slowest root span of a given name, and walks
its critical path the way ``SpanTracer.critical_path`` does: from the
root, always into the child that ended last (ties to the lower span
id).  Each hop is charged its own duration minus its successor's, by
span category, so the parts add up to the call's duration.

The export is streamed event by event (two passes), so a trace of a
few hundred thousand spans never sits in memory as parsed objects.
"""

from __future__ import annotations

import json
import re
from typing import Iterator, Optional

__all__ = ["CATEGORIES", "slowest_split"]

#: Span categories reported by name; anything else on a path (retry
#: and event instants) is charged to ``other``.
CATEGORIES = ("client", "net", "dispatch")

_SEP = re.compile(r"[\s,]*")


def _events(text: str) -> Iterator[dict]:
    decoder = json.JSONDecoder()
    pos = text.index("[", text.index('"traceEvents"')) + 1
    while True:
        pos = _SEP.match(text, pos).end()
        if text[pos] == "]":
            return
        event, pos = decoder.raw_decode(text, pos)
        if event.get("ph") == "X":
            yield event


def slowest_split(path: str, names: dict[str, str],
                  until_us: Optional[float] = None) -> dict[str, dict]:
    """Critical-path split of the slowest call for each root span name.

    ``names`` maps a result key (``"fence"``) to the root span name
    (``"rpc:kvs.fence"``); calls that started at or after ``until_us``
    are ignored.  Returns, per key with at least one call,
    ``{"total_ms", "hops", "<category>_ms" ..., "other_ms"}``.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    wanted = {span_name: key for key, span_name in names.items()}
    slowest: dict[str, tuple] = {}
    for ev in _events(text):
        key = wanted.get(ev["name"])
        args = ev["args"]
        if key is None or args["parent_id"] is not None:
            continue
        if until_us is not None and ev["ts"] >= until_us:
            continue
        rank = (ev["dur"], -args["trace_id"])
        if key not in slowest or rank > slowest[key][0]:
            slowest[key] = (rank, args["trace_id"])
    trace_key = {tid: key for key, (_r, tid) in slowest.items()}
    spans: dict[int, list[dict]] = {tid: [] for tid in trace_key}
    for ev in _events(text):
        tid = ev["args"]["trace_id"]
        if tid in spans:
            spans[tid].append(ev)
    del text
    return {trace_key[tid]: _split(evs) for tid, evs in spans.items()}


def _split(events: list[dict]) -> dict:
    children: dict[Optional[int], list[dict]] = {}
    for ev in events:
        children.setdefault(ev["args"]["parent_id"], []).append(ev)
    (node,) = children[None]
    path = [node]
    while children.get(node["args"]["span_id"]):
        node = max(children[node["args"]["span_id"]],
                   key=lambda e: (e["ts"] + e["dur"], -e["args"]["span_id"]))
        path.append(node)
    parts = dict.fromkeys(CATEGORIES + ("other",), 0.0)
    for hop, nxt in zip(path, path[1:] + [None]):
        own = hop["dur"] - (nxt["dur"] if nxt is not None else 0.0)
        cat = hop["cat"] if hop["cat"] in CATEGORIES else "other"
        parts[cat] += own / 1e3
    out = {f"{cat}_ms": v for cat, v in parts.items()}
    out["total_ms"] = path[0]["dur"] / 1e3
    out["hops"] = len(path)
    return out
