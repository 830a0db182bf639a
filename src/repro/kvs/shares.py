"""Per-origin fence shares: delta flushes against link watermarks.

The lossy-fabric fence protocol keeps, per fence, one *share* per
origin rank: ``shares[origin] = [count, ops]``, the cumulative
contribution of that rank's own clients.  An origin's share is an
append-only log (``count`` contributions whose ops are ``ops``), so
two holders of the same origin always agree on a common prefix.

A link ships each origin as ``[count, base, ops[base:]]``, where
``base`` is how much of ``ops`` the link already sent.  The receiver
max-merges by count: a larger count keeps its own ``ops[:base]`` and
appends the delta, a smaller or equal one is a no-op.  Loss,
duplication and reordering therefore cannot double-count.  A delta
whose ``base`` lies beyond what the receiver holds (an earlier delta
was lost, or the receiver lost state) merges nothing; the sender
then rewinds the link to zero and resends in full.

Watermarks are ``origin -> (count, len(ops))``: ``sent`` advances
when a delta leaves, ``acked`` when its response arrives.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["advance_marks", "merge_deltas", "take_deltas"]


def take_deltas(shares: dict, sent: dict) -> tuple[dict, dict]:
    """Deltas for every origin whose count is past its ``sent`` mark.

    Returns ``(deltas, marks)``: ``deltas`` maps ``str(origin)`` to
    ``[count, base, ops[base:]]`` (the wire form), ``marks`` maps
    origin to the watermark it reached.  ``sent`` is advanced to
    ``marks``.  Both are empty when nothing is new.
    """
    deltas: dict[str, list] = {}
    marks: dict[int, tuple[int, int]] = {}
    for origin, (count, ops) in shares.items():
        mark = sent.get(origin)
        if mark is not None and count <= mark[0]:
            continue
        base = mark[1] if mark is not None else 0
        deltas[str(origin)] = [count, base, ops[base:]]
        sent[origin] = marks[origin] = (count, len(ops))
    return deltas, marks


def merge_deltas(shares: dict, deltas: dict,
                 skip: Optional[int] = None) -> Optional[int]:
    """Max-merge wire ``deltas`` into ``shares`` (``skip``: an origin
    whose share the receiver owns and never takes from the wire).

    Returns how much the held counts grew (0 for a duplicate), or
    ``None`` -- with nothing merged -- when some delta's base lies
    beyond the prefix held for its origin.
    """
    news = []
    for origin_s, delta in deltas.items():
        origin = int(origin_s)
        if origin == skip:
            continue
        cur = shares.get(origin)
        if cur is not None and delta[0] <= cur[0]:
            continue
        if delta[1] > (len(cur[1]) if cur is not None else 0):
            return None
        news.append((origin, cur, delta))
    grown = 0
    for origin, cur, (count, base, ops) in news:
        if cur is None:
            shares[origin] = [count, list(ops)]
            grown += count
        else:
            del cur[1][base:]
            cur[1].extend(ops)
            grown += count - cur[0]
            cur[0] = count
    return grown


def advance_marks(acked: dict, marks: dict) -> None:
    """Raise ``acked`` to the watermarks a delivered flush carried."""
    for origin, mark in marks.items():
        cur = acked.get(origin)
        if cur is None or mark[0] > cur[0]:
            acked[origin] = mark
