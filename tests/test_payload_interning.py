"""Payload interning correctness.

Interning (:mod:`repro.jsonutil` fragment table, on by default)
memoizes canonical sizes/digests of shared payload fragments.  It is
host-side only, so it must be *event-invisible*: the same-seed SAN105
fingerprint must be identical with interning on and off, and every
memoized size must equal the exact canonical encoding length.
"""

import pytest

from repro.jsonutil import (canonical_dumps, canonical_size,
                            clear_intern_table, digest_and_size,
                            intern_fragment, intern_stats, interned_size,
                            set_interning)
from repro.kap import KapConfig, run_kap

from .test_perf_equivalence import GOLDEN_KAP

PAPER16_CFG, PAPER16 = GOLDEN_KAP["paper16"]


@pytest.fixture(autouse=True)
def _intern_state():
    """Each test starts from an empty table and leaves interning on."""
    clear_intern_table()
    yield
    set_interning(True)
    clear_intern_table()


# -- canonical-size exactness over interned fragments -------------------

FRAGMENTS = [
    {},
    [],
    {"k": 1},
    {"ops": [["a.b", "0" * 40], ["c", None]]},
    [["x", None]] * 7,
    {"nested": {"dirs": {"a": 1, "b": [1, 2, {"c": "d"}]}}},
    {"unicode": "héllo ✓ world", "f": 1.25, "neg": -17},
    [{"sha": f"{i:040x}"} for i in range(13)],
    {"bools": [True, False, None], "empty": {"d": {}}},
]


@pytest.mark.parametrize("idx", range(len(FRAGMENTS)))
def test_interned_size_is_exact(idx):
    """The memoized size must equal the exact canonical byte length —
    before interning, at intern time, and on every probe after."""
    obj = FRAGMENTS[idx]
    want = len(canonical_dumps(obj))
    assert canonical_size(obj) == want
    intern_fragment(obj)
    assert interned_size(obj) == want
    # The memo hit path must serve the same exact number.
    assert canonical_size(obj) == want
    sha, size = digest_and_size(obj)
    assert size == want


def test_intern_probe_is_identity_keyed():
    """An equal-but-distinct object must not hit another's entry (the
    table is id-keyed; strong refs prevent id reuse aliasing)."""
    a = {"ops": [["k", None]]}
    b = {"ops": [["k", None]]}
    intern_fragment(a)
    assert interned_size(a) == canonical_size(b)
    assert interned_size(b) is None


def test_intern_explicit_size_is_trusted_and_served():
    """``intern_fragment(obj, size)`` callers own the exactness
    contract: the fence path computes sizes incrementally, and this is
    the battery proving the incremental arithmetic stays exact."""
    ops = [["key%d" % i, "a" * 40] for i in range(9)]
    # The fence's incremental form: 1 + n (brackets + commas) + sum of
    # element sizes.
    total = 1 + len(ops) + sum(canonical_size(op) for op in ops)
    assert total == len(canonical_dumps(ops))
    intern_fragment(ops, total)
    assert interned_size(ops) == total
    assert canonical_size(ops) == total


def test_intern_disable_is_a_kill_switch():
    obj = {"a": [1, 2, 3]}
    intern_fragment(obj)
    set_interning(False)
    assert interned_size(obj) is None          # table cleared
    intern_fragment(obj)                        # no-op while disabled
    assert interned_size(obj) is None
    assert canonical_size(obj) == len(canonical_dumps(obj))
    set_interning(True)
    intern_fragment(obj)
    assert interned_size(obj) is not None


def test_intern_table_is_bounded():
    """The table LRU-evicts: interning far more fragments than the cap
    keeps the size bounded and the newest entries resident."""
    keep = [{"i": i} for i in range(9000)]
    for obj in keep:
        intern_fragment(obj)
    stats = intern_stats()
    assert stats["entries"] <= 8192
    assert interned_size(keep[-1]) is not None
    assert interned_size(keep[0]) is None      # evicted


# -- event-invisibility of interning ------------------------------------

def test_fingerprint_identical_with_interning_off():
    """Interning is host-side memoization only: disabling it must not
    move a single event (golden SAN105 fingerprint both ways)."""
    on = run_kap(KapConfig(**PAPER16_CFG), sanitize=True)
    assert on.event_fingerprint == PAPER16["fingerprint"]
    set_interning(False)
    try:
        off = run_kap(KapConfig(**PAPER16_CFG), sanitize=True)
    finally:
        set_interning(True)
    assert off.event_fingerprint == PAPER16["fingerprint"]
    assert off.events == on.events
    assert off.bytes_sent == on.bytes_sent
    assert off.total_time == on.total_time
    # Off, every fence hop sizes its objs object by object; on, one
    # probe of the running size: same bytes per plane and tree level,
    # same message counts, same simulated maxima.
    assert off.plane_bytes == on.plane_bytes
    assert off.level_bytes == on.level_bytes
    assert off.msg_counts == on.msg_counts
    assert (off.max_producer_latency, off.max_sync_latency,
            off.max_consumer_latency) == (on.max_producer_latency,
                                          on.max_sync_latency,
                                          on.max_consumer_latency)
