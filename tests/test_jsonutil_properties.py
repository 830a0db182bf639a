"""Property tests of the canonical JSON encoding.

``canonical_dumps`` has a hand-assembled fast path for single-entry
``{str: str}`` dicts (every string-valued KVS value object), and
``canonical_size`` computes sizes arithmetically, measuring strings
with the encoder's own quoter.  Both must agree byte for byte with the
reference ``json.dumps`` encoding on any input, including strings that
need escaping and non-ASCII text.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.jsonutil import canonical_dumps, canonical_size

#: Strings heavy in the characters JSON escapes (quotes, backslashes,
#: control characters) mixed with multi-byte UTF-8 text.
_tricky = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f",
                           "é", "€", "𝄞", " ", "x"])
_text = st.one_of(st.text(), st.lists(_tricky, max_size=12).map("".join))
_scalar = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False, allow_infinity=False),
                    _text)
_json = st.recursive(
    _scalar,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_text, inner, max_size=4)),
    max_leaves=12)
#: Single-entry dicts: the fast path (string values) and its near
#: misses (other value types).
_single = st.dictionaries(_text, st.one_of(_text, _json),
                          min_size=1, max_size=1)


def _reference(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


@given(obj=st.one_of(_json, _single))
@settings(max_examples=400, deadline=None)
def test_dumps_matches_reference_and_size_matches_dumps(obj):
    data = canonical_dumps(obj)
    assert data == _reference(obj)
    assert canonical_size(obj) == len(data)


@given(key=_text, value=_text)
@settings(max_examples=300, deadline=None)
def test_value_object_fast_path(key, value):
    obj = {key: value}
    assert canonical_dumps(obj) == _reference(obj)
    assert canonical_size(obj) == len(_reference(obj))
    # Sized first (memoizing the strings) and after: still exact.
    assert canonical_size({"v": value}) == len(_reference({"v": value}))
