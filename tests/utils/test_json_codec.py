"""The JSON codec against :mod:`json`, its reference.

``encode_json``, ``encode_json_sorted`` and ``encode_json_canonical`` must
write exactly what ``json.dumps`` writes, and ``decode_json`` return
exactly what ``json.loads`` returns, on every input either accepts; where
``json`` refuses, the codec raises the same ``JSONDecodeError`` or, for the
refusals ``json`` reports otherwise, a ``ValueError``. Canonical bytes
(``repro.conformance.canon``) must match the ``isinstance`` walk and
``json.dumps`` they are defined by. The pure-Python fallback, taken on an
interpreter without ``_json``, runs in a subprocess that hides the
accelerator before ``json`` is imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.conformance.canon import canon_float, canonical_json_bytes
from repro.utils.serialization import (
    decode_json,
    encode_json,
    encode_json_canonical,
    encode_json_sorted,
)

#: Strings with characters JSON escapes, non-ASCII and lone surrogates.
texts = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\U000103ff'),
    )
)
#: Every scalar JSON writes, integers past 2**64 and the non-finite
#: floats (which ``allow_nan`` writes) included.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    texts,
)
#: Keys JSON coerces to strings: ``int``, ``float``, ``bool`` and None.
keys = st.one_of(texts, st.integers(), st.floats(), st.booleans(), st.none())
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=20,
)
#: JSON's insignificant whitespace.
blanks = st.text(st.sampled_from(" \t\n\r"), max_size=3)


def outcome(function, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", repr(function(*args))
    except Exception as exc:  # compared, not handled
        return "raised", type(exc), str(exc)


class TestEncoders:
    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(values)
    def test_encoders_are_json_dumps(self, value):
        """Sorted, mixed key types that do not sort raise the same
        TypeError."""
        assert outcome(encode_json, value) == outcome(
            lambda v: json.dumps(v, check_circular=False), value
        )
        assert outcome(encode_json_sorted, value) == outcome(
            lambda v: json.dumps(v, sort_keys=True, check_circular=False),
            value,
        )

    @pytest.mark.parametrize(
        "value",
        [object(), {1, 2}, b"bytes", [1, {"a": object()}], {(1, 2): 3}],
        ids=["object", "set", "bytes", "nested", "tuple-key"],
    )
    @pytest.mark.parametrize("encode", [encode_json, encode_json_sorted])
    def test_unserializable_raises_json_type_error(self, encode, value):
        with pytest.raises(TypeError) as codec:
            encode(value)
        with pytest.raises(TypeError) as reference:
            json.dumps(value)
        assert str(codec.value) == str(reference.value)

    def test_mixed_keys_refuse_to_sort(self):
        value = {"a": 1, 2: 3, None: 4}
        assert encode_json(value) == json.dumps(value)
        with pytest.raises(TypeError, match="not supported"):
            encode_json_sorted(value)
        with pytest.raises(TypeError, match="not supported"):
            encode_json_canonical(value)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(values)
    def test_canonical_encoder_is_compact_sorted_json_dumps(self, value):
        """NaN and infinities raise the same ValueError."""
        assert outcome(encode_json_canonical, value) == outcome(
            lambda v: json.dumps(
                v,
                sort_keys=True,
                separators=(",", ":"),
                allow_nan=False,
                check_circular=False,
            ),
            value,
        )


class FloatSub(float):
    def __repr__(self) -> str:
        return "not a JSON number"


class IntSub(int):
    pass


class StrSub(str):
    pass


#: Trees canonical bytes are made from: subclasses of the JSON types,
#: tuples, and keys of every type ``str()`` turns into a string.
canonical_values = st.recursive(
    st.one_of(
        scalars,
        st.floats(allow_nan=True, allow_infinity=True).map(FloatSub),
        st.integers().map(IntSub),
        texts.map(StrSub),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(texts.map(StrSub), children, max_size=4),
    ),
    max_leaves=20,
)


def reference_canonical_bytes(value):
    """Canonical bytes as defined: an ``isinstance`` walk, then
    ``json.dumps``."""

    def walk(obj):
        if isinstance(obj, float):
            return canon_float(obj)
        if isinstance(obj, dict):
            return {str(key): walk(item) for key, item in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [walk(item) for item in obj]
        return obj

    return json.dumps(
        walk(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


class TestCanonicalBytes:
    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(canonical_values)
    def test_canonical_bytes_match_the_reference(self, value):
        assert outcome(canonical_json_bytes, value) == outcome(
            reference_canonical_bytes, value
        )

    @pytest.mark.parametrize(
        "value",
        [
            {"x": float("nan")},
            [float("inf")],
            (FloatSub("-inf"),),
            {1: {2.5: [FloatSub("nan")]}},
        ],
        ids=["nan", "inf", "float-subclass-inf", "nested-nan"],
    )
    def test_non_finite_floats_refuse(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            canonical_json_bytes(value)

    def test_keys_tuples_and_subclasses(self):
        value = {
            10: (FloatSub(0.1), -0.0),
            9: [IntSub(3), True, None],
            None: StrSub("s"),
            2.5: {False: 1.0 / 3},
        }
        assert canonical_json_bytes(value) == (
            b'{"10":[0.1,0.0],"2.5":{"False":0.333333333333},'
            b'"9":[3,true,null],"None":"s"}'
        )
        assert canonical_json_bytes(value) == reference_canonical_bytes(
            value
        )


class TestDecoder:
    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(values, blanks, blanks)
    def test_every_accepted_text_decodes_as_json_loads(
        self, value, before, after
    ):
        text = before + json.dumps(value) + after
        assert repr(decode_json(text)) == repr(json.loads(text))

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(values, st.sampled_from(["utf-8", "utf-16", "utf-32-le"]))
    def test_bytes_decode_as_json_loads(self, value, encoding):
        raw = json.dumps(value, ensure_ascii=False).encode(
            encoding, "surrogatepass"
        )
        assert outcome(decode_json, raw) == outcome(json.loads, raw)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(
        st.one_of(
            texts,
            st.text(st.sampled_from('[]{}":,0123456789.eE+-tfnaulrse \n')),
            values.map(json.dumps).map(lambda text: text[:-1]),
        )
    )
    def test_any_text_meets_json_loads(self, text):
        """Same value where json.loads accepts; the same JSONDecodeError
        where it raises one."""
        try:
            expected = json.loads(text)
        except json.JSONDecodeError as exc:
            with pytest.raises(json.JSONDecodeError) as refused:
                decode_json(text)
            assert (refused.value.msg, refused.value.pos) == (exc.msg, exc.pos)
        except ValueError:
            with pytest.raises(ValueError):
                decode_json(text)
        else:
            assert repr(decode_json(text)) == repr(expected)

    @pytest.mark.parametrize(
        "text, reference",
        [
            ("\ufeff[1]", json.JSONDecodeError),
            (b"\xef\xbb\xbf[1]", None),  # json.loads strips a bytes BOM
            ("[1] [2]", json.JSONDecodeError),
            ("[1]x", json.JSONDecodeError),
            ("1" * 5_000, ValueError),
            ("[" * 100_000 + "]" * 100_000, RecursionError),
            ('{"a": ' * 100_000 + "1" + "}" * 100_000, RecursionError),
            (b"\xff[1]", ValueError),
        ],
        ids=[
            "bom",
            "bytes-bom",
            "extra-data",
            "trailing",
            "digit-limit",
            "deep-array",
            "deep-object",
            "bad-utf8",
        ],
    )
    def test_every_refusal_is_a_value_error(self, text, reference):
        if reference is None:
            assert decode_json(text) == json.loads(text)
            return
        with pytest.raises(reference):
            json.loads(text)
        with pytest.raises(ValueError) as refused:
            decode_json(text)
        if reference is json.JSONDecodeError:
            assert type(refused.value) is json.JSONDecodeError


#: Run in an interpreter whose ``json`` has no C accelerator.
FALLBACK_CHECK = """
import sys
sys.modules["_json"] = None
import json
import json.encoder
from repro.utils import serialization as codec

assert json.encoder.c_make_encoder is None
values = [
    {"b": [1, 2.5, -0.0, float("nan")], "a": ("x", None)},
    {1: True, 2: None},
    {2.5: 0, -1.0: 1},
    {None: 0},
    "\\u00e9\\ud800\\n",
    2**70,
    [],
    {},
    [{"k": float("inf")}],
]
def canonical(encode, value):
    try:
        return encode(value)
    except ValueError as exc:
        return str(exc)


for value in values:
    assert codec.encode_json(value) == json.dumps(value)
    assert codec.encode_json_sorted(value) == json.dumps(value, sort_keys=True)
    assert canonical(codec.encode_json_canonical, value) == canonical(
        lambda v: json.dumps(
            v, sort_keys=True, separators=(",", ":"), allow_nan=False
        ),
        value,
    )
    text = json.dumps(value)
    assert repr(codec.decode_json(text)) == repr(json.loads(text))
    padded = " " + text + "\\n"
    assert repr(codec.decode_json(padded)) == repr(json.loads(text))
for refused in ("[1]x", "\\ufeff1", "[" * 100_000 + "]" * 100_000):
    try:
        codec.decode_json(refused)
    except ValueError:
        pass
    else:
        raise AssertionError(f"accepted {refused[:10]!r}")
try:
    codec.encode_json_sorted({"a": 1, 2: 3})
except TypeError:
    pass
else:
    raise AssertionError("sorted mixed keys")
print("fallback ok")
"""


def test_fallback_without_the_c_accelerator():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", FALLBACK_CHECK],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "fallback ok"
