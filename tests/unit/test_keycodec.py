"""Unit tests for the order-preserving key codec."""

import pytest

from repro.errors import KeyCodecError
from repro.storage.keycodec import decode_key, encode_key, encoded_size


class TestRoundTrip:
    @pytest.mark.parametrize("key", [
        (),
        (0,),
        (-1,),
        (2 ** 63 - 1,),
        (-(2 ** 63),),
        (3.14,),
        (-2.5,),
        (0.0,),
        ("",),
        ("hello",),
        ("null\x00byte",),
        (b"raw\x00bytes",),
        (None,),
        (1, "two", 3.0, None, b"four"),
        (True, False),
    ])
    def test_roundtrip(self, key):
        decoded = decode_key(encode_key(key))
        # bools decode as ints (stable ordering is what matters)
        expected = tuple(int(v) if isinstance(v, bool) else v for v in key)
        assert decoded == expected

    def test_encoded_size_matches_encoding(self):
        for key in [(1,), ("abc",), (1, "x\x00y", 2.5), (None, b"\x00\x00")]:
            assert encoded_size(key) == len(encode_key(key))


class TestOrdering:
    @pytest.mark.parametrize("smaller,larger", [
        ((1,), (2,)),
        ((-5,), (3,)),
        ((-5,), (-4,)),
        ((1.5,), (2.5,)),
        ((-1.5,), (-0.5,)),
        ((-0.5,), (0.5,)),
        (("a",), ("b",)),
        (("a",), ("aa",)),
        (("",), ("a",)),
        (("abc",), ("abd",)),
        ((1, "a"), (1, "b")),
        ((1, "z"), (2, "a")),
        ((None,), (5,)),            # NULLS FIRST
        ((b"\x00",), (b"\x00\x01",)),
    ])
    def test_order_preserved(self, smaller, larger):
        assert encode_key(smaller) < encode_key(larger)

    def test_string_prefix_not_ambiguous(self):
        # "ab" + "c" as two columns must differ from "abc" + ""
        assert encode_key(("ab", "c")) != encode_key(("abc", ""))

    def test_zero_byte_string_ordering(self):
        keys = [("a",), ("a\x00",), ("a\x00b",), ("ab",)]
        encoded = [encode_key(k) for k in keys]
        assert encoded == sorted(encoded)


class TestErrors:
    def test_unsupported_type_rejected(self):
        with pytest.raises(KeyCodecError):
            encode_key(([1, 2],))

    def test_unsupported_type_in_size(self):
        with pytest.raises(KeyCodecError):
            encoded_size(({},))

    def test_out_of_range_int(self):
        with pytest.raises(KeyCodecError):
            encode_key((2 ** 64,))

    def test_corrupt_tag(self):
        with pytest.raises(KeyCodecError):
            decode_key(b"\xff")

    def test_truncated_string(self):
        data = encode_key(("hello",))[:-1]
        with pytest.raises(KeyCodecError):
            decode_key(data)


class TestPrefix:
    def test_prefix_is_byte_prefix_of_full_key(self):
        full = encode_key((1, 2, 3))
        assert full.startswith(encode_key((1, 2)))
