"""Tests for LEB128 varints."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.encoders.varint import (
    MAX_UVARINT_BYTES,
    decode_uvarint,
    decode_uvarints,
    encode_uvarint,
)
from repro.errors import EncodingError


class TestEncode:
    def test_zero(self):
        assert encode_uvarint(0) == b"\x00"

    def test_single_byte_boundary(self):
        assert encode_uvarint(127) == b"\x7f"
        assert encode_uvarint(128) == b"\x80\x01"

    def test_known_value(self):
        assert encode_uvarint(300) == b"\xac\x02"

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            encode_uvarint(-1)


class TestDecode:
    def test_known_value(self):
        assert decode_uvarint(b"\xac\x02") == (300, 2)

    def test_offset(self):
        data = b"\xff" + encode_uvarint(5)
        assert decode_uvarint(data, offset=1) == (5, 2)

    def test_truncated(self):
        with pytest.raises(EncodingError):
            decode_uvarint(b"\x80")

    def test_empty(self):
        with pytest.raises(EncodingError):
            decode_uvarint(b"")

    def test_overlong_rejected(self):
        with pytest.raises(EncodingError):
            decode_uvarint(b"\x80" * 11 + b"\x01")

    def test_sequence_of_varints(self):
        data = encode_uvarint(1) + encode_uvarint(1000) + encode_uvarint(0)
        v1, p = decode_uvarint(data)
        v2, p = decode_uvarint(data, p)
        v3, p = decode_uvarint(data, p)
        assert (v1, v2, v3) == (1, 1000, 0)
        assert p == len(data)


@given(st.integers(min_value=0, max_value=(1 << 63) - 1))
def test_property_roundtrip(value):
    encoded = encode_uvarint(value)
    decoded, consumed = decode_uvarint(encoded)
    assert decoded == value
    assert consumed == len(encoded)


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_property_length_monotone(value):
    # Longer values never encode shorter than smaller values of the
    # same byte class.
    assert len(encode_uvarint(value)) == max(1, -(-value.bit_length() // 7))


_UINT63 = st.integers(min_value=0, max_value=(1 << 63) - 1)
_VALUES = st.lists(
    st.one_of(st.sampled_from([0, 127, 128, (1 << 63) - 1]), _UINT63),
    min_size=0,
    max_size=40,
)


def _scalar_decode(data, offset, count):
    values = []
    for _ in range(count):
        value, offset = decode_uvarint(data, offset)
        values.append(value)
    return values, offset


class TestDecodeBulk:
    def test_known_values(self):
        data = b"\xff" + encode_uvarint(300) + encode_uvarint(0) + encode_uvarint(5)
        values, end = decode_uvarints(data, 1, 3)
        assert values.dtype == np.int64
        assert values.tolist() == [300, 0, 5] and end == len(data)

    def test_zero_count_reads_nothing(self):
        values, end = decode_uvarints(b"", 0, 0)
        assert values.size == 0 and end == 0

    def test_largest_value_fits_int64(self):
        data = encode_uvarint((1 << 63) - 1)
        assert len(data) == MAX_UVARINT_BYTES
        assert decode_uvarints(data, 0, 1)[0].tolist() == [(1 << 63) - 1]

    @pytest.mark.parametrize("value", [1 << 63, (1 << 64) - 1, 1 << 70])
    def test_values_past_int64_rejected(self, value):
        # The scalar decoder returns these as Python ints; the bulk one
        # would have to wrap them, so it refuses.
        data = encode_uvarint(1) + encode_uvarint(value)
        with pytest.raises(EncodingError, match="too long"):
            decode_uvarints(data, 0, 2)

    def test_overlong_zero_rejected(self):
        with pytest.raises(EncodingError, match="too long"):
            decode_uvarints(b"\x80" * 9 + b"\x00", 0, 1)

    @pytest.mark.parametrize("data, offset", [(b"", 0), (b"\x80", 0), (b"\x05", 1), (b"\x05", 7)])
    def test_truncated(self, data, offset):
        with pytest.raises(EncodingError, match="truncated"):
            decode_uvarints(data, offset, 1)

    def test_fewer_values_than_count(self):
        with pytest.raises(EncodingError, match="truncated"):
            decode_uvarints(encode_uvarint(1) + encode_uvarint(2), 0, 3)


@given(values=_VALUES, prefix=st.binary(max_size=3))
def test_property_bulk_matches_scalar(values, prefix):
    data = prefix + b"".join(encode_uvarint(v) for v in values)
    bulk, end = decode_uvarints(data, len(prefix), len(values))
    assert (bulk.tolist(), end) == _scalar_decode(data, len(prefix), len(values))
    assert bulk.tolist() == values


@given(values=_VALUES.filter(bool))
def test_property_bulk_matches_scalar_on_every_cut(values):
    data = b"".join(encode_uvarint(v) for v in values)
    for cut in range(len(data)):
        truncated = data[:cut]
        with pytest.raises(EncodingError):
            decode_uvarints(truncated, 0, len(values))
        # Whatever complete values the cut keeps decode the same way.
        whole = sum(
            1 for end in np.cumsum([len(encode_uvarint(v)) for v in values])
            if end <= cut
        )
        bulk, end = decode_uvarints(truncated, 0, whole)
        assert (bulk.tolist(), end) == _scalar_decode(truncated, 0, whole)
