"""Tests for the large-alphabet rANS coder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entropy import empirical_entropy
from repro.encoders.rans import (
    INTERLEAVED_MAGIC,
    INTERLEAVED_VERSION,
    SYMBOLS_PER_LANE,
    InterleavedRansDecoder,
    InterleavedRansEncoder,
    RansDecoder,
    RansEncoder,
    ans_compress,
    ans_decompress,
    lane_count,
    normalize_frequencies,
)
from repro.encoders.varint import decode_uvarint, decode_uvarints, encode_uvarint
from repro.errors import EncodingError


class TestNormalizeFrequencies:
    def test_sums_to_scale(self):
        freqs = normalize_frequencies(np.array([5, 3, 2]), scale_bits=12)
        assert freqs.sum() == 1 << 12

    def test_every_symbol_kept(self):
        # A very rare symbol must still get frequency >= 1.
        counts = np.array([1, 10_000_000])
        freqs = normalize_frequencies(counts, scale_bits=8)
        assert freqs[0] >= 1
        assert freqs.sum() == 256

    def test_proportions_preserved(self):
        freqs = normalize_frequencies(np.array([1, 1, 2]), scale_bits=12)
        assert freqs[2] == pytest.approx(2 * freqs[0], rel=0.01)

    def test_single_symbol(self):
        freqs = normalize_frequencies(np.array([42]), scale_bits=12)
        assert freqs.tolist() == [1 << 12]

    def test_alphabet_too_large(self):
        with pytest.raises(EncodingError):
            normalize_frequencies(np.ones(300, dtype=int), scale_bits=8)

    def test_zero_count_rejected(self):
        with pytest.raises(EncodingError):
            normalize_frequencies(np.array([3, 0]), scale_bits=12)

    def test_empty(self):
        assert normalize_frequencies(np.array([], dtype=int), 12).size == 0


class TestRansCore:
    def test_encode_decode_roundtrip(self):
        rng = np.random.default_rng(0)
        freqs = normalize_frequencies(np.array([50, 30, 15, 5]), 12)
        symbols = rng.integers(0, 4, size=500)
        enc = RansEncoder(freqs, 12)
        dec = RansDecoder(freqs, 12)
        assert np.array_equal(dec.decode(enc.encode(symbols), 500), symbols)

    def test_single_symbol_stream_is_tiny(self):
        freqs = normalize_frequencies(np.array([100]), 12)
        blob = RansEncoder(freqs, 12).encode(np.zeros(10_000, dtype=int))
        # Zero entropy: only the 4-byte final state is emitted.
        assert len(blob) == 4
        out = RansDecoder(freqs, 12).decode(blob, 10_000)
        assert np.array_equal(out, np.zeros(10_000))

    def test_wrong_frequency_sum_rejected(self):
        with pytest.raises(EncodingError):
            RansEncoder(np.array([10, 10]), scale_bits=12)

    def test_truncated_stream_detected(self):
        freqs = normalize_frequencies(np.array([1, 1]), 12)
        rng = np.random.default_rng(1)
        blob = RansEncoder(freqs, 12).encode(rng.integers(0, 2, size=1000))
        with pytest.raises(EncodingError):
            RansDecoder(freqs, 12).decode(blob[:3], 1000)

    def test_decode_zero_symbols(self):
        freqs = normalize_frequencies(np.array([1, 1]), 12)
        assert RansDecoder(freqs, 12).decode(b"", 0).size == 0


class TestAnsBlob:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 50, size=2000)
        assert np.array_equal(ans_decompress(ans_compress(values)), values)

    def test_large_sparse_alphabet(self):
        # Symbol ids far apart (like RePair nonterminals).
        rng = np.random.default_rng(3)
        alphabet = np.sort(rng.choice(1 << 30, size=200, replace=False))
        values = alphabet[rng.integers(0, 200, size=3000)]
        assert np.array_equal(ans_decompress(ans_compress(values)), values)

    def test_empty(self):
        assert ans_decompress(ans_compress(np.array([], dtype=int))).size == 0

    def test_single_value(self):
        values = np.array([7])
        assert np.array_equal(ans_decompress(ans_compress(values)), values)

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            ans_compress(np.array([-1, 2]))

    def test_alphabet_overflowing_int64_raises(self):
        # Each delta is a valid 63-bit value; their sum is not.
        header = [2, 12, 2, (1 << 63) - 1, (1 << 63) - 1, 2048, 2048]
        blob = b"".join(encode_uvarint(v) for v in header) + b"\x00" * 8
        with pytest.raises(EncodingError, match="overflows"):
            ans_decompress(blob)

    def test_scale_bits_auto_raised(self):
        # 5000 distinct symbols cannot fit into 2^12 slots; the coder
        # must raise the quantisation transparently.
        values = np.arange(5000)
        assert np.array_equal(ans_decompress(ans_compress(values)), values)

    def test_compression_tracks_entropy(self):
        # A skewed stream must compress close to its H_0; allow coder +
        # header overhead.
        rng = np.random.default_rng(4)
        values = rng.choice(8, size=20_000, p=[0.6, 0.2, 0.1, 0.04, 0.03, 0.01, 0.01, 0.01])
        blob = ans_compress(values)
        payload_bits = 8 * len(blob)
        entropy_bits = values.size * empirical_entropy(values)
        assert payload_bits < 1.10 * entropy_bits + 8 * 200

    def test_beats_fixed_width_on_skewed_data(self):
        rng = np.random.default_rng(5)
        values = rng.choice(256, size=10_000, p=_skewed(256))
        blob = ans_compress(values)
        assert len(blob) < 10_000  # < 1 byte/symbol despite 8-bit alphabet


def _lane_layout(blob):
    """``(lanes, offset of the lane states)`` of an interleaved blob."""
    assert blob[:3] == INTERLEAVED_MAGIC + bytes([INTERLEAVED_VERSION])
    _n, pos = decode_uvarint(blob, 3)
    _scale_bits, pos = decode_uvarint(blob, pos)
    sigma, pos = decode_uvarint(blob, pos)
    _, pos = decode_uvarints(blob, pos, 2 * sigma)
    return decode_uvarint(blob, pos)


def _skewed_stream(n, seed=6):
    rng = np.random.default_rng(seed)
    return rng.choice(6, size=n, p=[0.7, 0.1, 0.1, 0.05, 0.03, 0.02]) * 1000


class TestLaneCount:
    @pytest.mark.parametrize(
        "n, lanes",
        [(0, 1), (3199, 1), (3200, 32), (6399, 32), (6400, 64),
         (14_000, 128), (102_399, 512), (102_400, 1024), (10**8, 1024)],
    )
    def test_rule(self, n, lanes):
        assert lane_count(n) == lanes

    def test_short_stream_keeps_single_stream_layout(self):
        # Below 32 lanes the blob is the header plus the byte-renormalised
        # stream, exactly as written before lanes existed.
        values = _skewed_stream(3199)
        alphabet, dense = np.unique(values, return_inverse=True)
        freqs = normalize_frequencies(np.bincount(dense), 12)
        header = b"".join(
            encode_uvarint(int(v))
            for v in [3199, 12, alphabet.size, alphabet[0], *np.diff(alphabet), *freqs]
        )
        assert ans_compress(values) == header + RansEncoder(freqs, 12).encode(dense)


class TestInterleaved:
    @pytest.mark.parametrize("lanes", [32, 64, 1024])
    @pytest.mark.parametrize("extra", [0, 37])
    def test_roundtrip(self, lanes, extra):
        # ``extra`` symbols past a multiple of L leave a partial last step.
        rng = np.random.default_rng(lanes + extra)
        n = SYMBOLS_PER_LANE * lanes + extra
        values = rng.integers(0, 3000, size=n) * 7
        blob = ans_compress(values)
        assert _lane_layout(blob)[0] == lanes
        assert np.array_equal(ans_decompress(blob), values)

    def test_one_symbol_alphabet(self):
        values = np.full(5000, 42)
        blob = ans_compress(values)
        lanes, pos = _lane_layout(blob)
        # Zero entropy: every lane keeps its initial state, no words.
        assert len(blob) == pos + 4 * lanes
        assert np.array_equal(ans_decompress(blob), values)

    @pytest.mark.parametrize("scale_bits", [12, 13, 14, 15, 16])
    def test_scale_bits(self, scale_bits):
        rng = np.random.default_rng(scale_bits)
        values = rng.integers(0, 300, size=8000) ** 2
        blob = ans_compress(values, scale_bits=scale_bits)
        assert decode_uvarint(blob, decode_uvarint(blob, 3)[1])[0] == scale_bits
        assert np.array_equal(ans_decompress(blob), values)

    @pytest.mark.parametrize("sigma", [4097, 40_000, 1 << 16])
    def test_large_alphabet_raises_scale_bits(self, sigma):
        # More than 4096 symbols cannot use the default 12-bit table.
        rng = np.random.default_rng(sigma)
        values = np.concatenate([np.arange(sigma), rng.integers(0, sigma, size=4000)])
        blob = ans_compress(values)
        scale_bits = decode_uvarint(blob, decode_uvarint(blob, 3)[1])[0]
        assert 1 << scale_bits >= sigma > 1 << (scale_bits - 1)
        assert np.array_equal(ans_decompress(blob), values)

    def test_coder_with_explicit_lanes(self):
        freqs = normalize_frequencies(np.array([50, 30, 15, 5]), 12)
        symbols = np.random.default_rng(7).integers(0, 4, size=1001)
        for lanes in (1, 3, 32, 2000):
            payload = InterleavedRansEncoder(freqs, 12, lanes).encode(symbols)
            out = InterleavedRansDecoder(freqs, 12, lanes).decode(payload, 1001)
            assert np.array_equal(out, symbols)

    def test_every_truncation_raises(self):
        blob = ans_compress(_skewed_stream(3300))
        assert blob[:2] == INTERLEAVED_MAGIC
        for cut in range(len(blob)):
            with pytest.raises(EncodingError):
                ans_decompress(blob[:cut])

    def test_flipped_lane_state_byte_raises(self):
        blob = ans_compress(_skewed_stream(3300))
        lanes, pos = _lane_layout(blob)
        for lane in (0, lanes // 2, lanes - 1):
            for byte in range(4):
                corrupt = bytearray(blob)
                corrupt[pos + 4 * lane + byte] ^= 0xFF
                with pytest.raises(EncodingError):
                    ans_decompress(bytes(corrupt))

    def test_flipped_state_of_zero_entropy_stream_raises(self):
        # No words to run out of: only the final-state check sees it.
        blob = bytearray(ans_compress(np.full(5000, 42)))
        _lanes, pos = _lane_layout(bytes(blob))
        blob[pos] ^= 0x01
        with pytest.raises(EncodingError, match="did not finish"):
            ans_decompress(bytes(blob))

    def test_unread_words_raise(self):
        blob = ans_compress(_skewed_stream(3300))
        with pytest.raises(EncodingError, match="unread"):
            ans_decompress(blob + b"\x00\x00")

    def test_odd_word_bytes_raise(self):
        blob = ans_compress(_skewed_stream(3300))
        with pytest.raises(EncodingError):
            ans_decompress(blob + b"\x00")

    def test_unknown_version_raises(self):
        blob = bytearray(ans_compress(_skewed_stream(3300)))
        blob[2] = INTERLEAVED_VERSION + 1
        with pytest.raises(EncodingError, match="version"):
            ans_decompress(bytes(blob))

    def test_zero_lanes_raise(self):
        blob = ans_compress(_skewed_stream(3300))
        lanes, pos = _lane_layout(blob)
        head = pos - len(encode_uvarint(lanes))
        with pytest.raises(EncodingError):
            ans_decompress(blob[:head] + encode_uvarint(0) + blob[pos:])

    def test_corrupt_frequency_table_raises(self):
        values = _skewed_stream(3300)
        blob = ans_compress(values)
        # The last header frequency sits just before the lane count.
        lanes, pos = _lane_layout(blob)
        head = pos - len(encode_uvarint(lanes))
        corrupt = bytearray(blob)
        corrupt[head - 1] ^= 0x01
        with pytest.raises(EncodingError):
            ans_decompress(bytes(corrupt))


def _skewed(k):
    p = 1.0 / np.arange(1, k + 1) ** 2
    return p / p.sum()


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=100_000), min_size=0, max_size=400
    )
)
def test_property_blob_roundtrip(values):
    arr = np.asarray(values, dtype=np.int64)
    assert np.array_equal(ans_decompress(ans_compress(arr)), arr)
