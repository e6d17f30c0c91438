"""Semi-static large-alphabet rANS entropy coder.

This is the stand-in for the ``ans-fold`` coder of Moffat & Petri used by
the paper's ``re_ans`` variant to store the final string ``C`` of the
RePair grammar.  Key properties mirrored from the paper's setting:

- **semi-static**: a frequency table over the (possibly very large)
  symbol alphabet is built in one pass and stored in the header;
- **large alphabet**: symbols are arbitrary non-negative integers; the
  header maps them to dense ids, so alphabets of hundreds of thousands
  of symbols (RePair nonterminals) are handled without a 2^32 table;
- **stream decode**: the matrix-vector kernels need all of ``C`` in
  order, and ``re_ans`` pays that decode on every multiplication that
  misses the plan cache (the paper's time/space trade-off).

Probabilities are quantised to ``2^scale_bits`` slots.  A blob holds
the symbols in one of two layouts, chosen by the number of symbols
``n`` alone (:func:`lane_count`):

**Interleaved lanes** (``n >= 3200``).  Symbol ``i`` goes to lane
``i mod L`` (Giesen, "Interleaved entropy coders", 2014), where ``L``
is the largest power of two ``<= min(1024, n // 100)``.  Each lane is
an rANS coder with a 32-bit state in ``[2^16, 2^32)`` that renormalises
with 16-bit words; at ``scale_bits <= 16`` a decode step reads at most
one word per lane.  Words are stored in decode-step order and, within a
step, in lane order, so one step decodes every lane with a handful of
numpy operations (:class:`InterleavedRansDecoder`); the encoder runs
the same lockstep in reverse.  The blob starts with
:data:`INTERLEAVED_MAGIC` — ``0x80 0x00``, a non-canonical uvarint
that :func:`~repro.encoders.varint.encode_uvarint` never emits, so no
single-stream blob can start with it — and a codec-version byte.

**Single stream** (``n < 3200``, and every blob written before lanes
existed).  The standard byte-renormalised construction (Duda;
"ryg_rans" layout): one 32-bit state in ``[2^23, 2^31)``, decoded by a
per-symbol loop (:class:`RansDecoder`).  Short streams keep it because
``L`` states would cost more than the loop; it is written byte for
byte as before, and every legacy blob reads through it.
"""

from __future__ import annotations

import numpy as np

from repro.encoders.varint import decode_uvarint, decode_uvarints, encode_uvarint
from repro.errors import EncodingError

#: Lower bound of the rANS normalisation interval.
RANS_L = 1 << 23
#: Default probability quantisation (12 bits = 4096 slots).
DEFAULT_SCALE_BITS = 12
#: Largest supported quantisation; keeps the slot table small.
MAX_SCALE_BITS = 16

#: First bytes of an interleaved blob (a non-canonical uvarint 0).
INTERLEAVED_MAGIC = b"\x80\x00"
#: Codec version written after :data:`INTERLEAVED_MAGIC`.
INTERLEAVED_VERSION = 1
#: Lower bound of a lane state; renormalisation moves 16-bit words.
LANE_L = 1 << 16
#: Lane-count rule: at least this many symbols per lane ...
SYMBOLS_PER_LANE = 100
#: ... between these many lanes (fewer: single-stream format).
MIN_LANES = 32
MAX_LANES = 1024


def normalize_frequencies(counts: np.ndarray, scale_bits: int) -> np.ndarray:
    """Scale raw symbol counts to frequencies summing to ``2^scale_bits``.

    Every present symbol keeps a frequency of at least 1 (a zero
    frequency would make the symbol unencodable).  The residual from
    rounding is absorbed by the most frequent symbols, which perturbs
    the code lengths the least.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any(counts <= 0):
        raise EncodingError("all symbol counts must be positive")
    target = 1 << scale_bits
    if counts.size > target:
        raise EncodingError(
            f"alphabet of {counts.size} symbols does not fit in "
            f"2^{scale_bits} probability slots"
        )
    total = int(counts.sum())
    freqs = np.maximum(1, (counts * target) // total).astype(np.int64)
    error = target - int(freqs.sum())
    if error != 0:
        # Distribute the residual over symbols in decreasing count order,
        # never driving a frequency below 1.
        order = np.argsort(-counts, kind="stable")
        i = 0
        step = 1 if error > 0 else -1
        remaining = abs(error)
        while remaining > 0:
            idx = order[i % order.size]
            if step > 0 or freqs[idx] > 1:
                freqs[idx] += step
                remaining -= 1
            i += 1
    return freqs


class RansEncoder:
    """Encode a sequence of dense symbol ids with known frequencies.

    Parameters
    ----------
    freqs:
        Quantised frequencies per dense symbol id; must sum to
        ``2^scale_bits`` (see :func:`normalize_frequencies`).
    scale_bits:
        Probability quantisation exponent.
    """

    def __init__(self, freqs: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS):
        freqs = np.asarray(freqs, dtype=np.int64)
        if freqs.size and int(freqs.sum()) != (1 << scale_bits):
            raise EncodingError(
                f"frequencies sum to {int(freqs.sum())}, "
                f"expected {1 << scale_bits}"
            )
        self._scale_bits = scale_bits
        self._freqs = freqs
        self._cum = np.zeros(freqs.size + 1, dtype=np.int64)
        np.cumsum(freqs, out=self._cum[1:])

    def encode(self, symbols: np.ndarray) -> bytes:
        """Encode dense symbol ids; returns the byte stream (decode order)."""
        freqs = self._freqs.tolist()
        cums = self._cum.tolist()
        scale_bits = self._scale_bits
        # Renormalisation threshold numerator: state must stay below
        # ((L >> scale_bits) << 8) * freq before pushing a symbol.
        x_max_base = (RANS_L >> scale_bits) << 8
        out = bytearray()
        x = RANS_L
        # rANS encodes in reverse so that decoding is a forward scan.
        for s in reversed(np.asarray(symbols, dtype=np.int64).tolist()):
            f = freqs[s]
            x_max = x_max_base * f
            while x >= x_max:
                out.append(x & 0xFF)
                x >>= 8
            x = ((x // f) << scale_bits) + (x % f) + cums[s]
        out.extend(x.to_bytes(4, "little"))
        out.reverse()
        return bytes(out)


class RansDecoder:
    """Decode a byte stream produced by :class:`RansEncoder`."""

    def __init__(self, freqs: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS):
        freqs = np.asarray(freqs, dtype=np.int64)
        self._scale_bits = scale_bits
        cum = np.zeros(freqs.size + 1, dtype=np.int64)
        np.cumsum(freqs, out=cum[1:])
        # slot -> symbol lookup table (2^scale_bits entries).
        self._slot2sym = np.repeat(
            np.arange(freqs.size, dtype=np.int64), freqs
        ).tolist()
        self._freqs = freqs.tolist()
        self._cum = cum.tolist()

    def decode(self, data: bytes, n: int) -> np.ndarray:
        """Decode ``n`` dense symbol ids from ``data``."""
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if len(data) < 4:
            raise EncodingError("rANS stream truncated (missing state)")
        scale_bits = self._scale_bits
        mask = (1 << scale_bits) - 1
        slot2sym = self._slot2sym
        freqs = self._freqs
        cums = self._cum
        pos = 4
        x = int.from_bytes(data[:4], "big")
        size = len(data)
        out = [0] * n
        for i in range(n):
            slot = x & mask
            s = slot2sym[slot]
            out[i] = s
            x = freqs[s] * (x >> scale_bits) + slot - cums[s]
            while x < RANS_L:
                if pos >= size:
                    raise EncodingError("rANS stream truncated (payload)")
                x = (x << 8) | data[pos]
                pos += 1
        return np.asarray(out, dtype=np.int64)


def lane_count(n: int) -> int:
    """Interleaved lanes for a stream of ``n`` symbols.

    The largest power of two ``<= min(MAX_LANES, n // SYMBOLS_PER_LANE)``,
    or ``1`` (the single-stream format) when that is below
    :data:`MIN_LANES`, where the ``4 * L`` bytes of lane states would
    outweigh the decode time saved.
    """
    cap = min(MAX_LANES, n // SYMBOLS_PER_LANE)
    if cap < MIN_LANES:
        return 1
    return 1 << (cap.bit_length() - 1)


class InterleavedRansEncoder:
    """Encode dense symbol ids into ``lanes`` interleaved rANS lanes.

    Same parameters as :class:`RansEncoder`, plus the lane count.
    """

    def __init__(self, freqs: np.ndarray, scale_bits: int, lanes: int):
        freqs = np.asarray(freqs, dtype=np.int64)
        if freqs.size and int(freqs.sum()) != (1 << scale_bits):
            raise EncodingError(
                f"frequencies sum to {int(freqs.sum())}, "
                f"expected {1 << scale_bits}"
            )
        if not 0 <= scale_bits <= MAX_SCALE_BITS or lanes < 1:
            raise EncodingError(
                f"unsupported lane coder (scale_bits={scale_bits}, lanes={lanes})"
            )
        self._scale_bits = scale_bits
        self._lanes = lanes
        self._freqs = freqs
        self._cum = np.zeros(freqs.size + 1, dtype=np.int64)
        np.cumsum(freqs, out=self._cum[1:])

    def encode(self, symbols: np.ndarray) -> bytes:
        """Encode dense symbol ids; returns the lane states (``<u4``)
        followed by the renormalisation words (``<u2``, decode order)."""
        symbols = np.asarray(symbols, dtype=np.int64)
        n, lanes, scale_bits = symbols.size, self._lanes, self._scale_bits
        x = np.full(lanes, LANE_L, dtype=np.int64)
        chunks = []
        # Steps run last to first so that decoding is a forward scan; a
        # lane emits a word when pushing the symbol would leave 32 bits.
        for lo in range(lanes * ((n - 1) // lanes), -1, -lanes):
            s = symbols[lo : lo + lanes]
            xs = x[: s.size]
            f = self._freqs[s]
            full = np.flatnonzero(xs >= f << (32 - scale_bits))
            if full.size:
                chunks.append((xs[full] & 0xFFFF).astype("<u2"))
                xs[full] >>= 16
            q, r = np.divmod(xs, f)
            xs[:] = (q << scale_bits) + r + self._cum[s]
        words = np.concatenate(chunks[::-1]) if chunks else np.zeros(0, "<u2")
        return x.astype("<u4").tobytes() + words.tobytes()


class InterleavedRansDecoder:
    """Decode a payload produced by :class:`InterleavedRansEncoder`.

    Every lane advances one symbol per step in numpy lockstep.  A
    corrupt payload raises :class:`EncodingError`: a renormalisation
    read past the last word, a word left unread, or a lane that does
    not finish at the encoder's initial state ``2^16``.  States stay
    below ``2^32`` whatever the payload, so corruption cannot overflow.
    """

    def __init__(self, freqs: np.ndarray, scale_bits: int, lanes: int):
        freqs = np.asarray(freqs, dtype=np.int64)
        if lanes < 1:
            raise EncodingError(f"interleaved rANS needs >= 1 lane, got {lanes}")
        self._scale_bits = scale_bits
        self._lanes = lanes
        # Per-slot tables: decoding slot t of symbol s maps the state
        # x to freq[s] * (x >> scale_bits) + (t - cum[s]).
        sym = np.repeat(np.arange(freqs.size, dtype=np.int64), freqs)
        cum = np.cumsum(freqs) - freqs
        self._sym = sym
        self._freq = freqs[sym]
        self._bias = np.arange(sym.size, dtype=np.int64) - cum[sym]

    def decode(self, data, n: int) -> np.ndarray:
        """Decode ``n`` dense symbol ids from ``data``."""
        lanes, scale_bits = self._lanes, self._scale_bits
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if len(data) < 4 * lanes or (len(data) - 4 * lanes) % 2:
            raise EncodingError("interleaved rANS stream truncated")
        x = np.frombuffer(data, dtype="<u4", count=lanes).astype(np.int64)
        words = np.frombuffer(data, dtype="<u2", offset=4 * lanes)
        mask = (1 << scale_bits) - 1
        sym, freq, bias = self._sym, self._freq, self._bias
        out = np.empty(n, dtype=np.int64)
        pos = 0
        for lo in range(0, n, lanes):
            xs = x[: min(lanes, n - lo)]
            slot = xs & mask
            out[lo : lo + xs.size] = sym[slot]
            xs >>= scale_bits
            xs *= freq[slot]
            xs += bias[slot]
            low = np.flatnonzero(xs < LANE_L)
            if low.size:
                end = pos + low.size
                if end > words.size:
                    raise EncodingError("interleaved rANS stream truncated (payload)")
                xs[low] = (xs[low] << 16) | words[pos:end]
                pos = end
        if pos != words.size:
            raise EncodingError(
                f"interleaved rANS stream has {words.size - pos} unread words"
            )
        if np.any(x != LANE_L):
            raise EncodingError("interleaved rANS lane did not finish at 2^16")
        return out


def _encode_header(n: int, scale_bits: int, alphabet: np.ndarray, freqs: np.ndarray) -> bytes:
    header = bytearray()
    header += encode_uvarint(n)
    header += encode_uvarint(scale_bits)
    header += encode_uvarint(alphabet.size)
    prev = 0
    for a in alphabet.tolist():
        header += encode_uvarint(a - prev)
        prev = a
    for f in freqs.tolist():
        header += encode_uvarint(int(f))
    return bytes(header)


def _decode_header(data, pos: int) -> tuple[int, int, np.ndarray, np.ndarray, int]:
    """``(n, scale_bits, alphabet, freqs, next_pos)`` of either layout."""
    n, pos = decode_uvarint(data, pos)
    scale_bits, pos = decode_uvarint(data, pos)
    sigma, pos = decode_uvarint(data, pos)
    deltas, pos = decode_uvarints(data, pos, sigma)
    alphabet = np.cumsum(deltas)
    freqs, pos = decode_uvarints(data, pos, sigma)
    if sigma and int(alphabet.min()) < 0:
        raise EncodingError("rANS alphabet overflows int64")
    if n and (
        scale_bits > MAX_SCALE_BITS
        or sigma == 0
        or int(freqs.min()) < 1
        or int(freqs.sum()) != 1 << scale_bits
    ):
        raise EncodingError("rANS frequency table is corrupt")
    return n, scale_bits, alphabet, freqs, pos


def ans_compress(values: np.ndarray, scale_bits: int = DEFAULT_SCALE_BITS) -> bytes:
    """Compress an integer array into a self-describing ANS blob.

    The blob layout is::

        [magic 0x80 0x00, version byte]   -- interleaved layout only
        uvarint n            -- number of symbols
        uvarint scale_bits
        uvarint sigma        -- alphabet size
        uvarint alphabet[0], delta-coded alphabet[1..sigma-1]
        uvarint freqs[sigma] -- quantised frequencies
        [uvarint L, L lane states <u4, words <u2]   -- interleaved
        [rANS byte stream]                          -- single stream

    where the layout is chosen by :func:`lane_count` from ``n``.

    Parameters
    ----------
    values:
        Non-negative integers (any magnitude).
    scale_bits:
        Requested probability quantisation; automatically raised when
        the alphabet is too large for the requested number of slots.
    """
    arr = np.asarray(values, dtype=np.int64).ravel()
    if arr.size and int(arr.min()) < 0:
        raise EncodingError("ans_compress requires non-negative values")
    alphabet, dense = np.unique(arr, return_inverse=True)
    counts = np.bincount(dense, minlength=alphabet.size).astype(np.int64)
    while alphabet.size > (1 << scale_bits):
        scale_bits += 1
    if scale_bits > MAX_SCALE_BITS:
        raise EncodingError(
            f"alphabet of {alphabet.size} symbols exceeds the "
            f"2^{MAX_SCALE_BITS} slot limit"
        )
    freqs = normalize_frequencies(counts, scale_bits) if alphabet.size else counts
    header = _encode_header(arr.size, scale_bits, alphabet, freqs)
    if arr.size == 0:
        return header
    lanes = lane_count(arr.size)
    if lanes == 1:
        return header + RansEncoder(freqs, scale_bits).encode(dense)
    return (
        INTERLEAVED_MAGIC
        + bytes([INTERLEAVED_VERSION])
        + header
        + encode_uvarint(lanes)
        + InterleavedRansEncoder(freqs, scale_bits, lanes).encode(dense)
    )


def ans_decompress(data: bytes) -> np.ndarray:
    """Inverse of :func:`ans_compress` (either layout)."""
    interleaved = bytes(data[:2]) == INTERLEAVED_MAGIC
    pos = 0
    if interleaved:
        if len(data) < 3:
            raise EncodingError("interleaved rANS blob truncated (version)")
        if data[2] != INTERLEAVED_VERSION:
            raise EncodingError(f"unsupported rANS codec version {data[2]}")
        pos = 3
    n, scale_bits, alphabet, freqs, pos = _decode_header(data, pos)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if not interleaved:
        dense = RansDecoder(freqs, scale_bits).decode(data[pos:], n)
        return alphabet[dense]
    lanes, pos = decode_uvarint(data, pos)
    decoder = InterleavedRansDecoder(freqs, scale_bits, lanes)
    return alphabet[decoder.decode(memoryview(data)[pos:], n)]
