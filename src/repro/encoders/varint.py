"""LEB128 variable-length unsigned integers.

Used by :mod:`repro.io.serialize` for headers and small counters so that
serialized blobs stay compact without committing to a fixed field width.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EncodingError

#: Longest LEB128 group :func:`decode_uvarints` accepts: 9 groups of 7
#: bits hold every value below 2^63, so decoded values fit in int64.
MAX_UVARINT_BYTES = 9


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as LEB128 bytes.

    >>> encode_uvarint(0)
    b'\\x00'
    >>> encode_uvarint(300).hex()
    'ac02'
    """
    if value < 0:
        raise EncodingError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a LEB128 integer from ``data`` starting at ``offset``.

    Returns ``(value, next_offset)``.

    >>> decode_uvarint(b'\\xac\\x02')
    (300, 2)
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise EncodingError("uvarint truncated")
        if shift > 63:
            raise EncodingError("uvarint too long (max 64 bits)")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def decode_uvarints(data, offset: int, count: int) -> tuple[np.ndarray, int]:
    """Decode ``count`` consecutive LEB128 integers starting at ``offset``.

    The vectorised counterpart of calling :func:`decode_uvarint`
    ``count`` times: group ends are the bytes below ``0x80``, and each
    value is the ``add.reduceat`` of its 7-bit digits shifted into
    place.  Returns ``(values, next_offset)`` with ``values`` int64.
    Raises :class:`EncodingError` when the data ends before ``count``
    values or a group is longer than :data:`MAX_UVARINT_BYTES` (a value
    of 2^63 or more) — nothing wraps silently.

    >>> values, end = decode_uvarints(b'\\x05\\xac\\x02\\x00', 0, 3)
    >>> values.tolist(), end
    ([5, 300, 0], 4)
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64), offset
    window = min(len(data) - offset, MAX_UVARINT_BYTES * count)
    if window <= 0:
        raise EncodingError("uvarint truncated")
    raw = np.frombuffer(data, dtype=np.uint8, count=window, offset=offset)
    ends = np.flatnonzero(raw < 0x80)[:count]
    if ends.size < count:
        if window < MAX_UVARINT_BYTES * count:
            raise EncodingError("uvarint truncated")
        raise EncodingError(
            f"uvarint too long (max {MAX_UVARINT_BYTES} bytes in a bulk read)"
        )
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    if int(lengths.max()) > MAX_UVARINT_BYTES:
        raise EncodingError(
            f"uvarint too long (max {MAX_UVARINT_BYTES} bytes in a bulk read)"
        )
    stop = int(ends[-1]) + 1
    shifts = 7 * (np.arange(stop) - np.repeat(starts, lengths))
    digits = (raw[:stop] & 0x7F).astype(np.uint64) << shifts.astype(np.uint64)
    values = np.add.reduceat(digits, starts).astype(np.int64)
    return values, offset + stop
