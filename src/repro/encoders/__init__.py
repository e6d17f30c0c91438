"""Low-level storage encoders used by the compressed matrix formats.

This subpackage is the stand-in for the C/C++ storage substrate used by
the paper's prototype (sdsl-lite ``int_vector`` and the ``ans-fold``
entropy coder of Moffat & Petri):

- :class:`repro.encoders.int_vector.IntVector` — a bit-packed vector of
  fixed-width unsigned integers (the ``re_iv`` physical format).
- :mod:`repro.encoders.rans` — a semi-static large-alphabet rANS entropy
  coder (the ``re_ans`` physical format for the final string ``C``),
  interleaved into lanes decoded in numpy lockstep for long streams.
- :mod:`repro.encoders.varint` — LEB128 variable-length integers used by
  the on-disk serialization format.
"""

from repro.encoders.int_vector import IntVector, bits_required
from repro.encoders.rans import (
    InterleavedRansDecoder,
    InterleavedRansEncoder,
    RansDecoder,
    RansEncoder,
    ans_compress,
    ans_decompress,
)
from repro.encoders.varint import decode_uvarint, decode_uvarints, encode_uvarint

__all__ = [
    "IntVector",
    "bits_required",
    "RansEncoder",
    "RansDecoder",
    "InterleavedRansEncoder",
    "InterleavedRansDecoder",
    "ans_compress",
    "ans_decompress",
    "encode_uvarint",
    "decode_uvarint",
    "decode_uvarints",
]
