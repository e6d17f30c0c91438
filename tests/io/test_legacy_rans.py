"""``re_ans`` files written before interleaved rANS lanes still load.

``fixtures/legacy_re_ans_single_stream.gcmx`` is a 400x29 ``airline78``
matrix saved by the single-stream writer, with ``|C| = 3406``: at or
above 3200 symbols the current writer interleaves ``C`` into lanes, so
this file pins the legacy read path.  The ``.npz`` beside it holds
vectors and the products that writer's code computed for them.
``fixtures/legacy_re_ans_short_stream.gcmx`` (a 60-row ``census``
matrix, ``|C| = 635``) pins that short streams are still written byte
for byte as before.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.gcm import GrammarCompressedMatrix
from repro.encoders.rans import INTERLEAVED_MAGIC, ans_compress, lane_count
from repro.io.serialize import load_matrix, loads_matrix, saves_matrix

FIXTURES = Path(__file__).parent / "fixtures"
LEGACY = FIXTURES / "legacy_re_ans_single_stream.gcmx"
SHORT = FIXTURES / "legacy_re_ans_short_stream.gcmx"


@pytest.fixture(scope="module")
def expected():
    with np.load(FIXTURES / "legacy_re_ans_single_stream.npz") as data:
        return dict(data)


@pytest.mark.parametrize("mmap", [False, True], ids=["copy", "mmap"])
class TestSingleStreamFile:
    def test_is_a_legacy_blob_the_writer_would_now_interleave(self, mmap):
        matrix = load_matrix(LEGACY, mmap=mmap)
        assert isinstance(matrix, GrammarCompressedMatrix)
        assert matrix.variant == "re_ans" and matrix.shape == (400, 29)
        assert lane_count(matrix.c_length) > 1
        assert bytes(matrix._c_storage[:2]) != INTERLEAVED_MAGIC
        c = matrix.decode_grammar().final
        assert ans_compress(c)[:2] == INTERLEAVED_MAGIC

    def test_multiplies_exactly_as_before(self, mmap, expected):
        matrix = load_matrix(LEGACY, mmap=mmap)
        assert np.array_equal(matrix.right_multiply(expected["x"]), expected["right"])
        assert np.array_equal(matrix.left_multiply(expected["y"]), expected["left"])
        assert np.array_equal(
            matrix.right_multiply_matrix(expected["x_panel"]), expected["right_panel"]
        )
        assert np.array_equal(
            matrix.left_multiply_matrix(expected["y_panel"]), expected["left_panel"]
        )


def test_reencoded_legacy_matrix_round_trips_interleaved():
    matrix = load_matrix(LEGACY)
    again = loads_matrix(saves_matrix(GrammarCompressedMatrix.compress(
        matrix.to_dense(), variant="re_ans"
    )))
    assert bytes(again._c_storage[:2]) == INTERLEAVED_MAGIC
    assert np.array_equal(again.to_dense(), matrix.to_dense())


def test_short_stream_is_written_byte_for_byte_as_before():
    blob = SHORT.read_bytes()
    dense = loads_matrix(blob).to_dense()
    matrix = GrammarCompressedMatrix.compress(dense, variant="re_ans")
    assert lane_count(matrix.c_length) == 1
    assert saves_matrix(matrix) == blob
