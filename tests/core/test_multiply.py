"""Tests for the grammar MVM engine (Theorems 3.4 / 3.10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csrv import CSRVMatrix
from repro.core.grammar import Grammar
from repro.core.multiply import MvmEngine
from repro.core.repair import repair_compress
from repro.errors import MatrixFormatError


def _engine_for(matrix):
    csrv = CSRVMatrix.from_dense(matrix)
    grammar = repair_compress(csrv.s)
    return MvmEngine(grammar, matrix.shape[1]), csrv.values


class TestRight:
    def test_matches_dense(self, structured_matrix, rng):
        engine, values = _engine_for(structured_matrix)
        x = rng.standard_normal(structured_matrix.shape[1])
        assert np.allclose(engine.right(values, x), structured_matrix @ x)

    def test_paper_example(self, paper_matrix):
        engine, values = _engine_for(paper_matrix)
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.allclose(engine.right(values, x), paper_matrix @ x)

    def test_rule_free_grammar(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        engine, values = _engine_for(matrix)
        assert engine.n_rules == 0
        x = np.array([1.0, -1.0])
        assert np.allclose(engine.right(values, x), matrix @ x)

    def test_wrong_x_length(self, paper_matrix):
        engine, values = _engine_for(paper_matrix)
        with pytest.raises(MatrixFormatError):
            engine.right(values, np.ones(3))

    def test_zero_rows_tail(self):
        # Trailing all-zero rows still produce y entries.
        matrix = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        engine, values = _engine_for(matrix)
        y = engine.right(values, np.array([2.0, 3.0]))
        assert np.allclose(y, [5.0, 0.0, 0.0])


class TestLeft:
    def test_matches_dense(self, structured_matrix, rng):
        engine, values = _engine_for(structured_matrix)
        y = rng.standard_normal(structured_matrix.shape[0])
        assert np.allclose(engine.left(values, y), y @ structured_matrix)

    def test_paper_example(self, paper_matrix):
        engine, values = _engine_for(paper_matrix)
        y = np.arange(6, dtype=np.float64) + 1
        assert np.allclose(engine.left(values, y), y @ paper_matrix)

    def test_rule_free_grammar(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        engine, values = _engine_for(matrix)
        y = np.array([1.0, 2.0])
        assert np.allclose(engine.left(values, y), y @ matrix)

    def test_wrong_y_length(self, paper_matrix):
        engine, values = _engine_for(paper_matrix)
        with pytest.raises(MatrixFormatError):
            engine.left(values, np.ones(2))

    def test_shared_subtree_counted_per_occurrence(self):
        # A rule used by many rows must contribute sum over those rows
        # (Lemma 3.9).  Identical rows force heavy rule sharing.
        matrix = np.tile(np.array([[1.5, 2.5, 3.5, 4.5]]), (8, 1))
        engine, values = _engine_for(matrix)
        y = np.arange(8, dtype=np.float64)
        assert np.allclose(engine.left(values, y), y @ matrix)


class TestEngineStructure:
    def test_row_count_from_final_string(self, structured_matrix):
        engine, _ = _engine_for(structured_matrix)
        assert engine.n_rows == structured_matrix.shape[0]

    def test_engine_reusable_across_vectors(self, paper_matrix, rng):
        engine, values = _engine_for(paper_matrix)
        for _ in range(5):
            x = rng.standard_normal(5)
            assert np.allclose(engine.right(values, x), paper_matrix @ x)

    def test_deep_chain_grammar(self):
        # A long chain rule exercises many levels.
        seq = np.tile([1, 2], 64).tolist() + [0]
        grammar = repair_compress(np.asarray(seq))
        # m=2 -> terminal codes 1,2 decode to (l=0, j=0/1).
        engine = MvmEngine(grammar, 2)
        values = np.array([10.0])
        x = np.array([1.0, 3.0])
        # Row contains 64 copies of pairs <0,0><0,1>: y = 64*(10*1+10*3).
        assert np.allclose(engine.right(values, x), [64 * 40.0])

    def test_manual_grammar_right_and_left(self):
        # Hand-built grammar over a 2-column matrix:
        # terminals: 1 = <0,0> (V[0] at col 0), 2 = <0,1>.
        # N0 -> 1 2 ; C = N0 $ N0 $  (two identical rows [v, v]).
        grammar = Grammar(
            nt_base=3, rules=np.array([[1, 2]]), final=np.array([3, 0, 3, 0])
        )
        engine = MvmEngine(grammar, 2)
        values = np.array([2.0])
        x = np.array([3.0, 4.0])
        assert np.allclose(engine.right(values, x), [14.0, 14.0])
        y = np.array([1.0, 10.0])
        assert np.allclose(engine.left(values, y), [22.0, 22.0])


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=16),
    m=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
)
def test_property_engine_equals_dense(n, m, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 4, size=(n, m)).astype(np.float64) * 1.5
    csrv = CSRVMatrix.from_dense(matrix)
    engine = MvmEngine(repair_compress(csrv.s), m)
    x = rng.standard_normal(m)
    y = rng.standard_normal(n)
    assert np.allclose(engine.right(csrv.values, x), matrix @ x)
    assert np.allclose(engine.left(csrv.values, y), y @ matrix)
