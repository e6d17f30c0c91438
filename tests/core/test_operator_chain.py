"""The level-ordered sparse-operator chain behind :class:`MvmEngine`.

Degenerate grammars against dense for both ops and several panel
widths, vector/panel agreement, ``out=``, the plan's CSR layout, and
its byte accounting.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.core.csrv import CSRVMatrix
from repro.core.gcm import GrammarCompressedMatrix
from repro.core.grammar import Grammar
from repro.core.multiply import MvmEngine, MvmPlan
from repro.core.repair import repair_compress
from repro.errors import MatrixFormatError
from tests.conftest import make_structured


def _from_dense(dense):
    csrv = CSRVMatrix.from_dense(dense)
    return repair_compress(csrv.s), csrv.values, dense


def _from_grammar(grammar, values, shape):
    dense = GrammarCompressedMatrix.from_grammar(grammar, values, shape).to_dense()
    return grammar, values, dense


def _case(name):
    rng = np.random.default_rng(3)
    if name == "rule_free":
        return _from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
    if name == "all_zero":
        return _from_dense(np.zeros((4, 3)))
    if name == "single_row":
        # A single row never repeats a pair, so build the rules by hand:
        # m=4, one value, terminal j + 1 = <0,j>; N0 -> 1 2, N1 -> N0 3.
        grammar = Grammar(
            nt_base=5, rules=np.array([[1, 2], [5, 3]]), final=np.array([6, 4, 0])
        )
        return _from_grammar(grammar, np.array([1.5]), (1, 4))
    if name == "empty_rows":
        dense = make_structured(rng, n=12, m=5)
        dense[[0, 3, 4, 11]] = 0.0
        return _from_dense(dense)
    if name == "one_level":
        # m=3, one value: terminal j + 1 = <0,j>; N0 -> 1 2, N1 -> 2 3;
        # every rule on level 1.
        grammar = Grammar(
            nt_base=4,
            rules=np.array([[1, 2], [2, 3]]),
            final=np.array([4, 0, 0, 5, 1, 0, 4, 3, 0]),
        )
        return _from_grammar(grammar, np.array([2.0]), (4, 3))
    if name == "deep":
        # Repeated row blocks nest rules several levels deep.
        return _from_dense(np.tile(make_structured(rng, n=4, m=16, pool=3), (10, 1)))
    raise AssertionError(name)


CASES = ["rule_free", "all_zero", "single_row", "empty_rows", "one_level", "deep"]


@pytest.fixture(params=CASES)
def case(request):
    grammar, values, dense = _case(request.param)
    return MvmEngine(grammar, dense.shape[1]), values, dense


class TestAgainstDense:
    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_right(self, case, k):
        engine, values, dense = case
        x = np.random.default_rng(k).standard_normal((dense.shape[1], k))
        np.testing.assert_allclose(engine.right_multi(values, x), dense @ x, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_left(self, case, k):
        engine, values, dense = case
        y = np.random.default_rng(k).standard_normal((dense.shape[0], k))
        np.testing.assert_allclose(engine.left_multi(values, y), dense.T @ y, atol=1e-12)

    def test_case_shapes(self):
        assert _case("rule_free")[0].n_rules == 0
        grammar, _, _ = _case("all_zero")
        assert grammar.n_rules == 0 and grammar.n_rows == 4
        assert _case("single_row")[0].depth == 2
        assert set(_case("one_level")[0].rule_levels().tolist()) == {1}
        assert _case("deep")[0].depth >= 3


class TestOperands:
    def test_vector_equals_one_column_panel(self, case):
        engine, values, dense = case
        rng = np.random.default_rng(0)
        x = rng.standard_normal(dense.shape[1])
        y = rng.standard_normal(dense.shape[0])
        np.testing.assert_array_equal(
            engine.right(values, x), engine.right_multi(values, x[:, None])[:, 0]
        )
        np.testing.assert_array_equal(
            engine.left(values, y), engine.left_multi(values, y[:, None])[:, 0]
        )

    @pytest.mark.parametrize("op", ["right", "left"])
    def test_out_is_filled_in_place(self, case, op):
        engine, values, dense = case
        n, m = dense.shape
        in_len, out_len = (m, n) if op == "right" else (n, m)
        panel = np.random.default_rng(1).standard_normal((in_len, 3))
        # A strided column slice of a larger, dirty buffer.
        buffer = np.full((out_len, 7), 5.0)
        out = buffer[:, 2:5]
        fn = engine.right_multi if op == "right" else engine.left_multi
        assert fn(values, panel, out=out) is out
        expected = dense @ panel if op == "right" else dense.T @ panel
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert np.all(buffer[:, :2] == 5.0) and np.all(buffer[:, 5:] == 5.0)

    def test_out_shape_checked(self, case):
        engine, values, dense = case
        x = np.ones((dense.shape[1], 2))
        with pytest.raises(MatrixFormatError):
            engine.right_multi(values, x, out=np.zeros((dense.shape[0], 3)))

    def test_refills_for_new_values(self):
        grammar, values, dense = _case("deep")
        engine = MvmEngine(grammar, dense.shape[1])
        x = np.ones(dense.shape[1])
        np.testing.assert_allclose(engine.right(values, x), dense @ x)
        np.testing.assert_allclose(engine.right(2 * values, x), 2 * (dense @ x))


def _arrays(obj):
    """Every ndarray reachable through the plan's dataclass fields."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            yield value
        elif dataclasses.is_dataclass(value):
            yield from _arrays(value)


class TestPlanLayout:
    @pytest.mark.parametrize("name", CASES)
    def test_levels_are_contiguous_and_lower_triangular(self, name):
        grammar, _, dense = _case(name)
        plan = MvmPlan.from_grammar(grammar, dense.shape[1])
        bounds = plan.level_bounds
        assert bounds[0] == 0 and bounds[-1] == plan.n_rules
        assert list(bounds) == sorted(set(bounds))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rows = plan.n.indptr[lo : hi + 1]
            assert np.all(plan.n.indices[rows[0] : rows[-1]] < lo)
        # Every rule has exactly two children.
        assert np.all(np.diff(plan.t.indptr) + np.diff(plan.n.indptr) == 2)
        assert plan.ct.indptr.size == plan.cn.indptr.size == dense.shape[0] + 1

    @pytest.mark.parametrize("name", CASES)
    def test_nbytes_is_the_csr_arrays(self, name):
        grammar, _, dense = _case(name)
        plan = MvmPlan.from_grammar(grammar, dense.shape[1])
        assert plan.nbytes == sum(a.nbytes for a in _arrays(plan))


class TestOverheadBound:
    @pytest.mark.parametrize("variant", ["re_32", "re_iv", "re_ans"])
    @pytest.mark.parametrize("name", CASES)
    def test_bound_covers_the_retained_engine(self, name, variant):
        _, _, dense = _case(name)
        matrix = repro.compress(dense, format=variant)
        matrix.enable_plan_retention(True)
        bound = matrix.resident_overhead_bytes()
        matrix.right_multiply(np.ones(dense.shape[1]))
        engine = matrix._get_engine()
        assert bound >= engine.nbytes >= engine.plan.nbytes

    @pytest.mark.parametrize("seed", range(5))
    def test_bound_on_structured_matrices(self, seed):
        dense = make_structured(np.random.default_rng(seed), n=80, m=11, pool=3)
        matrix = repro.compress(dense, format="re_ans")
        matrix.enable_plan_retention(True)
        bound = matrix.resident_overhead_bytes()
        matrix.left_multiply(np.ones(dense.shape[0]))
        assert bound >= matrix._get_engine().nbytes


def test_engine_shared_across_threads_with_two_value_arrays():
    """Concurrent calls on one engine, alternating between two ``V``
    arrays and both ops, never mix one call's filled values into
    another's result."""
    import sys
    import threading

    grammar, values, dense = _case("deep")
    engine = MvmEngine(grammar, dense.shape[1])
    other = 3.0 * values
    rng = np.random.default_rng(4)
    x = rng.standard_normal(dense.shape[1])
    y = rng.standard_normal(dense.shape[0])
    scale = {id(values): 1.0, id(other): 3.0}
    errors: list[str] = []
    n_threads = 8
    start = threading.Barrier(n_threads)

    def worker(seed: int) -> None:
        start.wait(timeout=30)
        for i in range(2000):
            v = values if (seed + i) % 2 else other
            if i % 4 < 2:
                ok = np.allclose(engine.right(v, x), scale[id(v)] * (dense @ x))
            else:
                ok = np.allclose(engine.left(v, y), scale[id(v)] * (y @ dense))
            if not ok:
                errors.append(f"worker {seed} call {i}")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
