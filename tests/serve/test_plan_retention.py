"""Serving-side plan retention: enabling, accounting, and opting out."""

import numpy as np
import pytest

from repro.core.blocked import BlockedMatrix
from repro.core.gcm import GrammarCompressedMatrix
from repro.io.serialize import save_matrix
from repro.serve.registry import MatrixRegistry, resident_estimate
from tests.conftest import make_structured


@pytest.fixture
def iv_store(tmp_path, rng):
    """One re_iv matrix (plan-cacheable, zero overhead when not retained)."""
    dense = make_structured(rng, n=60, m=10)
    save_matrix(
        GrammarCompressedMatrix.compress(dense, variant="re_iv"),
        tmp_path / "iv.gcmx",
    )
    return tmp_path, dense


class TestRegistryPlanRetention:
    def test_loaded_matrix_retains_plan_by_default(self, iv_store):
        root, dense = iv_store
        registry = MatrixRegistry(root=root)
        assert registry.retain_plans
        matrix = registry.get("iv")
        assert matrix.plan_retained
        x = np.ones(dense.shape[1])
        np.testing.assert_allclose(matrix.right_multiply(x), dense @ x)

    def test_opt_out_restores_per_call_rebuild(self, iv_store):
        root, _ = iv_store
        registry = MatrixRegistry(root=root, retain_plans=False)
        matrix = registry.get("iv")
        assert not matrix.plan_retained
        assert matrix.resident_overhead_bytes() == 0

    def test_budget_charges_retained_plan(self, iv_store):
        root, dense = iv_store
        with_plans = MatrixRegistry(root=root)
        without = MatrixRegistry(root=root, retain_plans=False)
        m_with = with_plans.get("iv")
        without.get("iv")
        overhead = m_with.resident_overhead_bytes()
        assert overhead > 0
        assert (
            with_plans.resident_bytes == without.resident_bytes + overhead
        )
        # The charge is a build-free bound on the engine it retains.
        m_with.right_multiply(np.ones(dense.shape[1]))
        assert overhead >= m_with._get_engine().nbytes

    def test_resident_estimate_includes_plan(self, iv_store):
        root, _ = iv_store
        registry = MatrixRegistry(root=root)
        matrix = registry.get("iv")
        assert resident_estimate(matrix) == matrix.size_bytes() + (
            matrix.resident_overhead_bytes()
        )

    def test_stats_report_retention(self, iv_store):
        root, _ = iv_store
        assert MatrixRegistry(root=root).stats()["retain_plans"] is True
        assert (
            MatrixRegistry(root=root, retain_plans=False).stats()["retain_plans"]
            is False
        )

    def test_eviction_respects_plan_inflated_budget(self, tmp_path, rng):
        """A budget between payload and payload+plan keeps evicting."""
        dense = make_structured(rng, n=60, m=10)
        for name in ("one", "two"):
            save_matrix(
                GrammarCompressedMatrix.compress(dense, variant="re_ans"),
                tmp_path / f"{name}.gcmx",
            )
        probe = MatrixRegistry(root=tmp_path)
        charge = resident_estimate(probe.get("one"))
        # Budget fits one plan-charged matrix but not two.
        registry = MatrixRegistry(root=tmp_path, byte_budget=charge + charge // 2)
        registry.get("one")
        registry.get("two")
        assert registry.stats()["resident"] == 1
        assert registry.stats()["evictions"] == 1

    def test_eviction_releases_plan_from_shared_cache(self, tmp_path, rng):
        """Evicted matrices must not leave plans in the shared cache —
        the budget charged them, so eviction frees them."""
        from repro.core.gcm import plan_cache

        dense = make_structured(rng, n=60, m=10)
        save_matrix(
            GrammarCompressedMatrix.compress(dense, variant="re_iv"),
            tmp_path / "solo.gcmx",
        )
        registry = MatrixRegistry(root=tmp_path)
        matrix = registry.get("solo")
        matrix.right_multiply(np.ones(dense.shape[1]))  # builds + caches
        key = matrix.grammar_fingerprint()
        assert key in plan_cache()
        assert registry.evict("solo")
        assert key not in plan_cache()

    def test_blocked_store_retains_per_block(self, tmp_path, rng):
        dense = make_structured(rng, n=48, m=9)
        save_matrix(
            BlockedMatrix.compress(dense, variant="re_iv", n_blocks=3),
            tmp_path / "blk.gcmx",
        )
        registry = MatrixRegistry(root=tmp_path)
        matrix = registry.get("blk")
        assert all(b.plan_retained for b in matrix.blocks)
        x = np.ones(dense.shape[1])
        np.testing.assert_allclose(matrix.right_multiply(x), dense @ x)
