"""Serving throughput: batched panel multiplication vs. looped MVMs.

The serving engine answers a ``k``-vector request with one panel
kernel call (:mod:`repro.serve.batch`) instead of ``k`` single MVMs.
This benchmark quantifies that win per representation: for each
format it times

- **looped** — ``k`` calls to ``right_multiply`` (the pre-serving
  access pattern; ``re_iv``/``re_ans`` re-pay the unpack/entropy
  decode of ``C`` on every call), and
- **batched** — one ``batch_right_multiply`` over the same ``(m, k)``
  panel,

and reports both as vectors/second plus the speedup ratio.  The
grammar-compressed variants are where batching matters most: the
engine build and storage decode amortise over the whole panel.  Every
format must hold the invariant *batched ≤ looped* (in time, up to
:data:`BATCHED_SLACK`): script mode exits 1 and
``test_batched_not_slower_than_looped`` fails when a format's panel
kernel loses to ``k`` single MVMs.

``pytest benchmarks/bench_serve_throughput.py --benchmark-only`` times
the two paths; running as a script prints the full table for every
format (dense / csrv / re_32 / re_iv / re_ans / blocked-auto / cla).
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from repro.baselines import DenseMatrix
from repro.bench.reporting import format_table
from repro.cla import CLAMatrix
from repro.core.blocked import BlockedMatrix
from repro.core.csrv import CSRVMatrix
from repro.core.gcm import GrammarCompressedMatrix
from repro.serve.batch import batch_right_multiply, looped_right_multiply

try:
    from benchmarks.conftest import bench_matrix
except ImportError:
    from conftest import bench_matrix

#: Panel width of the serving workload (ISSUE acceptance: k = 64).
K_VECTORS = 64

#: Datasets exercised in script mode.
DATASETS = ("census", "covtype")

#: Formats compared; ``blocked`` uses per-block auto format selection.
FORMATS = ("dense", "csrv", "re_32", "re_iv", "re_ans", "blocked", "cla")

#: Timing noise allowed by the batched ≤ looped check: a format whose
#: panel kernel is the per-column fallback (``cla``) ties with looped.
BATCHED_SLACK = 1.1


def build(matrix: np.ndarray, fmt: str):
    """Compress ``matrix`` into the requested representation."""
    if fmt == "dense":
        return DenseMatrix(matrix)
    if fmt == "csrv":
        return CSRVMatrix.from_dense(matrix)
    if fmt in ("re_32", "re_iv", "re_ans"):
        return GrammarCompressedMatrix.compress(matrix, variant=fmt)
    if fmt == "blocked":
        return BlockedMatrix.compress(matrix, variant="auto", n_blocks=8)
    if fmt == "cla":
        return CLAMatrix.compress(matrix)
    raise ValueError(fmt)


def _best_seconds(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time — robust to scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(compressed, panel: np.ndarray, repeats: int = 3) -> dict:
    """Throughput of the looped and batched paths on one panel."""
    result_batched = batch_right_multiply(compressed, panel)
    result_looped = looped_right_multiply(compressed, panel)
    assert np.allclose(result_batched, result_looped)
    k = panel.shape[1]
    t_loop = _best_seconds(lambda: looped_right_multiply(compressed, panel), repeats)
    t_batch = _best_seconds(lambda: batch_right_multiply(compressed, panel), repeats)
    return {
        "looped_vps": k / t_loop,
        "batched_vps": k / t_batch,
        "speedup": t_loop / t_batch,
    }


def _panel(matrix: np.ndarray, k: int = K_VECTORS) -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.standard_normal((matrix.shape[1], k))


# -- pytest benchmarks ----------------------------------------------------------------


@pytest.mark.parametrize("fmt", FORMATS)
def test_batched_panel(benchmark, fmt):
    matrix = bench_matrix("census")
    compressed = build(matrix, fmt)
    panel = _panel(matrix)
    result = benchmark(lambda: batch_right_multiply(compressed, panel))
    assert result.shape == (matrix.shape[0], K_VECTORS)


@pytest.mark.parametrize("fmt", FORMATS)
def test_batched_not_slower_than_looped(fmt):
    matrix = bench_matrix("census")
    m = measure(build(matrix, fmt), _panel(matrix))
    assert m["speedup"] * BATCHED_SLACK >= 1.0, (
        f"{fmt}: batched is {m['speedup']:.2f}x looped"
    )


@pytest.mark.parametrize("fmt", ("re_32", "re_iv", "re_ans"))
def test_looped_baseline(benchmark, fmt):
    matrix = bench_matrix("census")
    compressed = build(matrix, fmt)
    panel = _panel(matrix)
    result = benchmark(lambda: looped_right_multiply(compressed, panel))
    assert result.shape == (matrix.shape[0], K_VECTORS)


# -- script mode ----------------------------------------------------------------------


def main() -> int:
    slower = []
    for name in DATASETS:
        matrix = bench_matrix(name)
        panel = _panel(matrix)
        rows = []
        for fmt in FORMATS:
            compressed = build(matrix, fmt)
            m = measure(compressed, panel)
            if m["speedup"] * BATCHED_SLACK < 1.0:
                slower.append(f"{name}/{fmt}: batched {m['speedup']:.2f}x looped")
            rows.append(
                [
                    fmt,
                    f"{m['looped_vps']:,.0f}",
                    f"{m['batched_vps']:,.0f}",
                    f"{m['speedup']:.1f}x",
                ]
            )
        print(
            format_table(
                ["format", "looped vec/s", "batched vec/s", "speedup"],
                rows,
                title=(
                    f"{name} ({matrix.shape[0]}x{matrix.shape[1]}), "
                    f"k={K_VECTORS} right-multiplications"
                ),
            )
        )
        print()
    for line in slower:
        print("batched slower than looped:", line, file=sys.stderr)
    return 1 if slower else 0


if __name__ == "__main__":
    sys.exit(main())
