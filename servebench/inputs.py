"""Seeded inputs for the serving benchmark.

Everything the server sees is made here from the workload seed: the
dense matrices, the compressed ``.gcmx`` files in a matrix store, and
the JSON request bodies.  The dense matrices and the expected answers
stay in the benchmark process for the correctness gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import formats
from repro.datasets.profiles import PROFILES
from repro.datasets.synthetic import generate_matrix
from repro.shard import build_sharded, plan_shards
from repro.store import MatrixStore

#: Matrix sizes per scale.  ``full`` is the benchmark; ``small`` keeps
#: the same structure at a size the self-test can run in seconds.  The
#: ``cold-rotate`` budget holds less than one of its matrices at either
#: scale, so every rotated request misses.
SIZES = {
    "full": {"panel_rows": 5000, "rotate_rows": 6000, "square_n": 3000, "rotate_budget_mb": 1.0},
    "small": {"panel_rows": 400, "rotate_rows": 600, "square_n": 300, "rotate_budget_mb": 0.05},
}

#: Columns of a panel request (the ``k`` of ``right64``/``left64``).
PANEL_K = 64
#: Distinct k=1 vectors per op and matrix; requests cycle through them.
K1_POOL = 8
#: Shards per container and matrices rotated on ``cold-rotate``.
ROTATE_SHARDS = 4
ROTATE_MATRICES = 4

#: Correctness tolerance against dense numpy: the grammar kernels sum
#: in another order than BLAS, so equality is checked as
#: ``|got - ref| <= RTOL * |ref| + ATOL * max(1, max|ref|)``.
RTOL = 1e-9
ATOL = 1e-9


def close_enough(got: np.ndarray, ref: np.ndarray) -> bool:
    """The benchmark's single correctness predicate (see RTOL/ATOL)."""
    got = np.asarray(got, dtype=np.float64)
    if got.shape != ref.shape:
        return False
    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
    return bool(np.allclose(got, ref, rtol=RTOL, atol=ATOL * scale))


def template_square(seed: int, n: int) -> np.ndarray:
    """A structured nonnegative ``n x n`` link matrix for PageRank.

    Rows are copies of ``n // 10`` sparse templates, each perturbed by a
    few row-specific links, with weights from a 4-value dictionary:
    redundant like the paper's ML matrices.  An i.i.d. random square of
    this size has too many distinct grammar symbols for ``re_ans`` (see
    ``known_gaps`` in ``layers.json``).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3000]))
    n_templates = max(1, n // 10)
    per_template = max(1, n // 30)
    per_row_noise = 8
    templates = np.zeros((n_templates, n))
    for t in range(n_templates):
        cols = rng.choice(n, size=per_template, replace=False)
        templates[t, cols] = rng.integers(1, 5, size=per_template)
    dense = templates[rng.integers(0, n_templates, size=n)]
    rows = np.repeat(np.arange(n), per_row_noise)
    cols = rng.integers(0, n, size=rows.size)
    dense[rows, cols] = rng.integers(1, 5, size=rows.size)
    return dense


@dataclass
class Request:
    """One pre-encoded ``/multiply`` request and its expected answer."""

    cls: str  # "k1", "right64" or "left64"
    op: str
    matrix: str
    body: bytes
    vectors: np.ndarray  # (k, operand_len) — the row-vector request layout
    expected: np.ndarray  # (k, result_len) — the layout of "result"

    @property
    def k(self) -> int:
        return int(self.expected.shape[0])


@dataclass
class Inputs:
    """A built store plus everything needed to drive and check it."""

    root: Path
    dense: dict[str, np.ndarray]
    store_bytes: int
    k1: list[Request] = field(default_factory=list)
    panels: list[Request] = field(default_factory=list)
    job_matrix: str | None = None

    @property
    def names(self) -> list[str]:
        return list(self.dense)

    @property
    def dense_bytes(self) -> int:
        return sum(int(d.size) * 8 for d in self.dense.values())

    def shapes(self) -> dict[str, list[int]]:
        return {name: list(d.shape) for name, d in self.dense.items()}


def _request(cls: str, op: str, name: str, dense: np.ndarray, vectors) -> Request:
    vectors = np.asarray(vectors, dtype=np.float64)  # (k, operand_len)
    expected = vectors @ dense.T if op == "right" else vectors @ dense
    body = json.dumps(
        {"matrix": name, "op": op, "vectors": vectors.tolist()}
    ).encode()
    return Request(cls, op, name, body, vectors, expected)


def _matrix_requests(name: str, dense: np.ndarray, rng: np.random.Generator):
    """k=1 requests alternate right/left; panels alternate too.  Every
    workload gets panels: the traced run probes them on each matrix."""
    n, m = dense.shape
    k1 = []
    for _ in range(K1_POOL):
        k1.append(_request("k1", "right", name, dense, rng.standard_normal((1, m))))
        k1.append(_request("k1", "left", name, dense, rng.standard_normal((1, n))))
    panels = [
        _request("right64", "right", name, dense, rng.standard_normal((PANEL_K, m))),
        _request("left64", "left", name, dense, rng.standard_normal((PANEL_K, n))),
    ]
    return k1, panels


def _interleave_rotation(requests: list[Request], names: list[str]) -> list[Request]:
    """Order k=1 requests so consecutive ones hit different matrices."""
    by_name = {name: [r for r in requests if r.matrix == name] for name in names}
    out = []
    for i in range(len(by_name[names[0]])):
        out.extend(by_name[name][i] for name in names)
    return out


def budget_mb(workload: str, scale: str) -> float | None:
    """The server's ``--budget-mb`` (``None``: unlimited)."""
    return SIZES[scale]["rotate_budget_mb"] if workload == "cold-rotate" else None


def build(workload: str, seed: int, scale: str, root: Path) -> Inputs:
    """Generate the workload's matrices and compress them into a store
    at ``root`` (the part of set-up that is the program's work)."""
    sizes = SIZES[scale]
    store = MatrixStore(root)
    dense: dict[str, np.ndarray] = {}
    if workload == "warm-panels":
        matrix = generate_matrix(PROFILES["mnist2m"], sizes["panel_rows"], seed)
        store.add("mnist2m", formats.compress(matrix, format="re_ans"))
        dense["mnist2m"] = matrix
    elif workload == "cold-rotate":
        for i in range(ROTATE_MATRICES):
            matrix = generate_matrix(
                PROFILES["airline78"], sizes["rotate_rows"], seed * 16 + i
            )
            plan = plan_shards(matrix, n_shards=ROTATE_SHARDS, format="re_ans")
            store.add(f"airline78_{i}", build_sharded(matrix, plan=plan))
            dense[f"airline78_{i}"] = matrix
    elif workload == "jobs-beside-multiply":
        matrix = template_square(seed, sizes["square_n"])
        store.add("links", formats.compress(matrix, format="re_ans"))
        dense["links"] = matrix
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inputs = Inputs(root=Path(root), dense=dense, store_bytes=store.total_bytes())
    if workload == "jobs-beside-multiply":
        inputs.job_matrix = "links"
    return inputs


def make_requests(inputs: Inputs, seed: int, workload: str) -> tuple[list[Request], list[Request]]:
    """The seeded ``(k1, panels)`` request lists: encoded bodies plus the
    dense reference answers.  This is the benchmark's own work, so it
    stays out of ``setup_s``; it depends only on the seed and matrices."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    k1: list[Request] = []
    panels: list[Request] = []
    for name, dense in inputs.dense.items():
        more_k1, more_panels = _matrix_requests(name, dense, rng)
        k1 += more_k1
        panels += more_panels
    if workload == "cold-rotate":
        k1 = _interleave_rotation(k1, inputs.names)
    return k1, panels


def dense_pagerank(dense: np.ndarray, iterations: int, damping: float = 0.85) -> np.ndarray:
    """Dense numpy reference for ``repro.solve``'s PageRank (same update,
    uniform personalization, ``iterations`` rounds, no early stop)."""
    n = dense.shape[0]
    v = np.full(n, 1.0 / n)
    degree = dense.sum(axis=1)
    dangling = degree <= 0.0
    inv_degree = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, degree))
    r = v.copy()
    for _ in range(iterations):
        pulled = (r * inv_degree) @ dense
        r_new = damping * (pulled + float(r[dangling].sum()) * v) + (1.0 - damping) * v
        r = r_new / r_new.sum()
    return r
