"""Grammar MVM as a level-ordered chain of sparse operators.

This module implements Theorems 3.4 (right multiplication, ``y = Mx``)
and 3.10 (left multiplication, ``xᵗ = yᵗM``) of the paper.  Both
theorems evaluate an auxiliary array ``W[1..q]`` over the rules, one
derivation level at a time: a rule's entry is a sum over its two
children, where a terminal child ``⟨ℓ,j⟩`` contributes ``V[ℓ]·x[j]``
and a nonterminal child its own ``W`` entry.  Every level is therefore
a *linear* update of ``W``, and the whole evaluation is a product of
sparse operators.

:class:`MvmPlan` renumbers the rules by derivation level, so level
``l`` owns the contiguous block ``W[lo_l:hi_l]``, and splits the
grammar into four value-free CSR structures:

- ``T`` (q×m): the terminal children of each rule; the data slot holds
  the value index ``ℓ``;
- ``N`` (q×q): the nonterminal children.  A child sits on a strictly
  lower level than its parent, so ``N`` is strictly lower-triangular
  and level ``l`` reads only the row block ``N_l = N[lo:hi, :lo]``;
- ``Ct`` (n×m) and ``Cn`` (n×q): the terminal and nonterminal
  occurrences in the final string ``C``, one row per matrix row.

:class:`MvmEngine` fills the data of ``T``/``Ct`` with ``V[ℓ]`` once and
runs the chain:

- **right**: ``W = T X``; bottom-up ``W[lo:hi] += N_l W[:lo]``;
  ``Y = Ct X + Cn W``;
- **left**: ``W = Cnᵀ Y``; top-down ``W[:lo] += N_lᵀ W[lo:hi]``;
  ``X = Ctᵀ Y + Tᵀ W``.

The evaluation order is the theorems' (children strictly before parents
for right, parents strictly before children for left), so the computed
values are the same sums.  Each product is one call into scipy's
compiled CSR kernels, which accumulate into a slice of ``W`` or of the
output in place; a transposed product reads the CSR arrays of ``A`` as
the CSC arrays of ``Aᵀ``, so no transpose is stored.  A vector and a
panel of ``k`` vectors run the same code, with no ``(nnz × k)``
temporaries.

Building a plan costs ``O(|C| + |R| · depth / vector-width)``, which is
cheap enough to be redone per multiplication — how the ``re_iv``/
``re_ans`` variants account for their decode overhead by default (see
:mod:`repro.core.gcm`) — but pure waste on a serving path that
multiplies the same matrix thousands of times.  Served matrices
therefore opt into *plan retention*: plans are cached in a
:class:`PlanCache` keyed by a grammar fingerprint, so repeated
multiplications skip both the storage decode and the plan rebuild
(see ``BENCH_hotpaths.json`` for the cold/warm gap this buys).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

# The compiled kernels behind scipy's CSR/CSC products.  Called
# directly, they accumulate ``y += A x`` into an existing (sliced)
# array and take an ``indptr`` slice as a row block, so a level product
# needs neither a sparse-matrix object nor a temporary.
from scipy.sparse import _sparsetools

from repro.core.csrv import ROW_SEPARATOR
from repro.core.grammar import Grammar
from repro.errors import MatrixFormatError


@dataclass(frozen=True)
class _Csr:
    """The arrays of one CSR structure (row count = ``indptr.size - 1``).

    ``data`` holds the value index ``ℓ`` for the terminal structures and
    the child multiplicity (1.0) for the nonterminal ones.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.indptr.nbytes + self.indices.nbytes + self.data.nbytes)


def _index_dtype(*sizes: int) -> type:
    """int32 indices when every size fits, else int64."""
    return np.int32 if max(sizes, default=0) < 2**31 else np.int64


@dataclass(frozen=True)
class MvmPlan:
    """The reusable part of a multiplication: the level-ordered operators.

    A plan is derived purely from ``(grammar, n_cols)`` and holds
    neither the grammar arrays nor the values ``V``, so it can outlive
    the decode that produced it and be shared by every matrix with the
    same grammar: a served ``re_iv``/``re_ans`` block that retains its
    plan skips both the storage decode and the plan rebuild on every
    multiplication after the first (see
    :meth:`repro.core.gcm.GrammarCompressedMatrix.enable_plan_retention`
    and :class:`PlanCache`).

    ``level_bounds[l]`` is where level ``l + 1`` starts in the
    renumbered rules (``level_bounds[-1] == n_rules``).
    """

    n_cols: int
    n_rows: int
    n_rules: int
    level_bounds: tuple[int, ...]
    t: _Csr
    n: _Csr
    ct: _Csr
    cn: _Csr

    @classmethod
    def from_grammar(cls, grammar: Grammar, n_cols: int) -> MvmPlan:
        """Renumber the rules by level and build the four structures."""
        n_cols = int(n_cols)
        q, nt_base, c = grammar.n_rules, grammar.nt_base, grammar.final
        row_ends = np.flatnonzero(c == ROW_SEPARATOR)
        entries = 2 * q + c.size - row_ends.size
        idx = _index_dtype(row_ends.size, n_cols, q, nt_base, entries)
        levels = grammar.rule_levels()
        depth = int(levels.max()) if q else 0
        # Stable argsort of 16-bit keys is a radix sort.
        order = np.argsort(
            levels.astype(np.uint16) if depth < 2**16 else levels, kind="stable"
        )
        rank = np.empty(q, dtype=idx)
        rank[order] = np.arange(q, dtype=idx)
        bounds = np.searchsorted(levels[order], np.arange(depth + 1), side="right")
        t, nt = _split_children(
            grammar.rules[order].ravel(), np.arange(2, 2 * q + 1, 2),
            nt_base, n_cols, rank, idx,
        )
        ct, cn = _split_children(c, row_ends, nt_base, n_cols, rank, idx)
        return cls(
            n_cols=n_cols,
            n_rows=int(row_ends.size),
            n_rules=q,
            level_bounds=tuple(int(b) for b in bounds),
            t=t,
            n=nt,
            ct=ct,
            cn=cn,
        )

    @property
    def nbytes(self) -> int:
        """Bytes held live by the plan's CSR arrays (cache accounting)."""
        return self.t.nbytes + self.n.nbytes + self.ct.nbytes + self.cn.nbytes

    @staticmethod
    def engine_nbytes_bound(
        n_rows: int, n_cols: int, n_rules: int, c_length: int, nt_base: int
    ) -> int:
        """Upper bound on a plan plus its engine's filled values, no build.

        Every rule has two children and every non-separator symbol of
        ``C`` is one entry.  An entry costs its column index, plus the
        value index ``ℓ`` and the filled ``V[ℓ]`` for a terminal or the
        multiplicity for a nonterminal; each structure adds
        ``rows + 1`` row pointers.
        """
        entries = 2 * n_rules + max(c_length - n_rows, 0)
        s = np.dtype(_index_dtype(n_rows, n_cols, n_rules, nt_base, entries)).itemsize
        return int(2 * s * (n_rules + n_rows + 2) + (2 * s + 8) * entries)


def _split_children(
    symbols: np.ndarray,
    row_ends: np.ndarray,
    nt_base: int,
    n_cols: int,
    rank: np.ndarray,
    idx: type,
) -> tuple[_Csr, _Csr]:
    """Split a symbol string into the terminal and the nonterminal CSR
    structure; row ``r`` ends just before position ``row_ends[r]``."""
    is_nt = symbols >= nt_base
    term_pos = np.flatnonzero(~is_nt & (symbols != ROW_SEPARATOR))
    nt_pos = np.flatnonzero(is_nt)
    value_idx, col = np.divmod((symbols[term_pos] - 1).astype(idx), idx(n_cols))
    term = _Csr(_indptr(term_pos, row_ends, idx), col, value_idx)
    nonterm = _Csr(
        _indptr(nt_pos, row_ends, idx),
        rank[symbols[nt_pos] - nt_base],
        np.ones(nt_pos.size, dtype=np.float64),
    )
    return term, nonterm


def _indptr(pos: np.ndarray, row_ends: np.ndarray, idx: type) -> np.ndarray:
    """Row pointers of sorted entry positions ``pos``."""
    indptr = np.zeros(row_ends.size + 1, dtype=idx)
    indptr[1:] = np.searchsorted(pos, row_ends)
    return indptr


def _csr_acc(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    n_cols: int,
    x: np.ndarray,
    y: np.ndarray,
) -> None:
    """``y += A x`` for the CSR rows of ``A`` that ``indptr`` spans."""
    if y.ndim == 1:
        _sparsetools.csr_matvec(y.shape[0], n_cols, indptr, indices, data, x, y)
    else:
        _sparsetools.csr_matvecs(
            y.shape[0], n_cols, y.shape[1], indptr, indices, data, x, y
        )


def _csc_acc(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
) -> None:
    """``y += Aᵀ x``, reading the CSR arrays of ``A`` as CSC arrays of ``Aᵀ``."""
    n_cols = indptr.size - 1
    if y.ndim == 1:
        _sparsetools.csc_matvec(y.shape[0], n_cols, indptr, indices, data, x, y)
    else:
        _sparsetools.csc_matvecs(
            y.shape[0], n_cols, y.shape[1], indptr, indices, data, x, y
        )


class PlanCache:
    """A thread-safe, bounded, fingerprint-keyed cache of :class:`MvmPlan`.

    Keys are grammar fingerprints (see
    :meth:`repro.core.grammar.Grammar.fingerprint` and the storage-level
    :meth:`repro.core.gcm.GrammarCompressedMatrix.grammar_fingerprint`),
    so structurally identical grammars — the same matrix re-registered,
    or one matrix evicted and reloaded by the serving registry — share
    one plan build.  Eviction is LRU by insertion/access order, bounded
    by entry count; byte usage is reported for the serving registry's
    residency accounting.
    """

    def __init__(self, max_plans: int = 64) -> None:
        if max_plans < 1:
            raise MatrixFormatError(f"max_plans must be >= 1, got {max_plans}")
        self._max_plans = int(max_plans)
        self._lock = threading.Lock()
        self._plans: OrderedDict[str, MvmPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> MvmPlan | None:
        """Return the cached plan for ``key`` (marking it recently used)."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, key: str, plan: MvmPlan) -> MvmPlan:
        """Insert ``plan`` under ``key``, evicting LRU entries over bound."""
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self._max_plans:
                self._plans.popitem(last=False)
            return plan

    def discard(self, key: str) -> bool:
        """Drop the plan cached under ``key`` (``False`` if absent).

        The serving registry calls this when it evicts a matrix, so a
        rotating working set cannot accumulate up to ``max_plans``
        orphaned plans beyond its byte budget.  Engines already built
        from the plan keep working — they hold their own reference.
        """
        with self._lock:
            return self._plans.pop(key, None) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._plans

    def nbytes(self) -> int:
        """Summed :attr:`MvmPlan.nbytes` of all cached plans."""
        with self._lock:
            return sum(p.nbytes for p in self._plans.values())

    def clear(self) -> None:
        """Drop every cached plan (counters are kept)."""
        with self._lock:
            self._plans.clear()

    def stats(self) -> dict[str, int]:
        """Counters for introspection/serving stats."""
        with self._lock:
            return {
                "plans": len(self._plans),
                "bytes": sum(p.nbytes for p in self._plans.values()),
                "hits": self.hits,
                "misses": self.misses,
                "max_plans": self._max_plans,
            }


class MvmEngine:
    """Executable multiplication chain for one grammar-compressed block.

    Parameters
    ----------
    grammar:
        The SLP ``(C, R)`` produced by :func:`repro.core.repair.repair_compress`.
    n_cols:
        Number of matrix columns ``m`` (needed to split pair codes).
    plan:
        A prebuilt :class:`MvmPlan` to execute.  When given, ``grammar``
        may be ``None`` — the decode-skipping path of plan retention.

    Notes
    -----
    The engine is stateless with respect to the operands: ``right`` and
    ``left`` can be called any number of times with different vectors
    or panels.  The first call with a given value array ``V`` fills the
    data of ``T``/``Ct`` with ``V[ℓ]``; later calls with the same array
    reuse it.  The auxiliary array ``W`` of the theorems is allocated
    per call (``8·q·k`` bytes, matching the ``O(|R|)`` space bound).
    """

    def __init__(
        self,
        grammar: Grammar | None,
        n_cols: int | None = None,
        plan: MvmPlan | None = None,
    ) -> None:
        if plan is None:
            if grammar is None or n_cols is None:
                raise MatrixFormatError(
                    "MvmEngine needs either a grammar and n_cols, or a plan"
                )
            plan = MvmPlan.from_grammar(grammar, n_cols)
        self._plan = plan
        self._filled: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_plan(cls, plan: MvmPlan) -> MvmEngine:
        """Wrap a prebuilt (typically cached) plan — no grammar needed."""
        return cls(None, plan=plan)

    @property
    def plan(self) -> MvmPlan:
        """The immutable operator chain this engine executes."""
        return self._plan

    @property
    def n_rows(self) -> int:
        """Number of matrix rows covered by this engine's block."""
        return self._plan.n_rows

    @property
    def n_rules(self) -> int:
        """Number of grammar rules ``q``."""
        return self._plan.n_rules

    @property
    def nbytes(self) -> int:
        """Bytes of the plan plus the filled ``V[ℓ]`` data, once filled."""
        filled = self._filled
        extra = 0 if filled is None else filled[1].nbytes + filled[2].nbytes
        return self._plan.nbytes + int(extra)

    def _values_data(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``V[ℓ]`` for the entries of ``T`` and ``Ct`` (filled once per ``V``)."""
        filled = self._filled
        if filled is None or filled[0] is not values:
            v = np.asarray(values, dtype=np.float64)
            filled = (values, v[self._plan.t.data], v[self._plan.ct.data])
            self._filled = filled
        return filled[1], filled[2]

    # -- entry points ----------------------------------------------------------------

    def right(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Compute ``y = M x`` for this block (Theorem 3.4)."""
        if x.size != self._plan.n_cols:
            raise MatrixFormatError(
                f"x has length {x.size}, expected {self._plan.n_cols}"
            )
        return self._right(values, x.ravel(), None)

    def right_multi(
        self,
        values: np.ndarray,
        x_block: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Compute ``Y = M X`` for a block of vectors (Theorem 3.4).

        ``x_block`` has shape ``(m, k)``; the result has shape
        ``(n_rows, k)``.  ``out``, when given, receives the result in
        place — the serving executor writes each block into a disjoint
        row slice of one preallocated panel, avoiding a copy per block.
        """
        if x_block.ndim != 2 or x_block.shape[0] != self._plan.n_cols:
            raise MatrixFormatError(
                f"x block has shape {x_block.shape}, expected "
                f"({self._plan.n_cols}, k)"
            )
        return self._right(values, x_block, out)

    def left(self, values: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Compute ``xᵗ = yᵗ M`` for this block (Theorem 3.10)."""
        if y.size != self._plan.n_rows:
            raise MatrixFormatError(
                f"y has length {y.size}, expected {self._plan.n_rows}"
            )
        return self._left(values, y.ravel(), None)

    def left_multi(
        self,
        values: np.ndarray,
        y_block: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Compute ``Xᵗ = Yᵗ M`` for a block of vectors (Theorem 3.10).

        ``y_block`` has shape ``(n_rows, k)``; the result has shape
        ``(m, k)`` where column ``c`` equals ``y_block[:, c]ᵗ M``.
        ``out`` works as in :meth:`right_multi`.
        """
        if y_block.ndim != 2 or y_block.shape[0] != self._plan.n_rows:
            raise MatrixFormatError(
                f"y block has shape {y_block.shape}, expected "
                f"({self._plan.n_rows}, k)"
            )
        return self._left(values, y_block, out)

    # -- the chain -------------------------------------------------------------------

    def _right(
        self, values: np.ndarray, x: np.ndarray, out: np.ndarray | None
    ) -> np.ndarray:
        plan = self._plan
        t_data, ct_data = self._values_data(values)
        x = np.ascontiguousarray(x, dtype=np.float64)
        tail = x.shape[1:]
        out = _output(out, (plan.n_rows, *tail))
        w = np.zeros((plan.n_rules, *tail))
        t, nt, bounds = plan.t, plan.n, plan.level_bounds
        _csr_acc(t.indptr, t.indices, t_data, plan.n_cols, x, w)
        # Level 1 has no nonterminal children; level l reads levels < l.
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            _csr_acc(nt.indptr[lo : hi + 1], nt.indices, nt.data, lo, w[:lo], w[lo:hi])
        _csr_acc(plan.ct.indptr, plan.ct.indices, ct_data, plan.n_cols, x, out)
        _csr_acc(plan.cn.indptr, plan.cn.indices, plan.cn.data, plan.n_rules, w, out)
        return out

    def _left(
        self, values: np.ndarray, y: np.ndarray, out: np.ndarray | None
    ) -> np.ndarray:
        plan = self._plan
        t_data, ct_data = self._values_data(values)
        y = np.ascontiguousarray(y, dtype=np.float64)
        tail = y.shape[1:]
        out = _output(out, (plan.n_cols, *tail))
        w = np.zeros((plan.n_rules, *tail))
        t, nt, bounds = plan.t, plan.n, plan.level_bounds
        _csc_acc(plan.cn.indptr, plan.cn.indices, plan.cn.data, y, w)
        # Top-down: by the time level l is read, C and every higher
        # level have landed in its block of w.
        for lo, hi in zip(reversed(bounds[1:-1]), reversed(bounds[2:])):
            _csc_acc(nt.indptr[lo : hi + 1], nt.indices, nt.data, w[lo:hi], w[:lo])
        _csc_acc(plan.ct.indptr, plan.ct.indices, ct_data, y, out)
        _csc_acc(t.indptr, t.indices, t_data, w, out)
        return out


def _output(out: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed result array: ``out`` itself when given (shape-checked)."""
    if out is None:
        return np.zeros(shape)
    if out.shape != shape:
        raise MatrixFormatError(f"out has shape {out.shape}, expected {shape}")
    out[...] = 0.0
    return out
