"""Straight-line program (SLP) grammars over CSRV sequences.

The output of the (modified) RePair compressor is a pair ``(C, R)``
(Section 3):

- ``R`` is a set of ``q`` rules ``N_i → A B`` where ``A``/``B`` are
  terminals (CSRV pair codes ``>= 1``) or earlier nonterminals
  (``N_j`` with ``j < i``); the separator ``$`` (code ``0``) never
  appears in a rule;
- ``C`` is the *final string*: a sequence over terminals, nonterminals
  and ``$`` whose expansion is the original CSRV sequence ``S``.

Symbol numbering
----------------
Terminals keep their CSRV integer codes (``0`` = ``$``, pairs are
``>= 1``).  Nonterminal ``N_i`` (``i`` starting at 0) is represented by
the integer ``nt_base + i``, where ``nt_base`` is one more than the
largest terminal code present — exactly the compact numbering the paper
relies on for the bit-packed ``re_iv`` encoding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.csrv import ROW_SEPARATOR
from repro.errors import GrammarError


@dataclass(frozen=True)
class Grammar:
    """An SLP ``(C, R)`` over the CSRV terminal alphabet.

    Attributes
    ----------
    nt_base:
        Integer id of the first nonterminal; any symbol ``>= nt_base``
        is a nonterminal, symbols in ``[1, nt_base)`` are terminal pair
        codes, and ``0`` is the row separator.
    rules:
        ``(q, 2)`` int64 array; row ``i`` holds the right-hand side of
        ``N_i``.
    final:
        The final string ``C`` as an int64 array.
    """

    nt_base: int
    rules: np.ndarray
    final: np.ndarray
    _expansion_lengths: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        rules = np.ascontiguousarray(self.rules, dtype=np.int64).reshape(-1, 2)
        final = np.ascontiguousarray(self.final, dtype=np.int64).ravel()
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "final", final)

    # -- sizes ---------------------------------------------------------------------

    @property
    def n_rules(self) -> int:
        """Number of rules ``q = |R|``."""
        return int(self.rules.shape[0])

    @property
    def n_rows(self) -> int:
        """Number of matrix rows encoded in the final string."""
        return int(np.count_nonzero(self.final == ROW_SEPARATOR))

    @property
    def size(self) -> int:
        """Grammar size: ``|C| + 2·|R|`` (sum of right-hand side lengths)."""
        return int(self.final.size + 2 * self.rules.shape[0])

    @property
    def max_symbol(self) -> int:
        """Largest symbol id used (``N_max`` in the paper)."""
        candidates = [self.nt_base - 1]
        if self.rules.size:
            candidates.append(int(self.rules.max()))
        if self.final.size:
            candidates.append(int(self.final.max()))
        return max(candidates)

    def is_nonterminal(self, symbol: int | np.ndarray):
        """Elementwise test for nonterminal symbols."""
        return symbol >= self.nt_base

    def fingerprint(self) -> str:
        """Content hash of the *logical* grammar structure.

        Two grammars share a fingerprint iff ``nt_base``, ``rules`` and
        ``final`` are equal — used to pin reference output (the
        hot-path bench records the exact strategy's fingerprint so
        seed drift is detectable).  The serving plan cache is keyed by
        the *storage-level*
        :meth:`repro.core.gcm.GrammarCompressedMatrix.grammar_fingerprint`
        instead, which never needs a decode.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(int(self.nt_base).to_bytes(8, "little"))
        h.update(self.rules.tobytes())
        h.update(b"|")
        h.update(self.final.tobytes())
        return h.hexdigest()

    # -- validation ------------------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants; raise :class:`GrammarError`.

        Invariants (Section 3): rules reference only strictly earlier
        nonterminals; ``$`` never occurs inside a rule; all symbols are
        within range; every rule is useful (reachable from ``C``).
        """
        q = self.n_rules
        if self.nt_base < 1:
            raise GrammarError(f"nt_base must be >= 1, got {self.nt_base}")
        if self.rules.size:
            if int(self.rules.min()) < 1:
                raise GrammarError("rules contain the separator or negative ids")
            rule_ids = np.arange(q, dtype=np.int64) + self.nt_base
            if np.any(self.rules >= rule_ids[:, None]):
                raise GrammarError(
                    "a rule references itself or a later nonterminal"
                )
        if self.final.size:
            if int(self.final.min()) < 0:
                raise GrammarError("final string contains negative symbols")
            if int(self.final.max()) >= self.nt_base + q:
                raise GrammarError("final string references an undefined rule")
        self._check_all_reachable()

    def _check_all_reachable(self) -> None:
        """Every rule must be reachable from ``C`` (no useless rules)."""
        q = self.n_rules
        if q == 0:
            return
        reachable = np.zeros(q, dtype=bool)
        seeds = self.final[self.final >= self.nt_base] - self.nt_base
        reachable[seeds] = True
        # Propagate reachability down the DAG; rule i only references
        # ids < i, so a single descending pass suffices.
        for i in range(q - 1, -1, -1):
            if reachable[i]:
                for s in self.rules[i]:
                    if s >= self.nt_base:
                        reachable[s - self.nt_base] = True
        if not reachable.all():
            missing = int(np.flatnonzero(~reachable)[0])
            raise GrammarError(f"rule N_{missing} is unreachable from C")

    # -- expansion ---------------------------------------------------------------------

    def expansion_lengths(self) -> np.ndarray:
        """Length of ``exp(N_i)`` for every rule (computed once, cached)."""
        if self._expansion_lengths is not None:
            return self._expansion_lengths
        q = self.n_rules
        lengths = np.ones(q, dtype=np.int64)
        a, b = self.rules[:, 0], self.rules[:, 1]
        # Bottom-up: rule i only references ids < i.
        len_list = lengths.tolist()
        a_list, b_list = a.tolist(), b.tolist()
        base = self.nt_base
        for i in range(q):
            la = len_list[a_list[i] - base] if a_list[i] >= base else 1
            lb = len_list[b_list[i] - base] if b_list[i] >= base else 1
            len_list[i] = la + lb
        lengths = np.asarray(len_list, dtype=np.int64)
        object.__setattr__(self, "_expansion_lengths", lengths)
        return lengths

    def expand_symbol(self, symbol: int) -> np.ndarray:
        """Expansion of a single symbol into a terminal sequence."""
        if symbol < self.nt_base:
            return np.asarray([symbol], dtype=np.int64)
        out: list[int] = []
        stack = [int(symbol)]
        base = self.nt_base
        rules = self.rules
        while stack:
            s = stack.pop()
            if s < base:
                out.append(s)
            else:
                a, b = rules[s - base]
                stack.append(int(b))
                stack.append(int(a))
        return np.asarray(out, dtype=np.int64)

    def expand(self) -> np.ndarray:
        """Expansion of the final string ``C``: the original sequence ``S``.

        Iterative and memoised per nonterminal, so expansion runs in
        time linear in the output size.
        """
        lengths = self.expansion_lengths()
        is_nt = self.final >= self.nt_base
        total = int(self.final.size - np.count_nonzero(is_nt))
        if is_nt.any():
            total += int(lengths[self.final[is_nt] - self.nt_base].sum())
        out = np.empty(total, dtype=np.int64)
        memo: dict[int, np.ndarray] = {}
        pos = 0
        for s in self.final.tolist():
            if s < self.nt_base:
                out[pos] = s
                pos += 1
            else:
                if s not in memo:
                    memo[s] = self.expand_symbol(s)
                chunk = memo[s]
                out[pos : pos + chunk.size] = chunk
                pos += chunk.size
        return out

    # -- derived structure ----------------------------------------------------------

    def rule_levels(self) -> np.ndarray:
        """Height of each rule in the derivation DAG (terminals = level 0).

        ``level[i] = 1 + max(level(A), level(B))`` with ``level = 0``
        for terminals.  Computed by vectorised fixpoint iteration: each
        pass resolves one more level of the DAG, so the number of
        passes equals the grammar depth.
        """
        q = self.n_rules
        if q == 0:
            return np.zeros(0, dtype=np.int64)
        # Children index into [0, level...]: slot 0 is every terminal.
        refs = np.where(self.rules >= self.nt_base, self.rules - self.nt_base + 1, 0)
        a_ref, b_ref = refs[:, 0], refs[:, 1]
        ext = np.zeros(q + 1, dtype=np.int64)
        ext[1:] = 1
        while True:
            new = 1 + np.maximum(ext[a_ref], ext[b_ref])
            if np.array_equal(new, ext[1:]):
                return new
            ext[1:] = new

    @property
    def depth(self) -> int:
        """Maximum derivation height over all rules (0 when rule-free)."""
        levels = self.rule_levels()
        return int(levels.max()) if levels.size else 0
