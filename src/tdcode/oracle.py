"""Brute-force reference implementations.

Everything here recomputes results from first principles: exhaustive
filtering for enumeration, full deduplication-graph search for roots,
and complete edge materialization for out-degrees.  This module never
consults the fast counting or ranking code (it has its own square scan),
so agreement between the two is meaningful evidence of correctness.
All searches carry an explicit budget and abort cleanly past it.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .errors import BudgetExceededError, DomainError
from .words import DupSystem, Word, _Record


class OracleBudget(_Record):
    """Caps on brute-force work: distinct words touched and search depth.
    The root search, whose words can be long, counts the symbols it holds
    against max_words instead."""

    __slots__ = ("max_words", "max_depth")
    max_words: int
    max_depth: int

    def __init__(self, max_words: int = 2_000_000, max_depth: int = 12) -> None:
        super().__init__(max_words, max_depth)


DEFAULT_BUDGET = OracleBudget()


def _has_square(syms: tuple[int, ...], k: int) -> bool:
    n = len(syms)
    for i in range(n - 1):
        for t in range(1, k + 1):
            if i + 2 * t <= n and syms[i:i + t] == syms[i + t:i + 2 * t]:
                return True
    return False


def enumerate_irr_bruteforce(
    n: int, sys: DupSystem, budget: Optional[OracleBudget] = None
) -> list[Word]:
    """All irreducible length-n words, by filtering the full q**n space.

    Returned in lexicographic order.
    """
    budget = budget or DEFAULT_BUDGET
    if n < 0:
        raise DomainError(f"word length must be >= 0, got {n}")
    if sys.q**n > budget.max_words:
        raise BudgetExceededError(
            f"q**n = {sys.q**n} exceeds the word budget {budget.max_words}"
        )
    out = []
    for syms in itertools.product(range(sys.q), repeat=n):
        if not _has_square(syms, sys.k):
            out.append(Word(syms, sys.q))
    return out


class RootOracle:
    """Finds every irreducible ancestor of a word by trying all
    deduplication orders, memoized so repeated queries share work.

    The budget's max_words bounds the symbols of the memoized words, over
    all queries: a word of length n costs n, since scanning and holding it
    does.  So one long word cannot make the search run without bound.
    """

    def __init__(self, sys: DupSystem, budget: Optional[OracleBudget] = None):
        self.sys = sys
        self.budget = budget or DEFAULT_BUDGET
        self._memo: dict[tuple[int, ...], frozenset[tuple[int, ...]]] = {}
        self._held = 0  # symbols of the words searched so far

    def roots(self, y: Word) -> set[Word]:
        if y.q != self.sys.q:
            raise DomainError(
                f"word alphabet q={y.q} does not match system q={self.sys.q}"
            )
        return {Word(s, y.q) for s in self._roots(y.symbols)}

    def _roots(self, syms: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
        got = self._memo.get(syms)
        if got is not None:
            return got
        self._held += len(syms)
        if self._held > self.budget.max_words:
            raise BudgetExceededError(
                f"root search held more than {self.budget.max_words} symbols"
            )
        k = self.sys.k
        n = len(syms)
        acc: set[tuple[int, ...]] = set()
        reducible = False
        for i in range(n - 1):
            for t in range(1, k + 1):
                if i + 2 * t <= n and syms[i:i + t] == syms[i + t:i + 2 * t]:
                    reducible = True
                    acc |= self._roots(syms[:i + t] + syms[i + 2 * t:])
        result = frozenset(acc) if reducible else frozenset({syms})
        self._memo[syms] = result
        return result


def all_roots_bfs(
    y: Word, sys: DupSystem, budget: Optional[OracleBudget] = None
) -> set[Word]:
    """All irreducible ancestors of y over every deduplication order.

    For k in {2, 3} this is always a single word (the unique root).
    """
    return RootOracle(sys, budget).roots(y)


def all_descendants(
    x: Word, t: int, sys: DupSystem, budget: Optional[OracleBudget] = None
) -> set[Word]:
    """Every word reachable from x by at most t duplications (x included)."""
    budget = budget or DEFAULT_BUDGET
    if x.q != sys.q:
        raise DomainError(f"word alphabet q={x.q} does not match system q={sys.q}")
    if t > budget.max_depth:
        raise BudgetExceededError(
            f"depth {t} exceeds the search depth budget {budget.max_depth}"
        )
    seen: set[tuple[int, ...]] = {x.symbols}
    frontier = [x.symbols]
    for _ in range(t):
        nxt = []
        for syms in frontier:
            n = len(syms)
            for length in range(1, min(sys.k, n) + 1):
                for i in range(n - length + 1):
                    child = syms[:i + length] + syms[i:i + length] + syms[i + length:]
                    if child not in seen:
                        if len(seen) >= budget.max_words:
                            raise BudgetExceededError(
                                f"descendant search exceeded {budget.max_words} words"
                            )
                        seen.add(child)
                        nxt.append(child)
        frontier = nxt
    return {Word(s, x.q) for s in seen}


def min_outdegree_bruteforce(
    m: int, sys: DupSystem, budget: Optional[OracleBudget] = None
) -> int:
    """Minimum out-degree of the overlap graph on irreducible length-m
    words, by materializing every state and scanning every pair."""
    budget = budget or DEFAULT_BUDGET
    if m < 2 * sys.k - 1:
        raise DomainError(f"state length must be >= {2 * sys.k - 1}, got {m}")
    states = enumerate_irr_bruteforce(m, sys, budget)
    if len(states) ** 2 > budget.max_words:
        raise BudgetExceededError(
            f"{len(states)}**2 pairs exceed the word budget {budget.max_words}"
        )
    k = sys.k
    best = None
    tails = [s.symbols for s in states]
    for x in states:
        xs = x.symbols
        deg = sum(1 for ys in tails if not _has_square(xs + ys, k))
        if best is None or deg < best:
            best = deg
    return best
