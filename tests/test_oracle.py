"""Tests for the brute-force reference module itself."""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from tdcode import (
    BudgetExceededError,
    DomainError,
    DupSystem,
    OracleBudget,
    RootOracle,
    Word,
    all_descendants,
    all_roots_bfs,
    enumerate_irr_bruteforce,
    min_outdegree_bruteforce,
    tandem_duplicate,
)


def w(text: str, q: int = 3) -> Word:
    return Word.from_string(text, q)


class TestEnumerateBruteforce:
    def test_tiny_cases_by_hand(self, s32):
        assert enumerate_irr_bruteforce(0, s32) == [Word((), 3)]
        assert enumerate_irr_bruteforce(1, s32) == [w("0"), w("1"), w("2")]
        assert [str(x) for x in enumerate_irr_bruteforce(2, s32)] == [
            "01", "02", "10", "12", "20", "21",
        ]

    def test_lexicographic_output(self, s33):
        words = enumerate_irr_bruteforce(6, s33)
        assert words == sorted(words, key=lambda x: x.symbols)

    def test_agrees_with_direct_filter(self, s33):
        def has_square(syms, k):
            return any(
                syms[i:i + t] == syms[i + t:i + 2 * t]
                for i in range(len(syms))
                for t in range(1, k + 1)
                if i + 2 * t <= len(syms)
            )
        expected = [
            Word(syms, 3)
            for syms in itertools.product(range(3), repeat=5)
            if not has_square(syms, 3)
        ]
        assert enumerate_irr_bruteforce(5, s33) == expected

    def test_budget_guard(self, s32):
        with pytest.raises(BudgetExceededError):
            enumerate_irr_bruteforce(10, s32, OracleBudget(max_words=100))


class TestRootSearch:
    def test_worked_descendant(self, s33):
        assert all_roots_bfs(w("0101211210"), s33) == {w("01210")}

    def test_irreducible_is_its_own_root(self, s32):
        assert all_roots_bfs(w("0120"), s32) == {w("0120")}

    def test_search_covers_all_deduplication_orders(self, s32):
        # 001122 deduplicates along three interleavable positions
        assert all_roots_bfs(w("001122"), s32) == {w("012")}

    def test_respects_k(self, s32, s33):
        y = w("012012")
        assert all_roots_bfs(y, s32) == {y}
        assert all_roots_bfs(y, s33) == {w("012")}

    def test_memo_is_shared_across_queries(self, s32):
        oracle = RootOracle(s32)
        oracle.roots(w("00112200"))
        before = len(oracle._memo)
        oracle.roots(w("0011220"))  # sub-word already reduced
        assert len(oracle._memo) >= before
        assert oracle.roots(w("00112200")) == {w("0120")}

    def test_budget_guard(self, s32):
        oracle = RootOracle(s32, OracleBudget(max_words=5))
        with pytest.raises(BudgetExceededError):
            oracle.roots(w("0011220011"))

    def test_budget_counts_the_symbols_held_over_all_queries(self, s32):
        # an irreducible word is one search of its own length
        oracle = RootOracle(s32, OracleBudget(max_words=7))
        assert oracle.roots(w("0120")) == {w("0120")}
        assert oracle.roots(w("0120")) == {w("0120")}  # memoized: costs nothing more
        assert RootOracle(s32, OracleBudget(max_words=7)).roots(w("0121")) == {w("0121")}
        with pytest.raises(BudgetExceededError, match="held more than 7 symbols"):
            oracle.roots(w("0121"))  # 4 + 4 symbols

    def test_alphabet_mismatch(self, s32):
        with pytest.raises(DomainError):
            all_roots_bfs(Word((0, 1), 4), s32)


class TestAllDescendants:
    def test_zero_steps(self, s32):
        assert all_descendants(w("012"), 0, s32) == {w("012")}

    def test_one_step_is_every_single_event(self, s32):
        x = w("012")
        expected = {x}
        for length in (1, 2):
            for pos in range(len(x) - length + 1):
                expected.add(tandem_duplicate(x, (pos, length)))
        assert all_descendants(x, 1, s32) == expected

    def test_monotone_in_depth(self, s33):
        x = w("0121")
        d1 = all_descendants(x, 1, s33)
        d2 = all_descendants(x, 2, s33)
        assert d1 <= d2

    def test_depth_budget(self, s32):
        with pytest.raises(BudgetExceededError):
            all_descendants(w("01"), 13, s32)

    def test_word_budget(self, s32):
        with pytest.raises(BudgetExceededError):
            all_descendants(w("01210"), 4, s32, OracleBudget(max_words=10))


class TestMinOutdegreeBruteforce:
    @pytest.mark.parametrize("sysname, m, expected", [
        ("s32", 3, 3),
        ("s32", 4, 5),
        ("s33", 5, 4),
    ])
    def test_small_windows(self, sysname, m, expected, request):
        assert min_outdegree_bruteforce(m, request.getfixturevalue(sysname)) == expected

    def test_window_too_short(self, s33):
        with pytest.raises(DomainError):
            min_outdegree_bruteforce(4, s33)

    def test_budget_guard(self, s32):
        with pytest.raises(BudgetExceededError):
            min_outdegree_bruteforce(5, s32, OracleBudget(max_words=100))


class TestIndependence:
    def test_oracle_never_imports_the_fast_paths(self):
        source = Path(__file__).resolve().parent.parent.joinpath(
            "src", "tdcode", "oracle.py"
        ).read_text()
        for module in ("enumeration", "ranking", "fse", "codec"):
            assert f"from .{module}" not in source
            assert f"from tdcode.{module}" not in source
            assert f"import {module}" not in source
