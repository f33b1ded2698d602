"""Tests for the suffix bijections and rank/unrank order isomorphisms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcode import (
    DomainError,
    DupSystem,
    Word,
    apply_phi,
    apply_phi123,
    apply_psi,
    count_irr,
    count_irr_prefix,
    invert_phi,
    invert_phi123,
    invert_psi,
    is_irreducible,
    rank_irr,
    rank_irr_prefix,
    unrank_irr,
    unrank_irr_prefix,
)
from tdcode import enumeration
from tdcode.enumeration import count_table
from tdcode.ranking import _rank, _unrank


def w(text: str, q: int = 3) -> Word:
    return Word.from_string(text, q)


def all_irr(n: int, sys_: DupSystem) -> list[Word]:
    return [unrank_irr(n, j, sys_) for j in range(1, count_irr(n, sys_) + 1)]


class TestSuffixMapsK2:
    @pytest.mark.parametrize("x, i, expected", [
        ("202", 1, "2021"),
        ("010", 1, "0102"),
        ("101", 1, "1012"),
        ("0102", 1, "01021"),
    ])
    def test_apply_phi(self, x, i, expected, s32):
        assert apply_phi(w(x), i, s32) == w(expected)

    @pytest.mark.parametrize("x, i, expected", [
        ("01", 1, "0121"),
        ("010", 1, "01020"),
        ("202", 1, "20212"),
    ])
    def test_apply_psi(self, x, i, expected, s32):
        assert apply_psi(w(x), i, s32) == w(expected)

    def test_invert_phi(self, s32):
        assert invert_phi(w("0102"), s32) == (w("010"), 1)
        assert invert_phi(w("2021"), s32) == (w("202"), 1)

    def test_invert_psi(self, s32):
        assert invert_psi(w("0121"), s32) == (w("01"), 1)

    def test_image_classes_disjoint(self, s32):
        # a two-distinct suffix is never a phi image, and vice versa
        with pytest.raises(DomainError):
            invert_phi(w("0121"), s32)
        with pytest.raises(DomainError):
            invert_psi(w("0102"), s32)

    def test_index_out_of_width(self, s32):
        with pytest.raises(DomainError):
            apply_phi(w("010"), 2, s32)  # width is q-2 = 1
        with pytest.raises(DomainError):
            apply_phi(w("010"), 0, s32)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_round_trip_partitions_whole_class(self, n, s32):
        seen = set()
        for x in all_irr(n - 1, s32):
            y = apply_phi(x, 1, s32)
            assert invert_phi(y, s32) == (x, 1)
            seen.add(y)
        for x in all_irr(n - 2, s32):
            y = apply_psi(x, 1, s32)
            assert invert_psi(y, s32) == (x, 1)
            seen.add(y)
        assert seen == set(all_irr(n, s32))

    def test_q4_width_two(self, s42):
        x = Word((0, 1, 0), 4)
        images = {apply_phi(x, i, s42) for i in (1, 2)}
        assert images == {Word((0, 1, 0, 2), 4), Word((0, 1, 0, 3), 4)}


class TestSuffixMapsK3:
    @pytest.mark.parametrize("sysname, n", [("s33", 6), ("s33", 7), ("s33", 8),
                                            ("s43", 6), ("s43", 7)])
    def test_branches_partition_whole_class(self, sysname, n, request):
        sys_ = request.getfixturevalue(sysname)
        seen = set()
        for y in all_irr(n, sys_):
            x, i, branch = invert_phi123(y, sys_)
            assert apply_phi123(x, i, branch, sys_) == y
            assert len(x) == {1: n - 1, 2: n - 2, 3: n - 3}[branch]
            seen.add(y)
        assert len(seen) == count_irr(n, sys_)

    def test_branch_two_empty_at_q3(self, s33):
        with pytest.raises(DomainError):
            apply_phi123(w("0102"), 1, 2, s33)

    def test_branch_shapes_q4(self, s43):
        x = Word((0, 1, 2, 0), 4)
        y1 = apply_phi123(x, 1, 1, s43)
        y2 = apply_phi123(x, 1, 2, s43)
        y3 = apply_phi123(x, 1, 3, s43)
        assert len(y1) == 5 and len(y2) == 6 and len(y3) == 7
        for y in (y1, y2, y3):
            assert is_irreducible(y, 3)

    def test_invalid_branch(self, s33):
        with pytest.raises(DomainError):
            apply_phi123(w("0102"), 1, 4, s33)


class TestUnrankRank:
    @pytest.mark.parametrize("n, j, expected", [
        (3, 10, "202"),
        (6, 40, "202101"),
        (4, 13, "0121"),
        (1, 1, "0"),
        (1, 3, "2"),
    ])
    def test_known_positions(self, n, j, expected, s32):
        assert unrank_irr(n, j, s32) == w(expected)
        assert rank_irr(w(expected), s32) == j

    def test_empty_word_is_rank_one(self, s32):
        assert unrank_irr(0, 1, s32) == Word((), 3)
        assert rank_irr(Word((), 3), s32) == 1

    def test_base_lengths_are_lexicographic(self, s32, s33):
        for sys_, max_base in ((s32, 3), (s33, 5)):
            for n in range(1, max_base + 1):
                words = all_irr(n, sys_)
                assert words == sorted(words, key=lambda x: x.symbols)

    @pytest.mark.parametrize("sysname, nmax", [("s32", 9), ("s33", 9), ("s42", 7), ("s43", 7)])
    def test_bijection_round_trip(self, sysname, nmax, request):
        sys_ = request.getfixturevalue(sysname)
        for n in range(1, nmax + 1):
            total = count_irr(n, sys_)
            seen = set()
            for j in range(1, total + 1):
                word = unrank_irr(n, j, sys_)
                assert is_irreducible(word, sys_.k)
                assert len(word) == n
                assert rank_irr(word, sys_) == j
                seen.add(word)
            assert len(seen) == total

    def test_block_partition_k2(self, s32):
        # the first (q-2)I(n-1) positions carry three-distinct suffixes
        for n in (4, 6, 8):
            split = (s32.q - 2) * count_irr(n - 1, s32)
            words = all_irr(n, s32)
            assert all(x.symbols[-1] != x.symbols[-3] for x in words[:split])
            assert all(x.symbols[-1] == x.symbols[-3] for x in words[split:])

    def test_block_partition_k3(self, s43):
        q = s43.q
        for n in (6, 8):
            b1 = (q - 2) * count_irr(n - 1, s43)
            b2 = (q - 3) * count_irr(n - 2, s43)
            words = all_irr(n, s43)
            assert all(x.symbols[-1] != x.symbols[-4] for x in words[:b1])
            assert all(x.symbols[-1] == x.symbols[-4] for x in words[b1:])
            for x in words[b1 + b2:]:
                s = x.symbols
                assert (s[-6] == s[-4] and s[-2] == s[-5]) or (
                    s[-6] != s[-4] and s[-2] == s[-6]
                )

    def test_rank_rejects_reducible(self, s32):
        with pytest.raises(DomainError):
            rank_irr(w("0010"), s32)

    def test_unrank_rejects_out_of_range(self, s32):
        with pytest.raises(DomainError):
            unrank_irr(4, 0, s32)
        with pytest.raises(DomainError):
            unrank_irr(4, count_irr(4, s32) + 1, s32)

    def test_alphabet_mismatch(self, s32):
        with pytest.raises(DomainError):
            rank_irr(Word((0, 1), 4), s32)

    @pytest.mark.parametrize("sysname", ["s32", "s33"])
    def test_linear_arithmetic_cost(self, sysname, request):
        sys_ = request.getfixturevalue(sysname)
        for n in (100, 300, 500):
            j = count_irr(n, sys_) // 2 + 1
            count = count_table(sys_).count
            word, ops_u = _unrank((), n, j, count, sys_)
            j_back, ops_r = _rank((), word, count, sys_)
            assert j_back == j
            assert ops_u <= 8 * n
            assert ops_r <= 8 * n

    def test_plain_path_keeps_the_window_table_small(self, s42, monkeypatch):
        # plain rank/unrank count through CountTable; only the lexicographic
        # base reads the window DP, so its layer table stays at 2k rows
        monkeypatch.setattr(enumeration, "_dps", {})
        j = count_irr(4000, s42) // 3
        assert rank_irr(unrank_irr(4000, j, s42), s42) == j
        assert len(enumeration._dp(s42).layers) <= 2 * s42.k

    def test_prefix_path_keeps_the_window_table_small(self, monkeypatch):
        # prefix classes count through a CountTable seeded from the window's
        # first 2k rows; the table grows further only for a lexicographic walk
        s63 = DupSystem(6, 3)
        monkeypatch.setattr(enumeration, "_dps", {})
        p = Word.from_string("012", 6)
        j = count_irr_prefix(p, 1000, s63) // 3
        assert rank_irr_prefix(p, unrank_irr_prefix(p, 1000, j, s63), s63) == j
        assert len(enumeration._dp(s63).layers) <= 2 * s63.k

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_round_trip(self, data):
        q = data.draw(st.sampled_from([3, 4, 5]))
        k = data.draw(st.sampled_from([2, 3]))
        sys_ = DupSystem(q, k)
        n = data.draw(st.integers(1, 30))
        j = data.draw(st.integers(1, count_irr(n, sys_)))
        word = unrank_irr(n, j, sys_)
        assert is_irreducible(word, k)
        assert rank_irr(word, sys_) == j
        p = Word(word.symbols[:data.draw(st.integers(1, n))], q)
        assert unrank_irr_prefix(p, n, rank_irr_prefix(p, word, sys_), sys_) == word


class TestPrefixUnrankRank:
    def test_singleton_when_length_equals_prefix(self, s32):
        assert unrank_irr_prefix(w("102"), 3, 1, s32) == w("102")
        assert rank_irr_prefix(w("102"), w("102"), s32) == 1

    def test_known_class_members(self, s32):
        got = [unrank_irr_prefix(w("102"), 5, j, s32) for j in (1, 2, 3)]
        assert got == [w("10201"), w("10210"), w("10212")]
        for j, word in enumerate(got, start=1):
            assert rank_irr_prefix(w("102"), word, s32) == j

    @pytest.mark.parametrize("sysname, nmax", [("s32", 8), ("s33", 8), ("s43", 7)])
    def test_round_trip_over_all_stems(self, sysname, nmax, request):
        sys_ = request.getfixturevalue(sysname)
        stems = all_irr(3, sys_)
        for prefix in stems:
            for n in range(3, nmax + 1):
                total = count_irr_prefix(prefix, n, sys_)
                for j in range(1, total + 1):
                    word = unrank_irr_prefix(prefix, n, j, sys_)
                    assert word.symbols[:3] == prefix.symbols
                    assert is_irreducible(word, sys_.k)
                    assert rank_irr_prefix(prefix, word, sys_) == j

    @pytest.mark.parametrize("q, k, n", [(3, 2, 9), (4, 2, 7), (5, 2, 6),
                                         (3, 3, 9), (4, 3, 8), (5, 3, 7)])
    def test_prefix_order_is_plain_order_restricted(self, q, k, n):
        # for |p| <= k the prefix order lists p's class by increasing plain rank
        sys_ = DupSystem(q, k)
        for length in range(1, k + 1):
            for p in all_irr(length, sys_):
                total = count_irr_prefix(p, n, sys_)
                ranks = [rank_irr(unrank_irr_prefix(p, n, j, sys_), sys_)
                         for j in range(1, total + 1)]
                assert ranks == sorted(set(ranks))

    def test_prefix_classes_tile_the_rank_space(self, s32):
        # ranks within a class are dense in 1..N_p for every stem
        n = 7
        total = sum(count_irr_prefix(p, n, s32) for p in all_irr(2, s32))
        assert total == count_irr(n, s32)

    def test_rejects_foreign_word(self, s32):
        with pytest.raises(DomainError):
            rank_irr_prefix(w("102"), w("01021"), s32)

    def test_rejects_reducible_prefix(self, s32):
        with pytest.raises(DomainError):
            unrank_irr_prefix(w("00"), 4, 1, s32)

    def test_rejects_out_of_range(self, s32):
        total = count_irr_prefix(w("102"), 5, s32)
        with pytest.raises(DomainError):
            unrank_irr_prefix(w("102"), 5, total + 1, s32)
