"""Tests for the suffix bijections and rank/unrank order isomorphisms."""

from __future__ import annotations

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import count_ops, counting_int, window_dp
from tdcode import (
    DomainError,
    DupSystem,
    Word,
    count_irr,
    enumerate_irr_bruteforce,
    is_irreducible,
    rank_irr,
    rank_irr_prefix,
    root,
    unrank_irr,
    unrank_irr_prefix,
)
from tdcode import (
    CodeSpec,
    FseCodec,
    FseParams,
    code_size,
    decode_codeword,
    encode_codeword,
)
from tdcode import enumeration, ranking
from tdcode.cli import main
from tdcode.ranking import _WalkTables, _walk_tables


def w(text: str, q: int = 3) -> Word:
    return Word.from_string(text, q)


def all_irr(n: int, sys_: DupSystem) -> list[Word]:
    return [unrank_irr(n, j, sys_) for j in range(1, count_irr(n, sys_) + 1)]


# ------------------------------------- counting big-integer operations


@pytest.fixture
def counted(monkeypatch) -> type:
    """A counting int; every class size that rank and unrank read is one,
    for the plain class and for prefix classes alike."""
    counted = counting_int()
    sizes = _WalkTables.class_sizes
    monkeypatch.setattr(_WalkTables, "class_sizes",
                        lambda walk, p, n: [counted(v) for v in sizes(walk, p, n)])
    return counted


def _unrank_word(walk: _WalkTables, p: tuple[int, ...], n: int, j: int) -> Word:
    """walk.unrank's symbols as a Word."""
    return Word(tuple(walk.unrank(p, n, j)), walk.sys.q)


def _walk_image(x: Word, i: int, branch: int, sys_: DupSystem) -> Word:
    """image(x, i, branch) as the walker's apply table gives it; x is at
    least 2k - branch long."""
    walk = _walk_tables(sys_)
    sid = walk.dp.window_sid(x.symbols)
    nxt = walk.apply[sid * walk.span + walk.starts[branch - 1] + i - 1]
    return Word(x.symbols + walk.dp.states[nxt][-branch:], sys_.q)


def _walk_preimage(y: Word, sys_: DupSystem) -> tuple[Word, int, int]:
    """preimage(y) as the walker's classify table gives it; len(y) >= 2k."""
    walk = _walk_tables(sys_)
    code = walk.classify[walk.dp.window_sid(y.symbols[:-1]) * sys_.q + y.symbols[-1]]
    branch = walk.branch[code]
    return Word(y.symbols[:-branch], sys_.q), code - walk.starts[branch - 1] + 1, branch


class TestSuffixMapsK2:
    @pytest.mark.parametrize("x, i, expected", [
        ("202", 1, "2021"),
        ("010", 1, "0102"),
        ("101", 1, "1012"),
        ("0102", 1, "01021"),
    ])
    def test_apply_phi(self, x, i, expected, s32):
        assert ref.image(w(x), i, 1, s32) == _walk_image(w(x), i, 1, s32) == w(expected)

    @pytest.mark.parametrize("x, i, expected", [
        ("01", 1, "0121"),
        ("010", 1, "01020"),
        ("202", 1, "20212"),
    ])
    def test_apply_psi(self, x, i, expected, s32):
        assert ref.image(w(x), i, 2, s32) == _walk_image(w(x), i, 2, s32) == w(expected)

    def test_invert_phi(self, s32):
        for y, x in (("0102", "010"), ("2021", "202")):
            assert ref.preimage(w(y), s32) == _walk_preimage(w(y), s32) == (w(x), 1, 1)

    def test_invert_psi(self, s32):
        assert ref.preimage(w("0121"), s32) == _walk_preimage(w("0121"), s32) == (w("01"), 1, 2)

    def test_image_classes_disjoint(self, s32):
        # a two-distinct suffix is never a phi image, and vice versa
        assert ref.preimages(w("0121"), s32) == [(w("01"), 1, 2)]
        assert ref.preimages(w("0102"), s32) == [(w("010"), 1, 1)]

    @pytest.mark.parametrize("sysname", ["s32", "s42"])
    def test_branch_widths(self, sysname, request):
        # every branch has q - 2 free symbols, so at q = 3 index 1 is the only one
        sys_ = request.getfixturevalue(sysname)
        for n in (2, 3, 4, 5):
            for x in enumerate_irr_bruteforce(n, sys_):
                for branch in (1, 2):
                    assert len(ref.free_symbols(x.symbols, branch, sys_)) == sys_.q - 2

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_round_trip_partitions_whole_class(self, n, s32):
        seen = set()
        for x in enumerate_irr_bruteforce(n - 1, s32):
            y = ref.image(x, 1, 1, s32)
            assert ref.preimage(y, s32) == (x, 1, 1)
            seen.add(y)
        for x in enumerate_irr_bruteforce(n - 2, s32):
            y = ref.image(x, 1, 2, s32)
            assert ref.preimage(y, s32) == (x, 1, 2)
            seen.add(y)
        assert seen == set(enumerate_irr_bruteforce(n, s32))

    def test_q4_width_two(self, s42):
        x = Word((0, 1, 0), 4)
        images = {ref.image(x, i, 1, s42) for i in (1, 2)}
        assert images == {_walk_image(x, i, 1, s42) for i in (1, 2)}
        assert images == {Word((0, 1, 0, 2), 4), Word((0, 1, 0, 3), 4)}


class TestSuffixMapsK3:
    @pytest.mark.parametrize("sysname, n", [("s33", 6), ("s33", 7), ("s33", 8),
                                            ("s43", 6), ("s43", 7)])
    def test_branches_partition_whole_class(self, sysname, n, request):
        # each irreducible word is the image of exactly one (x, i, branch)
        sys_ = request.getfixturevalue(sysname)
        seen = set()
        for y in enumerate_irr_bruteforce(n, sys_):
            x, i, branch = ref.preimage(y, sys_)
            assert ref.image(x, i, branch, sys_) == y
            assert len(x) == {1: n - 1, 2: n - 2, 3: n - 3}[branch]
            assert is_irreducible(x, 3)
            seen.add(y)
        assert len(seen) == count_irr(n, sys_)

    def test_branch_two_empty_at_q3(self, s33):
        # branch 2 has q - 3 free symbols
        for n in (4, 5, 6):
            for x in enumerate_irr_bruteforce(n, s33):
                assert ref.free_symbols(x.symbols, 2, s33) == []

    def test_branch_shapes_q4(self, s43):
        x = Word((0, 1, 2, 0, 3), 4)
        y1 = ref.image(x, 1, 1, s43)
        y2 = ref.image(x, 1, 2, s43)
        y3 = ref.image(x, 1, 3, s43)
        assert len(y1) == 6 and len(y2) == 7 and len(y3) == 8
        for branch, y in enumerate((y1, y2, y3), start=1):
            assert is_irreducible(y, 3)
            assert y == _walk_image(x, 1, branch, s43)

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_step_codes_name_branches_one_to_k(self, q):
        # branch b holds c[b - 1] step codes, in branch order
        walk = _walk_tables(DupSystem(q, 3))
        assert walk.branch == (1,) * (q - 2) + (2,) * (q - 3) + (3,) * (q - 2)


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

    @pytest.mark.parametrize("sys_", [pytest.param(DupSystem(q, k), id=f"s{q}{k}")
                                      for q in (3, 4, 5, 8) for k in (2, 3)])
    def test_linear_arithmetic_cost(self, sys_, counted):
        # O(n) big-integer operations, as the numbers themselves count them
        walk = _walk_tables(sys_)
        for p in (Word((), sys_.q), Word((0, 1, 2), sys_.q)):
            for n in (100, 300, 500):
                total = ref.size(p, n, sys_)
                for j in (1, total // 2 + 1, total):
                    word, ops_u = count_ops(counted, _unrank_word, walk, p.symbols, n, counted(j))
                    j_back, ops_r = count_ops(counted, walk.rank, p.symbols, word)
                    assert j_back == j
                    assert ops_u <= 8 * n
                    assert ops_r <= 8 * n

    def test_plain_path_keeps_the_window_table_small(self, s42, fresh_tables):
        # plain rank/unrank count through count_table(sys), the empty
        # window's table; the other pattern tables stay at their 2k seed rows
        j = count_irr(4000, s42) // 3
        assert rank_irr(unrank_irr(4000, j, s42), s42) == j
        assert enumeration._dp.cache_info().misses == 1  # the walker's, shared
        dp = enumeration._dp(s42)
        assert dp.counts(0) is enumeration.count_table(s42)
        assert all(len(t._values) == 2 * s42.k for t in dp.tables[1:])

    def test_prefix_path_keeps_the_window_table_small(self, fresh_tables):
        # prefix classes count through the table of the prefix's pattern; the
        # lexicographic base walk grows no other table past its 2k seed rows
        s63 = DupSystem(6, 3)
        p = Word.from_string("012", 6)
        j = ref.size(p, 1000, s63) // 3
        assert rank_irr_prefix(p, unrank_irr_prefix(p, 1000, j, s63), s63) == j
        assert enumeration._dp.cache_info().misses == 1  # the walker's, shared
        dp = enumeration._dp(s63)
        own = dp.counts(dp.window_sid(p.symbols))
        assert all(len(t._values) <= 2 * s63.k for t in dp.tables if t is not own)

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
                total = ref.size(prefix, n, sys_)
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
                total = ref.size(p, n, sys_)
                ranks = [rank_irr(unrank_irr_prefix(p, n, j, sys_), sys_)
                         for j in range(1, total + 1)]
                assert ranks == sorted(set(ranks))

    def test_prefix_classes_tile_the_rank_space(self, s32):
        # ranks within a class are dense in 1..N_p for every stem, N_p the
        # class's brute-force size
        n, total = 7, 0
        words = enumerate_irr_bruteforce(n, s32)
        for p in enumerate_irr_bruteforce(2, s32):
            size = sum(1 for x in words if x.symbols[:2] == p.symbols)
            assert unrank_irr_prefix(p, n, size, s32).symbols[:2] == p.symbols
            with pytest.raises(DomainError):
                unrank_irr_prefix(p, n, size + 1, s32)
            total += size
        assert total == count_irr(n, s32)

    def test_rejects_foreign_word(self, s32):
        with pytest.raises(DomainError):
            rank_irr_prefix(w("102"), w("01021"), s32)

    def test_rejects_reducible_prefix(self, s32):
        with pytest.raises(DomainError):
            unrank_irr_prefix(w("00"), 4, 1, s32)

    def test_rejects_out_of_range(self, s32):
        total = ref.size(w("102"), 5, s32)
        assert total == 3
        with pytest.raises(DomainError):
            unrank_irr_prefix(w("102"), 5, total + 1, s32)


# ------------------------------------------- the window walk vs the maps


ENGINE_SYSTEMS = [(q, k) for q in range(3, 7) for k in (2, 3)]


class TestWindowWalk:
    @pytest.mark.parametrize("q, k", ENGINE_SYSTEMS)
    def test_agrees_with_the_suffix_map_recursion(self, q, k):
        sys_ = DupSystem(q, k)
        walk = _walk_tables(sys_)
        rng = random.Random(q * 10 + k)
        for n in [0, 1, 2 * k - 1, 2 * k, 2 * k + 1] + [rng.randint(1, 200) for _ in range(3)]:
            j = rng.randint(1, count_irr(n, sys_))
            word = _unrank_word(walk, (), n, j)
            assert word == ref.unrank(Word((), q), n, j, sys_), (n, j)
            assert walk.rank((), word) == j == ref.rank(Word((), q), word, sys_)
        for _ in range(4):
            length = rng.randint(1, 5)
            p = unrank_irr(length, rng.randint(1, count_irr(length, sys_)), sys_)
            n = rng.randint(length, 200)
            j = rng.randint(1, ref.size(p, n, sys_))
            word = _unrank_word(walk, p.symbols, n, j)
            assert word == ref.unrank(p, n, j, sys_), (p, n, j)
            assert walk.rank(p.symbols, word) == j == ref.rank(p, word, sys_)

    @pytest.mark.parametrize("q, k", ENGINE_SYSTEMS)
    def test_classify_table_is_the_classifier(self, q, k):
        sys_ = DupSystem(q, k)
        dp, walk = enumeration._dp(sys_), _walk_tables(sys_)
        assert len(walk.classify) == len(dp.step) == len(dp.states) * q
        for cell, nxt in enumerate(dp.step):
            state, c = dp.states[cell // q], cell % q
            code = walk.classify[cell]
            if len(state) < dp.width or nxt < 0:
                assert code == -1
                continue
            _, i, branch = ref.preimage(Word(state + (c,), q), sys_)
            assert walk.branch[code] == branch
            assert code - walk.starts[branch - 1] == i - 1

    @pytest.mark.parametrize("q, k", ENGINE_SYSTEMS)
    def test_apply_table_is_the_suffix_maps(self, q, k):
        # from each window, every branch whose image is longer than a window
        # steps to the image's last 2k - 1 symbols; other cells hold -1
        sys_ = DupSystem(q, k)
        dp, walk = enumeration._dp(sys_), _walk_tables(sys_)
        assert len(walk.apply) == len(dp.states) * walk.span
        expected = [-1] * len(walk.apply)
        for sid, state in enumerate(dp.states):
            for branch, start in zip(range(1, k + 1), walk.starts):
                if len(state) + branch < 2 * k:
                    continue
                for i in range(1, ref.widths(sys_)[branch - 1] + 1):
                    y = ref.image(Word(state, q), i, branch, sys_)
                    expected[sid * walk.span + start + i - 1] = dp.window_sid(y.symbols)
        assert walk.apply == expected

    @pytest.mark.parametrize("q, k", ENGINE_SYSTEMS)
    def test_step_table_is_the_stack_rule(self, q, k):
        sys_ = DupSystem(q, k)
        dp = enumeration._dp(sys_)
        assert len(dp.step) == len(dp.states) * q
        assert dp.window_sid(()) == 0  # reduce starts from window 0
        for cell, nxt in enumerate(dp.step):
            state, c = dp.states[cell // q], cell % q
            # the stack rule drops c and t - 1 symbols of an irreducible state
            dropped = len(state) + 1 - len(root(Word(state + (c,), q), sys_))
            if dropped == 0:
                assert nxt == dp.window_sid(state + (c,)) * q
            else:
                assert nxt == -dropped

    @pytest.mark.parametrize("q, k", ENGINE_SYSTEMS)
    def test_reduce_walks_to_the_root(self, q, k):
        # the window DP's one table walk, which code-mode decode, rank and the
        # FSE decoder share: from the empty window it reduces to the root;
        # from a full window it stops at the first square instead
        sys_, rng = DupSystem(q, k), random.Random(q * 10 + k)
        dp = enumeration._dp(sys_)
        for n in [*range(40), 3 * len(dp.step)]:
            y = Word(tuple(rng.randrange(q) for _ in range(n)), q)
            cells = dp.reduce(y.symbols)
            assert tuple(c % q for c in cells) == root(y, sys_).symbols
            # each cell's row is the window after the cells before it
            rows = [0, *(dp.step[c] for c in cells)][:len(cells)]
            assert [c - c % q for c in cells] == rows
            assert all(c is dp.cell_ids[c] for c in cells)  # one int per cell
            start = rng.randrange(dp.offsets[dp.width], len(dp.states))
            cells = dp.reduce(y.symbols, start * q)
            extends = 0
            while extends < n and is_irreducible(
                    Word(dp.states[start] + y.symbols[:extends + 1], q), k):
                extends += 1
            assert tuple(c % q for c in cells) == y.symbols[:extends]
            rows = [start * q, *(dp.step[c] for c in cells)][:len(cells)]
            assert [c - c % q for c in cells] == rows

    def test_reduce_shares_the_ints_of_small_tables_only(self):
        # past 2**15 cells a shared int is a cache miss, dearer than a new
        # one, so the cells are machine ints in an array there; code-mode
        # decode ranks them as it ranks a list
        assert len(enumeration._dp(DupSystem(6, 3)).cell_ids) == 26322
        sys_ = DupSystem(8, 3)
        dp, rng = enumeration._dp(sys_), random.Random(83)
        assert isinstance(dp.cell_ids, range)
        spec = CodeSpec(sys_, 40)
        for j in (1, 12345, code_size(40, sys_)):
            y = encode_codeword(j, spec).symbols
            y += tuple(rng.randrange(8) for _ in range(300))
            cells = dp.reduce(y)
            assert not isinstance(cells, list)
            x = root(Word(y, 8), sys_)
            assert tuple(c % 8 for c in cells) == x.symbols
            assert _walk_tables(sys_).rank_cells((), cells) == rank_irr(x, sys_)

    def test_counting_and_the_fse_never_build_the_tables(self, s43, fresh_tables, tmp_path):
        assert code_size(500, s43) > 0
        codec = FseCodec(FseParams(s43, 13, 19))
        strand = codec.encode_values([0, 5, 4**13 - 1])
        msg, enc, noisy, out = (tmp_path / f for f in ("msg", "enc", "noisy", "out"))
        msg.write_bytes(bytes(range(256)) * 4)
        assert main(["encode", "--mode", "fse", "-q", "4", "-k", "3", "-e", "0.05",
                     "-i", str(msg), "-o", str(enc)]) == 0
        # counting and encoding reduce nothing, so build no table of the step
        # table's size either
        assert "cell_ids" not in vars(enumeration._dp(s43))
        assert codec.decode_values(strand) == [0, 5, 4**13 - 1]
        # nor does the CLI's fse decode path build the walker's tables
        assert main(["channel", "-t", "500", "-i", str(enc), "-o", str(noisy)]) == 0
        assert main(["decode", "-i", str(noisy), "-o", str(out)]) == 0
        assert out.read_bytes() == msg.read_bytes()
        assert ranking._walk_tables.cache_info().misses == 0
        assert decode_codeword(encode_codeword(7, CodeSpec(s43, 12)), CodeSpec(s43, 12)) == 7
        assert ranking._walk_tables.cache_info().misses == 1

    @pytest.mark.parametrize("word, k", [("0010", 2), ("0121010", 2), ("012012", 3)])
    def test_reducible_word_message(self, word, k):
        sys_ = DupSystem(3, k)
        message = f"^{re.escape(word)} is not irreducible for k = {k}$"
        with pytest.raises(DomainError, match=message):
            rank_irr(w(word), sys_)
        with pytest.raises(DomainError, match=message):
            rank_irr_prefix(w(word[:1]), w(word), sys_)

    def test_reducible_at_the_end_of_a_long_word(self, s42):
        x = unrank_irr(300, count_irr(300, s42) // 5, s42)
        y = Word(x.symbols + x.symbols[-1:], x.q)
        with pytest.raises(DomainError, match="is not irreducible for k = 2$"):
            rank_irr(y, s42)


# ------------------------------------------------------ blocks of levels


BLOCK_SYSTEMS = [(q, k) for q in (3, 4, 5, 8) for k in (2, 3)]


def _block_length(q: int) -> int:
    # levels per block on a path of width-(q - 2) branches, the widest: the
    # block's width product times q - 2 stays one digit, for at most
    # bits_per_digit levels (width 1, q = 3, never grows the product)
    bits = sys.int_info.bits_per_digit
    w, levels = q - 2, 0
    while levels < bits and w ** levels * w < 1 << bits:
        levels += 1
    return levels


def _block_classes(sys_: DupSystem) -> list[tuple[Word, int]]:
    # the plain class and two prefix classes, each with its lexicographic
    # base length above the prefix
    q, k = sys_.q, sys_.k
    prefixes = [Word((), q), Word((0,), q), unrank_irr(2 * k, count_irr(2 * k, sys_) // 2, sys_)]
    return [(p, max(k - 1, 2 * k - 1 - len(p))) for p in prefixes]


class TestBlocks:
    @pytest.mark.parametrize("q, k", BLOCK_SYSTEMS)
    def test_level_counts_around_a_block_agree_with_the_recursion(self, q, k):
        # L levels: L one-symbol steps for the first ranks, L k-symbol steps
        # for the last; L = B - 1, B, B + 1 and 2B put the block's end just
        # before, at and just after the last level, and at a second block's end
        sys_ = DupSystem(q, k)
        walk = _walk_tables(sys_)
        blocks = _block_length(q)
        for p, base in _block_classes(sys_):
            for levels in (blocks - 1, blocks, blocks + 1, 2 * blocks):
                for n in (len(p) + base + levels, len(p) + base + k * levels):
                    total = ref.size(p, n, sys_)
                    for j in sorted({j for j in (1, 2, total // 2, total - 1, total) if j >= 1}):
                        word = _unrank_word(walk, p.symbols, n, j)
                        assert word == ref.unrank(p, n, j, sys_), (p, n, j)
                        assert walk.rank(p.symbols, word) == j == ref.rank(p, word, sys_)

    @pytest.mark.parametrize("q, k", BLOCK_SYSTEMS)
    def test_op_counts_follow_the_blocks(self, q, k, counted):
        # Unrank subtracts one from j, then per level: rank 1 takes the first
        # branch after a multiply and a compare; the last rank takes the last
        # branch after a multiply, a compare and a subtract per lower branch
        # that holds words.  Each block adds its divmod.  A prefix class's
        # lexicographic base walk compares at each successor window it takes
        # or passes, and subtracts at each one it passes: rank 1 takes the
        # first, the last rank passes all but the last.  The plain class's
        # base adds its rank to its length's first window id, and the first
        # apply lookup multiplies and adds that counted id.  Ranking the first
        # word takes no lower branch, so all its numbers stay plain ints;
        # ranking the last adds per level the lower blocks (a multiply and
        # an add each), per block its sum, a multiply (none for the bottom
        # block) and an add, and one add for the final + 1
        sys_ = DupSystem(q, k)
        walk, dp = _walk_tables(sys_), enumeration._dp(sys_)
        blocks = _block_length(q)
        lower = sum(1 for width in ref.widths(sys_)[:-1] if width)
        for p, base in _block_classes(sys_):
            first_walk = last_walk = 3  # dp.offsets[r] + y, then sid * span + code
            if len(p):
                sid = dp.window_sid(p.symbols)
                first_walk, last_walk = base, 0
                for _ in range(base):
                    last_walk += 2 * len(dp.succ[sid]) - 1
                    sid = dp.succ[sid][-1]
            for levels in (blocks - 1, blocks, blocks + 1, 2 * blocks):
                divmods = -(-levels // blocks)
                n = len(p) + base + levels
                word, ops = count_ops(counted, _unrank_word, walk, p.symbols, n, counted(1))
                assert ops == 1 + 2 * levels + divmods + first_walk
                assert count_ops(counted, walk.rank, p.symbols, word) == (1, 0)
                n = len(p) + base + k * levels
                total = ref.size(p, n, sys_)
                word, ops = count_ops(counted, _unrank_word, walk, p.symbols, n, counted(total))
                assert ops == 1 + 3 * lower * levels + divmods + last_walk
                ranked = count_ops(counted, walk.rank, p.symbols, word)
                assert ranked == (total, 2 * lower * levels + 3 * divmods)

    @pytest.mark.parametrize("q, k", BLOCK_SYSTEMS)
    def test_plain_base_tables_are_the_lexicographic_walk(self, q, k):
        sys_ = DupSystem(q, k)
        # the j-th length-r word of the plain base is window dp.offsets[r] + j
        dp = enumeration._dp(sys_)
        empty = dp.window_sid(())
        layers = window_dp(dp, dp.width)
        ends = [*dp.offsets, len(dp.states)]
        assert len(dp.offsets) == dp.width + 1 and ends == sorted(ends) and ends[0] == 0
        for r in range(dp.width + 1):
            row = dp.states[ends[r]:ends[r + 1]]
            assert {len(state) for state in row} == {r}
            assert row == sorted(row) and len(row) == layers[r][empty]
            for j, state in enumerate(row):
                out: list[int] = []
                assert enumeration._kth(dp, empty, r, (j,), out) == ends[r] + j
                assert tuple(out) == state
                assert enumeration._index(dp, empty, r, (state,)) == [j]
