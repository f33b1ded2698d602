"""Tests for counting, suffix-window extension counts, degrees, and rates."""

from __future__ import annotations

import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import count_ops, counting_int, walk_extensions, window_dp
from tdcode import (
    DomainError,
    DupSystem,
    FseParams,
    Word,
    asymptotic_rate,
    choose_params,
    code_size,
    count_irr,
    delta_min_degree,
    is_irreducible,
    min_outdegree_bruteforce,
    unrank_irr,
    unrank_irr_prefix,
)
from tdcode import enumeration
from tdcode.enumeration import _dp, _index


def w(text: str, q: int = 3) -> Word:
    return Word.from_string(text, q)


def extension_count(x: Word, r: int, sys_: DupSystem) -> int:
    """The window DP's number of valid length-r extensions of x."""
    dp = _dp(sys_)
    return dp.counts(dp.window_sid(x.symbols)).count(r)


COUNTS_32 = [3, 6, 12, 18, 30, 48, 78, 126, 204, 330]
COUNTS_33 = [3, 6, 12, 18, 30, 42, 60, 90, 132, 192]
COUNTS_42 = [4, 12, 36, 96, 264, 720, 1968, 5376]
COUNTS_43 = [4, 12, 36, 96, 264, 696, 1848]


class TestCountIrr:
    @pytest.mark.parametrize("n, expected", list(enumerate(COUNTS_32, start=1)))
    def test_q3_k2(self, n, expected, s32):
        assert count_irr(n, s32) == expected

    @pytest.mark.parametrize("n, expected", list(enumerate(COUNTS_33, start=1)))
    def test_q3_k3(self, n, expected, s33):
        assert count_irr(n, s33) == expected

    @pytest.mark.parametrize("n, expected", list(enumerate(COUNTS_42, start=1)))
    def test_q4_k2(self, n, expected, s42):
        assert count_irr(n, s42) == expected

    @pytest.mark.parametrize("n, expected", list(enumerate(COUNTS_43, start=1)))
    def test_q4_k3(self, n, expected, s43):
        assert count_irr(n, s43) == expected

    def test_empty_word(self, s32, s33):
        assert count_irr(0, s32) == 1
        assert count_irr(0, s33) == 1

    def test_q5_k2_base(self):
        assert count_irr(2, DupSystem(5, 2)) == 20

    def test_negative_length(self, s32):
        with pytest.raises(DomainError):
            count_irr(-1, s32)

    @pytest.mark.parametrize("q", [3, 4, 5, 8])
    def test_recursion_step_k2(self, q):
        sys_ = DupSystem(q, 2)
        for n in range(4, 12):
            assert count_irr(n, sys_) == (q - 2) * (
                count_irr(n - 1, sys_) + count_irr(n - 2, sys_)
            )

    @pytest.mark.parametrize("q", [3, 4, 5, 8])
    def test_recursion_step_k3(self, q):
        sys_ = DupSystem(q, 3)
        for n in range(6, 12):
            assert count_irr(n, sys_) == (
                (q - 2) * count_irr(n - 1, sys_)
                + (q - 3) * count_irr(n - 2, sys_)
                + (q - 2) * count_irr(n - 3, sys_)
            )

    @pytest.mark.parametrize("q", [*range(3, 11), 40, 1000])
    def test_base_lengths_match_closed_forms(self, q):
        # the pattern DP seeds I(n) for n < 2k at any q, with no window built
        for k in (2, 3):
            sys_ = DupSystem(q, k)
            for n in range(2 * k):
                assert count_irr(n, sys_) == ref.count_closed_form(n, sys_), (q, k, n)

    def test_large_n_is_fast_and_exact_integer(self, s32):
        value = count_irr(2000, s32)
        assert isinstance(value, int)
        assert value % 3 == 0  # every base count is a multiple of q
        assert value > 10**400


class TestCodeSize:
    @pytest.mark.parametrize("n, sysname, expected", [
        (4, "s32", 39),
        (6, "s32", 117),
        (3, "s33", 21),
    ])
    def test_known_sizes(self, n, sysname, expected, request):
        assert code_size(n, request.getfixturevalue(sysname)) == expected

    @pytest.mark.parametrize("sysname, n", [("s43", 5), ("s32", 4)])
    def test_is_prefix_sum_of_counts(self, sysname, n, request):
        sys_ = request.getfixturevalue(sysname)
        assert code_size(n, sys_) == sum(count_irr(i, sys_) for i in range(1, n + 1))

    def test_requires_positive_length(self, s32):
        with pytest.raises(DomainError):
            code_size(0, s32)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("q", range(3, 9))
    def test_total_is_the_sum_of_counts(self, q, k):
        # the telescoped sum, for every pattern's class, at every length; on
        # copies of the seeds, so the shared tables do not grow
        sys_ = DupSystem(q, k)
        for seeded in enumeration._patterns(sys_)[1]:
            table, running = enumeration.CountTable(sys_, seeded._values[:2 * k]), 0
            for n in range(301):
                running += table.count(n) if n else 0
                assert table.total(n) == running, (q, k, n)

    @pytest.mark.parametrize("sysname", ["s42", "s43"])
    def test_total_costs_the_same_at_any_length(self, sysname, request):
        # once the counts are in, a sum reads the first 2k and the top k of them
        table = enumeration.CountTable(request.getfixturevalue(sysname))
        table.count(8000)
        counted = counting_int()
        table._values[:] = map(counted, table._values)
        at_1000, ops_1000 = count_ops(counted, table.total, 1000)
        at_8000, ops_8000 = count_ops(counted, table.total, 8000)
        assert (at_1000, at_8000) == (sum(table._values[1:1001]), sum(table._values[1:8001]))
        assert ops_1000 == ops_8000

    def test_keeps_one_list_of_counts(self, fresh_tables):
        # the counts are O(n**2) bits; a second list, of their prefix sums,
        # would double the peak
        sys_ = DupSystem(4, 2)
        tracemalloc.start()
        try:
            code_size(6000, sys_)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(sys.getsizeof(v) for v in enumeration.count_table(sys_)._values)
        assert peak < 1.25 * kept


class TestExtensions:
    @pytest.mark.parametrize("sysname", ["s32", "s33", "s43"])
    @pytest.mark.parametrize("prefix, r", [("0", 3), ("01", 2), ("012", 3), ("0102", 2)])
    def test_iter_matches_count_and_is_lexicographic(self, prefix, r, sysname, request):
        sys_ = request.getfixturevalue(sysname)
        word = Word.from_string(prefix, sys_.q)
        ext = walk_extensions(word, r, sys_)
        assert len(ext) == extension_count(word, r, sys_)
        assert ext == ref.extensions(word, r, sys_)
        assert ext == sorted(ext, key=lambda e: e.symbols)
        assert all(is_irreducible(Word(word.symbols + e.symbols, sys_.q), sys_.k) for e in ext)
        assert all(len(e) == r for e in ext)

    def test_kth_extension_and_index_invert(self, s33):
        word = w("01210")
        dp = _dp(s33)
        sid = dp.window_sid(word.symbols)
        for j, ext in enumerate(walk_extensions(word, 4, s33)):
            end = dp.window_sid(word.symbols + ext.symbols)
            assert _index(dp, sid, 4, (ext.symbols,)) == [j]
            assert dp.step[dp.reduce(ext.symbols, sid * s33.q)[-1]] == end * s33.q

    def test_extension_index_rejects_square(self, s32):
        # appending 10 to 010 creates the square 0101 at its first symbol,
        # offset 0; appending 22 creates 22 at offset 1: the walk from the
        # window stops there
        dp = _dp(s32)
        sid = dp.window_sid((0, 1, 0))
        assert len(dp.reduce((1, 0), sid * s32.q)) == 0
        assert len(dp.reduce((2, 2), sid * s32.q)) == 1

    def test_counts_from_empty_word(self, s32, s33):
        assert extension_count(Word((), 3), 5, s32) == count_irr(5, s32)
        assert extension_count(Word((), 3), 5, s33) == count_irr(5, s33)

    def test_level_rows_count_once_per_table(self, monkeypatch):
        # a walk at the state-length cap reads every table's list in place
        # (it made 43046 count calls when the rows were filled one at a time)
        dp = _dp(DupSystem(8, 3))
        calls = []
        count = enumeration.CountTable.count
        monkeypatch.setattr(enumeration.CountTable, "count",
                            lambda table, n: calls.append(n) or count(table, n))
        rows = dp.level_rows(2048)
        assert len(calls) <= len(dp.tables)
        monkeypatch.undo()
        assert len(rows) == 2048
        for i in (0, 1, 1000, 2047):
            assert rows[i] == tuple(t.count(2047 - i) for t in dp.tables)
        assert dp.level_rows(0) == []

    def test_reducible_stem_rejected(self, s32):
        with pytest.raises(DomainError):
            extension_count(w("00"), 2, s32)


def prefix_count(p: Word, n: int, sys_: DupSystem) -> int:
    """The window DP's size of p's class at length n, as the prefix
    bijection reads it."""
    return extension_count(p, n - len(p), sys_)


class TestCountIrrPrefix:
    @pytest.mark.parametrize("prefix, n, expected", [
        ("102", 5, 3),
        ("012", 6, 5),
        ("010", 3, 1),
        ("0", 1, 1),
    ])
    def test_known_values(self, prefix, n, expected, s32):
        assert prefix_count(w(prefix), n, s32) == expected
        assert ref.size(w(prefix), n, s32) == expected

    def test_requires_prefix_fits(self, s32):
        with pytest.raises(DomainError, match="shorter than the prefix"):
            unrank_irr_prefix(w("010"), 2, 1, s32)

    @pytest.mark.parametrize("sysname, n", [("s32", 7), ("s33", 8), ("s43", 6)])
    def test_prefix_classes_partition_all_words(self, sysname, n, request):
        sys_ = request.getfixturevalue(sysname)
        stems = [unrank_irr(3, j, sys_) for j in range(1, count_irr(3, sys_) + 1)]
        assert sum(prefix_count(p, n, sys_) for p in stems) == count_irr(n, sys_)


DELTA_32 = {m: v for m, v in zip(range(3, 16),
            [3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987])}


class TestDeltaMinDegree:
    @pytest.mark.parametrize("m, expected", sorted(DELTA_32.items()))
    def test_q3_k2_fibonacci_pattern(self, m, expected, s32):
        assert delta_min_degree(m, s32) == expected

    @pytest.mark.parametrize("m, expected", [(5, 4), (6, 6), (7, 9), (8, 13)])
    def test_q3_k3(self, m, expected, s33):
        assert delta_min_degree(m, s33) == expected

    def test_q4_k3_base(self, s43):
        assert delta_min_degree(5, s43) == 98

    def test_below_minimum_state_length(self, s32, s33):
        with pytest.raises(DomainError):
            delta_min_degree(2, s32)
        with pytest.raises(DomainError):
            delta_min_degree(4, s33)

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_recursion_step_matches_count_recursion(self, q):
        # above the base window lengths, degrees satisfy the same recursion
        sys_ = DupSystem(q, 2)
        for m in range(5, 12):
            assert delta_min_degree(m, sys_) == (q - 2) * (
                delta_min_degree(m - 1, sys_) + delta_min_degree(m - 2, sys_)
            )

    def test_closed_form_agreement_k2(self, s32, s42):
        for sys_ in (s32, s42):
            for m in (3, 4):
                assert ref.delta_closed_form(m, sys_) == delta_min_degree(m, sys_), (sys_, m)

    @pytest.mark.parametrize("q", [40, 1000])
    def test_closed_forms_at_large_alphabets(self, q):
        # the pattern DP's minima hold past the window cap; k = 3, m = 7's
        # recorded form is left out, since it disagrees with exhaustive counting
        for k, m in ((2, 3), (2, 4), (3, 5), (3, 6)):
            sys_ = DupSystem(q, k)
            assert delta_min_degree(m, sys_) == ref.delta_closed_form(m, sys_), (q, k, m)

    def test_closed_form_m7_disagrees_k3(self, s33):
        # the recorded degree polynomial for the longest k=3 base window is
        # wrong; the exhaustive value wins
        for m in (5, 6):
            assert ref.delta_closed_form(m, s33) == delta_min_degree(m, s33)
        assert delta_min_degree(7, s33) == min_outdegree_bruteforce(7, s33) == 9
        assert ref.delta_closed_form(7, s33) == 471


GUARD_SYSTEMS = [(q, k) for q in range(3, 7) for k in (2, 3)]


class TestRecursionAgainstWindowDP:
    """Exact guards for the shared count recursion: every value it yields
    equals the direct suffix-window DP."""

    @pytest.mark.parametrize("q, k", GUARD_SYSTEMS)
    def test_delta_is_the_full_window_minimum(self, q, k):
        sys_ = DupSystem(q, k)
        dp = _dp(sys_)
        width = 2 * k - 1
        full = [sid for sid, w in enumerate(dp.states) if len(w) == width]
        layers = window_dp(dp, 60)
        for m in range(width, 61):
            assert delta_min_degree(m, sys_) == min(layers[m][sid] for sid in full)

    @pytest.mark.parametrize("q, k", GUARD_SYSTEMS)
    def test_counts_are_the_dp_from_the_empty_window(self, q, k):
        sys_ = DupSystem(q, k)
        dp = _dp(sys_)
        empty = dp.window_sid(())
        layers = window_dp(dp, 60)
        for n in range(61):
            assert count_irr(n, sys_) == layers[n][empty]

    @pytest.mark.parametrize("q, k", GUARD_SYSTEMS)
    def test_every_window_follows_the_count_recursion(self, q, k):
        # written out here, independently of the package's coefficients
        coeffs = (q - 2, q - 2) if k == 2 else (q - 2, q - 3, q - 2)
        dp = _dp(DupSystem(q, k))
        layers = window_dp(dp, 40)
        for r in range(2 * k, 41):
            for sid in range(len(dp.states)):
                assert layers[r][sid] == sum(
                    c * layers[r - 1 - i][sid] for i, c in enumerate(coeffs)
                ), (r, dp.states[sid])
        # the window tables run that recursion from the first 2k rows
        for sid, state in enumerate(dp.states):
            x = Word(state, q)
            assert [extension_count(x, r, dp.sys) for r in range(41)] == [
                layers[r][sid] for r in range(41)
            ], state

    @pytest.mark.parametrize("q, k", [(q, k) for q in range(3, 9) for k in (2, 3)])
    def test_every_window_counts_through_its_pattern(self, q, k):
        # the one store of window counts is per equality pattern: each
        # window's table, read through its pattern, is its direct DP column
        dp = _dp(DupSystem(q, k))
        layers = window_dp(dp, 40)
        for sid, state in enumerate(dp.states):
            table = dp.counts(sid)
            assert [table.count(r) for r in range(41)] == [row[sid] for row in layers], state


# four-decimal reference values; some truncate the last digit (e.g.
# (4,2) 0.724992 -> 0.7249) and some round it (e.g. (6,2) 0.878757 ->
# 0.8788), so agreement is only guaranteed to one unit in that place
TABLE_RATES = {
    (3, 2): 0.4380, (4, 2): 0.7249, (5, 2): 0.8280,
    (6, 2): 0.8788, (7, 2): 0.9081, (8, 2): 0.9269,
    (3, 3): 0.3479, (4, 3): 0.7054, (5, 3): 0.8208,
    (6, 3): 0.8753, (7, 3): 0.9062, (8, 3): 0.9258,
}

# frozen against independent growth-ratio checks (count_irr(n+1)/count_irr(n)
# converges to lam, e.g. q=4 k=2 gives 1+sqrt(3)) and the closed forms below
EXACT_RATES = {
    (3, 2): 0.4380179, (4, 2): 0.7249922, (5, 2): 0.8280566,
    (6, 2): 0.8787568, (7, 2): 0.9081317, (8, 2): 0.9269788,
    (3, 3): 0.3479345, (4, 3): 0.7054330, (5, 3): 0.8208133,
    (6, 3): 0.8753269, (7, 3): 0.9062539, (8, 3): 0.9258464,
}


class TestAsymptoticRate:
    @pytest.mark.parametrize("q, k", sorted(EXACT_RATES))
    def test_rate_matches_frozen_value(self, q, k):
        info = asymptotic_rate(DupSystem(q, k))
        assert info.rate == pytest.approx(EXACT_RATES[(q, k)], abs=1e-6)

    @pytest.mark.parametrize("q, k", sorted(TABLE_RATES))
    def test_rate_matches_reference_to_last_digit(self, q, k):
        info = asymptotic_rate(DupSystem(q, k))
        assert abs(info.rate - TABLE_RATES[(q, k)]) < 1e-4

    def test_growth_factor_k2_closed_form(self):
        for q in (3, 5, 8):
            info = asymptotic_rate(DupSystem(q, 2))
            assert info.lam == pytest.approx((q - 2 + math.sqrt(q * q - 4)) / 2)

    def test_growth_factor_k3_is_cubic_root(self):
        for q in (3, 4, 6):
            info = asymptotic_rate(DupSystem(q, 3))
            lam = info.lam
            assert lam**3 - (q - 2) * lam**2 - (q - 3) * lam - (q - 2) == pytest.approx(0, abs=1e-9)
            assert 1 < lam < q

    def test_kappa_q3_k2(self, s32):
        phi = (1 + math.sqrt(5)) / 2
        assert asymptotic_rate(s32).kappa == pytest.approx(3 / phi**3)

    def test_rate_alone_builds_no_window_dp(self, fresh_tables):
        # rates, kappa, minimum out-degrees and parameters read the pattern
        # DP only, so they answer past the window cap (q = 40)
        for q, eps in ((6, 0.01), (8, 0.005), (40, 0.01)):
            sys_ = DupSystem(q, 3)
            info = asymptotic_rate(sys_)
            assert info.rate == pytest.approx(math.log(info.lam, q))
            kappa = info.kappa
            assert kappa == min(delta_min_degree(m, sys_) / info.lam**m for m in (5, 6, 7))
            params = choose_params(eps, sys_)
            assert sys_.q**params.ell <= delta_min_degree(params.m, sys_)
        assert enumeration._dp.cache_info().misses == 0

    def test_rate_matches_count_growth(self, s32):
        empirical = math.log(count_irr(400, s32), 3) / 400
        assert empirical == pytest.approx(asymptotic_rate(s32).rate, abs=5e-3)


class TestChooseParams:
    @pytest.mark.parametrize("eps, expected", [
        (0.2, (1, 3)), (0.1, (3, 8)), (0.05, (6, 15)), (0.02, (16, 38)),
    ])
    def test_q3_k2_parameter_choices(self, eps, expected, s32):
        params = choose_params(eps, s32)
        assert (params.ell, params.m) == expected

    @pytest.mark.parametrize("q, k", [(3, 2), (3, 3), (4, 2), (4, 3), (6, 3)])
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.02])
    def test_guarantees_hold(self, q, k, eps):
        sys_ = DupSystem(q, k)
        params = choose_params(eps, sys_)
        assert q**params.ell <= delta_min_degree(params.m, sys_)
        assert params.ell / params.m + 1e-12 >= asymptotic_rate(sys_).rate - eps

    @pytest.mark.parametrize("q, k, eps, m", [(3, 2, 0.007, 108), (4, 2, 0.021, 43)])
    def test_state_length_is_the_smallest_admissible(self, q, k, eps, m):
        # a float start one too high used to be kept as it was
        sys_ = DupSystem(q, k)
        params = choose_params(eps, sys_)
        assert params.m == m
        assert q**params.ell <= delta_min_degree(m, sys_)
        assert q**params.ell > delta_min_degree(m - 1, sys_)

    @pytest.mark.parametrize("q, k, eps, expected", [(4, 3, 0.3, (3, 5)), (5, 3, 0.2, (4, 6))])
    def test_short_blocks_step_ell_up(self, q, k, eps, expected):
        # the estimated ell misses the rate even at the smallest admissible m
        sys_ = DupSystem(q, k)
        params = choose_params(eps, sys_)
        assert (params.ell, params.m) == expected
        assert params.ell / params.m >= asymptotic_rate(sys_).rate - eps
        assert q**params.ell <= delta_min_degree(params.m, sys_)
        assert params.m == 2 * k - 1 or q**params.ell > delta_min_degree(params.m - 1, sys_)

    @pytest.mark.parametrize("q, k", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 3)])
    def test_state_length_is_minimal_across_gaps(self, q, k):
        sys_ = DupSystem(q, k)
        for eps in (0.1, 0.05, 0.03, 0.021, 0.01, 0.007):
            if eps >= asymptotic_rate(sys_).rate:
                continue
            params = choose_params(eps, sys_)
            assert params.m == 2 * k - 1 or (
                q**params.ell > delta_min_degree(params.m - 1, sys_)
            ), eps

    def test_rejects_impossible_gap(self, s32):
        with pytest.raises(DomainError):
            choose_params(0.0, s32)
        with pytest.raises(DomainError):
            choose_params(asymptotic_rate(s32).rate + 0.01, s32)

    def test_fse_params_validation(self, s33):
        with pytest.raises(DomainError):
            FseParams(s33, 0, 5)
        with pytest.raises(DomainError):
            FseParams(s33, 1, 4)


class TestHypothesisInvariants:
    @given(n=st.integers(0, 40), q=st.integers(3, 6), k=st.sampled_from([2, 3]))
    @settings(max_examples=80, deadline=None)
    def test_counts_positive_and_monotone(self, n, q, k):
        sys_ = DupSystem(q, k)
        assert count_irr(n, sys_) >= 1
        assert count_irr(n + 1, sys_) > count_irr(n, sys_)

    @given(m=st.integers(3, 20), q=st.integers(3, 6))
    @settings(max_examples=60, deadline=None)
    def test_delta_bounded_by_class_growth(self, m, q):
        # every state has at most I(m)/I(m-1)-ish growth; degree is positive
        sys_ = DupSystem(q, 2)
        assert 1 <= delta_min_degree(m, sys_) <= count_irr(m, sys_)
