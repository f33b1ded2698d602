"""Tests for the finite-state encoder over irreducible states."""

from __future__ import annotations

import copy
import functools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcode import (
    CorruptInputError,
    DomainError,
    DupSystem,
    FseCodec,
    FseParams,
    NotAnEdgeError,
    UnlabeledEdgeError,
    Word,
    choose_params,
    count_extensions,
    count_irr,
    delta_min_degree,
    enumerate_irr_bruteforce,
    is_irreducible,
    neighbor_index,
    neighbors,
    nth_neighbor,
    unrank_irr,
)
from tdcode import oracle
from tdcode.enumeration import _dp, _index, _kth, extension_index, kth_extension
from tdcode.fse import _value_block


def w(text: str, q: int = 3) -> Word:
    return Word.from_string(text, q)


# The five systems of the random round-trip tests, as (q, k, ell, m).
STREAM_SYSTEMS = [(3, 2, 1, 3), (3, 2, 2, 6), (3, 3, 1, 5), (4, 3, 2, 5), (4, 2, 2, 4)]


@functools.cache
def codec_for(q: int, k: int, ell: int, m: int) -> FseCodec:
    return FseCodec(FseParams(DupSystem(q, k), ell=ell, m=m))


# (q, k, ell, m) small enough for brute-force neighbor lists, each with
# the largest ell that q**ell <= delta_min_degree(m) allows
ORACLE_SYSTEMS = [(3, 2, 1, 3), (3, 2, 1, 4), (4, 2, 2, 3), (3, 3, 1, 5)]


EXAMPLE_TABLE = {
    "010": ["201", "210", "212"],
    "012": ["010", "012", "021", "101", "102"],
    "020": ["102", "120", "121"],
    "021": ["012", "020", "021", "201", "202"],
    "101": ["201", "202", "210"],
    "102": ["010", "012", "101", "102", "120"],
    "120": ["102", "120", "121", "210", "212"],
    "121": ["012", "020", "021"],
    "201": ["020", "021", "201", "202", "210"],
    "202": ["101", "102", "120"],
    "210": ["120", "121", "201", "210", "212"],
    "212": ["010", "012", "021"],
}


@pytest.fixture(scope="module")
def p313() -> FseParams:
    return FseParams(DupSystem(3, 2), ell=1, m=3)


class TestNeighbors:
    def test_worked_neighbor_table(self, p313):
        for state, expected in EXAMPLE_TABLE.items():
            got = [str(x) for x in neighbors(w(state), p313)]
            assert got == expected

    def test_counts_match_extension_counts(self, p313, s32):
        for state in EXAMPLE_TABLE:
            assert len(neighbors(w(state), p313)) == count_extensions(w(state), 3, s32)

    def test_minimum_degree_realized(self, p313, s32):
        degrees = [len(neighbors(w(s), p313)) for s in EXAMPLE_TABLE]
        assert min(degrees) == delta_min_degree(3, s32) == 3
        assert sorted(set(degrees)) == [3, 5]

    def test_concatenations_stay_irreducible(self, s33):
        params = FseParams(DupSystem(3, 3), ell=1, m=5)
        for j in range(1, count_irr(5, s33) + 1):
            state = unrank_irr(5, j, s33)
            for nxt in neighbors(state, params):
                assert is_irreducible(state.concat(nxt), 3)

    def test_nth_neighbor_inverts_neighbor_index(self, p313):
        x = w("021")
        for j, nxt in enumerate(neighbors(x, p313), start=1):
            assert nth_neighbor(x, j, p313) == nxt
            if j <= 3:  # labeled range is q**ell
                assert neighbor_index(x, nxt, p313) == j

    def test_worked_edge_labels(self, p313):
        assert neighbor_index(w("010"), w("212"), p313) == 3
        with pytest.raises(UnlabeledEdgeError):
            neighbor_index(w("012"), w("101"), p313)

    def test_non_edge_rejected(self, p313):
        with pytest.raises(NotAnEdgeError):
            neighbor_index(w("010"), w("010"), p313)

    def test_nth_neighbor_out_of_range(self, p313):
        with pytest.raises(DomainError):
            nth_neighbor(w("010"), 4, p313)

    def test_state_must_be_irreducible(self, p313):
        with pytest.raises(DomainError):
            neighbors(w("000"), p313)

    def test_state_must_have_length_m(self, p313):
        with pytest.raises(DomainError):
            neighbors(w("0102"), p313)


class TestFseCodec:
    def test_worked_stream(self, p313):
        codec = FseCodec(p313)
        assert str(codec.start_state) == "010"
        blocks = [w("0"), w("1"), w("2")]
        strand = codec.encode(blocks)
        assert str(strand) == "201021021"
        assert codec.decode(strand) == blocks

    def test_start_state_is_first_in_class(self):
        params = FseParams(DupSystem(3, 2), ell=1, m=5)
        assert str(FseCodec(params).start_state) == "01020"

    def test_rejects_overloaded_label_space(self, s32):
        # q**ell must fit under the minimum out-degree
        with pytest.raises(DomainError):
            FseCodec(FseParams(s32, ell=2, m=3))
        # 3**12000 has 5726 digits, more than int-to-str conversion allows,
        # so the message must not print it
        with pytest.raises(DomainError, match=r"3\*\*12000"):
            FseCodec(FseParams(s32, ell=12000, m=12001))

    def test_encoder_memory_stays_small(self, fresh_tables):
        # the walk reads one count table per window pattern, not a row per
        # window per state symbol: those rows traced 60 MB here at m = 196
        tracemalloc.start()
        try:
            codec = FseCodec(choose_params(0.005, DupSystem(6, 3)))
            assert codec.decode_values(codec.encode_values([0])) == [0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert codec.params.m == 196
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("q, k, ell, m", ORACLE_SYSTEMS)
    def test_steps_match_bruteforce_neighbors(self, q, k, ell, m):
        sys_ = DupSystem(q, k)
        codec = codec_for(q, k, ell, m)
        states = enumerate_irr_bruteforce(m, sys_)
        labeled = q**ell
        degrees = []
        for x in states:
            nbrs = [y for y in states if not oracle._has_square(x.symbols + y.symbols, k)]
            degrees.append(len(nbrs))
            # the same codec with its walk started at x
            at_x = copy.copy(codec)
            at_x._start_sid = _dp(sys_).window_sid(x.symbols)
            for j, y in enumerate(nbrs[:labeled], start=1):
                assert at_x.encode_values([j - 1]) == y
                assert at_x.decode_values(y) == [j - 1]
            for y in states:
                if y not in nbrs[:labeled]:
                    with pytest.raises(CorruptInputError):
                        at_x.decode_values(y)
        assert min(degrees) == delta_min_degree(m, sys_) >= labeled

    def test_empty_stream(self, p313):
        codec = FseCodec(p313)
        assert codec.encode([]) == Word((), 3)
        assert codec.decode(Word((), 3)) == []

    def test_output_always_irreducible(self, s33):
        params = FseParams(DupSystem(3, 3), ell=1, m=5)
        codec = FseCodec(params)
        blocks = [w(d) for d in "0211200102"]
        strand = codec.encode(blocks)
        assert len(strand) == 5 * len(blocks)
        assert is_irreducible(strand, 3)

    def test_block_alphabet_validated(self, p313):
        with pytest.raises(DomainError):
            FseCodec(p313).encode([Word((0,), 4)])

    def test_block_length_validated(self, p313):
        with pytest.raises(DomainError):
            FseCodec(p313).encode([w("01")])

    def test_decode_rejects_ragged_length(self, p313):
        with pytest.raises(CorruptInputError):
            FseCodec(p313).decode(w("0102"))

    def test_decode_rejects_non_edge_step(self, p313):
        # 010 -> 020 is not an edge: the concatenation holds the square 00
        with pytest.raises(CorruptInputError):
            FseCodec(p313).decode(w("020102"))

    def test_decode_rejects_unlabeled_edge(self, p313):
        # 201 -> 202 is the 4th neighbor of 201, beyond the q**ell labels
        with pytest.raises(CorruptInputError):
            FseCodec(p313).decode(w("201202"))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_streams_round_trip(self, data):
        q, k, ell, m = data.draw(st.sampled_from(STREAM_SYSTEMS))
        params = FseParams(DupSystem(q, k), ell=ell, m=m)
        codec = FseCodec(params)
        values = data.draw(st.lists(st.integers(0, q**ell - 1), max_size=12))
        blocks = []
        for v in values:
            digits = []
            for _ in range(ell):
                v, r = divmod(v, q)
                digits.append(r)
            blocks.append(Word(tuple(reversed(digits)), q))
        strand = codec.encode(blocks)
        assert len(strand) == m * len(blocks)
        assert is_irreducible(strand, k)
        assert codec.decode(strand) == blocks


class TestValueEngine:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_values_agree_with_blocks(self, data):
        q, k, ell, m = data.draw(st.sampled_from(STREAM_SYSTEMS))
        codec = codec_for(q, k, ell, m)
        values = data.draw(st.lists(st.integers(0, q**ell - 1), max_size=12))
        blocks = [_value_block(v, codec.params) for v in values]
        strand = codec.encode_values(values)
        assert strand == codec.encode(blocks)
        assert codec.decode_values(strand) == values
        assert codec.decode(strand) == blocks

    @pytest.mark.parametrize("strand, message", [
        ("0102", "length 4 is not a multiple of the state length 3"),
        ("020102", "state 1: not an edge, a square ends at offset 0"),
        ("201022", "state 2: not an edge, a square ends at offset 2"),
        ("201202", "state 2: edge index exceeds the labeled range 3**1"),
        ("201202010", "state 2: edge index exceeds the labeled range 3**1"),
    ], ids=["0102", "020102", "201022", "201202", "201202010"])
    def test_damaged_streams_are_corrupt(self, strand, message):
        # ragged length, non-edges (squares 00 after the start state 010,
        # 22 after 201), an unlabeled 4th neighbor, also when a later state
        # is not an edge (2020): the first damage is named
        codec = codec_for(3, 2, 1, 3)
        with pytest.raises(CorruptInputError) as info:
            codec.decode_values(w(strand))
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [-1, 3])
    def test_out_of_range_value(self, value):
        with pytest.raises(DomainError):
            codec_for(3, 2, 1, 3).encode_values([0, value])

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    @pytest.mark.parametrize("k", [2, 3])
    def test_stream_walk_is_the_per_step_walk(self, q, k):
        # one _kth / _index call per stream against one kth_extension /
        # extension_index call per step, from every full window; steps of
        # 2k - 1 and 2k symbols, so windows also shift inside a step
        sys_ = DupSystem(q, k)
        dp = _dp(sys_)
        rng = random.Random(10 * q + k)
        for start, window in enumerate(dp.states):
            if len(window) != 2 * k - 1:
                continue
            r = len(window) + start % 2
            x, js, expected = Word(window, q), [], []
            for _ in range(3):
                js.append(rng.randrange(count_extensions(x, r, sys_)))
                x = kth_extension(x, r, js[-1] + 1, sys_)
                expected += x.symbols
            out: list[int] = []
            end = _kth(dp, start, r, js, out)
            assert out == expected
            assert end == dp.window_sid(tuple(out))
            steps = [out[b:b + r] for b in range(0, len(out), r)]
            assert _index(dp, start, r, steps) == (js, end)
            prev = Word(window, q)
            for j, step in zip(js, steps):
                assert extension_index(prev, Word(tuple(step), q), sys_) == j + 1
                prev = Word(tuple(step), q)

    def test_validations_do_not_grow_with_the_stream(self, word_validations):
        codec = codec_for(4, 3, 2, 5)
        seen = []
        for n in (4, 400):
            values = [(7 * i) % 16 for i in range(n)]
            before = word_validations.calls
            strand = codec.encode_values(values)
            assert codec.decode_values(strand) == values
            seen.append(word_validations.calls - before)
        assert seen[0] == seen[1] <= 2
