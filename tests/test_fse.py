"""Tests for the finite-state encoder over irreducible states."""

from __future__ import annotations

import copy
import functools
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import clear_tables, walk_extensions
from tdcode import (
    CorruptInputError,
    DomainError,
    DupSystem,
    FseCodec,
    FseParams,
    Word,
    choose_params,
    count_irr,
    delta_min_degree,
    enumerate_irr_bruteforce,
    is_irreducible,
    root,
    unrank_irr,
)
from tdcode import fse, oracle
from tdcode.enumeration import _dp, _index, _kth
from tdcode.cli import _block_digits, _fse, main
from tdcode.words import _duplicate


def w(text: str, q: int = 3) -> Word:
    return Word.from_string(text, q)


def block(v: int, q: int, ell: int) -> Word:
    """The ell-digit base-q block of value v, most significant digit first."""
    digits = []
    for _ in range(ell):
        v, r = divmod(v, q)
        digits.append(r)
    return Word(tuple(reversed(digits)), q)


def encode_digits(tmp_path, capsys, text: str, ell: int, m: int) -> tuple[int, str]:
    """encode --digits of text at q = 3, k = 2: exit code and stderr."""
    src = tmp_path / "msg.txt"
    src.write_text(text)
    rc = main(["encode", "--mode", "fse", "-q", "3", "-k", "2", "--ell", str(ell),
               "--m", str(m), "--digits", "-i", str(src), "-o", str(tmp_path / "enc.txt")])
    return rc, capsys.readouterr().err


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


def codec_at(x: Word, params: FseParams) -> FseCodec:
    """The codec with its walk started at state x."""
    at_x = copy.copy(codec_for(params.sys.q, params.sys.k, params.ell, params.m))
    at_x._start_sid = _dp(params.sys).window_sid(x.symbols)
    return at_x


class TestNeighbors:
    def test_worked_neighbor_table(self, p313, s32):
        for state, expected in EXAMPLE_TABLE.items():
            assert [str(x) for x in ref.extensions(w(state), 3, s32)] == expected
            assert [str(x) for x in walk_extensions(w(state), 3, p313.sys)] == expected

    def test_counts_match_extension_counts(self, p313, s32):
        dp = _dp(s32)
        for state in EXAMPLE_TABLE:
            count = dp.counts(dp.window_sid(w(state).symbols)).count(3)
            assert len(ref.extensions(w(state), 3, s32)) == count

    def test_minimum_degree_realized(self, p313, s32):
        degrees = [len(ref.extensions(w(s), 3, s32)) for s in EXAMPLE_TABLE]
        assert min(degrees) == delta_min_degree(3, s32) == 3
        assert sorted(set(degrees)) == [3, 5]

    def test_concatenations_stay_irreducible(self, s33):
        for j in range(1, count_irr(5, s33) + 1):
            state = unrank_irr(5, j, s33)
            nbrs = walk_extensions(state, 5, s33)
            assert nbrs == ref.extensions(state, 5, s33)
            for nxt in nbrs:
                assert is_irreducible(Word(state.symbols + nxt.symbols, 3), 3)

    def test_nth_neighbor_inverts_neighbor_index(self, p313):
        x = w("021")
        dp = _dp(p313.sys)
        sid = dp.window_sid(x.symbols)
        for j, nxt in enumerate(ref.extensions(x, 3, p313.sys)):
            assert _index(dp, sid, 3, (nxt.symbols,)) == [j]
            if j < 3:  # labeled range is q**ell
                assert codec_at(x, p313).encode_values([j]) == nxt
                assert codec_at(x, p313).decode_values(nxt) == [j]

    def test_worked_edge_labels(self, p313):
        assert codec_at(w("010"), p313).decode_values(w("212")) == [2]
        with pytest.raises(CorruptInputError, match="edge index exceeds the labeled range"):
            codec_at(w("012"), p313).decode_values(w("101"))

    def test_non_edge_rejected(self, p313):
        with pytest.raises(CorruptInputError, match="not an edge"):
            codec_at(w("010"), p313).decode_values(w("010"))

    def test_nth_neighbor_out_of_range(self, p313):
        # 010 has exactly 3 = q**ell neighbors
        assert len(walk_extensions(w("010"), 3, p313.sys)) == 3
        with pytest.raises(DomainError):
            codec_at(w("010"), p313).encode_values([3])

    def test_state_must_be_irreducible(self, p313):
        with pytest.raises(DomainError):
            _dp(p313.sys).window_sid((0, 0, 0))


class TestFseCodec:
    def test_worked_stream(self, p313):
        codec = FseCodec(p313)
        assert str(codec.start_state) == "010"
        strand = codec.encode_values([0, 1, 2])
        assert str(strand) == "201021021"
        assert codec.decode_values(strand) == [0, 1, 2]

    def test_start_state_is_first_in_class(self):
        params = FseParams(DupSystem(3, 2), ell=1, m=5)
        assert str(FseCodec(params).start_state) == "01020"
        for q, k, ell, m in STREAM_SYSTEMS:
            sys_ = DupSystem(q, k)
            assert codec_for(q, k, ell, m).start_state == enumerate_irr_bruteforce(m, sys_)[0]

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
        assert codec.encode_values([]) == Word((), 3)
        assert codec.decode_values(Word((), 3)) == []

    def test_output_always_irreducible(self, s33):
        params = FseParams(DupSystem(3, 3), ell=1, m=5)
        codec = FseCodec(params)
        values = [int(d) for d in "0211200102"]
        strand = codec.encode_values(values)
        assert len(strand) == 5 * len(values)
        assert is_irreducible(strand, 3)

    # the --digits message is cut into ell-digit blocks of base-q digits
    def test_block_alphabet_validated(self, tmp_path, capsys):
        rc, err = encode_digits(tmp_path, capsys, "0132\n", 1, 3)
        assert (rc, err) == (1, "error: cannot parse digit block '3': "
                               "symbol 3 outside alphabet of size 3\n")

    def test_bad_digit_names_its_block(self, tmp_path, capsys):
        # the message quotes the ell-digit block that holds the bad digit, not the message
        rc, err = encode_digits(tmp_path, capsys, "0120\n" * 1000 + "0x12\n", 2, 6)
        assert (rc, err) == (1, "error: cannot parse digit block '0x': not a digit string: '0x'\n")

    def test_block_length_validated(self, tmp_path, capsys):
        rc, err = encode_digits(tmp_path, capsys, "01 2\n", 2, 6)
        assert (rc, err) == (1, "error: digit message length must be a multiple of ell=2\n")

    def test_decode_rejects_ragged_length(self, p313):
        with pytest.raises(CorruptInputError):
            FseCodec(p313).decode_values(w("0102"))

    def test_decode_rejects_non_edge_step(self, p313):
        # 010 -> 020 is not an edge: the concatenation holds the square 00
        with pytest.raises(CorruptInputError):
            FseCodec(p313).decode_values(w("020102"))

    def test_decode_rejects_unlabeled_edge(self, p313):
        # 201 -> 202 is the 4th neighbor of 201, beyond the q**ell labels
        with pytest.raises(CorruptInputError):
            FseCodec(p313).decode_values(w("201202"))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_streams_round_trip(self, data):
        q, k, ell, m = data.draw(st.sampled_from(STREAM_SYSTEMS))
        params = FseParams(DupSystem(q, k), ell=ell, m=m)
        codec = FseCodec(params)
        values = data.draw(st.lists(st.integers(0, q**ell - 1), max_size=12))
        blocks = [block(v, q, ell) for v in values]
        strand = codec.encode_values([int(str(b), q) for b in blocks])
        assert len(strand) == m * len(blocks)
        assert is_irreducible(strand, k)
        assert [block(v, q, ell) for v in codec.decode_values(strand)] == blocks


class TestValueEngine:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_values_agree_with_blocks(self, data):
        # each state is the brute-force neighbor that its block value names
        q, k, ell, m = data.draw(st.sampled_from(STREAM_SYSTEMS))
        codec = codec_for(q, k, ell, m)
        values = data.draw(st.lists(st.integers(0, q**ell - 1), max_size=12))
        blocks = [block(v, q, ell) for v in values]
        assert _block_digits(values, q, ell) == bytes(s for b in blocks for s in b)
        assert [int(str(b), q) for b in blocks] == values
        strand = codec.encode_values(values)
        state = codec.start_state
        for b, v in zip(range(0, len(strand), m), values):
            nxt = Word(strand.symbols[b:b + m], q)
            assert nxt == ref.extensions(state, m, codec.params.sys)[v]
            state = nxt
        assert codec.decode_values(strand) == values

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
        # one _kth / _index call per stream against one call per step, from
        # every full window; steps of 2k - 1 and 2k symbols, so windows also
        # shift inside a step
        sys_ = DupSystem(q, k)
        dp = _dp(sys_)
        rng = random.Random(10 * q + k)
        for start, window in enumerate(dp.states):
            if len(window) != 2 * k - 1:
                continue
            r = len(window) + start % 2
            sid, js, expected = start, [], []
            for _ in range(3):
                js.append(rng.randrange(dp.counts(sid).count(r)))
                step: list[int] = []
                sid = _kth(dp, sid, r, js[-1:], step)
                expected += step
            out: list[int] = []
            end = _kth(dp, start, r, js, out)
            assert out == expected
            assert end == sid == dp.window_sid(tuple(out))
            steps = [out[b:b + r] for b in range(0, len(out), r)]
            assert _index(dp, start, r, steps) == js
            sid = start
            for j, step in zip(js, steps):
                assert _index(dp, sid, r, (step,)) == [j]
                sid = dp.window_sid(tuple(step))

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


# The CLI's fse systems: STREAM_SYSTEMS and the largest alphabet the window
# cap admits at k = 3, where the step table is largest.
CLI_SYSTEMS = [*STREAM_SYSTEMS, (8, 3, 1, 5)]


def cli_decode(q: int, k: int, ell: int, m: int, y: bytes | bytearray) -> list[int] | str:
    """The block values that decode's fse path reads from the received
    symbols y, given as the stream's one strand with the identity parser, or
    the message of the CorruptInputError it raises.  An empty y is a blank
    line, no strand, and a stream without strands decodes to no values."""
    strands = [bytes(y)] if y else []
    try:
        to_values = _fse({"ell": ell, "m": m, "chunk": None, "digits": 1}, DupSystem(q, k), {},
                         None, strands, bytes)[1]
        return to_values() if strands else []
    except CorruptInputError as exc:
        return str(exc)


def root_decode(q: int, k: int, ell: int, m: int, y: bytes | bytearray) -> list[int] | str:
    """decode_values(root(y)): the block values, or the error's message."""
    try:
        return codec_for(q, k, ell, m).decode_values(root(Word(tuple(y), q), DupSystem(q, k)))
    except CorruptInputError as exc:
        return str(exc)


def head_square(codec: FseCodec, t: int) -> list[int] | None:
    """An irreducible word of length m, if one exists, whose walk from the
    start state meets a square at offset t: one that reaches back into the
    start state, since the word alone has none."""
    q, m = codec.params.sys.q, codec.params.m
    dp = _dp(codec.params.sys)

    def extend(z: list[int], after_start: int, alone: int) -> list[int] | None:
        # after_start, alone: the rows of the walks of z from the start state and from nothing
        for c in range(q):
            nxt, own = dp.step[after_start + c], dp.step[alone + c]
            if own < 0:
                continue
            if len(z) == t:
                if nxt < 0:  # pad to a state with z's first extension
                    z = [*z, c]
                    _kth(dp, own // q, m - t - 1, (0,), z)
                    return z
            elif nxt >= 0:
                found = extend([*z, c], nxt, own)
                if found:
                    return found
        return None

    return extend([], codec._start_sid * q, 0)


class TestCliDecodePath:
    # decode's fse path reduces the received bytes to the root's cells and
    # walks only the root's first 2k - 1 symbols again, from the start state;
    # it must give decode_values(root(y)), its values and its messages

    # A walk longer than the step table is read through the cell classes, a
    # shorter one state by state: the properties tile their blocks up to 10
    # times, past the smaller systems' tables (66 cells at q = 3, k = 2)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_received_strands_decode_as_their_root(self, data):
        q, k, ell, m = data.draw(st.sampled_from(CLI_SYSTEMS))
        values = data.draw(st.lists(st.integers(0, q**ell - 1), max_size=12))
        values *= data.draw(st.sampled_from([1, 10]))
        y = bytearray(codec_for(q, k, ell, m).encode_values(values).symbols)
        if y:
            _duplicate(y, data.draw(st.integers(0, 3 * len(y))), k,
                       random.Random(data.draw(st.integers(0, 99))).getrandbits)
        assert cli_decode(q, k, ell, m, y) == root_decode(q, k, ell, m, y) == values

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_damaged_strands_fail_as_their_root(self, data):
        # a ragged root; an unlabeled edge in a later state; and, from the
        # cases below, squares against the start state
        q, k, ell, m = data.draw(st.sampled_from(CLI_SYSTEMS))
        codec, dp, labeled = codec_for(q, k, ell, m), _dp(DupSystem(q, k)), q**ell
        values = data.draw(st.lists(st.integers(0, labeled - 1), min_size=1, max_size=8))
        values *= data.draw(st.sampled_from([1, 10]))
        out: list[int] = []
        sid = _kth(dp, codec._start_sid, m, values, out)
        if data.draw(st.booleans()):  # a root whose length is not a multiple of m
            _kth(dp, sid, data.draw(st.integers(1, m - 1)), (0,), out)
            message = f"length {len(out)} is not a multiple of the state length {m}"
        else:  # the neighbor past the labeled ones, where sid has one
            assume(dp.counts(sid).count(m) > labeled)
            _kth(dp, sid, m, (labeled,), out)
            message = (f"state {len(values) + 1}: edge index exceeds the labeled range "
                       f"{q}**{ell}")
        y = bytearray(out)
        _duplicate(y, data.draw(st.integers(0, len(y))), k,
                   random.Random(data.draw(st.integers(0, 99))).getrandbits)
        assert cli_decode(q, k, ell, m, y) == root_decode(q, k, ell, m, y) == message

    @pytest.mark.parametrize("q, k", [(3, 2), (4, 3), (8, 3)])
    def test_class_sums_are_the_successor_scans(self, q, k):
        # each cell's class sum, built in the order met from an earlier
        # class, is the sum over the window's successors before its symbol
        # that _index scans, on a row whose sums tell multisets apart
        dp = _dp(DupSystem(q, k))
        table, made = fse._classes(dp.sys)
        width = len(dp.tables)
        row = [16**p for p in range(width)]  # a multiset holds a pattern at most q - 1 times
        sums = [0]
        for earlier, p in made:
            assert earlier < len(sums)  # the smaller class comes first
            sums.append(sums[earlier] + row[p])
        assert len(sums) == max(table) + 1 == {(3, 2): 6, (4, 3): 37, (8, 3): 145}[q, k]
        assert len(set(sums)) == len(sums)  # one class per multiset
        for sid, nexts in enumerate(dp.succ):
            before = 0
            for nxt in nexts:
                assert sums[table[sid * q + dp.last[nxt]]] == before
                before += row[dp.pat[nxt]]

    @pytest.mark.parametrize("q, k, ell, m", [*CLI_SYSTEMS, (3, 2, 28, 70)],
                             ids=[*(f"q{q}k{k}m{m}" for q, k, _, m in CLI_SYSTEMS), "q3k2m70"])
    def test_walks_longer_than_the_step_table(self, q, k, ell, m):
        # one more state than the table has cells over m: through the cell
        # classes, each class's sum once per level, also where there are
        # fewer states than classes (one state of 70 symbols at q = 3, k = 2)
        sys_, rng = DupSystem(q, k), random.Random(q + m)
        labeled, dp = q**ell, _dp(sys_)
        values = [rng.randrange(labeled) for _ in range(len(dp.step) // m + 1)]
        out = list(codec_for(q, k, ell, m).encode_values(values).symbols)
        y = bytearray(out)
        _duplicate(y, len(y) // 10, k, random.Random(rng.randrange(99)).getrandbits)
        fse._classes.cache_clear()
        assert cli_decode(q, k, ell, m, y) == root_decode(q, k, ell, m, y) == values
        assert fse._classes.cache_info().currsize == 1  # read through the classes
        # and damaged: a ragged root, or the last state past the labeled range
        sid = dp.window_sid(tuple(out[-dp.width:]))
        for extra, message in ((1, f"length {len(out) + 1} is not a multiple of the state "
                                    f"length {m}"),
                               (m, f"state {len(values) + 1}: edge index exceeds the labeled "
                                   f"range {q}**{ell}")):
            if extra == m and dp.counts(sid).count(m) <= labeled:
                continue
            longer = list(out)
            _kth(dp, sid, extra, (labeled if extra == m else 0,), longer)
            y = bytearray(longer)
            _duplicate(y, len(y) // 10, k, random.Random(rng.randrange(99)).getrandbits)
            assert cli_decode(q, k, ell, m, y) == root_decode(q, k, ell, m, y) == message

    # (4, 3, 1, 6) has a square against the start state at every offset below
    # 2k - 1 = 5; start states of length 5 at k = 3 have none at offset 1
    HEAD_SYSTEMS = [*CLI_SYSTEMS, (4, 3, 1, 6)]

    @pytest.mark.parametrize("q, k, ell, m", HEAD_SYSTEMS,
                             ids=[f"q{q}k{k}m{m}" for q, k, _, m in HEAD_SYSTEMS])
    def test_squares_against_the_start_state(self, q, k, ell, m):
        codec, dp = codec_for(q, k, ell, m), _dp(DupSystem(q, k))
        rng = random.Random(10 * q + m)
        found = []
        for t in range(2 * k - 1):
            z = head_square(codec, t)
            if z is None:
                continue
            found.append(t)
            longer = list(z)
            _kth(dp, dp.window_sid(tuple(z)), m, (0,), longer)
            for root_word in (z, longer):  # one state, and a second one after it
                y = bytearray(root_word)
                _duplicate(y, rng.randrange(2 * len(y)), k,
                           random.Random(rng.randrange(99)).getrandbits)
                message = f"state 1: not an edge, a square ends at offset {t}"
                assert cli_decode(q, k, ell, m, y) == root_decode(q, k, ell, m, y) == message
        if (q, k, m) in ((4, 3, 6), (3, 2, 6), (4, 2, 4)):
            assert found == list(range(2 * k - 1))

    def test_fse_long_decode_peak_memory(self, tmp_path):
        # the benchmark's fse-long shape: a seeded 30 KB payload, 6000
        # duplications.  Building a tuple of the strand and a root Word, then
        # indexing the root, peaked at 3,630,496 traced bytes on Python 3.11.7;
        # reducing the received bytes peaks at 2,878,690 there, 21% below
        msg, enc, noisy, out = (tmp_path / f for f in ("msg", "enc", "noisy", "out"))
        msg.write_bytes(random.Random(7).randbytes(30_000))
        assert main(["encode", "--mode", "fse", "-q", "4", "-k", "3", "-e", "0.05", "--dna",
                     "-i", str(msg), "-o", str(enc)]) == 0
        assert main(["channel", "-t", "6000", "-i", str(enc), "-o", str(noisy)]) == 0
        clear_tables()  # decode builds its tables, as in its own process
        tracemalloc.start()
        try:
            assert main(["decode", "-i", str(noisy), "-o", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == msg.read_bytes()
        assert peak <= 3_630_496
