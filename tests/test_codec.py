"""Tests for the fixed-length codeword codec (pad-to-length construction)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from tdcode import (
    CodeSpec,
    DomainError,
    DupSystem,
    NotADescendantError,
    Word,
    code_size,
    count_irr,
    decode_codeword,
    encode_codeword,
    rank_irr,
    unrank_irr,
    is_irreducible,
    random_descendant,
    root,
    tandem_duplicate,
)
from tdcode import enumeration
from tdcode.codec import decode_codewords, encode_codewords


def w(text: str, q: int = 3) -> Word:
    return Word.from_string(text, q)


class TestCodeSpec:
    def test_capacity(self, s32):
        # 39 messages fit a length-4 codeword: the indices 1..39
        spec = CodeSpec(s32, 4)
        assert code_size(4, s32) == 39
        assert decode_codeword(encode_codeword(39, spec), spec) == 39
        with pytest.raises(DomainError):
            encode_codeword(40, spec)

    def test_single_symbol_code(self, s32):
        spec = CodeSpec(s32, 1)
        assert code_size(1, s32) == 3
        assert encode_codeword(1, spec) == w("0")
        assert decode_codeword(w("0"), spec) == 1

    def test_requires_positive_length(self, s32):
        with pytest.raises(DomainError):
            CodeSpec(s32, 0)


class TestEncodeCodeword:
    def test_first_codeword_is_padded_least_root(self, s32):
        assert encode_codeword(1, CodeSpec(s32, 4)) == w("0000")

    def test_block_boundaries_follow_root_lengths(self, s32):
        spec = CodeSpec(s32, 4)
        # roots of length 1, 2, 3, 4 occupy ranks 1-3, 4-9, 10-21, 22-39
        assert encode_codeword(3, spec) == w("2222")
        assert encode_codeword(4, spec) == w("0111")
        assert encode_codeword(21, spec) == w("2122")
        assert encode_codeword(22, spec) == w("0102")

    @pytest.mark.parametrize("sysname, n", [("s32", 9), ("s43", 7)])
    def test_root_length_at_every_class_boundary(self, sysname, n, request):
        spec = CodeSpec(request.getfixturevalue(sysname), n)
        last = 0
        for i in range(1, n + 1):
            # roots of length i take messages last+1 .. last+count_irr(i)
            first, last = last + 1, last + count_irr(i, spec.sys)
            for j in (first, last):
                x = encode_codeword(j, spec)
                assert len(root(x, spec.sys)) == i
                assert decode_codeword(x, spec) == j
        assert last == code_size(n, spec.sys)

    def test_all_codewords_have_length_n(self, s33):
        spec = CodeSpec(s33, 3)
        words = [encode_codeword(j, spec) for j in range(1, 22)]
        assert all(len(x) == 3 for x in words)
        assert len(set(words)) == 21

    def test_codeword_is_padded_root(self, s32):
        spec = CodeSpec(s32, 6)
        for j in (1, 5, 40, 117):
            c = encode_codeword(j, spec)
            r = root(c, s32)
            assert c == ref.extend_zeta(r, 6 - len(r))

    def test_rejects_out_of_range_message(self, s32):
        spec = CodeSpec(s32, 4)
        with pytest.raises(DomainError):
            encode_codeword(0, spec)
        with pytest.raises(DomainError):
            encode_codeword(40, spec)


class TestDecodeCodeword:
    @pytest.mark.parametrize("sysname, n", [("s32", 4), ("s32", 6), ("s33", 3), ("s43", 4)])
    def test_round_trip_whole_codebook(self, sysname, n, request):
        sys_ = request.getfixturevalue(sysname)
        spec = CodeSpec(sys_, n)
        for j in range(1, code_size(n, sys_) + 1):
            assert decode_codeword(encode_codeword(j, spec), spec) == j

    def test_decodes_any_descendant(self, s32):
        spec = CodeSpec(s32, 4)
        c = encode_codeword(30, spec)
        y = tandem_duplicate(c, (0, 2))
        y = tandem_duplicate(y, (3, 1))
        assert decode_codeword(y, spec) == 30

    @pytest.mark.parametrize("t", [1, 5, 25])
    def test_noisy_round_trip(self, t, s33):
        spec = CodeSpec(s33, 6)
        rng = random.Random(t)
        for _ in range(40):
            j = rng.randint(1, code_size(6, s33))
            c = encode_codeword(j, spec)
            y, _events = random_descendant(c, t, s33, rng.getrandbits(32))
            assert decode_codeword(y, spec) == j

    def test_root_is_ranked_without_a_re_check(self, s43, monkeypatch):
        # decoding reduces and ranks in one window walk per strand: it neither
        # calls root() first nor re-scans the root for irreducibility
        spec = CodeSpec(s43, 32)
        j = code_size(32, s43) // 3
        y, _events = random_descendant(encode_codeword(j, spec), 8, s43, seed=5)

        def refuse(*args):
            raise AssertionError("root or is_irreducible called while decoding")

        # root and is_irreducible both run words._stack
        monkeypatch.setattr("tdcode.words._stack", refuse)
        monkeypatch.setattr("tdcode.words.root", refuse)
        monkeypatch.setattr("tdcode.codec.root", refuse, raising=False)
        assert decode_codeword(y, spec) == j

    def test_rejects_short_word(self, s32):
        spec = CodeSpec(s32, 4)
        with pytest.raises(NotADescendantError):
            decode_codeword(w("012"), spec)

    def test_rejects_foreign_cone(self, s32):
        # root 01020 is longer than n = 4, so nothing in its cone decodes
        spec = CodeSpec(s32, 4)
        with pytest.raises(NotADescendantError):
            decode_codeword(w("01020"), spec)

    def test_rejects_alphabet_mismatch(self, s32):
        spec = CodeSpec(s32, 4)
        with pytest.raises(DomainError, match="^word alphabet q=4 does not match system q=3$"):
            decode_codeword(Word((0, 1, 2, 3), 4), spec)

    def test_cones_are_disjoint_at_small_scale(self, s32):
        # every word of length <= 6 decodes to at most one message
        spec = CodeSpec(s32, 4)
        owners: dict[Word, int] = {}
        for j in range(1, code_size(4, s32) + 1):
            c = encode_codeword(j, spec)
            frontier = {c}
            for _ in range(2):
                nxt = set()
                for word in frontier:
                    for length in (1, 2):
                        for pos in range(len(word) - length + 1):
                            child = tandem_duplicate(word, (pos, length))
                            nxt.add(child)
                frontier = nxt
                for child in frontier:
                    assert owners.setdefault(child, j) == j
                    assert decode_codeword(child, spec) == j

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_messages_survive_random_noise(self, data):
        q = data.draw(st.sampled_from([3, 4]))
        k = data.draw(st.sampled_from([2, 3]))
        sys_ = DupSystem(q, k)
        n = data.draw(st.integers(2, 8))
        spec = CodeSpec(sys_, n)
        j = data.draw(st.integers(1, code_size(n, sys_)))
        c = encode_codeword(j, spec)
        assert is_irreducible(root(c, sys_), k)
        y, _events = random_descendant(c, data.draw(st.integers(0, 12)), sys_,
                                       data.draw(st.integers(0, 2**32)))
        assert decode_codeword(y, spec) == j


def codeword_reference(j: int, spec: CodeSpec) -> Word:
    """The codeword as the public counting and unranking functions give it."""
    i = 1
    while code_size(i, spec.sys) < j:
        i += 1
    shorter = code_size(i - 1, spec.sys) if i > 1 else 0
    return ref.extend_zeta(unrank_irr(i, j - shorter, spec.sys), spec.n - i)


def index_reference(y: Word, spec: CodeSpec) -> int:
    r = root(y, spec.sys)
    return (code_size(len(r) - 1, spec.sys) if len(r) > 1 else 0) + rank_irr(r, spec.sys)


STREAM_SPECS = [(q, k, n) for q in range(3, 7) for k in (2, 3) for n in (1, 2 * k, 40)]


class TestStreams:
    @pytest.mark.parametrize("q, k, n", STREAM_SPECS + [(4, 2, 4000)])
    def test_stream_equals_per_codeword(self, q, k, n):
        sys_ = DupSystem(q, k)
        spec = CodeSpec(sys_, n)
        total = code_size(n, sys_)
        rng = random.Random(q * 100 + k * 10 + n)
        js = [1, total] + [rng.randint(1, total) for _ in range(5 if n > 100 else 30)]
        streamed = list(encode_codewords(js, spec))
        assert all(type(s) is bytearray for s in streamed)
        words = [Word(tuple(s), q) for s in streamed]
        assert words == [encode_codeword(j, spec) for j in js]
        assert words == [codeword_reference(j, spec) for j in js]
        noisy = [random_descendant(x, 6, sys_, seed)[0] for seed, x in enumerate(words)]
        assert list(decode_codewords([bytes(y.symbols) for y in noisy], spec)) == js
        assert [decode_codeword(y, spec) for y in noisy] == js
        assert [index_reference(y, spec) for y in noisy] == js

    def test_decode_counts_only_to_the_longest_root(self, fresh_tables):
        # shorter roots are one telescoped sum, so strands whose root is one
        # symbol count no class size past it, not 32768 of them
        spec = CodeSpec(DupSystem(4, 2), 32768)
        assert list(decode_codewords([bytes(32768)] * 32, spec)) == [1] * 32
        assert len(enumeration.count_table(spec.sys)._values) < 100

    @pytest.mark.parametrize("bad, error, message", [
        (w("012"), NotADescendantError, "received length 3 is shorter than the code length 4"),
        (w("01020"), NotADescendantError, "root length 5 exceeds the code length 4"),
        (Word((0, 1, 2, 3), 4), DomainError, "word alphabet q=4 does not match system q=3"),
    ])
    def test_decode_stream_stops_at_the_bad_word(self, s32, bad, error, message):
        # the stream takes symbols and Words alike; a Word's alphabet is checked
        spec = CodeSpec(s32, 4)
        good = [encode_codeword(j, spec).symbols for j in (5, 39)]
        stream = decode_codewords([*good, bad, good[0]], spec)
        assert [next(stream), next(stream)] == [5, 39]
        with pytest.raises(error, match=f"^{message}$"):
            next(stream)
        with pytest.raises(error, match=f"^{message}$"):
            decode_codeword(bad, spec)

    @pytest.mark.parametrize("j", [0, 40])
    def test_encode_stream_stops_at_the_bad_index(self, s32, j):
        spec = CodeSpec(s32, 4)
        stream = encode_codewords([7, j, 8], spec)
        assert tuple(next(stream)) == encode_codeword(7, spec).symbols
        message = f"^message index {j} outside \\[1, 39\\]$"
        with pytest.raises(DomainError, match=message):
            next(stream)
        with pytest.raises(DomainError, match=message):
            encode_codeword(j, spec)
