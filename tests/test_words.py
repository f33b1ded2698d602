"""Tests for words, tandem duplications, and root extraction."""

from __future__ import annotations

import copy
import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
import tdcode
from tdcode import (
    CodeSpec,
    DomainError,
    DupSystem,
    FseParams,
    OracleBudget,
    RateInfo,
    Word,
    all_roots_bfs,
    asymptotic_rate,
    count_irr,
    is_irreducible,
    random_descendant,
    root,
    tandem_duplicate,
    unrank_irr,
)
from tdcode.enumeration import _dp
from tdcode.oracle import _has_square
from tdcode.words import _text_codec

# Short words and few duplications keep the deduplication-graph search
# to a few hundred words, a few thousand symbols; the budget turns a
# runaway search into an error.
ORACLE_BUDGET = OracleBudget(max_words=20_000)


def w(text: str, q: int = 3) -> Word:
    return Word.from_string(text, q)


def from_dna_reference(text: str) -> Word:
    """The per-character parser that Word.from_dna replaced."""
    try:
        syms = tuple("ACGT".index(ch) for ch in text.strip().upper())
    except ValueError:
        raise DomainError(f"not a DNA string: {text!r}") from None
    return Word(syms, 4)


def random_descendant_reference(x: Word, t: int, k: int, seed: int):
    """The list-based duplication loop that random_descendant replaced."""
    rng = random.Random(seed)
    syms = list(x.symbols)
    events = []
    for _ in range(t):
        length = rng.randint(1, min(k, len(syms)))
        pos = rng.randint(0, len(syms) - length)
        syms[pos + length:pos + length] = syms[pos:pos + length]
        events.append((pos, length))
    return Word(tuple(syms), x.q), events


class TestWord:
    def test_from_string_round_trip(self):
        assert str(w("0120")) == "0120"
        assert w("0120").symbols == (0, 1, 2, 0)

    def test_symbols_validated(self):
        with pytest.raises(DomainError):
            Word((0, 3), 3)
        with pytest.raises(DomainError):
            Word((0, -1), 3)
        with pytest.raises(DomainError):
            Word((0,), 1)

    def test_from_string_rejects_foreign_digits(self):
        with pytest.raises(DomainError):
            Word.from_string("013", 3)

    @pytest.mark.parametrize("text", ["\u0660\u0661\u0662", "\uff10\uff11\uff12", "01\u0663",
                                      "\u00a0012"],
                             ids=["arabic-indic", "fullwidth", "one-arabic-indic", "nbsp-blank"])
    def test_from_string_rejects_non_ascii_digits(self, text):
        # int() reads these as 0, 1, 2 and 3; a digit string is ASCII, blanks too
        with pytest.raises(DomainError, match=f"^{re.escape(f'not a digit string: {text!r}')}$"):
            Word.from_string(text, 4)

    @pytest.mark.parametrize("text", ["\x1c012\x1f", " 012\r\n"], ids=["ascii-separators", "blanks"])
    def test_from_string_strips_ascii_whitespace(self, text):
        assert Word.from_string(text, 3) == w("012")

    def test_dna_round_trip(self):
        word = Word.from_dna("ACGT")
        assert word.q == 4
        assert word.symbols == (0, 1, 2, 3)
        assert word.to_dna() == "ACGT"

    @given(text=st.text(alphabet="ACGTacgtNÄı \t\n\x1c\u00a0\u2003", max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_dna_matches_per_character_reference(self, text):
        try:
            expected = from_dna_reference(text)
        except DomainError:
            with pytest.raises(DomainError):
                Word.from_dna(text)
            return
        got = Word.from_dna(text)
        assert got == expected
        assert got.to_dna() == "".join("ACGT"[s] for s in expected.symbols)

    @pytest.mark.parametrize("text", ["ACNT", "AC GT", "ACÄT", "aıt", "Ä", "\ud800"])
    def test_dna_rejects_foreign_characters(self, text):
        with pytest.raises(DomainError):
            Word.from_dna(text)

    def test_dna_round_trip_skips_validation(self, word_validations):
        text = "ACGT" * 2000
        assert Word.from_dna(f" {text.lower()}\n").to_dna() == text
        assert word_validations.calls == 0

    def test_to_dna_requires_q4(self):
        with pytest.raises(DomainError):
            w("012", 3).to_dna()

    def test_sequence_protocol(self):
        word = w("0120")
        assert len(word) == 4
        assert word[1] == 1
        assert list(word) == [0, 1, 2, 0]


class TestTextCodec:
    """The one text form of symbols, digits (q <= 10) or ACGT, behind Word's
    parsers and renderers and the command line's strands and digit text."""

    @pytest.mark.parametrize("q, dna", [(q, False) for q in range(2, 11)] + [(4, True)])
    def test_render_and_parse_invert(self, q, dna):
        render, parse = _text_codec(q, dna)
        symbols = bytes(random.Random(q).choices(range(q), k=200))
        text = symbols.translate(render).decode("ascii")
        assert parse(text) == parse(f" {text.lower()}\r\n") == symbols
        word = Word(tuple(symbols), q)
        assert (word.to_dna() if dna else str(word)) == text
        assert (Word.from_dna(text) if dna else Word.from_string(text, q)) == word

    @pytest.mark.parametrize("q, dna, text, message", [
        (3, False, "0130", "symbol 3 outside alphabet of size 3"),
        (3, False, "01x3", "not a digit string: '01x3'"),
        (3, False, "01 2", "not a digit string: '01 2'"),
        (4, True, "acXt", "not a DNA string: 'acXt'"),
        (4, True, "AC\u00c4T", "not a DNA string: 'AC\u00c4T'"),
        (11, False, "0", "digit strings only cover alphabets up to q = 10"),
        (3, True, "A", "DNA rendering requires q = 4"),
        (1, False, "0", "alphabet size must be at least 2, got 1"),
    ], ids=["digit-past-q", "non-digit", "space", "dna-letter", "dna-non-ascii", "q-11",
            "dna-q3", "q-1"])
    def test_messages(self, q, dna, text, message):
        with pytest.raises(DomainError) as info:
            _text_codec(q, dna)[1](text)
        assert str(info.value) == message


class TestTandemDuplicate:
    @pytest.mark.parametrize("x, pos, length, expected", [
        ("01210", 1, 3, "01211210"),
        ("01211210", 0, 2, "0101211210"),
        ("012", 0, 1, "0012"),
        ("012", 2, 1, "0122"),
        ("0121", 1, 2, "012121"),
    ])
    def test_inserts_copy_after_original(self, x, pos, length, expected):
        got = tandem_duplicate(w(x), (pos, length))
        assert str(got) == expected

    def test_out_of_range_event(self):
        with pytest.raises(DomainError):
            tandem_duplicate(w("012"), (2, 2))

    def test_event_fields_validated(self):
        with pytest.raises(DomainError, match="^duplication position must be >= 0, got -1$"):
            tandem_duplicate(w("012"), (-1, 1))
        with pytest.raises(DomainError, match="^duplication length must be >= 1, got 0$"):
            tandem_duplicate(w("012"), (0, 0))
        with pytest.raises(DomainError, match=r"^event copies \[2:4\] but the word has length 3$"):
            tandem_duplicate(w("012"), (2, 2))


class TestIsIrreducible:
    @pytest.mark.parametrize("x, k, expected", [
        ("010", 2, True),
        ("0101211210", 3, False),
        ("", 2, True),
        ("0", 3, True),
        ("00", 2, False),
        ("0102", 2, True),
        ("010101", 2, False),
        ("012012", 2, True),
        ("012012", 3, False),
    ])
    def test_known_words(self, x, k, expected):
        assert is_irreducible(w(x), k) is expected

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_scan_and_oracle(self, data):
        # is_irreducible runs root's stack; the window walk decides the same,
        # and so does the oracle's scan, on words with squares and without
        q = data.draw(st.integers(2, 8))
        k = data.draw(st.sampled_from([2, 3]))
        if q > 2 and data.draw(st.booleans()):  # an irreducible word, maybe duplicated
            sys_ = DupSystem(q, k)
            n = data.draw(st.integers(0, 24))
            x = unrank_irr(n, data.draw(st.integers(1, count_irr(n, sys_))), sys_)
            for _ in range(data.draw(st.integers(0, 2)) if n else 0):
                length = data.draw(st.integers(1, min(k, len(x))))
                x = tandem_duplicate(x, (data.draw(st.integers(0, len(x) - length)), length))
        else:
            x = Word(tuple(data.draw(st.lists(st.integers(0, q - 1), max_size=24))), q)
        expected = not _has_square(x.symbols, k)
        assert is_irreducible(x, k) == expected
        if q > 2:  # root and the walk need a system, q >= 3
            sys_ = DupSystem(q, k)
            assert (len(root(x, sys_)) == len(x)) == expected
            assert (len(_dp(sys_).reduce(x.symbols)) == len(x)) == expected

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(DomainError):
            is_irreducible(w("01"), 0)

    @pytest.mark.parametrize("k", [-1, 1, 4, 7])
    def test_takes_the_bounds_of_a_system(self, k):
        # the stack decides squares of half-length up to 3, as DupSystem's k
        with pytest.raises(DomainError, match=f"^duplication bound k must be 2 or 3, got {k}$"):
            is_irreducible(w("0120"), k)


class TestRoot:
    def test_worked_chain(self, s33):
        x = w("01210")
        y = tandem_duplicate(x, (1, 3))
        z = tandem_duplicate(y, (0, 2))
        assert str(z) == "0101211210"
        assert root(z, s33) == x

    def test_identity_on_irreducible(self, s32):
        assert root(w("01210"), s32) == w("01210")

    def test_idempotent(self, s32):
        y = w("00112200")
        assert root(root(y, s32), s32) == root(y, s32)

    def test_respects_k(self, s32, s33):
        y = w("012012")
        assert root(y, s32) == y
        assert root(y, s33) == w("012")

    def test_alphabet_mismatch(self, s32):
        with pytest.raises(DomainError):
            root(Word((0, 1), 4), s32)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_duplication_never_changes_root(self, data):
        k = data.draw(st.sampled_from([2, 3]))
        sys_ = DupSystem(3, k)
        base = data.draw(st.sampled_from(["0", "01", "010", "0120", "01210", "010212"]))
        word = w(base)
        for _ in range(data.draw(st.integers(0, 4))):
            length = data.draw(st.integers(1, min(k, len(word))))
            pos = data.draw(st.integers(0, len(word) - length))
            word = tandem_duplicate(word, (pos, length))
        assert is_irreducible(root(word, sys_), k)
        assert root(word, sys_) == root(w(base), sys_)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_on_descendants(self, data):
        sys_ = DupSystem(data.draw(st.integers(3, 6)), data.draw(st.sampled_from([2, 3])))
        n = data.draw(st.integers(0, 8))
        x = unrank_irr(n, data.draw(st.integers(1, count_irr(n, sys_))), sys_)
        t = data.draw(st.integers(0, 5)) if n else 0
        y, _ = random_descendant(x, t, sys_, data.draw(st.integers(0, 2**32)))
        assert root(y, sys_) == x
        assert all_roots_bfs(y, sys_, ORACLE_BUDGET) == {x}

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_on_random_words(self, data):
        # root's stack holds negative sentinels below every symbol, at any q:
        # draws around 256 check that no symbol is taken for one
        q = data.draw(st.one_of(st.integers(3, 6),
                                st.sampled_from([250, 251, 252, 256, 257, 300])))
        sys_ = DupSystem(q, data.draw(st.sampled_from([2, 3])))
        # few symbols, so that squares occur at any q; the largest among them
        alphabet = range(q) if q <= 6 else (0, 1, q - 3, q - 2, q - 1)
        y = Word(tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=16))), q)
        r = root(y, sys_)
        assert is_irreducible(r, sys_.k)
        assert all_roots_bfs(y, sys_, ORACLE_BUDGET) == {r}

    def test_validates_no_word(self, s43, word_validations):
        y, _events = random_descendant(unrank_irr(300, 12345, s43), 500, s43, seed=1)
        before = word_validations.calls
        assert is_irreducible(root(y, s43), 3)
        assert word_validations.calls == before

    def test_linear_time_on_long_descendant(self, s43):
        # Rescanning with middle deletion is quadratic: 1.4-1.7 s for this word
        # on a 2-vCPU x86-64 host, where stack reduction takes about 10 ms.
        x = unrank_irr(200, 12345678901234567, s43)
        y, events = random_descendant(x, 50_000, s43, seed=7)
        assert len(y) >= 100_000 and len(events) == 50_000
        start = time.perf_counter()
        r = root(y, s43)
        elapsed = time.perf_counter() - start
        assert r == x
        assert elapsed < 1.0, f"root took {elapsed:.2f} s on {len(y)} symbols"


class TestExtendZeta:
    # the run extension a codeword pads its root with: the codec pads bytes in
    # place, so the tests' reference restates it for test_codec's reference
    @pytest.mark.parametrize("x, i, expected", [
        ("01210", 3, "01210000"),
        ("01210", 0, "01210"),
        ("2", 2, "222"),
    ])
    def test_pads_with_last_symbol(self, x, i, expected):
        assert str(ref.extend_zeta(w(x), i)) == expected

    def test_requires_nonempty(self):
        with pytest.raises(DomainError):
            ref.extend_zeta(Word((), 3), 1)

    def test_requires_nonnegative(self):
        with pytest.raises(DomainError):
            ref.extend_zeta(w("0"), -1)


class TestRandomDescendant:
    def test_deterministic_per_seed(self, s32):
        a = random_descendant(w("01210"), 5, s32, seed=7)
        b = random_descendant(w("01210"), 5, s32, seed=7)
        c = random_descendant(w("01210"), 5, s32, seed=8)
        assert a == b
        assert a != c

    def test_events_replay_to_output(self, s33):
        word, events = random_descendant(w("0121012"), 6, s33, seed=3)
        assert len(events) == 6
        replay = w("0121012")
        for ev in events:
            replay = tandem_duplicate(replay, ev)
        assert replay == word

    def test_growth_bounds_from_single_symbol(self, s32):
        # first event is forced to length 1, later ones can reach k
        word, events = random_descendant(w("0"), 3, s32, seed=11)
        assert 4 <= len(word) <= 6
        assert set(word) == {0}

    def test_zero_steps(self, s32):
        word, events = random_descendant(w("012"), 0, s32, seed=0)
        assert word == w("012")
        assert events == []

    def test_rejects_empty_start(self, s32):
        with pytest.raises(DomainError):
            random_descendant(Word((), 3), 1, s32, seed=0)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_list_reference(self, data):
        q = data.draw(st.sampled_from([3, 4, 256, 257, 300]))
        k = data.draw(st.sampled_from([2, 3]))
        syms = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=20))
        t = data.draw(st.integers(0, 40))
        seed = data.draw(st.integers(0, 2**32))
        x = Word(tuple(syms), q)
        got = random_descendant(x, t, DupSystem(q, k), seed)
        assert got == random_descendant_reference(x, t, k, seed)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_list_reference_on_a_long_word(self, k):
        # position ranges cross many bit lengths, so rejected draws happen often
        x = Word(tuple(random.Random(k).choices(range(4), k=300)), 4)
        got = random_descendant(x, 3000, DupSystem(4, k), seed=k)
        assert got == random_descendant_reference(x, 3000, k, k)


class TestDupSystem:
    def test_validation(self):
        with pytest.raises(DomainError):
            DupSystem(2, 2)
        with pytest.raises(DomainError):
            DupSystem(3, 4)
        with pytest.raises(DomainError):
            DupSystem(3, 1)

    def test_hashable(self):
        assert len({DupSystem(3, 2), DupSystem(3, 2), DupSystem(3, 3)}) == 2


_S43 = DupSystem(4, 3)


class TestRecords:
    """The six frozen records behave as frozen dataclasses would: fields
    by position or keyword, equality within one class, the field tuple's
    hash, the same repr, no assignment, and copy and pickle round trips."""

    RECORDS = [
        (Word, ("symbols", "q"), ((0, 1), 3), "Word(symbols=(0, 1), q=3)"),
        (DupSystem, ("q", "k"), (4, 3), "DupSystem(q=4, k=3)"),
        (CodeSpec, ("sys", "n"), (_S43, 8), "CodeSpec(sys=DupSystem(q=4, k=3), n=8)"),
        (FseParams, ("sys", "ell", "m"), (_S43, 3, 7),
         "FseParams(sys=DupSystem(q=4, k=3), ell=3, m=7)"),
        (RateInfo, ("sys", "lam", "rate"), (_S43, 2.5, 0.66),
         "RateInfo(sys=DupSystem(q=4, k=3), lam=2.5, rate=0.66)"),
        (OracleBudget, ("max_words", "max_depth"), (100, 4),
         "OracleBudget(max_words=100, max_depth=4)"),
    ]
    IDS = [cls.__name__ for cls, *_ in RECORDS]

    @pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
    def test_fields_by_position_or_keyword(self, cls, names, values, text):
        x = cls(*values)
        assert tuple(getattr(x, f) for f in names) == values
        assert cls(**dict(zip(names, values))) == x
        assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == x
        if cls is not OracleBudget:  # its fields have defaults
            with pytest.raises(TypeError):
                cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, values[-1])
        with pytest.raises(TypeError):
            cls(*values, nonsense=1)

    @pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
    def test_equality_hash_and_repr(self, cls, names, values, text):
        x = cls(*values)
        assert x == cls(*values) and not x != cls(*values)
        assert hash(x) == hash(values)
        assert repr(x) == text

    def test_no_equality_across_classes(self):
        # the same field tuple in two classes
        assert DupSystem(3, 2) != OracleBudget(3, 2)
        assert DupSystem(3, 2) != (3, 2)
        assert len({DupSystem(3, 2), OracleBudget(3, 2)}) == 2

    @pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
    def test_assignment_raises(self, cls, names, values, text):
        x = cls(*values)
        for name in (*names, "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert tuple(getattr(x, f) for f in names) == values

    @pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
    def test_copy_and_pickle(self, cls, names, values, text):
        x = cls(*values)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is cls and y == x and repr(y) == text

    def test_oracle_budget_defaults(self):
        assert OracleBudget() == OracleBudget(2_000_000, 12)
        assert OracleBudget(max_depth=3) == OracleBudget(2_000_000, 3)

    def test_rate_info_reads_kappa_as_a_property(self):
        # kappa is derived from the fields, so a record holds only those
        info = asymptotic_rate(_S43)
        assert info.kappa == info.kappa
        assert not hasattr(info, "__dict__")
        assert copy.deepcopy(info) == info

    def test_checks_run_on_every_construction(self):
        with pytest.raises(DomainError):
            Word(symbols=(0, 3), q=3)
        with pytest.raises(DomainError):
            FseParams(_S43, 1, 4)


class TestAlphabetCheck:
    """Every entry point that takes a word and a system rejects a word over
    another alphabet with the one message of words._check_alphabet."""

    S4 = DupSystem(4, 2)
    X5 = Word((0, 1, 0), 5)

    @pytest.mark.parametrize("call", [
        lambda x: tdcode.root(x, TestAlphabetCheck.S4),
        lambda x: tdcode.random_descendant(x, 1, TestAlphabetCheck.S4, 0),
        lambda x: tdcode.decode_codeword(x, tdcode.CodeSpec(TestAlphabetCheck.S4, 2)),
        lambda x: tdcode.FseCodec(tdcode.FseParams(TestAlphabetCheck.S4, 1, 3)).decode_values(x),
        lambda x: tdcode.rank_irr(x, TestAlphabetCheck.S4),
        lambda x: tdcode.rank_irr_prefix(Word((0,), 4), x, TestAlphabetCheck.S4),
    ], ids=["root", "random_descendant", "decode_codeword", "fse_decode_values", "rank_irr",
            "rank_irr_prefix"])
    def test_one_message(self, call):
        with pytest.raises(DomainError, match="^word alphabet q=5 does not match system q=4$"):
            call(self.X5)
