"""Tests for the command line interface (run in-process)."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flag_probes import PROBES, cases
from tdcode import (
    CodeSpec,
    DomainError,
    DupSystem,
    Word,
    count_irr,
    encode_codeword,
    random_descendant,
    unrank_irr,
)
from tdcode import OracleBudget
from tdcode.cli import (
    MAX_STATE_LENGTH,
    MAX_TABLE_LENGTH,
    MAX_WINDOWS,
    _BOUNDS,
    _FIELDS,
    _MAX_SAMPLES,
    _all_digits,
    _build_parser,
    _check,
    _frame_bits,
    _join_chunks,
    _split_chunks,
    main,
    parse_header,
)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSimpleCommands:
    def test_count(self, capsys):
        rc, out, _ = run(capsys, "count", "-n", "6", "-q", "3", "-k", "2")
        assert rc == 0
        assert out.strip() == "48"

    def test_count_json(self, capsys):
        rc, out, _ = run(capsys, "count", "-n", "6", "-q", "3", "-k", "3", "--json")
        assert rc == 0
        assert json.loads(out) == {"n": 6, "q": 3, "k": 3, "count": 42}

    def test_rate(self, capsys):
        rc, out, _ = run(capsys, "rate", "-q", "3", "-k", "2")
        assert rc == 0
        payload = json.loads(out)
        assert payload["rate"] == pytest.approx(0.4380, abs=5e-5)
        assert payload["lambda"] == pytest.approx(1.6180339887, abs=1e-9)
        assert "kappa" in payload

    def test_rate_with_epsilon(self, capsys):
        rc, out, _ = run(capsys, "rate", "-q", "3", "-k", "2", "-e", "0.05")
        payload = json.loads(out)
        assert rc == 0
        assert (payload["ell"], payload["m"]) == (6, 15)

    def test_rank_unrank_pair(self, capsys):
        rc, out, _ = run(capsys, "unrank", "-n", "6", "-j", "40", "-q", "3", "-k", "2")
        assert rc == 0 and out.strip() == "202101"
        rc, out, _ = run(capsys, "rank", "-w", "202101", "-q", "3", "-k", "2")
        assert rc == 0 and out.strip() == "40"

    def test_rank_unrank_dna(self, capsys):
        rc, out, _ = run(capsys, "unrank", "-n", "4", "-j", "1", "-q", "4", "-k", "2", "--dna")
        assert rc == 0
        word = out.strip()
        assert set(word) <= set("ACGT") and len(word) == 4
        rc, out, _ = run(capsys, "rank", "-w", word, "-q", "4", "-k", "2", "--dna")
        assert rc == 0 and out.strip() == "1"


class TestExitCodes:
    @pytest.mark.parametrize("argv, message", [
        (("rank", "-q", "3", "-k", "2", "--dna", "-w", "ACG"), "DNA rendering requires q = 4"),
        (("rank", "-q", "11", "-k", "2", "-w", "012"),
         "digit strings only cover alphabets up to q = 10"),
        (("unrank", "-q", "5", "-k", "2", "--dna", "-n", "3", "-j", "1"),
         "DNA rendering requires q = 4"),
        (("unrank", "-q", "11", "-k", "2", "-n", "3", "-j", "1"),
         "digit strings only cover alphabets up to q = 10"),
    ], ids=["rank-dna", "rank-digits", "unrank-dna", "unrank-digits"])
    def test_rendering_is_the_text_codecs_rule(self, argv, message, capsys, monkeypatch):
        def ranking(*args):
            raise AssertionError("ranking started before the rendering was checked")

        for name in ("rank_irr", "unrank_irr"):
            monkeypatch.setattr(f"tdcode.ranking.{name}", ranking)
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_domain_error_is_exit_two(self, capsys):
        rc, _, err = run(capsys, "count", "-n", "5", "-q", "2", "-k", "2")
        assert rc == 2
        assert "error:" in err

    def test_reducible_word_is_exit_two(self, capsys):
        rc, _, err = run(capsys, "rank", "-w", "0010", "-q", "3", "-k", "2")
        assert rc == 2

    @pytest.mark.parametrize("word", ["\u0660\u0661\u0662", "\uff10\uff11\uff12"],
                             ids=["arabic-indic", "fullwidth"])
    def test_non_ascii_digits_are_exit_two(self, word, capsys):
        rc, out, err = run(capsys, "rank", "-q", "4", "-k", "2", "-w", word)
        assert (rc, out) == (2, "")
        assert err == f"error: not a digit string: {word!r}\n"

    def test_usage_error_is_exit_two(self, capsys):
        rc, _, _ = run(capsys, "count", "-n", "5")
        assert rc == 2

    def test_help_is_exit_zero(self, capsys):
        rc, _, _ = run(capsys, "--help")
        assert rc == 0

    def test_huge_count_prints_every_digit(self, capsys):
        # count_irr(20000) at q4k2 has about 8700 digits, past str()'s limit
        limit = sys.get_int_max_str_digits()
        rc, out, err = run(capsys, "count", "-q", "4", "-k", "2", "-n", "20000")
        assert rc == 0, err
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert out.strip() == str(count_irr(20000, DupSystem(4, 2)))
        finally:
            sys.set_int_max_str_digits(limit)

    def test_huge_range_error_is_exit_two(self, capsys):
        rc, _, err = run(capsys, "unrank", "-q", "4", "-k", "2", "-n", "20000", "-j", "0")
        assert rc == 2
        assert "error:" in err and "Traceback" not in err

    def test_corrupt_stream_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("# tdcode mode=fse q=3 k=2 ell=1 m=3 chunk=1 digits=1 dna=0\n0102\n")
        rc, _, err = run(capsys, "decode", "-i", str(bad), "-o", str(tmp_path / "x"))
        assert rc == 1
        assert "error:" in err


class TestNonAsciiInput:
    @pytest.mark.parametrize("argv", [
        ("decode",),
        ("channel", "-t", "2"),
        ("encode", "--mode", "fse", "-q", "3", "-k", "2", "--ell", "1", "--m", "3",
         "--digits"),
    ], ids=["decode", "channel", "encode-digits"])
    @pytest.mark.parametrize("data", [
        "# tdcode mode=fse q=3 k=2 ell=1 m=3 chunk=1 digits=1 dna=0\n01Ä2\n".encode(),
        b"\xff012\n",
    ], ids=["utf8", "ff"])
    def test_is_a_corrupt_input_error(self, argv, data, tmp_path, capsys):
        offset = next(i for i, b in enumerate(data) if b > 127)
        src = tmp_path / "in.txt"
        src.write_bytes(data)
        rc, _, err = run(capsys, *argv, "-i", str(src), "-o", str(tmp_path / "out"))
        assert rc == 1
        byte = f"0x{data[offset]:02x}"
        assert err == f"error: input is not ASCII text: byte {byte} at offset {offset}\n"

    def test_on_stdin(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-m", "tdcode.cli", "channel", "-q", "4", "-k", "2",
                               "-t", "1"], input="ACÄT\n".encode(), capture_output=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1
        assert proc.stderr == b"error: input is not ASCII text: byte 0xc3 at offset 2\n"


class TestFlagBounds:
    OVER = str(MAX_TABLE_LENGTH + 1)

    @pytest.mark.parametrize("argv, message", [
        (("count", "-q", "4", "-k", "2", "-n", OVER), f"length {OVER} exceeds the counting cap 32768"),
        (("unrank", "-q", "4", "-k", "2", "-n", OVER, "-j", "1"),
         f"length {OVER} exceeds the counting cap 32768"),
        (("rank", "-q", "3", "-k", "2", "-w", ("012" * MAX_TABLE_LENGTH)[:MAX_TABLE_LENGTH + 1]),
         f"word length {OVER} exceeds the counting cap 32768"),
        (("encode", "--mode", "code", "-q", "4", "-k", "2", "-n", OVER),
         f"code length {OVER} exceeds the counting cap 32768"),
        (("rate", "-q", "4", "-k", "3", "-e", "1e-6"),
         "epsilon 1e-06: length 925243 exceeds the counting cap 32768"),
        (("encode", "--mode", "fse", "-q", "4", "-k", "3", "-e", "1e-6"),
         "epsilon 1e-06: state length 925243 exceeds the counting cap 2048"),
        (("decode", "--mode", "fse", "-q", "3", "-k", "2", "-e", "1e-6"),
         "epsilon 1e-06: state length 752073 exceeds the counting cap 2048"),
    ], ids=["count", "unrank", "rank", "encode-code", "rate", "encode-fse", "decode-fse"])
    def test_flag_past_the_cap_fails_before_counting(
        self, argv, message, tmp_path, capsys, monkeypatch
    ):
        def counting(*args):
            raise AssertionError("counting started before the flag was checked")

        for name in ("enumeration.count_irr", "enumeration.code_size",
                     "enumeration.choose_params", "ranking.rank_irr", "ranking.unrank_irr"):
            monkeypatch.setattr(f"tdcode.{name}", counting)
        src = tmp_path / "in.txt"
        src.write_text("0102\n")
        if argv[0] in ("encode", "decode"):
            argv += ("-i", str(src), "-o", str(tmp_path / "out"))
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert err == f"error: {message}\n"

    def test_subnormal_epsilon_is_a_domain_error(self, capsys, monkeypatch):
        # its ell overflows a float before there is a state length to cap
        monkeypatch.setattr("tdcode.enumeration.choose_params", None)
        rc, _, err = run(capsys, "rate", "-q", "3", "-k", "2", "-e", "5e-324")
        assert rc == 2
        assert "is too small" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, rc_expected, message", [
        (("rank", "-q", "9", "-k", "3", "-w", "012"), 2, "q=9, k=3: full window count 35784"),
        (("unrank", "-q", "28", "-k", "2", "-n", "3", "-j", "1"), 2,
         "q=28, k=2: full window count 20412"),
        (("encode", "--mode", "fse", "-q", "9", "-k", "3", "--ell", "1", "--m", "5"), 2,
         "q=9, k=3: full window count 35784"),
        (("encode", "--mode", "code", "-q", "9", "-k", "3", "-n", "5"), 2,
         "q=9, k=3: full window count 35784"),
        (("decode",), 1, "header q=40, k=3: full window count 92417520"),  # corrupt input
        (("verify", "-q", "40", "-k", "2"), 2, "q=40, k=2: full window count 60840"),
    ], ids=["rank", "unrank", "encode-fse", "encode-code", "decode-header", "verify"])
    def test_alphabet_past_the_window_cap_fails_before_the_dp(
        self, argv, rc_expected, message, tmp_path, capsys, monkeypatch
    ):
        def building(*args):
            raise AssertionError("the window DP was built before q was checked")

        monkeypatch.setattr("tdcode.enumeration._WindowDP", building)
        src = tmp_path / "in.txt"
        src.write_text("# tdcode mode=fse q=40 k=3 ell=1 m=5 chunk=5 digits=0 dna=0\n0102\n")
        if argv[0] in ("encode", "decode"):
            argv += ("-i", str(src), "-o", str(tmp_path / "out"))
        rc, _, err = run(capsys, *argv)
        assert rc == rc_expected
        assert err == f"error: {message} exceeds the window cap {MAX_WINDOWS}\n"

    def test_rate_past_the_window_cap_builds_no_window_dp(self, capsys, monkeypatch):
        # rates and parameters count on equality patterns alone, at any q
        def building(*args):
            raise AssertionError("rate built the window DP")

        monkeypatch.setattr("tdcode.enumeration._WindowDP.__init__", building)  # as _dp calls it
        rc, out, err = run(capsys, "rate", "-q", "40", "-k", "3", "-e", "0.01")
        assert rc == 0 and err == ""
        assert '"ell": 99, "m": 100' in out

    @pytest.mark.parametrize("q, k", [(10**45, 3), (10**78, 2), (10**155, 2), (10**309, 3)])
    def test_alphabet_past_float_range_is_a_domain_error(self, q, k, capsys):
        # with no window cap, rate's float lambda and kappa bound q instead
        rc, out, err = run(capsys, "rate", "-q", str(q), "-k", str(k), "-e", "0.01")
        assert rc == 2 and out == ""
        assert "is too large for a float rate" in err and "Traceback" not in err

    def test_duplication_count_past_the_cap_fails_before_reading(self, capsys, monkeypatch):
        def reading(*args):
            raise AssertionError("the input was read before -t was checked")

        monkeypatch.setattr("tdcode.cli._read_text", reading)
        rc, _, err = run(capsys, "channel", "-q", "4", "-k", "2", "-t", self.OVER)
        assert rc == 2
        assert err == (f"error: duplication count {self.OVER} outside [0, {MAX_TABLE_LENGTH}], "
                       "the duplication cap\n")

    def test_the_cap_itself_is_allowed(self):
        _check("n", MAX_TABLE_LENGTH, q=3)
        with pytest.raises(DomainError):
            _check("n", MAX_TABLE_LENGTH + 1, q=3)

    # n * n * max(q.bit_length(), 5) <= 5 * MAX_TABLE_LENGTH**2: the cap at q is
    # isqrt(5 * 2**30 // 997) = 2320 and isqrt(5 * 2**30 // 67) = 8951
    @pytest.mark.parametrize("argv, what", [
        (("count", "-q", str(10**300), "-k", "2", "-n", str(MAX_TABLE_LENGTH)),
         f"length {MAX_TABLE_LENGTH} exceeds the counting cap 2320"),
        (("rate", "-q", str(10**20), "-k", "2", "-e", "1e-4"),
         "epsilon 0.0001: length 9999 exceeds the counting cap 8951"),
    ], ids=["count", "rate"])
    def test_table_bits_past_the_cap_fail_before_counting(self, argv, what, capsys, monkeypatch):
        # a count table holds about n * n * log2(q) bits: its length alone
        # does not bound it once q has hundreds of digits
        def counting(*args):
            raise AssertionError("counting started before the table's bits were checked")

        for name in ("count_irr", "choose_params"):  # rate's kappa counts 3k - 1 symbols
            monkeypatch.setattr(f"tdcode.enumeration.{name}", counting)
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == f"error: {what}\n"

    def test_table_bits_of_every_alphabet_below_32_are_allowed(self, capsys, monkeypatch):
        # q = 27 at the length cap sets the bound, and q = 31 has as many bits
        _check("n", MAX_TABLE_LENGTH, q=31)
        with pytest.raises(DomainError):
            _check("n", MAX_TABLE_LENGTH, q=32)

        def counting(*args):
            raise Counted

        monkeypatch.setattr("tdcode.enumeration.count_irr", counting)
        with pytest.raises(Counted):
            main(["count", "-q", "31", "-k", "2", "-n", str(MAX_TABLE_LENGTH)])


class Counted(Exception):
    """Raised by the counting entry points the header walk stubs out."""


# The stream fields' bounds, walked: each field of cli._FIELDS at its bound
# and one past it, from a header and from its flag where one exists.  The
# streams are honest but for the probed field: a code stream of q = 3,
# k = 2, n = 10 (chunk = 9, at most (n + 1) * q.bit_length() = 22) with two
# strands of 10 symbols, and an fse stream of ell = 1, m = 3 (chunk = 1)
# with one strand of 312 symbols; length 0 is a stream without strands,
# which gets every check that needs none.  rc None: the check passes and
# counting starts.
BASE = {
    "code": {"mode": "code", "q": 3, "k": 2, "n": 10, "chunk": 9, "digits": 0, "dna": 0},
    "fse": {"mode": "fse", "q": 3, "k": 2, "ell": 1, "m": 3, "chunk": 1, "digits": 0, "dna": 0},
}


def probe(mode, field, value, rc=None, message="", *, flag=False, length=None, name=None,
          **more):
    edits = {field: value, **more}
    return pytest.param(mode, edits, flag, length, rc, message, id=name or "-".join(
        [mode, field, str(value)] + (["flag"] if flag else [])))


HEADER_PROBES = [
    probe("code", "mode", "code"),
    probe("code", "mode", "xyz", 1, "header field 'mode=xyz' is not fse or code"),
    probe("code", "mode", "xyz", 2, "argument --mode: invalid choice: 'xyz'", flag=True),
    probe("code", "q", 3),
    probe("code", "q", 2, 2, "alphabet size must be at least 3, got 2"),
    probe("code", "q", 2, 2, "alphabet size must be at least 3, got 2", flag=True),
    probe("code", "q", 8, k=3),
    probe("code", "q", 9, 1,
          f"header q=9, k=3: full window count 35784 exceeds the window cap {MAX_WINDOWS}", k=3),
    probe("code", "q", 9, 2,
          f"q=9, k=3: full window count 35784 exceeds the window cap {MAX_WINDOWS}",
          k=3, flag=True),
    probe("code", "q", 10),
    probe("code", "q", 11, 1, "header digit strings only cover alphabets up to q = 10"),
    probe("code", "q", 11, 2, "digit strings only cover alphabets up to q = 10", flag=True),
    probe("code", "k", 3),
    probe("code", "k", 4, 2, "duplication bound k must be 2 or 3, got 4"),
    probe("code", "k", 4, 2, "argument -k: invalid choice: 4", flag=True),
    probe("code", "n", 1, chunk=1),
    probe("code", "n", 1, flag=True),
    probe("code", "n", 0, 2, "codeword length must be >= 1, got 0"),
    probe("code", "n", 0, 2, "codeword length must be >= 1, got 0", flag=True),
    probe("code", "n", 10),
    probe("code", "n", 11, 1, "code length n=11 exceeds the shortest strand"),
    probe("code", "n", 11, 1, "code length n=11 exceeds the shortest strand", flag=True),
    probe("code", "n", MAX_TABLE_LENGTH, length=MAX_TABLE_LENGTH + 1),
    probe("code", "n", MAX_TABLE_LENGTH, length=MAX_TABLE_LENGTH + 1, flag=True),
    probe("code", "n", MAX_TABLE_LENGTH + 1, 1,
          f"header code length {MAX_TABLE_LENGTH + 1} exceeds the counting cap {MAX_TABLE_LENGTH}",
          length=MAX_TABLE_LENGTH + 1),
    probe("code", "n", MAX_TABLE_LENGTH + 1, 2,
          f"code length {MAX_TABLE_LENGTH + 1} exceeds the counting cap {MAX_TABLE_LENGTH}",
          length=MAX_TABLE_LENGTH + 1, flag=True),
    probe("code", "n", MAX_TABLE_LENGTH + 1, 1,
          f"header code length {MAX_TABLE_LENGTH + 1} exceeds the counting cap {MAX_TABLE_LENGTH}",
          length=0, name="code-n-32769-no-strand"),
    probe("code", "chunk", 1),
    probe("code", "chunk", 0, 1, "header chunk=0 outside [1, 22]"),
    probe("code", "chunk", 22),
    probe("code", "chunk", 23, 1, "header chunk=23 outside [1, 22]"),
    probe("code", "chunk", 0, 1, "header chunk=0 outside [1, 22]", length=0,
          name="code-chunk-0-no-strand"),
    probe("code", "digits", 0),
    probe("code", "digits", 1, 1, "header digits=1 applies only to mode=fse"),
    probe("code", "digits", 1, 2, "digits=1 applies only to mode=fse", flag=True),
    probe("code", "digits", 2, 1, "header field 'digits=2' is not 0 or 1"),
    probe("code", "dna", 1, q=4),
    probe("code", "dna", 1, q=4, flag=True),
    probe("code", "dna", 1, 1, "header DNA rendering requires q = 4", name="code-dna-1-q3"),
    probe("code", "dna", 1, 2, "DNA rendering requires q = 4", flag=True,
          name="code-dna-1-q3-flag"),
    probe("code", "dna", 2, 1, "header field 'dna=2' is not 0 or 1"),
    probe("fse", "mode", "fse"),
    probe("fse", "ell", 1),
    probe("fse", "ell", 0, 2, "block length ell must be >= 1, got 0"),
    probe("fse", "ell", 0, 2, "block length ell must be >= 1, got 0", flag=True),
    probe("fse", "ell", 2, chunk=3),
    probe("fse", "ell", 2, flag=True),
    probe("fse", "ell", 3, 1, "ell=3, m=3 do not satisfy ell < m <= 312, the strand length"),
    probe("fse", "ell", 3, 1, "ell=3, m=3 do not satisfy ell < m <= 312, the strand length",
          flag=True),
    probe("fse", "ell", 3, 1, "ell=3 must be below m=3; no labeling exists", length=0,
          name="fse-ell-3-no-strand"),
    probe("fse", "ell", 3, 1, "ell=3 must be below m=3; no labeling exists", length=0,
          flag=True, name="fse-ell-3-no-strand-flag"),
    probe("fse", "m", 3),
    probe("fse", "m", 2, 2, "state length m must be >= 3, got 2"),
    probe("fse", "m", 2, 2, "state length m must be >= 3, got 2", flag=True),
    probe("fse", "m", 312),
    probe("fse", "m", 313, 1, "ell=1, m=313 do not satisfy ell < m <= 312, the strand length"),
    probe("fse", "m", 313, 1, "ell=1, m=313 do not satisfy ell < m <= 312, the strand length",
          flag=True),
    probe("fse", "m", 1000, 1, "ell=1, m=1000 do not satisfy ell < m <= 312, the strand length"),
    probe("fse", "m", MAX_STATE_LENGTH, length=MAX_STATE_LENGTH + 1),
    probe("fse", "m", MAX_STATE_LENGTH + 1, 1,
          f"header state length {MAX_STATE_LENGTH + 1} exceeds the counting cap {MAX_STATE_LENGTH}",
          length=MAX_STATE_LENGTH + 1),
    probe("fse", "m", MAX_STATE_LENGTH + 1, 1,
          f"header state length {MAX_STATE_LENGTH + 1} exceeds the counting cap {MAX_STATE_LENGTH}",
          length=0, name="fse-m-2049-no-strand"),
    probe("fse", "m", MAX_STATE_LENGTH + 1, 2,
          f"state length {MAX_STATE_LENGTH + 1} exceeds the counting cap {MAX_STATE_LENGTH}",
          length=MAX_STATE_LENGTH + 1, flag=True),
    probe("fse", "chunk", 1),
    probe("fse", "chunk", 2, 1, "header chunk=2 is not 1, the width for ell=1"),
    probe("fse", "chunk", 40, 1, "header chunk=40 is not 1, the width for ell=1"),
    probe("fse", "chunk", 40, 1, "header chunk=40 is not 1, the width for ell=1", length=0,
          name="fse-chunk-40-no-strand"),
    probe("fse", "digits", 1),
    probe("fse", "digits", 1, flag=True),
    probe("fse", "digits", 2, 1, "header field 'digits=2' is not 0 or 1"),
]


class TestHeaderBounds:
    FLAGS = {"mode": "--mode", "q": "-q", "k": "-k", "n": "-n", "ell": "--ell", "m": "--m"}

    def test_the_walk_covers_every_field(self):
        # each probe's field is the first of its edits
        fields = {next(iter(p.values[1])) for p in HEADER_PROBES}
        flagged = {next(iter(p.values[1])) for p in HEADER_PROBES if p.values[2]}
        assert fields == set(_FIELDS)
        assert flagged == set(_FIELDS) - {"chunk"}  # the one field with no flag

    @pytest.mark.parametrize("mode, edits, flag, length, rc_expected, message", HEADER_PROBES)
    def test_bad_field_fails_before_counting(
        self, mode, edits, flag, length, rc_expected, message, tmp_path, capsys, monkeypatch
    ):
        fields = {**BASE[mode], **edits}
        length = (10 if mode == "code" else 312) if length is None else length
        strand = ("ACG" if fields["dna"] else "012") * length
        strands = [strand[:length]] * (2 if mode == "code" else 1) if length else []
        argv = ["decode", "-i", str(tmp_path / "enc.txt"), "-o", str(tmp_path / "out")]
        if flag:  # a header-less stream: every field from its flag
            argv += [f for key, v in fields.items() if key in self.FLAGS
                     for f in (self.FLAGS[key], str(v))]
            argv += [f"--{key}" for key in ("digits", "dna") if fields[key]]
        else:
            strands.insert(0, " ".join(["# tdcode"] + [f"{k}={v}" for k, v in fields.items()]))
        (tmp_path / "enc.txt").write_text("\n".join(strands) + "\n")

        def counting(*args):
            raise Counted

        for name in ("fse.FseCodec", "codec.decode_codewords", "enumeration.code_size"):
            monkeypatch.setattr(f"tdcode.{name}", counting)
        if rc_expected is None:
            with pytest.raises(Counted):
                main(argv)
            return
        rc, _, err = run(capsys, *argv)
        assert rc == rc_expected
        if message.startswith("argument "):  # argparse checks a flag's choices
            assert f"error: {message}" in err
        else:
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize("strands, rc_expected", [("0120120120\n", 1), ("", 1)],
                             ids=["short-strand", "empty"])
    def test_code_length_checked_before_counting(
        self, strands, rc_expected, tmp_path, capsys, monkeypatch
    ):
        # no chunk field: only code_size(n) could supply it, at O(n**2) bits
        enc = tmp_path / "enc.txt"
        enc.write_text("# tdcode mode=code q=4 k=2 n=60000 digits=0 dna=0\n" + strands)

        def counting(*args):
            raise AssertionError("code_size ran before the strands were checked")

        monkeypatch.setattr("tdcode.enumeration.code_size", counting)
        rc, _, err = run(capsys, "decode", "-i", str(enc), "-o", str(tmp_path / "out"))
        assert rc == rc_expected
        assert "Traceback" not in err
        assert ("error:" in err) == (rc_expected == 1)


class TestBoundTable:
    # numeric flags that no entry of cli._BOUNDS bounds, and why
    UNBOUNDED = {
        "--seed": "any int seeds the draws",
        "-q": "the records hold q >= 3, the window-count entry q bounds it where the window DP "
              "is built, and count and rate take any q",
        "-k": "the records and argparse's choices hold k in {2, 3}",
        "--ell": "FseParams holds ell >= 1, and the check ell < m bounds it from above",
    }
    WALK = [pytest.param(key, flag, argv, v, ok, id=f"{flag}-{v}".replace(" ", "-")[:40])
            for key, probes in PROBES.items() for flag, argv, at in probes
            for v, ok in cases(key, at)]

    def test_every_entry_has_probes(self):
        assert set(PROBES) == set(_BOUNDS)
        assert all(PROBES.values())
        # an entry a header field gives is probed from the header too, passing and failing
        for key in set(_BOUNDS) & set(_FIELDS):
            outcomes = {p.values[4] for p in HEADER_PROBES
                        if next(iter(p.values[1])) == key and not p.values[2]}
            assert {None, 1} <= outcomes, key

    def test_every_numeric_flag_names_an_entry(self):
        probed = {flag for probes in PROBES.values() for flag, _, _ in probes}
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        numeric = [(command, action.option_strings[0]) for command, parser in sub.choices.items()
                   for action in parser._actions if action.type in (int, float)]
        assert len(numeric) > 20
        for command, flag in numeric:
            assert f"{command} {flag}" in probed or flag in self.UNBOUNDED, (command, flag)

    @pytest.mark.parametrize("key, flag, argv, value, accepted", WALK)
    def test_flag_at_and_past_its_bound(
        self, key, flag, argv, value, accepted, tmp_path, capsys, monkeypatch
    ):
        def counting(*args):
            raise Counted

        for name in ("enumeration.count_irr", "enumeration.code_size",
                     "enumeration.choose_params", "ranking.rank_irr", "ranking.unrank_irr",
                     "fse.FseCodec", "oracle.enumerate_irr_bruteforce",
                     "oracle.min_outdegree_bruteforce", "oracle.RootOracle"):
            monkeypatch.setattr(f"tdcode.{name}", counting)
        # -e's value is the state length its estimate gives
        monkeypatch.setattr("tdcode.enumeration._estimate", lambda *args: (1, value))
        (tmp_path / "empty").write_bytes(b"")
        args = argv(value).replace("INPUT", str(tmp_path / "empty")).split()
        if accepted:
            try:
                assert main(args) == 0
            except Counted:
                pass
            return
        rc, out, err = run(capsys, *args)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        noun = _BOUNDS[key][0]  # for -q, the full window count of the probe's q, at k = 3
        assert (f"q={value}, k=3: {noun} " if key == "q" else f"{noun} {value} ") in err

    def test_a_rank_past_the_str_digit_limit_reads_back(self, capsys):
        # rank prints ranks of thousands of digits, and unrank -j reads them
        s42 = DupSystem(4, 2)
        j = 3**12000 + 5
        word = unrank_irr(20000, j, s42)
        with _all_digits():
            text = str(j)
        assert len(text) == 5726
        rc, out, _ = run(capsys, "unrank", "-q", "4", "-k", "2", "-n", "20000", "-j", text)
        assert (rc, out) == (0, f"{word}\n")
        rc, out, _ = run(capsys, "rank", "-q", "4", "-k", "2", "-w", str(word))
        assert (rc, out) == (0, f"{text}\n")

    def test_a_million_digit_rank_fails_before_it_is_read(self, capsys, monkeypatch):
        def unranking(*args):
            raise AssertionError("the rank was unranked before its digits were checked")

        monkeypatch.setattr("tdcode.ranking.unrank_irr", unranking)
        start = time.perf_counter()
        rc, out, err = run(capsys, "unrank", "-q", "4", "-k", "2", "-n", "20000", "-j", "7" * 10**6)
        assert time.perf_counter() - start < 0.1  # int() of 10**6 digits takes seconds
        assert (rc, out) == (2, "")
        assert err == "error: rank digits 1000000 exceeds the digit cap 20000\n"

    def test_a_value_past_64_bits_is_shown_by_its_length(self, capsys):
        # the window count of q = 10**1000 has over 4300 digits, which str() refuses
        rc, out, err = run(capsys, "rank", "-q", str(10**1000), "-k", "3", "-w", "0")
        assert (rc, out) == (2, "")
        assert err == ("error: q=<3322-bit integer>, k=3: full window count <16610-bit integer> "
                       f"exceeds the window cap {MAX_WINDOWS}\n")

    @pytest.mark.parametrize("text", ["abc", "1.5", ""])
    def test_a_rank_that_is_no_integer_is_a_domain_error(self, text, capsys):
        rc, out, err = run(capsys, "unrank", "-q", "4", "-k", "2", "-n", "5", "-j", text)
        assert (rc, out) == (2, "")
        assert err == f"error: rank {text!r} is not an integer\n"


class TestStateCap:
    # the FSE's state length m, from --m, -e or a header, is checked against
    # MAX_STATE_LENGTH before FseCodec is built or anything counts
    HEADER = "# tdcode mode=fse q=10 k=2 ell=1 m=4000 chunk=3 digits=0 dna=0\n"

    @pytest.mark.parametrize("argv, rc_expected, message", [
        (("encode", "--mode", "fse", "-q", "4", "-k", "3", "--ell", "1", "--m", "40000"), 2,
         "state length 40000"),
        (("encode", "--mode", "fse", "-q", "4", "-k", "3", "-e", "1e-4"), 2,
         "epsilon 0.0001: state length 9253"),
        (("decode",), 1, "header state length 4000"),
    ], ids=["m-flag", "epsilon", "header"])
    def test_state_length_past_the_cap_fails_before_counting(
        self, argv, rc_expected, message, tmp_path, capsys, monkeypatch
    ):
        def counting(*args):
            raise AssertionError("counting started before m was checked")

        for name in ("fse.FseCodec", "enumeration.choose_params"):
            monkeypatch.setattr(f"tdcode.{name}", counting)
        src = tmp_path / "in.txt"
        src.write_text(self.HEADER + "0" * 4000 + "\n")
        rc, _, err = run(capsys, *argv, "-i", str(src), "-o", str(tmp_path / "out"))
        assert rc == rc_expected
        assert err == f"error: {message} exceeds the counting cap {MAX_STATE_LENGTH}\n"

    def test_the_cap_itself_is_allowed(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        src.write_bytes(b"")
        rc, out, _ = run(capsys, "encode", "--mode", "fse", "-q", "3", "-k", "2", "--ell", "1",
                         "--m", str(MAX_STATE_LENGTH), "-i", str(src))
        assert rc == 0
        assert f"m={MAX_STATE_LENGTH} " in out

    @pytest.mark.parametrize("ell", ["5", "1000000000"])
    def test_ell_not_below_m_fails_before_any_power(self, ell, tmp_path, capsys, monkeypatch):
        # q**ell <= delta_min_degree(m) < q**m, so ell < m; checked before q**ell is formed
        def building(*args):
            raise AssertionError("FseCodec was built before ell was checked")

        monkeypatch.setattr("tdcode.fse.FseCodec", building)
        src = tmp_path / "in.bin"
        src.write_bytes(b"hello")
        rc, _, err = run(capsys, "encode", "--mode", "fse", "-q", "4", "-k", "3",
                         "--ell", ell, "--m", "5", "-i", str(src))
        assert rc == 2
        assert err == f"error: ell={ell} must be below m=5; no labeling exists\n"


class TestCodeStreamErrors:
    # strands of a q=4, k=3, n=12 code stream (chunk=18, code_size 394084);
    # the first failing strand decides the message, whatever follows it
    BAD = {
        "parse": ("01x201230123",
                  "cannot parse strand '01x201230123': not a digit string: '01x201230123'"),
        "short": ("0120", "code length n=12 exceeds the shortest strand"),
        "long-root": (None, "root length 13 exceeds the code length 12"),
        "overflow": (None, "decoded index 394084 does not fit in a 18 bit chunk"),
    }

    @staticmethod
    def strand(name: str) -> str:
        s43 = DupSystem(4, 3)
        if name == "long-root":
            return str(unrank_irr(13, 5, s43))
        if name == "overflow":
            return str(encode_codeword(394084, CodeSpec(s43, 12)))
        return TestCodeStreamErrors.BAD[name][0]

    @pytest.mark.parametrize("then", [None, *BAD])
    @pytest.mark.parametrize("first", [*BAD])
    def test_first_bad_strand_is_reported(self, first, then, tmp_path, capsys):
        src = tmp_path / "src.bin"
        src.write_bytes(b"hello")
        enc = tmp_path / "enc.txt"
        rc, _, _ = run(capsys, "encode", "--mode", "code", "-q", "4", "-k", "3", "-n", "12",
                       "-i", str(src), "-o", str(enc))
        assert rc == 0
        header, *strands = enc.read_text().splitlines()
        bad = [self.strand(first)] + ([self.strand(then)] if then else [])
        enc.write_text("\n".join([header, *strands[:2], *bad, *strands[2:]]) + "\n")
        rc, _, err = run(capsys, "decode", "-i", str(enc), "-o", str(tmp_path / "out"))
        # the shortest-strand check runs before any strand is decoded
        name = "short" if "short" in (first, then) else first
        assert rc == 1
        assert err == f"error: {self.BAD[name][1]}\n"

    # decode maps a code strand's letters to symbols in one pass; a strand
    # that does not map whole fails with the strand parser's message
    @staticmethod
    def encode(tmp_path, capsys, payload: bytes, *flags: str) -> str:
        src = tmp_path / "src.bin"
        src.write_bytes(payload)
        rc, out, err = run(capsys, "encode", "--mode", "code", *flags, "-i", str(src))
        assert rc == 0, err
        return out

    def test_lower_case_dna_with_crlf_line_ends_decodes(self, tmp_path, capsys):
        payload = b"tandem duplications"
        text = self.encode(tmp_path, capsys, payload, "-q", "4", "-k", "3", "-n", "12", "--dna")
        enc = tmp_path / "enc.txt"
        enc.write_bytes(text.lower().replace("\n", "\r\n").encode())
        out = tmp_path / "out.bin"
        rc, _, err = run(capsys, "decode", "-i", str(enc), "-o", str(out))
        assert rc == 0, err
        assert out.read_bytes() == payload

    @pytest.mark.parametrize("flags, strand, message", [
        (("-q", "4", "-k", "3", "--dna"), "acXt",
         "cannot parse strand 'acXt': not a DNA string: 'acXt'"),
        (("-q", "3", "-k", "2"), "0130",
         "cannot parse strand '0130': symbol 3 outside alphabet of size 3"),
    ], ids=["dna-letter", "digit-past-q"])
    def test_bad_strand_mid_stream(self, flags, strand, message, tmp_path, capsys):
        header, *strands = self.encode(tmp_path, capsys, b"hello", *flags, "-n", "4").splitlines()
        assert len(strands) > 4
        enc = tmp_path / "enc.txt"
        enc.write_text("\n".join([header, *strands[:3], strand, *strands[3:]]) + "\n")
        rc, _, err = run(capsys, "decode", "-i", str(enc), "-o", str(tmp_path / "out"))
        assert rc == 1
        assert err == f"error: {message}\n"


class TestCodeStrandRendering:
    # encode renders each codeword's symbols with one translate; every strand
    # line reads as the Word renderer prints the codeword of its message index
    @pytest.mark.parametrize("q, k, dna", [(q, k, False) for q in range(3, 9) for k in (2, 3)]
                             + [(4, 2, True), (4, 3, True)])
    def test_strands_match_the_word_renderer(self, q, k, dna, tmp_path, capsys):
        n = 12
        data = bytes(range(0, 256, 5)) + b"\xff" * 8 + b"\x00" * 8
        src = tmp_path / "src.bin"
        src.write_bytes(data)
        rc, out, err = run(capsys, "encode", "--mode", "code", "-q", str(q), "-k", str(k),
                           "-n", str(n), *(["--dna"] if dna else []), "-i", str(src))
        assert rc == 0, err
        header, *strands = out.splitlines()
        spec = CodeSpec(DupSystem(q, k), n)
        js = [v + 1 for v in _split_chunks(*_frame_bits(data), parse_header(header)["chunk"])]
        codewords = [encode_codeword(j, spec) for j in js]
        assert strands == [x.to_dna() if dna else str(x) for x in codewords]


class TestStreamDigests:
    # encode's streams byte for byte, as the stream format wrote them before
    # its header fields were declared in one table: code mode for q 3..8 x
    # k 2..3 at n = 12, and one fse stream per k
    DIGESTS = {
        ("code", 3, 2, ("-n", "12")):
            "88cda104cd19b2a5720ed9fe3f2277da1e4af2f7a634b584d6537001ef8441c4",
        ("code", 3, 3, ("-n", "12")):
            "c1517428b56a58d1ead68402cfa21d941670e52faeff2e45a5183643edddf103",
        ("code", 4, 2, ("-n", "12")):
            "f0cd2363ee0dabaa4f2afd829746799b46bc8ccd3e5e368a4a7aa8edffc813ac",
        ("code", 4, 3, ("-n", "12")):
            "61cd40c5af64dab49d4fe04da9e42d4e8a81b1f3c0dd324b717a022fcad4c97d",
        ("code", 5, 2, ("-n", "12")):
            "516f62f3cdf5bcf4ede5360d09b826677e484dabfd6605c3c72025c32f49c132",
        ("code", 5, 3, ("-n", "12")):
            "98e211a8a3ccfea45b2131863749b740db73159aa607c16cbb148b1981dfb369",
        ("code", 6, 2, ("-n", "12")):
            "1cbbb079516a49c1e0fac8ff3e8922b778c9143fa29127340998dac89b8f6319",
        ("code", 6, 3, ("-n", "12")):
            "46a353c83eb302f67e0f566dd46968c73ac963cfe007f741b489af788530a894",
        ("code", 7, 2, ("-n", "12")):
            "3f30788f02b839afcbe8ece37f3f3df0c3b8fa68f5cee9c19d643aec78f0b170",
        ("code", 7, 3, ("-n", "12")):
            "238535a5e29f5a5bb782356533de148d826aa6c3323f2829a83ca66b363535fd",
        ("code", 8, 2, ("-n", "12")):
            "cf5c962a00efe6f8681db4a107a84349c413320d0acef157c3494283baf07a93",
        ("code", 8, 3, ("-n", "12")):
            "f6d1c4d28633111b804cf5c042e049b9e7d2bc9ef3b67a6bd4cd58a0c4514302",
        ("fse", 5, 2, ("-e", "0.05")):
            "733380f266a8a071537ffd4139751c8a3d729d70363d6d6453625a4be268224a",
        ("fse", 6, 3, ("-e", "0.05")):
            "393b82942ea46e3c29a3a39a760ac44f187660bac33ac8b8f79eba7e9f0544da",
    }

    @pytest.mark.parametrize("mode, q, k, flags", list(DIGESTS),
                             ids=[f"{m}-q{q}k{k}" for m, q, k, _ in DIGESTS])
    def test_stream_digest(self, mode, q, k, flags, tmp_path):
        src, out = tmp_path / "msg.bin", tmp_path / "enc.txt"
        src.write_bytes(bytes(range(256)) + b"tandem duplication")
        assert main(["encode", "--mode", mode, "-q", str(q), "-k", str(k), *flags,
                     "-i", str(src), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[mode, q, k, flags]


class TestColdStart:
    def test_cli_import_loads_neither_the_oracle_nor_openssl(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys, tdcode.cli; "
                "print(sorted({'tdcode.oracle', '_hashlib', 'json'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
        assert out.strip() == "[]"

    def test_channel_runs_without_openssl(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        enc = tmp_path / "enc.txt"
        enc.write_text("# tdcode mode=code q=3 k=2 n=5 chunk=5 digits=0 dna=0\n01210\n02120\n")
        code = ("import sys; from tdcode.cli import main; "
                f"rc = main(['channel', '-t', '3', '-i', {str(enc)!r}, '-o', {str(tmp_path / 'x')!r}]); "
                "print(rc, '_hashlib' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
        assert out.split() == ["0", "False"]

    @pytest.mark.parametrize("argv, loaded", [
        (["channel", "-t", "3"], []),
        (["encode", "--mode", "fse", "-q", "4", "-k", "3", "-e", "0.15"],
         ["tdcode.enumeration", "tdcode.fse"]),
    ], ids=["channel", "encode-fse"])
    def test_a_command_loads_only_the_modules_it_runs(self, argv, loaded, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        enc = tmp_path / "enc.txt"
        enc.write_text("# tdcode mode=code q=4 k=3 n=8 chunk=9 digits=0 dna=1\nACGTACGA\n")
        argv = [*argv, "-i", str(enc), "-o", str(tmp_path / "x")]
        code = ("import sys; from tdcode.cli import main; "
                f"rc = main({argv!r}); "
                "print(rc, *sorted({'tdcode.codec', 'tdcode.enumeration', 'tdcode.fse', "
                "'tdcode.ranking'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
        assert out.split() == ["0", *loaded]

    @pytest.mark.parametrize("argv", [
        ["channel", "-t", "3", "-i", "{code}"],
        ["encode", "--mode", "code", "-q", "4", "-k", "3", "-n", "16", "-i", "{msg}"],
        ["encode", "--mode", "fse", "-q", "4", "-k", "3", "-e", "0.15", "-i", "{msg}"],
        ["decode", "-i", "{code}"],
        ["decode", "-i", "{fse}"],
    ], ids=["channel", "encode-code", "encode-fse", "decode-code", "decode-fse"])
    def test_no_command_loads_inspect(self, argv, tmp_path):
        # the records are slotted classes: a dataclass would import inspect
        src = Path(__file__).resolve().parent.parent / "src"
        files = {"msg": tmp_path / "msg.bin"}
        files["msg"].write_bytes(bytes(range(64)))
        for mode, flags in (("code", ["-n", "16"]), ("fse", ["-e", "0.15"])):
            files[mode] = tmp_path / f"{mode}.seq"
            assert main(["encode", "--mode", mode, "-q", "4", "-k", "3", *flags,
                         "-i", str(files["msg"]), "-o", str(files[mode])]) == 0
        argv = [a.format(**files) for a in argv] + ["-o", str(tmp_path / "out")]
        code = ("import sys; from tdcode.cli import main; "
                f"rc = main({argv!r}); "
                "print(rc, *sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
        assert out.split() == ["0"]

    def test_every_public_name_resolves(self):
        import tdcode

        for name in tdcode.__all__:
            value = getattr(tdcode, name)
            home = sys.modules[getattr(value, "__module__", "tdcode.words")]
            assert getattr(home, name) is value
        assert set(tdcode.__all__) <= set(dir(tdcode))
        assert {"codec", "oracle", "words", "__version__"} <= set(dir(tdcode))
        assert tdcode.oracle.all_roots_bfs is tdcode.all_roots_bfs
        with pytest.raises(AttributeError):
            tdcode.no_such_name


class TestEncodeDecodeRoundTrip:
    @pytest.mark.parametrize("mode_args", [
        ("--mode", "code", "-q", "3", "-k", "2", "-n", "12"),
        ("--mode", "code", "-q", "4", "-k", "3", "-n", "16", "--dna"),
        ("--mode", "fse", "-q", "3", "-k", "2", "--ell", "2", "--m", "6"),
        ("--mode", "fse", "-q", "4", "-k", "3", "-e", "0.15", "--dna"),
    ])
    def test_bytes_round_trip(self, mode_args, tmp_path, capsys):
        payload = bytes(range(97)) * 3
        src = tmp_path / "src.bin"
        src.write_bytes(payload)
        enc = tmp_path / "enc.txt"
        out = tmp_path / "out.bin"
        rc, _, err = run(capsys, "encode", *mode_args, "-i", str(src), "-o", str(enc))
        assert rc == 0, err
        rc, _, err = run(capsys, "decode", "-i", str(enc), "-o", str(out))
        assert rc == 0, err
        assert out.read_bytes() == payload

    def test_empty_payload(self, tmp_path, capsys):
        src = tmp_path / "src.bin"
        src.write_bytes(b"")
        enc = tmp_path / "enc.txt"
        out = tmp_path / "out.bin"
        rc, _, _ = run(capsys, "encode", "--mode", "code", "-q", "3", "-k", "2",
                       "-n", "8", "-i", str(src), "-o", str(enc))
        assert rc == 0
        lines = [ln for ln in enc.read_text().splitlines() if ln.strip()]
        assert len(lines) == 1 and lines[0].startswith("# tdcode")
        rc, _, _ = run(capsys, "decode", "-i", str(enc), "-o", str(out))
        assert rc == 0
        assert out.read_bytes() == b""

    def test_digit_stream_matches_worked_example(self, tmp_path, capsys):
        src = tmp_path / "msg.txt"
        src.write_text("012")
        enc = tmp_path / "enc.txt"
        rc, _, _ = run(capsys, "encode", "--mode", "fse", "-q", "3", "-k", "2",
                       "--ell", "1", "--m", "3", "--digits",
                       "-i", str(src), "-o", str(enc))
        assert rc == 0
        strand = [ln for ln in enc.read_text().splitlines() if not ln.startswith("#")]
        assert strand == ["201021021"]
        rc, out, _ = run(capsys, "decode", "-i", str(enc), "-o", "-")
        assert rc == 0
        assert out.strip() == "012"

    def test_header_fields_win_over_flags(self, tmp_path, capsys):
        src = tmp_path / "src.bin"
        src.write_bytes(b"hi")
        enc = tmp_path / "enc.txt"
        out = tmp_path / "out.bin"
        run(capsys, "encode", "--mode", "code", "-q", "3", "-k", "2", "-n", "10",
            "-i", str(src), "-o", str(enc))
        # contradictory flags are ignored because the header is present
        rc, _, _ = run(capsys, "decode", "-q", "4", "-k", "3", "-n", "64",
                       "--mode", "fse", "-i", str(enc), "-o", str(out))
        assert rc == 0
        assert out.read_bytes() == b"hi"

    @pytest.mark.parametrize("flags", [("--ell", "1", "--m", "3"), ("-e", "0.1")])
    def test_fse_header_fields_win_over_flags(self, flags, tmp_path, capsys):
        src = tmp_path / "src.bin"
        src.write_bytes(b"hi")
        enc = tmp_path / "enc.txt"
        out = tmp_path / "out.bin"
        run(capsys, "encode", "--mode", "fse", "-q", "3", "-k", "2", "--ell", "2",
            "--m", "6", "-i", str(src), "-o", str(enc))
        rc, _, err = run(capsys, "decode", *flags, "-i", str(enc), "-o", str(out))
        assert rc == 0, err
        assert out.read_bytes() == b"hi"

    def test_decode_without_header_needs_flags(self, tmp_path, capsys):
        src = tmp_path / "src.bin"
        src.write_bytes(b"hi")
        enc = tmp_path / "enc.txt"
        run(capsys, "encode", "--mode", "code", "-q", "3", "-k", "2", "-n", "10",
            "-i", str(src), "-o", str(enc))
        headerless = tmp_path / "bare.txt"
        headerless.write_text("".join(
            ln + "\n" for ln in enc.read_text().splitlines() if not ln.startswith("#")
        ))
        out = tmp_path / "out.bin"
        rc, _, _ = run(capsys, "decode", "-i", str(headerless), "-o", str(out))
        assert rc == 2
        rc, _, _ = run(capsys, "decode", "--mode", "code", "-q", "3", "-k", "2",
                       "-n", "10", "-i", str(headerless), "-o", str(out))
        assert rc == 0
        assert out.read_bytes() == b"hi"

    def test_decode_reads_chunk_from_header_without_recounting(
        self, tmp_path, capsys, monkeypatch
    ):
        src = tmp_path / "src.bin"
        src.write_bytes(b"hi")
        enc = tmp_path / "enc.txt"
        out = tmp_path / "out.bin"
        rc, _, _ = run(capsys, "encode", "--mode", "code", "-q", "3", "-k", "2",
                       "-n", "10", "-i", str(src), "-o", str(enc))
        assert rc == 0

        def no_code_size(*args):
            raise AssertionError("code_size called although the header has chunk")

        monkeypatch.setattr("tdcode.enumeration.code_size", no_code_size)
        rc, _, err = run(capsys, "decode", "-i", str(enc), "-o", str(out))
        assert rc == 0, err
        assert out.read_bytes() == b"hi"

    def test_short_roots_decode_without_counting_to_n(self, tmp_path, capsys, fresh_tables):
        # 32 strands of zeros, each the codeword of value 0: with chunk in
        # the header, decode counts class sizes only to the one-symbol root
        from tdcode import enumeration

        enc = tmp_path / "enc.txt"
        enc.write_text("# tdcode mode=code q=4 k=2 n=32768 chunk=64\n" + ("0" * 32768 + "\n") * 32)
        out = tmp_path / "out.bin"
        rc, _, err = run(capsys, "decode", "-i", str(enc), "-o", str(out))
        assert rc == 0, err
        assert out.read_bytes() == b""
        assert len(enumeration.count_table(DupSystem(4, 2))._values) < 100


CHUNK_WIDTHS = [1, 7, 26, 61, 64, 100]


def split_reference(value: int, nbits: int, chunk: int) -> list[int]:
    # one shift per chunk: quadratic in the chunk count, fine for small payloads
    n_chunks = -(-nbits // chunk)
    value <<= n_chunks * chunk - nbits
    mask = (1 << chunk) - 1
    return [(value >> ((n_chunks - 1 - i) * chunk)) & mask for i in range(n_chunks)]


class TestFraming:
    @pytest.mark.parametrize("chunk", CHUNK_WIDTHS)
    @pytest.mark.parametrize("data", [b"", b"\x00", b"\xff"])
    def test_tiny_payloads_round_trip(self, data, chunk):
        assert _join_chunks(_split_chunks(*_frame_bits(data), chunk), chunk) == data

    @given(data=st.binary(max_size=200), chunk=st.sampled_from(CHUNK_WIDTHS))
    @settings(max_examples=120, deadline=None)
    def test_random_payloads_round_trip(self, data, chunk):
        values = _split_chunks(*_frame_bits(data), chunk)
        assert values == split_reference(*_frame_bits(data), chunk)
        assert _join_chunks(values, chunk) == data

    def test_large_payload_is_linear(self):
        # Shifting one big integer per chunk is quadratic: about 8 s for this
        # payload on a 2-vCPU x86-64 host, where string framing takes 0.1 s.
        data = random.Random(1).randbytes(300_000)
        start = time.perf_counter()
        values = _split_chunks(*_frame_bits(data), 26)
        back = _join_chunks(values, 26)
        elapsed = time.perf_counter() - start
        assert back == data
        assert elapsed < 2.0, f"framing 300 KB took {elapsed:.2f} s"

    def _code_stream(self, tmp_path, values):
        # code mode q=3 k=2 n=5 with a 5 bit chunk: strand j carries j - 1
        spec = CodeSpec(DupSystem(3, 2), 5)
        lines = ["# tdcode mode=code q=3 k=2 n=5 chunk=5 digits=0 dna=0"]
        lines += [str(encode_codeword(v + 1, spec)) for v in values]
        path = tmp_path / "enc.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("values", [
        [0],  # 5 bits cannot hold the 64 bit length field
        [31] * 13,  # length field 2**64 - 1 is no byte count
        [0] * 12 + [16],  # length field 8, but only 1 payload bit follows
    ])
    def test_corrupt_length_field_is_exit_one(self, values, tmp_path, capsys):
        enc = self._code_stream(tmp_path, values)
        rc, _, err = run(capsys, "decode", "-i", str(enc), "-o", str(tmp_path / "x"))
        assert rc == 1
        assert "error:" in err


class TestChannel:
    def test_noise_then_decode(self, tmp_path, capsys):
        payload = b"the quick brown fox"
        src = tmp_path / "src.bin"
        src.write_bytes(payload)
        enc = tmp_path / "enc.txt"
        noisy = tmp_path / "noisy.txt"
        out = tmp_path / "out.bin"
        run(capsys, "encode", "--mode", "code", "-q", "3", "-k", "2", "-n", "16",
            "-i", str(src), "-o", str(enc))
        rc, _, _ = run(capsys, "channel", "-t", "7", "--seed", "5",
                       "-i", str(enc), "-o", str(noisy))
        assert rc == 0
        assert noisy.read_text() != enc.read_text()
        rc, _, _ = run(capsys, "decode", "-i", str(noisy), "-o", str(out))
        assert rc == 0
        assert out.read_bytes() == payload

    def test_deterministic_per_seed(self, tmp_path, capsys):
        enc = tmp_path / "enc.txt"
        enc.write_text("# tdcode mode=code q=3 k=2 n=5 chunk=5 digits=0 dna=0\n01210\n02120\n")
        outs = []
        for name in ("a.txt", "b.txt", "c.txt"):
            dst = tmp_path / name
            seed = "9" if name != "c.txt" else "10"
            rc, _, _ = run(capsys, "channel", "-t", "4", "--seed", seed,
                           "-i", str(enc), "-o", str(dst))
            assert rc == 0
            outs.append(dst.read_text())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_strands_get_independent_noise(self, tmp_path, capsys):
        enc = tmp_path / "enc.txt"
        enc.write_text("# tdcode mode=code q=3 k=2 n=5 chunk=5 digits=0 dna=0\n01210\n01210\n")
        dst = tmp_path / "noisy.txt"
        run(capsys, "channel", "-t", "6", "--seed", "3", "-i", str(enc), "-o", str(dst))
        lines = [ln for ln in dst.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] != lines[1]

    @pytest.mark.parametrize("seed", ["0", "5", "123456789"])
    def test_strand_seeds_are_sha256_of_seed_and_index(self, seed, tmp_path, capsys):
        # each noisy strand is random_descendant's at the strand's sha256 seed:
        # DNA (lower case too) and digit streams, q 3..10 x k 2..3
        rng = random.Random(seed)
        systems = [(4, k, True) for k in (2, 3)]
        systems += [(q, k, False) for q in range(3, 11) for k in (2, 3)]
        for q, k, dna in systems:
            alphabet = "ACGTacgt" if dna else "0123456789"[:q]
            strands = ["".join(rng.choices(alphabet, k=rng.randint(1, 40))) for _ in range(6)]
            enc = tmp_path / "enc.txt"
            enc.write_text(f"# tdcode mode=code q={q} k={k} n=5 digits=0 dna={int(dna)}\n"
                           + "\n".join(strands) + "\n")
            noisy = tmp_path / "noisy.txt"
            rc, _, _ = run(capsys, "channel", "-t", "5", "--seed", seed,
                           "-i", str(enc), "-o", str(noisy))
            assert rc == 0
            sys_ = DupSystem(q, k)
            for idx, (strand, got) in enumerate(zip(strands, noisy.read_text().splitlines()[1:])):
                digest = hashlib.sha256(f"{seed}:{idx}".encode()).digest()
                word = Word.from_dna(strand) if dna else Word.from_string(strand, q)
                y, _ = random_descendant(word, 5, sys_, int.from_bytes(digest[:8], "big"))
                assert got == (y.to_dna() if dna else str(y))

    @pytest.mark.parametrize("header, strand, message", [
        ("q=3 k=2 n=5 digits=0 dna=0", "0130",
         "cannot parse strand '0130': symbol 3 outside alphabet of size 3"),
        ("q=3 k=2 n=5 digits=0 dna=0", "01 2",
         "cannot parse strand '01 2': not a digit string: '01 2'"),
        ("q=4 k=3 n=5 digits=0 dna=1", "acXt",
         "cannot parse strand 'acXt': not a DNA string: 'acXt'"),
    ], ids=["digit-past-q", "space", "dna-letter"])
    def test_bad_strand_message(self, header, strand, message, tmp_path, capsys):
        enc = tmp_path / "enc.txt"
        enc.write_text(f"# tdcode mode=code {header}\n{strand}\n")
        rc, _, err = run(capsys, "channel", "-t", "2", "-i", str(enc), "-o", str(tmp_path / "x"))
        assert rc == 1
        assert err == f"error: {message}\n"

    def test_comments_pass_through(self, tmp_path, capsys):
        enc = tmp_path / "enc.txt"
        enc.write_text("# plain comment\n# tdcode mode=code q=3 k=2 n=5 chunk=5 digits=0 dna=0\n01210\n")
        dst = tmp_path / "noisy.txt"
        rc, _, _ = run(capsys, "channel", "-t", "2", "--seed", "1",
                       "-i", str(enc), "-o", str(dst))
        assert rc == 0
        lines = dst.read_text().splitlines()
        assert lines[0] == "# plain comment"
        assert lines[1].startswith("# tdcode")

    def test_zero_duplications_is_identity(self, tmp_path, capsys):
        enc = tmp_path / "enc.txt"
        enc.write_text("# tdcode mode=code q=3 k=2 n=5 chunk=5 digits=0 dna=0\n01210\n")
        dst = tmp_path / "same.txt"
        run(capsys, "channel", "-t", "0", "--seed", "1", "-i", str(enc), "-o", str(dst))
        assert dst.read_text() == enc.read_text()

    def test_needs_alphabet_from_somewhere(self, tmp_path, capsys):
        bare = tmp_path / "bare.txt"
        bare.write_text("01210\n")
        rc, _, _ = run(capsys, "channel", "-t", "1", "--seed", "1",
                       "-i", str(bare), "-o", str(tmp_path / "x.txt"))
        assert rc == 2


class TestVerify:
    def test_all_scopes_pass(self, capsys):
        rc, out, _ = run(capsys, "verify", "--scope", "all", "-q", "3", "-k", "2",
                         "-n", "6", "--samples", "10")
        assert rc == 0
        assert "all checks passed" in out

    def test_json_reporting(self, capsys):
        rc, out, _ = run(capsys, "verify", "--scope", "counts", "-q", "3", "-k", "3",
                         "-n", "5", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 5

    DEPTH = OracleBudget().max_depth
    WORDS = OracleBudget().max_words
    SAMPLES = _MAX_SAMPLES

    @pytest.mark.parametrize("flags, message", [
        (("-k", "2", "-n", "0"),
         f"maximum word length 0 outside [1, {MAX_TABLE_LENGTH}], the counting cap"),
        (("-k", "2", "-n", "-5"),
         f"maximum word length -5 outside [1, {MAX_TABLE_LENGTH}], the counting cap"),
        (("-k", "2", "-n", "200000", "--scope", "roots", "--samples", "1"),
         f"maximum word length 200000 outside [1, {MAX_TABLE_LENGTH}], the counting cap"),
        (("-k", "3", "--depth", "3000"), f"depth 3000 outside [0, {DEPTH}], the oracle's search depth"),
        (("-k", "3", "--depth", "20"), f"depth 20 outside [0, {DEPTH}], the oracle's search depth"),
        (("-k", "3", "--depth", "-1"), f"depth -1 outside [0, {DEPTH}], the oracle's search depth"),
        (("-k", "2", "-n", "24", "--scope", "counts", "--budget", "1000000000000"),
         f"budget 1000000000000 outside [1, {WORDS}], the oracle's word budget"),
        (("-k", "2", "--budget", str(WORDS + 1)),
         f"budget {WORDS + 1} outside [1, {WORDS}], the oracle's word budget"),
        (("-k", "2", "--budget", "0"), f"budget 0 outside [1, {WORDS}], the oracle's word budget"),
        (("-k", "2", "-n", "4", "--scope", "roots", "--samples", "1000000000"),
         f"samples 1000000000 outside [1, {SAMPLES}], the sample cap"),
        (("-k", "2", "-n", "4", "--scope", "roots", "--samples", "-3"),
         f"samples -3 outside [1, {SAMPLES}], the sample cap"),
        (("-k", "2", "--samples", "0"), f"samples 0 outside [1, {SAMPLES}], the sample cap"),
    ], ids=["n-0", "n-negative", "n-past-the-cap", "depth-3000", "depth-20", "depth-negative",
            "budget-10**12", "budget-past-the-cap", "budget-0", "samples-10**9",
            "samples-negative", "samples-0"])
    def test_bad_flags_fail_before_any_check(self, flags, message, capsys, monkeypatch):
        def checking(*args):
            raise AssertionError("a check ran before the flags were checked")

        for name in ("oracle.enumerate_irr_bruteforce", "oracle.min_outdegree_bruteforce",
                     "oracle.RootOracle", "ranking.unrank_irr"):
            monkeypatch.setattr(f"tdcode.{name}", checking)
        rc, out, err = run(capsys, "verify", "-q", "3", *flags)
        assert (rc, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_the_depth_cap_itself_is_allowed(self, capsys):
        rc, out, _ = run(capsys, "verify", "--scope", "roots", "-q", "3", "-k", "2", "-n", "4",
                         "--depth", str(self.DEPTH), "--samples", "3")
        assert rc == 0
        assert f"3 samples at depth {self.DEPTH}" in out

    def test_the_samples_cap_itself_is_allowed(self, capsys):
        rc, out, _ = run(capsys, "verify", "--scope", "roots", "-q", "3", "-k", "2", "-n", "4",
                         "--depth", "1", "--samples", str(self.SAMPLES))
        assert (rc, out) == (0, f"ok roots: {self.SAMPLES} samples at depth 1\nall checks passed\n")

    def test_roots_skip_once_the_searches_hold_the_budget(self, capsys):
        # long words at depth 12 would take the oracle minutes; the budget
        # bounds the symbols its searches hold over all samples
        start = time.perf_counter()
        rc, out, _ = run(capsys, "verify", "--scope", "roots", "-q", "4", "-k", "3",
                         "-n", "2000", "--samples", "5", "--depth", "12",
                         "--budget", "100000")
        assert time.perf_counter() - start < 5
        assert (rc, out) == (0, "ok roots: skipped: budget after 0 of 5 samples\n"
                                "all checks passed\n")
        rc, out, _ = run(capsys, "verify", "--scope", "roots", "-q", "3", "-k", "2", "-n", "8",
                         "--samples", "50", "--budget", "2000", "--json")
        assert rc == 0
        [check] = json.loads(out)["checks"]
        assert check["ok"] and re.fullmatch(r"skipped: budget after \d+ of 50 samples",
                                            check["detail"])

    @pytest.mark.parametrize("flags, longest", [
        ((), 8),  # the default budget and samples draw from [1, -n] as before
        (("-n", "30", "--samples", "10", "--budget", "100"), 10),
        (("-n", "30", "--samples", "300", "--budget", "100"), 1),
    ], ids=["defaults", "budget-binds", "below-one-symbol-a-sample"])
    def test_roots_draw_lengths_the_budget_holds(self, flags, longest, capsys, monkeypatch):
        # each sample's length is drawn from [1, min(-n, --budget // --samples)]
        import tdcode.ranking

        seen, unrank = [], tdcode.ranking.unrank_irr

        def recording(n, j, sys_):
            seen.append((n, j))
            return unrank(n, j, sys_)

        monkeypatch.setattr("tdcode.ranking.unrank_irr", recording)
        rc, out, _ = run(capsys, "verify", "--scope", "roots", "-q", "3", "-k", "2",
                         "--depth", "0", *flags)
        assert rc == 0
        samples = int(dict(zip(flags[::2], flags[1::2])).get("--samples", 50))
        rng, s32, expected = random.Random(0), DupSystem(3, 2), []
        for _ in range(samples):
            n = rng.randint(1, longest)
            expected.append((n, rng.randint(1, count_irr(n, s32))))
            rng.getrandbits(48)
        assert seen == expected

    def test_roots_at_the_length_cap_end_fast_and_small(self, tmp_path):
        # 10000 samples at -n 32768 and the default budget: each draws at
        # most 200 symbols, so the run ends in seconds, not 16 s at 386 MB
        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("needs /proc/self/status for the child's own peak RSS")
        src = Path(__file__).resolve().parent.parent / "src"
        argv = ["verify", "-q", "27", "-k", "2", "-n", str(MAX_TABLE_LENGTH), "--scope", "roots",
                "--samples", str(_MAX_SAMPLES), "--depth", "0"]
        # VmHWM is this process's own peak: ru_maxrss would carry the launcher's
        code = ("import sys; from tdcode.cli import main; "
                f"rc = main({argv!r}); "
                "print(rc, next(l.split()[1] for l in open('/proc/self/status') "
                "if l.startswith('VmHWM')), file=sys.stderr)")
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        elapsed = time.perf_counter() - start
        rc, peak_kb = map(int, done.stderr.split())
        assert (rc, done.stdout) == (0, f"ok roots: {_MAX_SAMPLES} samples at depth 0\n"
                                        "all checks passed\n")
        assert elapsed < 5, f"verify took {elapsed:.1f} s"
        assert peak_kb < 60 * 1024, f"verify peaked at {peak_kb / 1024:.0f} MB"

    def test_roots_check_the_window_walk(self, capsys, monkeypatch):
        # decode reduces in the window walk, so each sample checks its root too
        from tdcode.enumeration import _WindowDP

        reduce = _WindowDP.reduce
        monkeypatch.setattr(_WindowDP, "reduce", lambda self, s, row=0: reduce(self, s, row)[:-1])
        rc, out, _ = run(capsys, "verify", "--scope", "roots", "-q", "3", "-k", "2", "-n", "6",
                         "--samples", "5")
        assert rc == 1
        assert out.startswith("FAIL roots: root mismatch for a descendant of ")
        assert out.endswith("verification failed\n")

    def test_counts_skip_from_the_first_length_past_the_budget(self, capsys):
        # 3**3 = 27 fits a budget of 27, 3**4 does not
        rc, out, _ = run(capsys, "verify", "--scope", "counts", "-q", "3", "-k", "2",
                         "-n", "6", "--budget", "27", "--json")
        assert rc == 0
        details = [c["detail"] for c in json.loads(out)["checks"]]
        assert details[:3] == ["3 words, bijection ok", "6 words, bijection ok",
                               "12 words, bijection ok"]
        assert details[3:] == ["skipped: budget"] * 3

    def test_counts_check_the_code_size(self, capsys, monkeypatch):
        # code_size(n), the telescoped sum, against the brute-force words of
        # lengths 1 .. n
        from tdcode import enumeration

        code_size = enumeration.code_size
        monkeypatch.setattr("tdcode.enumeration.code_size", lambda n, sys_: code_size(n, sys_) + 1)
        rc, out, _ = run(capsys, "verify", "--scope", "counts", "-q", "3", "-k", "2", "-n", "2")
        assert rc == 1
        assert out == ("FAIL counts n=1: code size 4 vs brute 3\n"
                       "FAIL counts n=2: code size 10 vs brute 9\nverification failed\n")

    def test_budget_skips_are_reported(self, capsys):
        rc, out, _ = run(capsys, "verify", "--scope", "delta", "-q", "3", "-k", "2",
                         "--budget", "10", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert all("skipped" in c["detail"] for c in payload["checks"])


class TestHeaderParsing:
    def test_round_trip(self):
        fields = parse_header("# tdcode mode=code q=4 k=3 n=64 chunk=90 digits=0 dna=1")
        assert fields == {"mode": "code", "q": 4, "k": 3, "n": 64,
                          "chunk": 90, "digits": 0, "dna": 1}

    def test_plain_comment_is_not_a_header(self):
        assert parse_header("# just a note") is None

    def test_malformed_header_token(self):
        from tdcode import CorruptInputError
        with pytest.raises(CorruptInputError):
            parse_header("# tdcode mode=code q=banana")

    # a header token must set a known field, once, to a value it may take;
    # anything else is corrupt input for decode and channel alike
    @pytest.mark.parametrize("command", [("channel", "-t", "2"), ("decode",)],
                             ids=["channel", "decode"])
    @pytest.mark.parametrize("extra, message", [
        ("q=5", "repeated header field 'q=5'"),
        ("group=3", "unknown header field 'group=3'"),
        ("dna=7", "header field 'dna=7' is not 0 or 1"),
    ], ids=["repeated", "unknown", "dna-7"])
    def test_corrupt_token_fails_both(self, command, extra, message, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"# tdcode mode=code q=4 k=2 n=5 digits=0 dna=1 {extra}\nACGTA\n")
        rc, out, err = run(capsys, *command, "-i", str(bad), "-o", str(tmp_path / "x"))
        assert (rc, err) == (1, f"error: {message}\n")


class TestStreamHeaderRule:
    """channel and decode read one header: the first `# tdcode` line; later
    `#` lines are comments, even when they look like a malformed header."""

    LATER = "# tdcode mode=code q=x"

    def _encoded(self, tmp_path, capsys) -> tuple[bytes, Path]:
        payload = b"header rule"
        src, enc = tmp_path / "src.bin", tmp_path / "enc.txt"
        src.write_bytes(payload)
        run(capsys, "encode", "--mode", "code", "-q", "3", "-k", "2", "-n", "16",
            "-i", str(src), "-o", str(enc))
        header, *strands = enc.read_text().splitlines()
        enc.write_text("\n".join([header, self.LATER, *strands]) + "\n")
        return payload, enc

    def test_both_commands_accept_a_later_tdcode_comment(self, tmp_path, capsys):
        payload, enc = self._encoded(tmp_path, capsys)
        noisy, out = tmp_path / "noisy.txt", tmp_path / "out.bin"
        rc, _, err = run(capsys, "channel", "-t", "0", "-i", str(enc), "-o", str(noisy))
        assert (rc, err) == (0, "")
        assert noisy.read_text() == enc.read_text()
        rc, _, err = run(capsys, "decode", "-i", str(enc), "-o", str(out))
        assert (rc, err) == (0, "")
        assert out.read_bytes() == payload

    def test_channel_then_decode_round_trip(self, tmp_path, capsys):
        payload, enc = self._encoded(tmp_path, capsys)
        noisy, out = tmp_path / "noisy.txt", tmp_path / "out.bin"
        rc, _, _ = run(capsys, "channel", "-t", "7", "--seed", "4",
                       "-i", str(enc), "-o", str(noisy))
        assert rc == 0 and noisy.read_text().splitlines()[1] == self.LATER
        rc, _, err = run(capsys, "decode", "-i", str(noisy), "-o", str(out))
        assert (rc, err) == (0, "")
        assert out.read_bytes() == payload

    @pytest.mark.parametrize("command", ["channel", "decode"])
    def test_header_after_the_first_strand(self, command, tmp_path, capsys):
        payload, enc = self._encoded(tmp_path, capsys)
        header, later, first, *rest = enc.read_text().splitlines()
        enc.write_text("\n".join([first, header, later, *rest]) + "\n")
        noisy, out = tmp_path / "noisy.txt", tmp_path / "out.bin"
        if command == "channel":  # every line that is not a strand stays as it was
            rc, _, err = run(capsys, "channel", "-t", "7", "--seed", "4",
                             "-i", str(enc), "-o", str(noisy))
            assert (rc, err) == (0, "")
            lines = noisy.read_text().splitlines()
            assert lines[1:3] == [header, later] and len(lines) == 3 + len(rest)
            enc = noisy
        rc, _, err = run(capsys, "decode", "-i", str(enc), "-o", str(out))
        assert (rc, err) == (0, "")
        assert out.read_bytes() == payload

    @pytest.mark.parametrize("command", [("channel", "-t", "2"), ("decode",)])
    def test_malformed_first_header_fails_both(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("# plain comment\n" + self.LATER + "\n# tdcode mode=code q=3 k=2 n=5\n01210\n")
        rc, _, err = run(capsys, *command, "-i", str(bad), "-o", str(tmp_path / "x"))
        assert rc == 1
        assert err == "error: malformed header token 'q=x'\n"
