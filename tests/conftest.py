"""Shared fixtures and the acceptance-criteria summary hook."""

from __future__ import annotations

import pytest

from tdcode import DupSystem, Word
from tdcode.enumeration import _dp, _kth

CRITERION_RESULTS: list[tuple[int, str, bool, float, str]] = []


def record_criterion(num: int, name: str, passed: bool, seconds: float,
                     detail: str = "") -> None:
    CRITERION_RESULTS.append((num, name, passed, seconds, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, passed, seconds, detail in sorted(CRITERION_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        extra = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(
            f"{verdict}  criterion {num:02d}  {name}  ({seconds:.2f}s){extra}"
        )


@pytest.fixture(scope="session")
def s32() -> DupSystem:
    return DupSystem(q=3, k=2)


@pytest.fixture(scope="session")
def s33() -> DupSystem:
    return DupSystem(q=3, k=3)


@pytest.fixture(scope="session")
def s42() -> DupSystem:
    return DupSystem(q=4, k=2)


@pytest.fixture(scope="session")
def s43() -> DupSystem:
    return DupSystem(q=4, k=3)


def clear_tables() -> None:
    """Empty the per-system table caches, as in a fresh process."""
    from tdcode import enumeration, fse, ranking

    for build in (ranking._walk_tables, fse._classes, enumeration._dp,
                  enumeration._degree_table, enumeration._patterns):
        build.cache_clear()


@pytest.fixture
def fresh_tables() -> None:
    """Empty the per-system table caches, so a test sees what it builds."""
    clear_tables()


def window_dp(dp, rows: int) -> list[list[int]]:
    """The direct suffix-window DP, the tests' reference for every window
    count: row r holds each window's number of valid length-r extensions,
    the sum of row r - 1 over its successors in dp.succ."""
    layers = [[1] * len(dp.states)]
    while len(layers) <= rows:
        prev = layers[-1]
        layers.append([sum(prev[nxt] for nxt in row) for row in dp.succ])
    return layers


def walk_extensions(x: Word, r: int, sys_: DupSystem) -> list[Word]:
    """x's valid length-r extensions as the window walk lists them: the
    j-th from x's window for every j its count allows.  For a state x of
    length r these are its out-neighbors in the encoder graph."""
    dp = _dp(sys_)
    sid = dp.window_sid(x.symbols)
    found = []
    for j in range(dp.counts(sid).count(r)):
        out: list[int] = []
        _kth(dp, sid, r, (j,), out)
        found.append(Word(tuple(out), sys_.q))
    return found


def counting_int() -> type:
    """A fresh int subclass that counts the arithmetic and compares made on
    its values in its `ops` attribute.

    A sum, difference, product or compare with a counted operand adds one,
    and the sum, difference or product is counted again.  divmod adds one
    and returns a counted quotient and a plain remainder, so a block's
    mixed-radix digits (under 2**30) stay uncounted.
    """

    class Counted(int):
        ops = 0

        def __divmod__(self, other):
            Counted.ops += 1
            quotient, remainder = int.__divmod__(self, other)
            return Counted(quotient), remainder

        def __rdivmod__(self, other):
            Counted.ops += 1
            quotient, remainder = int.__rdivmod__(self, other)
            return Counted(quotient), remainder

    def counting(plain):
        def op(self, other):
            Counted.ops += 1
            result = plain(self, other)
            return result if isinstance(result, bool) else Counted(result)

        return op

    for name in ("add", "radd", "sub", "rsub", "mul", "rmul", "lt", "le", "gt", "ge"):
        setattr(Counted, f"__{name}__", counting(getattr(int, f"__{name}__")))
    return Counted


def count_ops(counted: type, call, *args):
    """call(*args), and the operations its counted numbers made."""
    counted.ops = 0
    result = call(*args)
    return result, counted.ops


class ValidationCounter:
    """Counts the per-symbol checks Word.__post_init__ runs."""

    def __init__(self) -> None:
        self.calls = 0


@pytest.fixture
def word_validations(monkeypatch) -> ValidationCounter:
    counter = ValidationCounter()
    check = Word.__post_init__

    def counted(word: Word) -> None:
        counter.calls += 1
        check(word)

    monkeypatch.setattr(Word, "__post_init__", counted)
    return counter
