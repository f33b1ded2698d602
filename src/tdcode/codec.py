"""Fixed-length code whose codewords absorb any number of tandem
duplications.

A codeword of length n is an irreducible word of some length i <= n
padded with n - i copies of its last symbol.  Distinct messages map to
words with distinct irreducible roots, and duplication never changes the
root, so the decoder recovers the message from any descendant: strip
duplications back to the root and rank it, in one window walk of the
received word, and add the size of all shorter root classes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

from .enumeration import count_table
from .errors import DomainError, NotADescendantError, show_int
from .ranking import _walk_tables
from .words import DupSystem, Word, _check_alphabet, extend_zeta


@dataclass(frozen=True)
class CodeSpec:
    """A code instance: duplication system plus codeword length n >= 1."""

    sys: DupSystem
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"codeword length must be >= 1, got {self.n}")


def encode_codewords(js: Iterable[int], spec: CodeSpec) -> Iterator[Word]:
    """The j-th codeword (1-indexed) for each j in js: roots are taken in
    order of length, each length ordered by rank, then padded to length n.

    The count table, its cumulative sums and the rank walker are looked up
    once per stream.
    """
    n = spec.n
    ct = count_table(spec.sys)
    total = ct.cumulative(n)  # code_size(n)
    cum = ct._cumulative  # cum[i]: the messages whose root is at most i long
    unrank = _walk_tables(spec.sys).unrank
    for j in js:
        if not 1 <= j <= total:
            raise DomainError(f"message index {show_int(j)} outside [1, {show_int(total)}]")
        i = bisect_left(cum, j, 1, n + 1)  # the first root length with cum[i] >= j
        yield extend_zeta(unrank((), i, j - cum[i - 1]), n - i)


def decode_codewords(ys: Iterable[Word], spec: CodeSpec) -> Iterator[int]:
    """The message index of each received word, as decode_codeword gives
    it, with the per-system lookups made once per stream."""
    sys, n = spec.sys, spec.n
    ct = count_table(sys)
    cum = ct._cumulative
    reduce, rank = _walk_tables(sys).reduce, _walk_tables(sys).rank_cells
    for y in ys:
        _check_alphabet(y, sys)
        if len(y.symbols) < n:
            raise NotADescendantError(
                f"received length {len(y)} is shorter than the code length {n}"
            )
        cells = reduce(y.symbols)  # the root's, one cell per symbol
        m = len(cells)
        if m > n:
            raise NotADescendantError(f"root length {m} exceeds the code length {n}")
        if len(cum) < m:
            ct.cumulative(m - 1)
        yield cum[m - 1] + rank((), cells)


def encode_codeword(j: int, spec: CodeSpec) -> Word:
    """The j-th codeword (1-indexed); see encode_codewords."""
    return next(encode_codewords((j,), spec))


def decode_codeword(y: Word, spec: CodeSpec) -> int:
    """Recover the message index from any descendant of a codeword.

    Rejects (NotADescendantError) received words shorter than n and
    words whose root is longer than n; no codeword can reach those.
    """
    return next(decode_codewords((y,), spec))
