"""Fixed-length code whose codewords absorb any number of tandem
duplications.

A codeword of length n is an irreducible word of some length i <= n
padded with n - i copies of its last symbol.  Distinct messages map to
words with distinct irreducible roots, and duplication never changes the
root, so the decoder recovers the message from any descendant: strip
duplications back to the root and rank it, in one window walk of the
received word (the window DP's reduce, which the FSE decoder also runs),
and add the size of all shorter root classes, CountTable.total's sum.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, Sequence

from .enumeration import code_size, count_table
from .errors import DomainError, NotADescendantError, show_int
from .ranking import _walk_tables
from .words import DupSystem, Word, _check_alphabet, _Record


class CodeSpec(_Record):
    """A code instance: duplication system plus codeword length n >= 1."""

    __slots__ = ("sys", "n")
    sys: DupSystem
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"codeword length must be >= 1, got {self.n}")


def encode_codewords(js: Iterable[int], spec: CodeSpec) -> Iterator[bytearray]:
    """The j-th codeword (1-indexed) for each j in js, as its symbols: roots
    are taken in order of length, each length ordered by rank, then padded to n.

    The class sizes, their total (code_size) and the walker are looked up
    once per stream.  The root length is found walking down from n, where
    most roots are; a root of length 1 costs n subtractions, about one unrank.
    """
    n, walk = spec.n, _walk_tables(spec.sys)
    v, total = walk.class_sizes((), n), code_size(n, spec.sys)  # v[i]: the roots of length i
    for j in js:
        if not 1 <= j <= total:
            raise DomainError(f"message index {show_int(j)} outside [1, {show_int(total)}]")
        i, after = n, total - j  # after: the messages past j, whose roots are at most i long
        while after >= v[i]:  # all of class i lies past j
            after, i = after - v[i], i - 1
        s = walk.unrank((), i, v[i] - after)
        s += s[-1:] * (n - i)  # the root is never empty
        yield s


def decode_codewords(ys: Iterable[Sequence[int]], spec: CodeSpec) -> Iterator[int]:
    """The message index of each received word, given as its symbols in
    range(q), with the per-system lookups made once; it counts only to its
    longest root."""
    n, walk = spec.n, _walk_tables(spec.sys)
    shorter = cache(count_table(spec.sys).total)  # shorter(m - 1): the roots shorter than m
    for y in ys:
        if len(y) < n:
            raise NotADescendantError(f"received length {len(y)} is shorter than the code "
                                      f"length {n}")
        cells = walk.dp.reduce(y)  # the root's, one cell per symbol
        m = len(cells)
        if m > n:
            raise NotADescendantError(f"root length {m} exceeds the code length {n}")
        yield shorter(m - 1) + walk.rank_cells((), cells)  # shorter roots first


def encode_codeword(j: int, spec: CodeSpec) -> Word:
    """The j-th codeword (1-indexed); see encode_codewords."""
    return Word._unchecked(tuple(next(encode_codewords((j,), spec))), spec.sys.q)


def decode_codeword(y: Word, spec: CodeSpec) -> int:
    """Recover the message index from any descendant of a codeword.

    Rejects (NotADescendantError) received words shorter than n and
    words whose root is longer than n; no codeword can reach those.
    """
    _check_alphabet(y, spec.sys)
    return next(decode_codewords((y.symbols,), spec))
