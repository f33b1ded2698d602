"""Fixed-length code whose codewords absorb any number of tandem
duplications.

A codeword of length n is an irreducible word of some length i <= n
padded with n - i copies of its last symbol.  Distinct messages map to
words with distinct irreducible roots, and duplication never changes the
root, so the decoder recovers the message from any descendant: strip
duplications back to the root, rank it, and add the size of all shorter
root classes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .enumeration import code_size, count_table
from .errors import DomainError, NotADescendantError, show_int
from .ranking import rank_irr, unrank_irr
from .words import DupSystem, Word, extend_zeta, root


@dataclass(frozen=True)
class CodeSpec:
    """A code instance: duplication system plus codeword length n >= 1."""

    sys: DupSystem
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"codeword length must be >= 1, got {self.n}")


class MessageCapacity(NamedTuple):
    bits: float
    symbols: int


def message_capacity(spec: CodeSpec) -> MessageCapacity:
    """How many distinct messages fit one codeword, and the same in bits."""
    symbols = code_size(spec.n, spec.sys)
    return MessageCapacity(math.log2(symbols), symbols)


def encode_codeword(j: int, spec: CodeSpec) -> Word:
    """The j-th codeword (1-indexed): roots are taken in order of length,
    each length ordered by rank, then padded to length n."""
    total = code_size(spec.n, spec.sys)
    if not 1 <= j <= total:
        raise DomainError(f"message index {show_int(j)} outside [1, {show_int(total)}]")
    # the root length is the first i with cumulative(i) >= j
    ct = count_table(spec.sys)
    i = 1 + bisect_left(range(1, spec.n + 1), j, key=ct.cumulative)
    r = unrank_irr(i, j - ct.cumulative(i - 1), spec.sys)
    return extend_zeta(r, spec.n - i)


def decode_codeword(y: Word, spec: CodeSpec) -> int:
    """Recover the message index from any descendant of a codeword.

    Rejects (NotADescendantError) received words shorter than n and
    words whose root is longer than n; no codeword can reach those.
    """
    if y.q != spec.sys.q:
        raise DomainError(
            f"word alphabet q={y.q} does not match system q={spec.sys.q}"
        )
    if len(y) < spec.n:
        raise NotADescendantError(
            f"received length {len(y)} is shorter than the code length {spec.n}"
        )
    r = root(y, spec.sys)
    if len(r) > spec.n:
        raise NotADescendantError(
            f"root length {len(r)} exceeds the code length {spec.n}"
        )
    return count_table(spec.sys).cumulative(len(r) - 1) + rank_irr(r, spec.sys)
