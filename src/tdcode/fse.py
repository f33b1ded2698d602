"""Finite-state encoder from arbitrary message blocks to irreducible words.

States are the irreducible words of length m.  Two states x, x' are
joined by an edge when the concatenation xx' is irreducible, so any walk
through the graph spells out one long irreducible word (a square spans
at most 2k <= m + 1 symbols and therefore never touches three states).
Each step consumes one block of ell base-q message symbols, interpreted
as a number j in [1, q**ell], and moves to the j-th neighbor of the
current state in lexicographic order.  This is well defined whenever
q**ell <= delta_min_degree(m), the minimum out-degree of the graph.

The graph is never materialized: a step picks the neighbor digit by
digit from extension counts on the boundary window and carries the
window id on to the next state (O(m) big-int operations per step).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .enumeration import (
    FseParams,
    _dp,
    _index,
    _kth,
    delta_min_degree,
    extension_index,
    iter_extensions,
    kth_extension,
)
from .errors import CorruptInputError, DomainError, NotAnEdgeError, UnlabeledEdgeError, show_int
from .words import Word, _check_alphabet, is_irreducible


def _require_state(x: Word, params: FseParams) -> None:
    _check_alphabet(x, params.sys)
    if len(x) != params.m:
        raise DomainError(f"state must have length m={params.m}, got {len(x)}")
    if not is_irreducible(x, params.sys.k):
        raise DomainError(f"state {x} is not irreducible for k = {params.sys.k}")


def neighbors(x: Word, params: FseParams) -> list[Word]:
    """All states x' with x..x' irreducible, in lexicographic order."""
    _require_state(x, params)
    return list(iter_extensions(x, params.m, params.sys))


def nth_neighbor(x: Word, j: int, params: FseParams) -> Word:
    """The j-th neighbor of x (1-indexed, lexicographic) without
    materializing the list: symbols are chosen digit by digit, counting
    completions through the boundary window."""
    _require_state(x, params)
    return kth_extension(x, params.m, j, params.sys)


def neighbor_index(x: Word, x_next: Word, params: FseParams) -> int:
    """Position of x_next among x's neighbors; the inverse of nth_neighbor.

    Raises NotAnEdgeError when x..x_next is reducible and
    UnlabeledEdgeError when the edge exists but its position exceeds
    q**ell (such edges carry no message block).
    """
    _require_state(x, params)
    _require_state(x_next, params)
    try:
        idx = extension_index(x, x_next, params.sys)
    except DomainError as e:
        raise NotAnEdgeError(str(e)) from None
    if idx > params.sys.q**params.ell:
        raise UnlabeledEdgeError(
            f"edge index {idx} exceeds the labeled range {params.sys.q}**{params.ell}"
        )
    return idx


def _block_value(block: Word, params: FseParams) -> int:
    if block.q != params.sys.q:
        raise DomainError(
            f"block alphabet q={block.q} does not match system q={params.sys.q}"
        )
    if len(block) != params.ell:
        raise DomainError(f"blocks must have length ell={params.ell}, got {len(block)}")
    v = 0
    for s in block.symbols:
        v = v * params.sys.q + s
    return v


def _value_block(v: int, params: FseParams) -> Word:
    q = params.sys.q
    digits = [0] * params.ell
    for pos in range(params.ell - 1, -1, -1):
        v, digits[pos] = divmod(v, q)
    return Word(tuple(digits), q)


class FseCodec:
    """A ready-to-run (ell, m) encoder/decoder pair.

    The start state is the lexicographically least irreducible word of
    length m.  Construction verifies q**ell <= delta_min_degree(m), the
    condition that makes every message block encodable from every state.
    """

    def __init__(self, params: FseParams):
        sys, ell, m = params.sys, params.ell, params.m
        degree = delta_min_degree(m, sys)
        labeled = sys.q**ell
        if labeled > degree:
            raise DomainError(f"q**ell = {sys.q}**{ell} exceeds the minimum out-degree "
                              f"{show_int(degree)} at m = {m}; no labeling exists")
        self.params = params
        self.start_state = kth_extension(Word((), sys.q), m, 1, sys)
        self._start_sid = _dp(sys).window_sid(self.start_state.symbols)

    def encode_values(self, values: Iterable[int]) -> Word:
        """Concatenate the states visited while consuming block values in
        [0, q**ell), in one walk that carries the window id across states."""
        params = self.params
        q, ell = params.sys.q, params.ell
        labeled = q**ell
        values = list(values)
        for n, v in enumerate(values, start=1):
            if not 0 <= v < labeled:
                raise DomainError(f"block {n}: value outside [0, {q}**{ell})")
        out: list[int] = []
        _kth(_dp(params.sys), self._start_sid, params.m, values, out)
        return Word._unchecked(tuple(out), q)

    def decode_values(self, x: Word) -> list[int]:
        """Invert encode_values, reading x one state at a time; raises
        CorruptInputError on damaged input."""
        params = self.params
        q, ell, m = params.sys.q, params.ell, params.m
        _check_alphabet(x, params.sys)
        s = x.symbols
        if len(s) % m != 0:
            raise CorruptInputError(
                f"length {len(s)} is not a multiple of the state length {m}"
            )
        labeled = q**ell
        steps = (s[b:b + m] for b in range(0, len(s), m))
        values, sid = _index(_dp(params.sys), self._start_sid, m, steps)
        for n, v in enumerate(values[:-1] if sid < 0 else values, start=1):
            if v >= labeled:
                raise CorruptInputError(
                    f"state {n}: edge index exceeds the labeled range {q}**{ell}"
                )
        if sid < 0:  # values ends with the offset in the last state
            raise CorruptInputError(
                f"state {len(values)}: not an edge, a square ends at offset {values[-1]}"
            )
        return values

    def encode(self, blocks: Sequence[Word]) -> Word:
        """Concatenate the states visited while consuming the blocks."""
        return self.encode_values([_block_value(b, self.params) for b in blocks])

    def decode(self, x: Word) -> list[Word]:
        """Invert encode; raises CorruptInputError on damaged input."""
        return [_value_block(v, self.params) for v in self.decode_values(x)]
