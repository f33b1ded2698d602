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

from typing import Iterable

from .enumeration import FseParams, _dp, _index, _kth, delta_min_degree
from .errors import CorruptInputError, DomainError, show_int
from .words import Word, _check_alphabet


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
        out: list[int] = []  # the first length-m extension of the empty window 0
        self._start_sid = _kth(_dp(sys), 0, m, (0,), out)
        self.start_state = Word._unchecked(tuple(out), sys.q)

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
