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
Decoding reads the walk back from its cells (window, symbol), which the
window DP's one table walk gives: a received strand is reduced to its
root's cells in one pass, with no root word built, and each level of
every state is then read in one pass over that level's cells.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from operator import add, mod
from typing import Iterable, Sequence

from .enumeration import FseParams, _dp, _index, _kth, delta_min_degree
from .errors import CorruptInputError, DomainError, show_int
from .words import DupSystem, Word, _check_alphabet


@cache
def _classes(sys: DupSystem) -> tuple[list[int], list[tuple[int, int]]]:
    """The decoder's cell classes, built in one pass over the window DP's
    successor rows when a decode first walks more symbols than the step
    table has cells.  table[sid * q + c] is the class of window sid's
    successors before c: the multiset of their patterns, which is all that
    a lexicographic index reads of them (37 classes at q = 4, k = 3, 145 at
    q = 8).  Classes are numbered in the order met from class 0, the empty
    one: class i is made[i - 1] = (an earlier class, one more pattern), so
    a level's class sums, taken in that order, cost one addition each."""
    dp = _dp(sys)
    q, last, pat, width = sys.q, dp.last, dp.pat, len(dp.tables)
    table = [0] * len(dp.step)
    keys: list[tuple[int, ...]] = [()]  # each class's patterns, sorted, in the order met
    made: list[tuple[int, int]] = []
    grow = [0] * width  # grow[i * width + p]: class i with one more p, times width; 0 until met
    for row, nexts in zip(range(0, len(table), q), dp.succ):
        i = 0  # the class of the successors so far, times width
        for before, nxt in zip(nexts, nexts[1:]):
            at = i + pat[before]
            i = grow[at]
            if not i:
                key = tuple(sorted(keys[at // width] + (at % width,)))
                if key not in keys:
                    keys.append(key)
                    made.append(divmod(at, width))
                    grow += [0] * width
                i = grow[at] = keys.index(key) * width
            table[row + last[nxt]] = i // width
    return table, made


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
        CorruptInputError on damaged input: a length that is not a multiple
        of m, else the first state with an index past q**ell or, before it,
        the state and offset where a square closes."""
        params = self.params
        _check_alphabet(x, params.sys)
        s = x.symbols
        self._check_length(len(s))
        return self._values(_dp(params.sys).reduce(s, self._start_sid * params.sys.q), len(s))

    def _decode_received(self, y: Sequence[int]) -> list[int]:
        """decode_values(root(y)), errors included, in one reduce of y: the
        CLI's decode, whose parser has put every symbol in range(q).  A
        square can close against the start state only in the root's first
        2k - 1 symbols, and only there does the walk from the start state
        differ from the reduce's, so only they are walked again."""
        dp = _dp(self.params.sys)
        cells = dp.reduce(y)
        n = len(cells)
        self._check_length(n)
        head = min(n, dp.width)
        q = dp.sys.q
        walked = dp.reduce([c % q for c in cells[:head]], self._start_sid * q)
        if len(walked) < head:  # a square closes against the start state
            return self._values(walked, n)
        cells[:head] = walked
        return self._values(cells, n)

    def _check_length(self, n: int) -> None:
        if n % self.params.m != 0:
            raise CorruptInputError(
                f"length {n} is not a multiple of the state length {self.params.m}"
            )

    def _values(self, cells: Sequence[int], n: int) -> list[int]:
        """The block values of a walk of n symbols from the start state,
        whose cells are cells unless the walk stopped short at a square.
        A walk longer than the step table repeats its cells, so level i of
        every state is read in one pass over cells[i::m]: each cell's class,
        then its class's sum of the level's counts, one addition per class
        and level.  A shorter walk, whose cells are mostly distinct, is read
        one state at a time, scanning each window's successors as the
        encoder's walk does."""
        sys, ell, m = self.params.sys, self.params.ell, self.params.m
        dp = _dp(sys)
        end = len(cells) - len(cells) % m  # the states walked whole
        if len(cells) <= len(dp.step):
            symbols = bytes(map(mod, cells, repeat(sys.q)))
            values = _index(dp, self._start_sid, m, (symbols[b:b + m] for b in range(0, end, m)))
        else:
            table, made = _classes(sys)
            values = [0] * (end // m)
            for i, row in enumerate(dp.level_rows(m)):
                sums = [0]  # each class's sum of the level's counts, in the order met
                for earlier, p in made:
                    sums.append(sums[earlier] + row[p])
                column = map(table.__getitem__, cells[i:end:m])
                values = list(map(add, values, map(sums.__getitem__, column)))
        labeled = sys.q**ell
        if values and max(values) >= labeled:
            state = next(b for b, v in enumerate(values, start=1) if v >= labeled)
            raise CorruptInputError(
                f"state {state}: edge index exceeds the labeled range {sys.q}**{ell}"
            )
        if end < n:
            raise CorruptInputError(f"state {end // m + 1}: not an edge, a square ends at "
                                    f"offset {len(cells) - end}")
        return values
