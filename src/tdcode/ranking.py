"""Ranking and unranking of irreducible words.

The order on irreducible length-n words is recursive.  Short words
(n <= 3 for k = 2, n <= 5 for k = 3) are ordered lexicographically.
Longer words are grouped by which suffix map produced them from a
shorter irreducible word:

* k = 2: phi appends one symbol avoiding the last two (image: last three
  symbols distinct), psi appends such a symbol and then repeats the last
  symbol of its input (image: last symbol equals the one two back).
* k = 3: phi1 appends one symbol, phi2 appends two, phi3 appends three;
  their avoid sets depend on whether the input's last three symbols are
  all distinct, and their images partition the irreducible words.

Branch b of a suffix map always appends b symbols: a free symbol sigma
chosen from outside an avoid set, then symbols copied from the input.
Branch b has c[b-1] free symbols, c the count recursion's coefficients,
so it holds c[b-1] * size(n - b) words of a class.  Within a branch the
preimage is ordered recursively and the avoid-set index varies fastest,
so a rank is a mixed-radix number over block sizes from the class's
CountTable.  Words with a fixed prefix p use the same order restricted
to p's class, with a lexicographic base up to length
max(|p| + k - 1, 2k - 1); the plain order is the empty prefix.

Ranking and unranking walk window ids, the last 2k - 1 symbols that the
window DP carries, through tables per system built on first use from
the suffix maps and the DP's transition table (_WalkTables).  The DP
lists each length's windows in lexicographic order, so the plain base
rank of a short word is its window id less the length's first id.  A
level costs a few list lookups and big-integer multiplies, compares and
adds by one-digit numbers; levels run in blocks whose width products fit
one digit, and unrank divides once per block, not once per level.
Rank reads the cells of the window DP's one table walk (its reduce),
which strips squares as words.root does, so code-mode decoding finds a
root and ranks it in one walk.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from sys import int_info
from typing import Sequence

from .enumeration import _coefficients, _dp, _index, _kth, count_table
from .errors import DomainError, show_int
from .words import DupSystem, Word, _check_alphabet

# --------------------------------------------------------- the suffix maps


def _suffix_map(
    s: Sequence[int], e: int, branch: int, k: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Avoid set and copied symbols of suffix map `branch` applied to s[:e].

    The image is s[:e] + (sigma,) + copied with sigma outside the avoid
    set.  Only the preimage's last <= 4 symbols are read.
    """
    a, b = s[e - 2], s[e - 1]
    if k == 2:
        return (a, b), ((b,) if branch == 2 else ())
    c = s[e - 3]
    if branch == 2:
        d = s[e - 4]
        return ((c, a, b) if c != b and d in (a, b) else (d, a, b)), (a,)
    if c != b:
        return (c, b), ((c, b) if branch == 3 else ())
    return (a, b), ((a, b) if branch == 3 else ())


# ------------------------------------------------------------ validation


def _require_prefix(p: Word, sys: DupSystem) -> None:
    if p.q != sys.q:
        raise DomainError(f"prefix alphabet q={p.q} does not match system q={sys.q}")
    if len(p) < 1:
        raise DomainError("prefix must be nonempty")
    if len(_dp(sys).reduce(p.symbols)) < len(p):  # the walk dropped a square
        raise DomainError(f"prefix {p} is not irreducible for k = {sys.k}")


# ------------------------------------------------------------- the engine


class _WalkTables:
    """The recursive order as lookups on window ids, for one system, and
    the rest of what rank and unrank read, built once: the window DP and
    the branch widths (the count coefficients).

    Step code starts[b - 1] + i (0 <= i < c[b - 1]) names branch b with
    free index i + 1.  apply[sid * span + code] is the window after that
    step from window sid, wherever the image is longer than a window.
    classify[sid * q + c] is the step code of an image ending in c whose
    other symbols end in the full window sid; filled from the length-2k
    images, it is apply's inverse.  Other cells hold -1.
    Both are built from, and the walks move on, the window DP's one
    transition table dp.step, which shares classify's cell index.  The
    plain class's base words are windows, listed in lexicographic order
    within each length: the j-th (0-indexed) length-r word is window
    dp.offsets[r] + j.  A branch-b step appends tails[b][sid], window sid's
    last b symbols as bytes, to unrank's bytearray.
    """

    def __init__(self, sys: DupSystem):
        q, k = sys.q, sys.k
        self.sys = sys
        self.dp = dp = _dp(sys)
        step, states = dp.step, dp.states
        packed, share = list(map(bytes, states)), {}.setdefault  # equal tails: one object
        self.tails = [None] + [[share(t, t) for t in map(itemgetter(slice(-b, None)), packed)]
                               for b in range(1, k + 1)]
        self.widths = widths = _coefficients(sys)
        self.starts = starts = tuple(sum(widths[:b]) for b in range(k))
        self.span = span = sum(widths)
        # (b, c[b - 1], starts[b - 1]) for the branches that hold words
        *self.head, self.last = (s for s in zip(range(1, k + 1), widths, starts) if s[1])
        # a block ends after `levels` levels, or once its width product passes
        # top: up to top, that product times any width stays one digit
        self.levels = range(int_info.bits_per_digit)
        self.top = ((1 << int_info.bits_per_digit) - 1) // max(widths)
        self.branch = tuple(b for b, w in enumerate(widths, start=1) for _ in range(w))
        self.classify = classify = [-1] * len(step)
        self.apply = apply = [-1] * (len(states) * span)
        free_sets: dict[tuple[int, ...], list[int]] = {}
        ids = list(range(len(states)))  # apply shares these ints, not one new int a cell
        for sid, w in enumerate(states):
            m, row = len(w), sid * q
            for branch in range(max(2 * k - m, 1), k + 1):
                avoid, copied = _suffix_map(w, m, branch, k)
                free = free_sets.get(avoid)
                if free is None:  # free index i + 1 picks free[i]
                    free = free_sets[avoid] = [c for c in range(q) if c not in avoid]
                # cells[i]: the step cell of image i's last symbol
                cells = [row + a for a in free]
                for c in copied:
                    cells = [step[cell] + c for cell in cells]
                at = sid * span + starts[branch - 1]
                apply[at:at + len(free)] = [ids[step[cell] // q] for cell in cells]
                if m + branch == 2 * k:  # the length-2k images: each cell once
                    for code, cell in enumerate(cells, start=starts[branch - 1]):
                        classify[cell] = code

    def class_sizes(self, p: tuple[int, ...], n: int) -> list[int]:
        # v[r]: the size of p's class at length len(p) + r, for r <= n - len(p)
        table = self.dp.counts(self.dp.window_sid(p))
        table.count(n - len(p))
        return table._values

    def unrank(self, p: tuple[int, ...], n: int, j: int):
        """The j-th length-n word of p's class (j in range) as a bytearray of
        its symbols.  A block of levels runs on y = j * scale + digits, scale
        the product of the widths it picked; one divmod at its end gives the
        next j and its free indices, the first pick's the least significant digit."""
        dp, v, k = self.dp, self.class_sizes(p, n), self.sys.k
        r, base = n - len(p), max(k - 1, 2 * k - 1 - len(p))
        head, last, top, levels = self.head, self.last, self.top, self.levels
        y = j - 1
        codes: list[int] = []
        while r > base:
            scale = 1
            picks: list[tuple[int, int, int]] = []  # the block's steps, in pick order
            for _ in levels:
                if r <= base or scale > top:
                    break
                for step in head:
                    b, w, _ = step
                    block = scale * w * v[r - b]
                    if y < block:
                        break
                    y -= block
                else:  # an in-range rank is in the last branch
                    step = last
                picks.append(step)
                scale *= step[1]
                r -= step[0]
            y, digits = divmod(y, scale)
            for _, w, start in picks:
                digits, i = divmod(digits, w)
                codes.append(start + i)
        if p:
            s = bytearray(p)
            sid = _kth(dp, dp.window_sid(p), r, (y,), s)
        else:
            sid = dp.offsets[r] + y
            s = bytearray(dp.states[sid])
        apply, span, branch, tails = self.apply, self.span, self.branch, self.tails
        for code in reversed(codes):
            sid = apply[sid * span + code]
            s += tails[branch[code]][sid]
        return s

    def rank(self, p: tuple[int, ...], x: Word) -> int:
        """Rank of x, which starts with p, in p's class; DomainError if x is reducible."""
        cells = self.dp.reduce(x.symbols)
        if len(cells) < len(x.symbols):  # the walk dropped a square
            raise DomainError(f"{x} is not irreducible for k = {self.sys.k}")
        return self.rank_cells(p, cells)

    def rank_cells(self, p: tuple[int, ...], cells: Sequence[int]) -> int:
        """Rank within p's class of the word with these cells (dp.reduce's).  As
        in unrank's blocks, a level's lower blocks and free index are scaled
        by the product of the widths above it in its block, and the rank
        below costs one multiply per block."""
        q, k, dp = self.sys.q, self.sys.k, self.dp
        n, r = len(cells), len(cells) - len(p)
        v = self.class_sizes(p, n)
        base = max(len(p) + k - 1, 2 * k - 1)
        classify, branch, starts, head = self.classify, self.branch, self.starts, self.head
        widths, top, levels = self.widths, self.top, self.levels
        blocks: list[tuple[int, int]] = []  # (width product, sum), top block first
        while n > base:
            scale, low, high = 1, 0, 0
            for _ in levels:
                if n <= base or scale > top:
                    break
                code = classify[cells[n - 1]]
                b = branch[code]
                for lower, w, _ in head:  # the lower branches' blocks
                    if lower == b:
                        break
                    high += scale * w * v[r - lower]
                low += (code - starts[b - 1]) * scale
                scale *= widths[b - 1]
                n -= b
                r -= b
            blocks.append((scale, high + low))
        if p:
            (rank,) = _index(dp, dp.window_sid(p), r, ([c % q for c in cells[len(p):n]],))
        else:  # the window after the first n cells, among the length-n windows
            rank = (dp.step[cells[n - 1]] // q if n else 0) - dp.offsets[n]
        for scale, add in reversed(blocks):
            rank = rank * scale + add
        return rank + 1


_walk_tables = cache(_WalkTables)


def unrank_irr(n: int, j: int, sys: DupSystem) -> Word:
    """The j-th irreducible word of length n (1-indexed) in the recursive
    order."""
    if n < 0:
        raise DomainError(f"word length must be >= 0, got {n}")
    total = count_table(sys).count(n)
    if not 1 <= j <= total:
        raise DomainError(f"rank {show_int(j)} outside [1, {show_int(total)}] for length {n}")
    return Word._unchecked(tuple(_walk_tables(sys).unrank((), n, j)), sys.q)


def rank_irr(x: Word, sys: DupSystem) -> int:
    """Rank (1-indexed) of an irreducible word in the recursive order."""
    _check_alphabet(x, sys)
    return _walk_tables(sys).rank((), x)


def unrank_irr_prefix(p: Word, n: int, j: int, sys: DupSystem) -> Word:
    """The j-th irreducible length-n word with prefix p, under the same
    recursive order restricted to the prefix class (lexicographic base)."""
    _require_prefix(p, sys)
    if n < len(p):
        raise DomainError(f"target length {n} shorter than the prefix ({len(p)})")
    total = _walk_tables(sys).class_sizes(p.symbols, n)[n - len(p)]
    if not 1 <= j <= total:
        raise DomainError(f"rank {show_int(j)} outside [1, {show_int(total)}] "
                          f"for prefix {p}, length {n}")
    return Word._unchecked(tuple(_walk_tables(sys).unrank(p.symbols, n, j)), sys.q)


def rank_irr_prefix(p: Word, x: Word, sys: DupSystem) -> int:
    """Rank of x within the irreducible words sharing the prefix p."""
    _require_prefix(p, sys)
    _check_alphabet(x, sys)
    if x.symbols[:len(p)] != p.symbols:
        raise DomainError(f"{x} does not start with prefix {p}")
    return _walk_tables(sys).rank(p.symbols, x)
