"""Exact enumeration for irreducible words.

Provides arbitrary-precision counts of irreducible words, the extension
counts that rank, unrank and the encoder walk on, minimum out-degrees of
the irreducible-word overlap graph, asymptotic growth rates, and encoder
parameter selection.

A square that ends at a freshly appended symbol spans at most the last
2k symbols, so the number of valid length-r extensions of a word depends
only on its window, its last min(len, 2k-1) symbols, and only on the
window's equality pattern (at most 21 for any q).  Every count is seeded
from one small DP over the patterns, which builds no window.  The
suffix-window DP lists the windows, length by length in lexicographic
order; its one transition table is the data of the lexicographic walks
and of ranking.  Each per-system table is built once, on first use.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from operator import mul
from typing import Iterable, MutableSequence, Sequence

from .errors import DomainError
from .words import DupSystem, _Record

# ------------------------------------------------------------------ totals


def _coefficients(sys: DupSystem) -> tuple[int, ...]:
    # c with I(n) = c[0]*I(n-1) + c[1]*I(n-2) + ... beyond the base lengths;
    # c[b-1] is also the width of the ranking's suffix-map branch b
    q = sys.q
    return (q - 2, q - 2) if sys.k == 2 else (q - 2, q - 3, q - 2)


class CountTable:
    """Memoized class sizes for one system, exact: 2k base values from the
    pattern DP, then the count recursion.  CountTable(sys) holds the counts
    I(n) of irreducible words; CountTable(sys, values) starts another class.
    """

    def __init__(self, sys: DupSystem, values: Sequence[int] | None = None):
        self.sys = sys
        self._values = list(count_table(sys)._values[:2 * sys.k] if values is None else values)

    def count(self, n: int) -> int:
        if n < 0:
            raise DomainError(f"word length must be >= 0, got {n}")
        v = self._values
        if len(v) <= n:
            c = _coefficients(self.sys)
            while len(v) <= n:
                v.append(sum(map(mul, c, reversed(v))))
        return v[n]

    def total(self, n: int) -> int:
        """count(1) + ... + count(n), from the first 2k counts and the top k.
        For b = 2k <= n the recursion, summed over lengths b .. n, telescopes:
        (sum(c) - 1) * (count(b) + ... + count(n)) is the sum over i < k of
        w[i] * (count(n - i) - count(b - 1 - i)), w[i] = c[i] + ... + c[-1]."""
        self.count(n)
        v, c, b = self._values, _coefficients(self.sys), 2 * self.sys.k
        if n < b:
            return sum(v[1:n + 1])
        tops = sum(sum(c[i:]) * (v[n - i] - v[b - 1 - i]) for i in range(len(c)))
        return sum(v[1:b]) + tops // (sum(c) - 1)  # by 2q - 5 or 3q - 8, exactly


def _append_ok(w: tuple[int, ...], c: int, k: int) -> bool:
    # reject iff some square of half-length t <= k ends at the new symbol
    full = w + (c,)
    n = len(full)
    for t in range(1, k + 1):
        if n >= 2 * t and full[n - 2 * t:n - t] == full[n - t:]:
            return False
    return True


@cache
def _patterns(sys: DupSystem) -> tuple[dict[tuple[int, ...], int], list[CountTable]]:
    """The ids of the windows' equality patterns and each one's extension
    counts.  A window w's pattern, tuple(map(w.index, w)), is a window with
    w's counts, as renaming symbols maps squares to squares.  Ids follow the
    window DP's order, so pattern 0, the empty window's, counts I(n).  A
    pattern extends by each of its d symbols and by a new one standing for
    q - d symbols; rows 0 .. 2k - 1 of the DP on these moves seed the tables."""
    q, k = sys.q, sys.k
    width = 2 * k - 1
    keys: list[tuple[int, ...]] = [()]  # length by length, in lexicographic order
    moves: list[list[tuple[int, int]]] = []  # (multiplicity, next pattern) per valid append
    for w in keys:
        own = sorted(set(w))
        out = []
        for c, times in [(c, 1) for c in own] + [(len(w), q - len(own))]:
            if times and _append_ok(w, c, k):
                nxt = (w + (c,))[-width:]
                key = tuple(map(nxt.index, nxt))
                if key not in keys:
                    keys.append(key)
                out.append((times, keys.index(key)))
        moves.append(out)
    rows = [[1] * len(keys)]
    for _ in range(width):
        rows.append([sum([times * rows[-1][p] for times, p in out]) for out in moves])
    return {key: p for p, key in enumerate(keys)}, [CountTable(sys, col) for col in zip(*rows)]


def count_table(sys: DupSystem) -> CountTable:
    """count_irr's table, pattern 0's: the window DP's table of the empty window."""
    return _patterns(sys)[1][0]


def count_irr(n: int, sys: DupSystem) -> int:
    """Number of irreducible words of length n over {0..q-1}, exact."""
    return count_table(sys).count(n)


def code_size(n: int, sys: DupSystem) -> int:
    """Size of the length-n run-padded code: count_table(sys).total(n)."""
    if n < 1:
        raise DomainError(f"codeword length must be >= 1, got {n}")
    return count_table(sys).total(n)


# -------------------------------------------------------------- window DP


# The most cells whose ints a reduce shares (1.2 MB of them).  A larger step
# table's cells go to an array of machine ints instead: there each shared int
# is a cache miss, which costs more than the allocation it saves (a
# 400k-symbol reduce took 56-62 ms sharing 72674 cells at q = 7, k = 3,
# against 44-49 ms with new ints, and 133-159 against 64-114 ms at q = 8,
# on a 2-vCPU host under Python 3.11.7), and a new int would cost 32 bytes
# a cell where the array costs 8.  The array makes an int at every read, so
# it does not serve the small tables too: there it made decode 4-9% slower.
_SHARED_CELLS = 1 << 15


def _int_array():
    from array import array  # a compiled module, loaded only where used

    return array("q")


class _WindowDP:
    """The transition table over suffix windows for one system.

    The windows are listed length by length, each length in lexicographic
    order; offsets[r] is the id of the first length-r window, so window 0
    is the empty window.  step[sid * q + c] is q times the window after
    appending c to window sid, or -t where c closes a square: at most one
    square ends at c, of half-length t, and the last earlier c is t back.
    A window's extension counts are its pattern's, tables[pat[sid]] (_patterns).
    """

    def __init__(self, sys: DupSystem):
        self.sys = sys
        self.width = width = 2 * sys.k - 1
        q, k = sys.q, sys.k
        patterns, self.tables = _patterns(sys)
        # the length-r windows, in order, each extended by every symbol in
        # turn: the next length's windows, in lexicographic order again
        states: list[tuple[int, ...]] = [()]
        self.offsets = offsets = [0]
        for r in range(width):
            offsets.append(len(states))
            states += [w + (c,) for w in states[offsets[r]:]
                       for c in range(q) if _append_ok(w, c, k)]
        self.states = states
        self.index = index = {w: sid for sid, w in enumerate(states)}
        # succ[sid]: the valid successors in symbol order, each ending in the
        # symbol that reached it (last).  A square of half-length < k ends at
        # c iff the next window is not irreducible (not in index); after a
        # full window w, half-length k is w + (c,) itself, so c is w[k - 1]
        qids = list(range(0, len(states) * q, q))  # q times each id: the step cells share these
        step: list[int] = []
        succ: list[tuple[int, ...]] = []
        last: list[int] = []
        for w in states:
            full = len(w) == width
            keep = w[1:] if full else w
            square = w[k - 1] if full and w[:k - 1] == w[k:] else -1
            row = [-1 if c == square else index.get(keep + (c,), -1) for c in range(q)]
            step += [qids[nxt] if nxt >= 0 else -1 - w[::-1].index(c) for c, nxt in enumerate(row)]
            succ.append(tuple([nxt for nxt in row if nxt >= 0]))
            last.append(w[-1] if w else -1)
        self.step, self.succ, self.last = step, succ, last
        # each window's equality pattern: each symbol's first position in w
        self.pat = [patterns[tuple(map(w.index, w))] for w in states]

    @cached_property
    def cell_ids(self) -> Sequence[int]:
        """The ints of reduce's cells, built on the first reduce: a list of
        shared ints up to _SHARED_CELLS cells, else a range whose new ints an
        array of machine ints stores."""
        n = len(self.step)
        return list(range(n)) if n <= _SHARED_CELLS else range(n)

    def reduce(self, s: Sequence[int], row: int = 0) -> MutableSequence[int]:
        """The cells sid * q + c of s's root, c after window sid, by root's
        stack rule, walked from the empty window.  From another window,
        whose row sid * q is given and which a square may reach back into,
        the walk stops at the first symbol that closes a square instead: the
        cells of the longest prefix of s that extends the window."""
        step, ids, stop = self.step, self.cell_ids, row != 0
        cells = _int_array() if type(ids) is range else []
        for c in s:
            cell = row + c
            nxt = step[cell]
            if nxt >= 0:
                cells.append(ids[cell])
                row = nxt
            elif stop:
                break
            elif nxt < -1:
                del cells[nxt + 1:]
                row = step[cells[-1]]
        return cells

    def window_sid(self, symbols: tuple[int, ...]) -> int:
        w = symbols if len(symbols) <= self.width else symbols[-self.width:]
        sid = self.index.get(w)
        if sid is None:
            raise DomainError(f"suffix {w} is not irreducible")
        return sid

    def counts(self, sid: int) -> CountTable:
        """Window sid's extension counts: its pattern's table."""
        return self.tables[self.pat[sid]]

    def level_rows(self, r: int) -> list[tuple[int, ...]]:
        """The rows a walk of r symbols reads, its first symbol's first:
        level_rows(r)[i][p] is pattern p's count of length r - 1 - i."""
        for table in self.tables:
            table.count(r)
        return list(zip(*[table._values[:r] for table in self.tables]))[::-1]


_dp = cache(_WindowDP)


def _kth(dp: _WindowDP, sid: int, r: int, js: Iterable[int], out: list[int]) -> int:
    """For each j in js, append the j-th (0-indexed) valid length-r extension
    of the current window to out and move on to its final window; return
    the last window id.  Needs valid js."""
    succ, last, pat = dp.succ, dp.last, dp.pat
    view = dp.level_rows(r)
    for j in js:
        for row in view:
            for nxt in succ[sid]:
                cnt = row[pat[nxt]]
                if j < cnt:
                    break
                j -= cnt
            out.append(last[nxt])
            sid = nxt
    return sid


def _index(dp: _WindowDP, sid: int, r: int, steps: Iterable[Sequence[int]]) -> list[int]:
    """The 0-indexed positions of consecutive length-r extensions, starting
    at window sid.  Needs steps that close no square (a reduce's cells)."""
    succ, last, pat = dp.succ, dp.last, dp.pat
    view = dp.level_rows(r)
    out: list[int] = []
    for ys in steps:
        idx = 0
        for row, c in zip(view, ys):
            for nxt in succ[sid]:
                if last[nxt] == c:
                    break
                idx += row[pat[nxt]]
            sid = nxt
        out.append(idx)
    return out


# ------------------------------------------------------- minimum out-degree


@cache
def _degree_table(sys: DupSystem) -> CountTable:
    # delta_min_degree(2k-1 + i) at index i: minima over the full windows' patterns
    patterns, tables = _patterns(sys)
    width = 2 * sys.k - 1
    full = [tables[p] for w, p in patterns.items() if len(w) == width]
    return CountTable(sys, [min(t.count(b) for t in full) for b in range(width, 3 * sys.k - 1)])


def delta_min_degree(m: int, sys: DupSystem) -> int:
    """Minimum over irreducible x of length m of the number of irreducible
    words x' of length m with x..x' irreducible (the encoder out-degree).

    Base values at m = 2k-1, ..., 3k-2 are computed exactly as minima of
    extension counts over full suffix windows; larger m follows the same
    linear recursion as the total counts.
    """
    width = 2 * sys.k - 1
    if m < width:
        raise DomainError(f"state length must be >= {width}, got {m}")
    return _degree_table(sys).count(m - width)


# -------------------------------------------------------- rates and params


class RateInfo(_Record):
    """Asymptotic data for one system: growth factor, rate, degree constant."""

    __slots__ = ("sys", "lam", "rate")
    sys: DupSystem
    lam: float  # dominant growth factor of count_irr(n)
    rate: float  # log_q(lam), symbols of information per code symbol

    @property
    def kappa(self) -> float:
        """The largest constant with delta_min_degree(m) >= kappa * lam**m."""
        sys, lam = self.sys, self.lam
        return min(delta_min_degree(m, sys) / lam**m for m in range(2 * sys.k - 1, 3 * sys.k - 1))


def _growth_factor(sys: DupSystem) -> float:
    # largest real root of x^d - c[0]x^(d-1) - ... - c[d-1], the count
    # recursion's characteristic polynomial; its coefficients change sign
    # once, so it has exactly one positive root, and that lies in (1, q)
    c = _coefficients(sys)
    if len(c) == 2:
        return (c[0] + math.sqrt(c[0] * c[0] + 4 * c[1])) / 2

    def f(x: float) -> float:
        return ((x - c[0]) * x - c[1]) * x - c[2]

    lo, hi = 1.0, float(sys.q)
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return (lo + hi) / 2


def asymptotic_rate(sys: DupSystem) -> RateInfo:
    """Growth factor of count_irr, its log_q (the code rate), and kappa."""
    lam = _growth_factor(sys)
    return RateInfo(sys, lam, math.log(lam) / math.log(sys.q))


class FseParams(_Record):
    """Parameters of an (ell, m) finite-state encoder: read ell message
    symbols, emit one irreducible length-m state per step."""

    __slots__ = ("sys", "ell", "m")
    sys: DupSystem
    ell: int
    m: int

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise DomainError(f"block length ell must be >= 1, got {self.ell}")
        if self.m < 2 * self.sys.k - 1:
            raise DomainError(
                f"state length m must be >= {2 * self.sys.k - 1}, got {self.m}"
            )


def _estimate(epsilon: float, info: RateInfo) -> tuple[int, int]:
    # choose_params' start (ell, m): the float bound delta_min_degree(m) >=
    # kappa * lam**m, which only rounding can make miss, by one step of m
    c = info.rate
    log_kappa = math.log(info.kappa, info.sys.q)  # negative
    ell = (c - epsilon) * (c - log_kappa) / epsilon
    if ell == math.inf:
        raise DomainError(f"epsilon {epsilon} is too small: ell overflows a float")
    ell = math.ceil(ell)
    return ell, max(math.ceil((ell - log_kappa) / c), 2 * info.sys.k - 1)


def choose_params(epsilon: float, sys: DupSystem) -> FseParams:
    """Smallest (ell, m) pair guaranteeing rate >= asymptotic rate - epsilon.

    Requires 0 < epsilon < rate.  The returned parameters satisfy
    q**ell <= delta_min_degree(m) (checked with exact integers) and
    ell/m >= rate - epsilon.
    """
    info = asymptotic_rate(sys)
    c = info.rate
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if epsilon >= c:
        raise DomainError(
            f"epsilon {epsilon} must be below the asymptotic rate {c:.6f}"
        )
    ell, m = _estimate(epsilon, info)
    while True:
        # step to the smallest m with q**ell <= delta_min_degree(m), which grows with m
        labeled = sys.q**ell
        while labeled > delta_min_degree(m, sys):
            m += 1
        while m > 2 * sys.k - 1 and labeled <= delta_min_degree(m - 1, sys):
            m -= 1
        if ell / m >= c - epsilon:
            return FseParams(sys, ell, m)
        # m sits at its floor 2k-1 (short blocks only); ell/m -> c as ell grows
        ell += 1
