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
  all distinct, and their images partition the irreducible words by a
  suffix test (see _classify).

Branch b of a suffix map always appends b symbols: a free symbol sigma
chosen from outside an avoid set, then symbols copied from the input.
Branch b has c[b-1] free symbols, c the count recursion's coefficients,
so it holds c[b-1] * size(n - b) words of a class.  Within a branch the
preimage is ordered recursively and the avoid-set index varies fastest,
so ranks are computed by divmod against block sizes from the class's
CountTable.  Words with a fixed prefix p use the same order restricted
to p's class, with a lexicographic base up to length
max(|p| + k - 1, 2k - 1); the plain order is the empty prefix.
Everything is exact integer arithmetic: unranking and ranking cost O(n)
big-integer operations on top of the class sizes.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .enumeration import _coefficients, _dp, count_table, extension_index, kth_extension
from .errors import DomainError, show_int
from .words import DupSystem, Word, is_irreducible

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


def _pick_symbol(avoid: tuple[int, ...], i: int, q: int) -> int:
    """The i-th smallest symbol (1-indexed) of {0..q-1} minus avoid."""
    width = q - len(avoid)
    if not 1 <= i <= width:
        raise DomainError(f"avoid-set index {i} outside [1, {width}]")
    for c in range(q):
        if c not in avoid:
            i -= 1
            if i == 0:
                return c
    raise AssertionError("unreachable")


def _classify(s: Sequence[int], n: int, k: int, q: int) -> tuple[int, int]:
    """(branch, i): the suffix map that produced the irreducible word s[:n]
    and the avoid-set index of its free symbol."""
    if k == 2:
        branch = 1 if s[n - 1] != s[n - 3] else 2
    elif s[n - 1] != s[n - 4]:
        branch = 1
    else:
        s6, s4 = s[n - 6], s[n - 4]
        if (s6 == s4 and s[n - 2] == s[n - 5]) or (s6 != s4 and s[n - 2] == s6):
            branch = 3
        else:
            branch = 2
    avoid, _ = _suffix_map(s, n - branch, branch, k)
    sigma = s[n - branch]
    if sigma in avoid:
        raise DomainError("word is not in the expected image class")
    return branch, 1 + sigma - sum(1 for a in avoid if a < sigma)


def _apply(x: Word, i: int, branch: int, sys: DupSystem, k: int, min_len: int) -> Word:
    _require_system(x, sys, k)
    if len(x) < min_len:
        raise DomainError(f"map input needs length >= {min_len}, got {len(x)}")
    if not is_irreducible(x, k):
        raise DomainError("map input must be irreducible")
    # _pick_symbol rejects i outside [1, width of the branch]
    s = x.symbols
    avoid, copied = _suffix_map(s, len(s), branch, sys.k)
    return Word(s + (_pick_symbol(avoid, i, sys.q),) + copied, sys.q)


def _invert(y: Word, sys: DupSystem, k: int, min_len: int) -> tuple[Word, int, int]:
    _require_system(y, sys, k)
    if len(y) < min_len:
        raise DomainError(f"map image needs length >= {min_len}, got {len(y)}")
    if not is_irreducible(y, k):
        raise DomainError("map image must be irreducible")
    s = y.symbols
    branch, i = _classify(s, len(s), k, sys.q)
    return Word(s[:len(s) - branch], sys.q), i, branch


def apply_phi(x: Word, i: int, sys: DupSystem) -> Word:
    """Append one symbol differing from the last two; the image ends in
    three distinct symbols."""
    return _apply(x, i, 1, sys, 2, min_len=3)


def invert_phi(y: Word, sys: DupSystem) -> tuple[Word, int]:
    """Inverse of apply_phi; requires the last three symbols distinct."""
    x, i, branch = _invert(y, sys, 2, min_len=4)
    if branch != 1:
        raise DomainError("word does not end in three distinct symbols")
    return x, i


def apply_psi(x: Word, i: int, sys: DupSystem) -> Word:
    """Append a symbol differing from the last two, then repeat the last
    symbol of x; the image's last symbol equals the one two back."""
    return _apply(x, i, 2, sys, 2, min_len=2)


def invert_psi(y: Word, sys: DupSystem) -> tuple[Word, int]:
    """Inverse of apply_psi; requires y[-1] == y[-3]."""
    x, i, branch = _invert(y, sys, 2, min_len=4)
    if branch != 2:
        raise DomainError("last symbol does not repeat the one two back")
    return x, i


def apply_phi123(x: Word, i: int, branch: int, sys: DupSystem) -> Word:
    """Apply the k = 3 suffix map for the given branch (1, 2, or 3).

    Branch 1 appends one symbol, branch 2 two, branch 3 three.  Branch 2
    has avoid sets of size three, so it is empty at q = 3.
    """
    if branch not in (1, 2, 3):
        raise DomainError(f"branch must be 1, 2, or 3, got {branch}")
    if branch == 2 and sys.q == 3:
        raise DomainError("branch 2 is empty at q = 3")
    return _apply(x, i, branch, sys, 3, min_len=4 if branch == 2 else 3)


def invert_phi123(y: Word, sys: DupSystem) -> tuple[Word, int, int]:
    """Classify y's suffix, strip the appended symbols, and recover the
    avoid-set index.  Returns (preimage, i, branch)."""
    return _invert(y, sys, 3, min_len=6)


# ------------------------------------------------------------ validation


def _require_system(x: Word, sys: DupSystem, k: int) -> None:
    if sys.k != k:
        raise DomainError(f"this map belongs to k = {k}, system has k = {sys.k}")
    if x.q != sys.q:
        raise DomainError(f"word alphabet q={x.q} does not match system q={sys.q}")


def _require_prefix(p: Word, sys: DupSystem) -> None:
    if p.q != sys.q:
        raise DomainError(f"prefix alphabet q={p.q} does not match system q={sys.q}")
    if len(p) < 1:
        raise DomainError("prefix must be nonempty")
    if not is_irreducible(p, sys.k):
        raise DomainError(f"prefix {p} is not irreducible for k = {sys.k}")


def _prefix_counter(p: Word, sys: DupSystem) -> Callable[[int], int]:
    # irreducible length-n words that start with p
    dp = _dp(sys)
    count = dp.counts(dp.window_sid(p.symbols)).count
    return lambda n: count(n - len(p))


# ------------------------------------------------------------- the engine


def _unrank(p: tuple[int, ...], n: int, j: int, count: Callable[[int], int],
            sys: DupSystem) -> tuple[Word, int]:
    """The j-th length-n word of p's class, and the number of big-integer
    operations spent.  count(m) is the class size at length m."""
    q, k = sys.q, sys.k
    branches = tuple(enumerate(_coefficients(sys), start=1))
    base = max(len(p) + k - 1, 2 * k - 1)
    ops = 0
    steps: list[tuple[int, int]] = []
    while n > base:
        for branch, width in branches:
            block = width * count(n - branch)
            ops += 3
            if j <= block:
                j, r = divmod(j - 1, width)
                steps.append((branch, r + 1))
                j += 1
                n -= branch
                break
            j -= block
    s = list(p)
    s += kth_extension(Word(p, q), n - len(p), j, sys).symbols
    ops += n
    for branch, i in reversed(steps):
        avoid, copied = _suffix_map(s, len(s), branch, k)
        s.append(_pick_symbol(avoid, i, q))
        s += copied
        ops += 1
    return Word._unchecked(tuple(s), q), ops


def _rank(p: tuple[int, ...], x: Word, count: Callable[[int], int],
          sys: DupSystem) -> tuple[int, int]:
    """Rank of x within p's class, and the number of big-integer operations
    spent.  x must be irreducible and start with p."""
    q, k = sys.q, sys.k
    widths = _coefficients(sys)
    base = max(len(p) + k - 1, 2 * k - 1)
    s = x.symbols
    n = len(s)
    ops = 0
    levels: list[tuple[int, int, int]] = []  # (branch, i, image length)
    while n > base:
        branch, i = _classify(s, n, k, q)
        levels.append((branch, i, n))
        n -= branch
        ops += 1
    r = extension_index(Word(p, q), Word(s[len(p):n], q), sys)
    ops += n
    for branch, i, m in reversed(levels):
        offset = 0
        for lower in range(1, branch):
            offset += widths[lower - 1] * count(m - lower)
        r = (r - 1) * widths[branch - 1] + i + offset
        ops += 2 * branch + 1
    return r, ops


def unrank_irr(n: int, j: int, sys: DupSystem) -> Word:
    """The j-th irreducible word of length n (1-indexed) in the recursive
    order."""
    if n < 0:
        raise DomainError(f"word length must be >= 0, got {n}")
    count = count_table(sys).count
    total = count(n)
    if not 1 <= j <= total:
        raise DomainError(f"rank {show_int(j)} outside [1, {show_int(total)}] for length {n}")
    return _unrank((), n, j, count, sys)[0]


def rank_irr(x: Word, sys: DupSystem) -> int:
    """Rank (1-indexed) of an irreducible word in the recursive order."""
    if x.q != sys.q:
        raise DomainError(f"word alphabet q={x.q} does not match system q={sys.q}")
    if not is_irreducible(x, sys.k):
        raise DomainError(f"{x} is not irreducible for k = {sys.k}")
    return _rank((), x, count_table(sys).count, sys)[0]


def unrank_irr_prefix(p: Word, n: int, j: int, sys: DupSystem) -> Word:
    """The j-th irreducible length-n word with prefix p, under the same
    recursive order restricted to the prefix class (lexicographic base)."""
    _require_prefix(p, sys)
    if n < len(p):
        raise DomainError(f"target length {n} shorter than the prefix ({len(p)})")
    count = _prefix_counter(p, sys)
    total = count(n)
    if not 1 <= j <= total:
        raise DomainError(f"rank {show_int(j)} outside [1, {show_int(total)}] "
                          f"for prefix {p}, length {n}")
    return _unrank(p.symbols, n, j, count, sys)[0]


def rank_irr_prefix(p: Word, x: Word, sys: DupSystem) -> int:
    """Rank of x within the irreducible words sharing the prefix p."""
    _require_prefix(p, sys)
    if x.q != sys.q:
        raise DomainError(f"word alphabet q={x.q} does not match system q={sys.q}")
    if x.symbols[:len(p)] != p.symbols:
        raise DomainError(f"{x} does not start with prefix {p}")
    if not is_irreducible(x, sys.k):
        raise DomainError(f"{x} is not irreducible for k = {sys.k}")
    return _rank(p.symbols, x, _prefix_counter(p, sys), sys)[0]
