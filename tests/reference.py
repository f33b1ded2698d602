"""The paper's definitions, restated for the tests from first principles.

Nothing here reads the package's suffix maps, counting tables or walks.
Squares come from the oracle's own scan, the suffix maps from the suffix
shape that names each branch, and class sizes from brute force up to the
base length, then from the count recursion.  The tests compare the
engine against these.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Optional

from tdcode import DomainError, DupSystem, Word, enumerate_irr_bruteforce
from tdcode.oracle import _has_square


def widths(sys_: DupSystem) -> tuple[int, ...]:
    """c[b - 1], the free symbols of branch b: the coefficients of the count
    recursion I(n) = c[0] I(n - 1) + c[1] I(n - 2) (+ c[2] I(n - 3))."""
    q = sys_.q
    return (q - 2, q - 2) if sys_.k == 2 else (q - 2, q - 3, q - 2)


def shape(y: tuple[int, ...], k: int) -> int:
    """The branch whose images end like y, len(y) >= 2k.

    k = 2: branch 1 ends in three distinct symbols, branch 2 repeats the
    symbol two back.  k = 3: branch 1 has y[-1] != y[-4]; of the others,
    branch 3 has y[-2] == y[-5] where y[-6] == y[-4] and y[-2] == y[-6]
    elsewhere, and branch 2 holds the rest.
    """
    if k == 2:
        return 1 if y[-1] != y[-3] else 2
    if y[-1] != y[-4]:
        return 1
    return 3 if y[-2] == (y[-5] if y[-6] == y[-4] else y[-6]) else 2


def copied(x: tuple[int, ...], branch: int, k: int) -> tuple[int, ...]:
    """The symbols branch `branch` copies from x after its free symbol."""
    if branch == 1:
        return ()
    if k == 2:
        return (x[-1],)
    if branch == 2:
        return (x[-2],)
    return (x[-2] if x[-3] == x[-1] else x[-3], x[-1])


def free_symbols(x: tuple[int, ...], branch: int, sys_: DupSystem) -> list[int]:
    """The sigma, in increasing order, for which x + (sigma,) + copied is
    irreducible and has branch `branch`'s suffix shape.

    x is irreducible and len(x) + branch >= 2k.  A new square ends in the
    appended symbols and spans at most 2k, so it lies in the last 3k.
    """
    k, tail = sys_.k, copied(x, branch, sys_.k)
    out = []
    for sigma in range(sys_.q):
        y = x[-3 * k:] + (sigma,) + tail
        if not _has_square(y[-3 * k:], k) and shape(y, k) == branch:
            out.append(sigma)
    return out


def image(x: Word, i: int, branch: int, sys_: DupSystem) -> Word:
    """Suffix map `branch` with free index i (1-indexed) applied to x."""
    s = x.symbols
    sigma = free_symbols(s, branch, sys_)[i - 1]
    return Word(s + (sigma,) + copied(s, branch, sys_.k), sys_.q)


def preimages(y: Word, sys_: DupSystem) -> list[tuple[Word, int, int]]:
    """Every (x, i, branch) with image(x, i, branch) == y; y is irreducible
    and len(y) >= 2k."""
    s, out = y.symbols, []
    for branch in range(1, sys_.k + 1):
        x = s[:len(s) - branch]
        free = free_symbols(x, branch, sys_)
        if s[len(x)] in free and s[len(x) + 1:] == copied(x, branch, sys_.k):
            out.append((Word(x, sys_.q), free.index(s[len(x)]) + 1, branch))
    return out


def preimage(y: Word, sys_: DupSystem) -> tuple[Word, int, int]:
    """The one (x, i, branch) whose image is y."""
    (found,) = preimages(y, sys_)
    return found


def extend_zeta(x: Word, i: int) -> Word:
    """x with i more copies of its last symbol, as a codeword pads its root
    to the code length."""
    if len(x) == 0:
        raise DomainError("cannot extend the empty word")
    if i < 0:
        raise DomainError(f"extension count must be >= 0, got {i}")
    return Word(x.symbols + (x.symbols[-1],) * i, x.q)


# ------------------------------------------------------ the recursive order


def base_length(p: tuple[int, ...], sys_: DupSystem) -> int:
    """p's class is lexicographic up to this length; beyond it every
    branch's preimage still starts with p and is long enough to map."""
    return max(len(p) + sys_.k - 1, 2 * sys_.k - 1)


@cache
def _base(p: tuple[int, ...], n: int, sys_: DupSystem) -> tuple[tuple[int, ...], ...]:
    # the irreducible length-n words that start with p, in lexicographic order
    tails = itertools.product(range(sys_.q), repeat=n - len(p))
    return tuple(p + e for e in tails if not _has_square(p + e, sys_.k))


@cache
def _sizes(p: tuple[int, ...], sys_: DupSystem) -> list[int]:
    return [0] * len(p)  # size reads and extends it: index n holds length n


def size(p: Word, n: int, sys_: DupSystem) -> int:
    """The number of irreducible length-n words that start with p: brute
    force up to the base length, then the count recursion that the
    partition into suffix-map images gives."""
    s, c = p.symbols, widths(sys_)
    v = _sizes(s, sys_)
    while len(v) <= n:
        m = len(v)
        v.append(len(_base(s, m, sys_)) if m <= base_length(s, sys_)
                 else sum(w * v[m - b] for b, w in enumerate(c, start=1)))
    return v[n]


def unrank(p: Word, n: int, j: int, sys_: DupSystem) -> Word:
    """The j-th (1-indexed) length-n word of p's class in the recursive
    order: lexicographic up to the base length, then one block per branch
    b = 1..k of c[b - 1] * size(n - b) words, ordered by the preimage's
    rank with the free index varying fastest."""
    if n <= base_length(p.symbols, sys_):
        return Word(_base(p.symbols, n, sys_)[j - 1], sys_.q)
    for branch, width in enumerate(widths(sys_), start=1):
        block = width * size(p, n - branch, sys_)
        if j <= block:
            x = unrank(p, n - branch, (j - 1) // width + 1, sys_)
            return image(x, (j - 1) % width + 1, branch, sys_)
        j -= block
    raise AssertionError("rank past the class")


def rank(p: Word, y: Word, sys_: DupSystem) -> int:
    """The inverse of unrank: y's position in p's class."""
    n = len(y)
    if n <= base_length(p.symbols, sys_):
        return _base(p.symbols, n, sys_).index(y.symbols) + 1
    x, i, branch = preimage(y, sys_)
    c = widths(sys_)
    lower = sum(c[b - 1] * size(p, n - b, sys_) for b in range(1, branch))
    return (rank(p, x, sys_) - 1) * c[branch - 1] + i + lower


# ---------------------------------------------- extensions and out-degrees


@cache
def _irreducible(r: int, sys_: DupSystem) -> tuple[tuple[int, ...], ...]:
    return tuple(x.symbols for x in enumerate_irr_bruteforce(r, sys_))


def extensions(x: Word, r: int, sys_: DupSystem) -> list[Word]:
    """The length-r words e with x + e irreducible, in lexicographic order.
    For a state x of length r these are its out-neighbors in the encoder
    graph."""
    return [Word(e, sys_.q) for e in _irreducible(r, sys_)
            if not _has_square(x.symbols + e, sys_.k)]


def count_closed_form(n: int, sys_: DupSystem) -> int:
    """I(n), the number of irreducible words of length n, by its closed
    form for the base lengths n = 0 .. 2k - 1."""
    q = sys_.q
    forms = [1, q, q * (q - 1), q * (q - 1) ** 2]
    if sys_.k == 3:
        forms += [q * q * (q - 1) * (q - 2), q * (q - 1) * (q - 2) * (q * q - q - 1)]
    return forms[n]


def delta_closed_form(m: int, sys_: DupSystem) -> Optional[int]:
    """The closed forms recorded for the base out-degrees delta(m),
    m = 2k - 1 .. 3k - 2; None where none is recorded.  The k = 3, m = 7
    form disagrees with exhaustive counting."""
    q = sys_.q
    forms = {
        (2, 3): lambda: q * (q - 2) ** 2,
        (2, 4): lambda: (q - 2) ** 2 * (q * q - q - 1),
        (3, 5): lambda: (q - 2) * (q * q - 2 * q - 1) ** 2,
        (3, 6): lambda: (q - 1) * (q**5 - 6 * q**4 + 9 * q**3 + 4 * q**2 - 8 * q - 9),
        (3, 7): lambda: (q - 2) * (q**6 - 6 * q**4 + 9 * q**3 + 4 * q**2 - 8 * q - 10 * q + 3),
    }
    form = forms.get((sys_.k, m))
    return form() if form else None
