"""Words over {0..q-1}, tandem duplication, and root extraction.

A tandem duplication copies a block of up to k adjacent symbols and
inserts the copy immediately after the original, turning x = uvw into
uvvw.  A word is irreducible (for a given k) when it contains no
substring ww with 1 <= |w| <= k, so no length-at-most-k deduplication
applies.  For k in {2, 3} and any alphabet size every word has a unique
irreducible root, which is what makes greedy deduplication a decoder.
"""

from __future__ import annotations

import random
from functools import cache
from operator import attrgetter
from typing import Iterator

from .errors import DomainError

DNA_ALPHABET = "ACGT"


@cache
def _text_codec(q: int, dna: bool):
    """The one text form of symbols: ACGT for q = 4 (either case on input)
    when dna, else one ASCII digit per symbol (q <= 10).  Returns the table
    rendering symbol bytes as text bytes, and the parser mapping stripped
    text to symbol bytes in one translate that deletes every other byte;
    text that shrinks there, or digit text with a non-ASCII character
    (int() reads other scripts' digits), raises DomainError."""
    if q < 2:
        raise DomainError(f"alphabet size must be at least 2, got {q}")
    if dna and q != 4:
        raise DomainError("DNA rendering requires q = 4")
    if not dna and q > 10:
        raise DomainError("digit strings only cover alphabets up to q = 10")
    letters = b"ACGTacgt" if dna else b"0123456789"[:q]
    table = bytes.maketrans(letters, bytes(range(q)) * (2 if dna else 1))
    drop = bytes(range(256)).translate(None, letters)

    def parse(text: str) -> bytes:
        # "replace" turns every non-ASCII character into b"?", which is dropped
        raw = text.strip().encode("ascii", "replace")
        symbols = raw.translate(table, drop)
        if len(symbols) != len(raw) or not (dna or text.isascii()):
            if dna:
                raise DomainError(f"not a DNA string: {text!r}")
            if not (raw.isdigit() and text.isascii()):
                raise DomainError(f"not a digit string: {text!r}")
            raise DomainError(f"symbol {next(d for d in raw if d - 48 >= q) - 48} "
                              f"outside alphabet of size {q}")
        return symbols

    return bytes.maketrans(bytes(range(q)), letters[:q]), parse


class _Record:
    """Base of the package's immutable records.  The standard library's
    record decorator would import inspect and compile source for each
    class, a large share of every command's start-up; this base does not.

    The fields are the subclass's __slots__, taken by position or
    keyword; then __post_init__ checks them.  Equality holds within one
    class, the hash is the field tuple's, assignment raises
    AttributeError, and copy and pickle rebuild through __init__.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._fields = fields = cls.__slots__
        # a plain callable, not a method: self._values(self) is the field
        # tuple (every record has two or more fields)
        cls._values = attrgetter(*fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs:
            try:
                args += tuple(kwargs.pop(f) for f in fields[len(args):])
            except KeyError as exc:
                raise TypeError(f"{type(self).__name__}() missing field {exc}") from None
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for f, value in zip(fields, args):
            object.__setattr__(self, f, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # rebuild through __init__: the default restores slots by setattr
        return type(self), self._values(self)


class Word(_Record):
    """Immutable word over the alphabet {0, ..., q-1}."""

    __slots__ = ("symbols", "q")
    symbols: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise DomainError(f"alphabet size must be at least 2, got {self.q}")
        for s in self.symbols:
            if not (isinstance(s, int) and 0 <= s < self.q):
                raise DomainError(f"symbol {s!r} outside alphabet of size {self.q}")

    @classmethod
    def _unchecked(cls, symbols: tuple[int, ...], q: int) -> "Word":
        """A word from symbols already known to lie in range(q), built
        without the per-symbol check; never for a caller's tuple."""
        w = object.__new__(cls)
        object.__setattr__(w, "symbols", symbols)
        object.__setattr__(w, "q", q)
        return w

    @classmethod
    def from_string(cls, text: str, q: int) -> "Word":
        """Parse a digit string; each character is one symbol (needs q <= 10)."""
        return cls._unchecked(tuple(_text_codec(q, False)[1](text)), q)

    @classmethod
    def from_dna(cls, text: str) -> "Word":
        """Parse an ACGT string as a word over q = 4 (A=0, C=1, G=2, T=3)."""
        return cls._unchecked(tuple(_text_codec(4, True)[1](text)), 4)

    def to_dna(self) -> str:
        return bytes(self.symbols).translate(_text_codec(self.q, True)[0]).decode("ascii")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, i: int) -> int:
        return self.symbols[i]

    def __str__(self) -> str:
        if self.q <= 10:
            return bytes(self.symbols).translate(_text_codec(self.q, False)[0]).decode("ascii")
        return ".".join(str(s) for s in self.symbols)


class DupSystem(_Record):
    """A duplication system: alphabet size q >= 3 and root-unique k in {2, 3}."""

    __slots__ = ("q", "k")
    q: int
    k: int

    def __post_init__(self) -> None:
        if self.q < 3:
            raise DomainError(f"alphabet size must be at least 3, got {self.q}")
        if self.k not in (2, 3):
            raise DomainError(f"duplication bound k must be 2 or 3, got {self.k}")


def _check_alphabet(x: Word, sys: DupSystem) -> None:
    if x.q != sys.q:
        raise DomainError(f"word alphabet q={x.q} does not match system q={sys.q}")


def tandem_duplicate(x: Word, e: tuple[int, int]) -> Word:
    """Apply one duplication e = (position, length), a draw of _duplicate:
    x = uvw -> uvvw with v = x[position : position + length]."""
    position, length = e
    if position < 0:
        raise DomainError(f"duplication position must be >= 0, got {position}")
    if length < 1:
        raise DomainError(f"duplication length must be >= 1, got {length}")
    end = position + length
    if end > len(x):
        raise DomainError(f"event copies [{position}:{end}] but the word has length {len(x)}")
    s = x.symbols
    return Word(s[:end] + s[position:end] + s[end:], x.q)


def _stack(s, k: int):
    """root's stack over s, sentinels -5..-1 first: push the symbols one at a
    time.  The stack before a push is irreducible, so a square ww with
    |w| = t <= k can only appear ending at the new symbol; then drop its
    second copy (pop t - 1 symbols and skip the push).  What remains is a
    prefix of an irreducible stack, hence irreducible again, and every step
    is a deduplication of the whole word.  x1..x3 copy the stack's top
    three; the sentinels below it spare length tests."""
    st = list(range(-5, 0))
    push, pop = st.append, st.pop
    x3, x2, x1 = st[-3:]
    for c in s:
        if c == x1:
            continue
        if c == x2 and x3 == x1:
            pop()
            x1, x2, x3 = x2, x3, st[-3]
        elif c == x3 and k == 3 and st[-4] == x1 and st[-5] == x2:
            del st[-2:]
            x1, x2, x3 = x3, x1, x2
        else:
            push(c)
            x1, x2, x3 = c, x1, x2
    return st


def is_irreducible(x: Word, k: int) -> bool:
    """True when x contains no substring ww with |w| <= k, k in {2, 3}:
    root's stack drops nothing from x."""
    if k not in (2, 3):
        raise DomainError(f"duplication bound k must be 2 or 3, got {k}")
    return len(_stack(x.symbols, k)) == len(x) + 5


def root(y: Word, sys: DupSystem) -> Word:
    """The irreducible root of y, by _stack's reduction in O(n*k).  For k
    in {2, 3} the root is unique (Jain, Farnoud, Schwartz and Bruck, IEEE
    T-IT 2017), so the stack's order reaches it."""
    _check_alphabet(y, sys)
    return Word._unchecked(tuple(_stack(y.symbols, sys.k)[5:]), y.q)


def _duplicate(buf, t: int, k: int, seed: int) -> list[tuple[int, int]]:
    """Apply t random duplications to the mutable sequence buf in place.

    Each step draws the block length uniformly from [1, min(k, current
    length)] and the position uniformly over valid starts, both as
    Random.randint draws them: getrandbits of the range's bit length,
    drawn again while the value is out of range.  The draws depend only on
    the seed and the lengths, so duplicating a bytearray of rendered
    characters gives the rendering of the duplicated symbols.  Returns the
    (position, length) draws.  buf must be non-empty when t > 0.
    """
    bits = random.Random(seed).getrandbits
    draws = []
    for _ in range(t):
        w = min(k, len(buf))  # length - 1 is drawn below w
        length = bits(w.bit_length())
        while length >= w:
            length = bits(w.bit_length())
        length += 1
        w = len(buf) - length + 1  # pos is drawn below w
        pos = bits(w.bit_length())
        while pos >= w:
            pos = bits(w.bit_length())
        buf[pos + length:pos + length] = buf[pos:pos + length]
        draws.append((pos, length))
    return draws


def random_descendant(
    x: Word, t: int, sys: DupSystem, seed: int
) -> tuple[Word, list[tuple[int, int]]]:
    """Apply t random duplications and return the result with its
    (position, length) draws, _duplicate's, so the same seed always yields
    the same draws.  The symbols live in a bytearray when they fit a byte,
    so each insertion moves one byte per symbol.
    """
    _check_alphabet(x, sys)
    if t < 0:
        raise DomainError(f"duplication count must be >= 0, got {t}")
    if len(x) == 0 and t > 0:
        raise DomainError("cannot duplicate within the empty word")
    syms = bytearray(x.symbols) if x.q <= 256 else list(x.symbols)
    draws = _duplicate(syms, t, sys.k, seed)
    return Word._unchecked(tuple(syms), x.q), draws
