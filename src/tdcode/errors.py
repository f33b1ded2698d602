"""Exception types shared across the package, and show_int for their messages."""


class TandemCodeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TandemCodeError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class BudgetExceededError(TandemCodeError):
    """A brute-force computation exceeded its search budget."""


class CorruptInputError(TandemCodeError, ValueError):
    """Input data does not decode: framing, block, or format damage."""


class NotADescendantError(TandemCodeError, ValueError):
    """The received word cannot descend from any codeword."""


def show_int(v: int) -> str:
    """v as an error message shows it: exact up to 64 bits, else by bit
    length.  str() of an integer past 4300 digits raises ValueError."""
    return str(v) if v.bit_length() <= 64 else f"<{v.bit_length()}-bit integer>"
