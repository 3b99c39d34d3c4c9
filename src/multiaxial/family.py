"""The two coefficient families the calculator handles.

Everything downstream branches on whether the acting group is unitary
(complex coordinates) or symplectic (quaternionic coordinates), so the
choice travels as a small enum rather than a string.

UsageError and require_valid live here because every module that checks
an input already imports this one, the closed form and the oracle alike.
"""

from __future__ import annotations

import enum


class UsageError(ValueError):
    """An input that the package refuses: a bad family, rank, copy count,
    rank band or grid.  The CLI reports it as a usage error, exit 2."""


def require_valid(n: int, k: int):
    """Reject a rank and copy count that are not ints (True and 2.0
    included) with TypeError, and ones outside k >= n >= 1."""
    if type(n) is not int or type(k) is not int:
        raise TypeError(f"n and k must be ints, got n={n!r}, k={k!r}")
    if n < 1 or k < n:
        raise UsageError(f"need k >= n >= 1, got n={n}, k={k}")


class Family(enum.Enum):
    COMPLEX = "U"
    QUATERNIONIC = "Sp"

    @classmethod
    def parse(cls, text: str) -> "Family":
        """Accept the common spellings used on the command line; TypeError
        unless text is a str."""
        if not isinstance(text, str):
            raise TypeError(f"family name {text!r} is not a str")
        key = text.strip().lower()
        if key in {"u", "c", "complex", "unitary"}:
            return cls.COMPLEX
        if key in {"sp", "h", "q", "quaternionic", "symplectic"}:
            return cls.QUATERNIONIC
        raise UsageError(f"unknown family {text!r}, expected 'U' or 'Sp'")

    @classmethod
    def require(cls, value: object) -> None:
        """TypeError unless value is a Family; the string "U" is not one."""
        if not isinstance(value, cls):
            raise TypeError(f"family {value!r} is not a Family")

    def __str__(self) -> str:
        return self.value
