"""Exception types shared across the package.

Every error raised on purpose derives from RadsurjError so callers can
catch one base class.  The CLI maps them to exit codes: input and parse
problems exit 2; exhausted budgets, numeric failures and every other
package error exit 4.
"""

from __future__ import annotations


class RadsurjError(Exception):
    """Base class for all package errors."""


class StructuralError(RadsurjError):
    """Objects built over incompatible variable tables or towers."""


class DomainError(RadsurjError):
    """Operation applied outside its mathematical domain.

    Examples: a zero polynomial where a nonzero one is required, guilt
    of a polynomial that vanishes modulo the tower.
    """


class InputError(RadsurjError):
    """Bad user input (files, flags, inconsistent problem data)."""


class ParseError(InputError):
    """Syntax error in the input language, with position info."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ResourceError(RadsurjError):
    """A configured work budget ran out before the answer was found."""


class NumericError(RadsurjError):
    """Floating-point stage failed to converge.

    The best iterate reached is attached so callers can inspect it.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best
