"""Exception hierarchy shared across the package, and the one check of a
numeric parameter that raises them."""

import math
import numbers

__all__ = [
    "CostcalError",
    "DomainError",
    "UnsupportedLimitError",
    "PreconditionError",
    "UnsupportedFamilyError",
    "VacuousBoundError",
]


class CostcalError(Exception):
    """Base class for all package errors."""


class DomainError(CostcalError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedLimitError(CostcalError, ValueError):
    """A partial loss was evaluated at an infinite score without a declared limit."""


class PreconditionError(CostcalError, ValueError):
    """An operation's structural precondition (flags, metadata) is not met."""


class UnsupportedFamilyError(CostcalError, ValueError):
    """Closed forms were requested for a (family, parameter) combination
    outside the supported configurations."""


class VacuousBoundError(CostcalError, ValueError):
    """A regret bound was requested for a loss that is not calibrated, so the
    transfer function is not invertible and the bound is vacuous."""


def _check_real(name: str, value, lo=-math.inf, hi=math.inf, ends: str = "[]") -> None:
    """Return when ``lo <= value <= hi`` holds, each end strict where
    ``ends`` has a parenthesis ("(]" is ``lo < value <= hi``).  Else raise
    ``DomainError``: "must be a number" where the comparison raises (None,
    a str, an array of several entries), and "must lie in" where it is
    false (NaN too).  A float compares fastest with float bounds."""
    try:
        if ends == "[]":  # one chained comparison, the fastest
            inside = lo <= value <= hi
        else:
            inside = (lo < value if ends[0] == "(" else lo <= value) and (
                value < hi if ends[1] == ")" else value <= hi
            )
        if inside:
            return
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    lo, hi = (repr(end).removesuffix(".0") for end in (lo, hi))  # [0, 1], not [0.0, 1.0]
    raise DomainError(f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {value}")


def _check_int(name: str, value, lo=-math.inf, hi=math.inf, ends: str = "[]") -> None:
    """``_check_real`` for an integer: a bool or a numpy integer too, but
    no float, however whole."""
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    _check_real(name, value, lo, hi, ends)


def _check_sequence(name: str, value, probe=iter) -> None:
    """Raise ``DomainError`` where ``probe(value)`` raises ``TypeError``:
    with ``iter``, where ``value`` cannot be iterated (None, a number); with
    ``len``, also where it has no length (a generator, used up by one pass)."""
    try:
        probe(value)
    except TypeError:
        raise DomainError(f"{name} must be a sequence, got {value!r}") from None
