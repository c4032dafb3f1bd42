"""Exception hierarchy shared across the library, and the range and
integer checks the config classes report their problems with."""

import numbers


class FedGameError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(FedGameError):
    """Shape or layout mismatch between values that must agree."""


class ConfigError(FedGameError):
    """Invalid or inconsistent configuration.

    ``problems`` lists every violation found, each naming its key; the
    message joins them.
    """

    def __init__(self, *problems: str) -> None:
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class UsageError(FedGameError):
    """An operation was called with unusable inputs (e.g. empty data)."""


class FormatError(FedGameError):
    """Malformed input file; the message names the column or line."""


class NumericError(FedGameError):
    """A computation produced non-finite values."""


def too_small(obj, keys: tuple[str, ...], floor: float, *, strict: bool = False) -> list[str]:
    """One problem for each field of ``obj`` below ``floor`` (or at it, when
    ``strict``); NaN is never large enough."""
    problems = []
    for key in keys:
        value = getattr(obj, key)
        if not (value > floor if strict else value >= floor):
            problems.append(f"{key} must be {'>' if strict else '>='} {floor}, got {value}")
    return problems


def is_integer(value) -> bool:
    """True for Python and numpy integers; a bool is not an integer here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def not_integers(obj, keys: tuple[str, ...]) -> list[str]:
    """One problem for each field of ``obj`` that is not an integer."""
    return [f"{key} must be an integer, got {getattr(obj, key)!r}"
            for key in keys if not is_integer(getattr(obj, key))]
