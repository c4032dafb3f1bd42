"""Exception hierarchy shared across the library, and the type and
range checks the config classes report their problems with."""

import functools
import math
import numbers
import typing

import numpy as np


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


def too_small(obj, keys: tuple[str, ...], floor: float, bad: set[str], *,
              strict: bool = False) -> list[str]:
    """One problem for each field of ``obj`` below ``floor`` (or at it, when
    ``strict``), leaving out the ill-typed keys ``bad``; NaN is never large
    enough."""
    problems = []
    for key in keys:
        value = getattr(obj, key)
        if key not in bad and not (value > floor if strict else value >= floor):
            problems.append(f"{key} must be {'>' if strict else '>='} {floor}, got {value}")
    return problems


# what each annotated type accepts, and its (singular, plural) JSON name
_KINDS = {
    int: (numbers.Integral, "an integer", "integers"),
    float: (numbers.Real, "a number", "numbers"),
    str: (str, "a string", "strings"),
    bool: ((), "true or false", None),
}


@functools.cache
def _fields(cls) -> tuple[tuple[str, type, bool, bool], ...]:
    """(name, element type, is a tuple, may be None) per field, once per class."""
    out = []
    for key, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        many = typing.get_origin(hint) is tuple
        out.append((key, args[0] if args else hint, many, bool(args) and not many))
    return tuple(out)


def _fits(kind: type, value) -> bool:
    """An integer is a number; a bool, Python or numpy, is only a bool."""
    if isinstance(value, (bool, np.bool_)):
        return kind is bool
    return isinstance(value, _KINDS[kind][0])


def as_type(key: str, kind: type, value, many: bool = False, optional: bool = False):
    """``value`` as a ``kind``, a tuple of them when ``many`` (or None when
    ``optional``); a :class:`ConfigError` naming ``key`` if it does not fit,
    also for an integer too large for a float and for an infinite float."""
    if value is None and optional:
        return value
    listed = isinstance(value, (list, tuple))
    if many and not (listed and all(_fits(kind, v) for v in value)):
        what = _KINDS[kind][2] if listed else f"a list of {_KINDS[kind][2]}"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    if not (many or _fits(kind, value)):
        raise ConfigError(f"{key} must be {_KINDS[kind][1]}, got {value!r}")
    try:
        out = tuple(map(kind, value)) if many else kind(value)
    except OverflowError:
        # the integer is not printed: its repr alone can exceed int's digit limit
        raise ConfigError(f"{key} must be {_KINDS[kind][2 if many else 1]}, "
                          "got an integer too large for a float") from None
    if kind is float and any(map(math.isinf, out if many else (out,))):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return out


def typed_fields(obj) -> tuple[list[str], set[str]]:
    """Check each field of the dataclass ``obj`` by its annotation and
    normalize it in place: numpy scalars become Python ones, an int in a
    float field a float, a list a tuple.  Returns one problem per ill-typed
    field and those keys, which the caller keeps out of its other rules."""
    problems, bad = [], set()
    for key, kind, many, optional in _fields(type(obj)):
        try:
            object.__setattr__(obj, key, as_type(key, kind, getattr(obj, key), many, optional))
        except ConfigError as exc:
            problems += exc.problems
            bad.add(key)
    return problems, bad
