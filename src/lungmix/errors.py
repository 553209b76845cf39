"""Exception hierarchy shared across the toolkit, and the one check of the
values a config dataclass holds.

Every error carries a ``category`` used by the CLI to pick its exit code:
``config`` -> 2, ``data`` -> 3, ``io`` -> 4.
"""

import sys
from dataclasses import fields
from functools import lru_cache
from numbers import Integral, Real
from typing import get_args, get_type_hints


class LungmixError(Exception):
    category = "data"


class InvalidConfig(LungmixError):
    category = "config"


# what an `int` or a `float` annotation admits, the builtin first: an ABC
# check costs about a microsecond
_NUMBERS = {int: (int, Integral), float: (float, Real)}


@lru_cache(maxsize=None)
def _kinds(annotation) -> tuple[type, ...]:
    return tuple(k for arm in get_args(annotation) or (annotation,) for k in _NUMBERS.get(arm, (arm,)))


def fits(annotation, value) -> bool:
    """Whether `value` may fill a field annotated `annotation`: a `bool` is
    not an `int`, an `int` field takes any integral number (numpy's too), a
    `float` field takes any real number, and `X | None` also takes None."""
    kinds = _kinds(annotation)
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))


@lru_cache(maxsize=None)
def _annotations(cls) -> tuple[tuple[str, object], ...]:
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def check_fields(config) -> None:
    """Raise `InvalidConfig` for the first field of the dataclass `config`
    whose value does not fit its annotation, or is a number that is not
    finite as a float (NaN, infinite, or an int too large for a float)."""
    for name, annotation in _annotations(type(config)):
        value = getattr(config, name)
        if not fits(annotation, value):
            kind = getattr(annotation, "__name__", annotation)
            raise InvalidConfig(f"{name} must be {kind}, got {value!r}")
        if isinstance(value, (float, int, Real)) and not abs(value) <= sys.float_info.max:
            raise InvalidConfig(f"{name} must be finite, got {value}")


class EmptyAudio(LungmixError):
    pass


class ShapeMismatch(LungmixError):
    pass


class RateMismatch(LungmixError):
    pass


class SchemaMismatch(LungmixError):
    pass


class UnknownLabel(LungmixError):
    pass


class ParseError(LungmixError):
    pass


class MissingAudio(LungmixError):
    category = "io"


class NumericalError(LungmixError):
    pass
