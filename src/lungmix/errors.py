"""Exception hierarchy shared across the toolkit, and the one check of the
values a dataclass built from outside values holds.

Every error carries a ``category`` used by the CLI to pick its exit code:
``config`` -> 2, ``data`` -> 3, ``io`` -> 4.
"""

import sys
from dataclasses import fields
from functools import lru_cache
from numbers import Integral, Real
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints


class LungmixError(Exception):
    category = "data"


class InvalidConfig(LungmixError):
    category = "config"


# what an `int` or a `float` annotation admits, the builtin first: an ABC
# check costs about a microsecond
_NUMBERS = {int: (int, Integral), float: (float, Real)}


@lru_cache(maxsize=None)
def _kinds(annotation) -> tuple[tuple[type, ...], tuple, tuple]:
    """The types a field annotated `annotation` takes, its `Literal` arm's
    values, and its `tuple[...]` and `list[...]` arms as (origin, item
    annotations)."""
    arms = get_args(annotation) if get_origin(annotation) in (Union, UnionType) else (annotation,)
    values = tuple(v for arm in arms if get_origin(arm) is Literal for v in get_args(arm))
    shaped = tuple((get_origin(arm), get_args(arm)) for arm in arms if get_origin(arm) in (tuple, list))
    plain = (arm for arm in arms if get_origin(arm) not in (Literal, tuple, list))
    kinds = (_NUMBERS.get(arm, (get_origin(arm) or arm,)) for arm in plain)
    return sum(kinds, ()), values, shaped


def _finite(value) -> bool:
    """Whether `value` is not a number, or is one that is finite as a float
    (not NaN, not infinite, not an int too large for a float)."""
    return not isinstance(value, (float, int, Real)) or abs(value) <= sys.float_info.max


def _typed(annotation, value) -> bool:
    kinds, values, shaped = _kinds(annotation)
    if isinstance(value, str) and value in values:
        return True
    if isinstance(value, kinds):
        return bool in kinds or not isinstance(value, bool)
    for origin, items in shaped:
        if isinstance(value, origin):
            items = items if origin is tuple else items * len(value)
            if len(value) == len(items) and all(map(fits, items, value)):
                return True
    return False


def fits(annotation, value) -> bool:
    """Whether `value` may fill a field annotated `annotation`: a `bool` is
    not an `int`, an `int` field takes any integral number (numpy's too), a
    `float` field takes any real number, a number must be finite as a float,
    a `Literal[...]` field takes a `str` among its values, `tuple[X, Y]` takes
    a tuple of one item fitting each, `list[X]` a list of items fitting `X`,
    and `X | None` also takes None."""
    return _typed(annotation, value) and _finite(value)


@lru_cache(maxsize=None)
def _annotations(cls) -> tuple[tuple[str, object], ...]:
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def check_fields(config) -> None:
    """Raise `InvalidConfig` for the first field of the dataclass `config`
    whose value does not `fit` its annotation."""
    for name, annotation in _annotations(type(config)):
        value = getattr(config, name)
        if not _typed(annotation, value):
            values = _kinds(annotation)[1]
            kind = f"one of {values}" if values else getattr(annotation, "__name__", annotation)
            raise InvalidConfig(f"{name} must be {kind}, got {value!r}")
        if not _finite(value):
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
