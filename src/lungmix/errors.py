"""Exception hierarchy shared across the toolkit, and the one check of the
values a dataclass built from outside values holds.

Every error carries a ``category`` used by the CLI to pick its exit code:
``config`` -> 2, ``data`` -> 3, ``io`` -> 4.
"""

import sys
from dataclasses import fields
from decimal import Decimal
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
def _kinds(annotation) -> tuple[tuple[type, ...], tuple[type, ...], tuple, tuple]:
    """The types a field annotated `annotation` takes through its `int` and
    `float` arms and through its other plain arms, its `Literal` arm's
    values, and its `tuple[...]` and `list[...]` arms as (origin, item
    annotations)."""
    arms = get_args(annotation) if get_origin(annotation) in (Union, UnionType) else (annotation,)
    values = tuple(v for arm in arms if get_origin(arm) is Literal for v in get_args(arm))
    shaped = tuple((get_origin(arm), get_args(arm)) for arm in arms if get_origin(arm) in (tuple, list))
    plain = [get_origin(arm) or arm for arm in arms if get_origin(arm) not in (Literal, tuple, list)]
    numbers = sum((_NUMBERS[arm] for arm in plain if arm in _NUMBERS), ())
    return numbers, tuple(arm for arm in plain if arm not in _NUMBERS), values, shaped


def _typed(annotation, value) -> bool | None:
    """`fits`, but None for a number of an `int` or `float` arm that is not
    finite as a float (NaN, infinite, or an int too large for a float)."""
    numbers, others, values, shaped = _kinds(annotation)
    if isinstance(value, others) or (isinstance(value, str) and value in values):
        return True
    if isinstance(value, numbers) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max or None
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
    return _typed(annotation, value) is True


def check_value(name: str, annotation, value) -> None:
    """Raise `InvalidConfig` when `value` does not `fit` `annotation`: `name`
    "must be finite" for a number of the right type, else "must be <type>"."""
    typed = _typed(annotation, value)
    if typed is None:
        raise InvalidConfig(f"{name} must be finite, got {_shown(value, str)}")
    if not typed:
        values = _kinds(annotation)[2]
        kind = f"one of {values}" if values else getattr(annotation, "__name__", annotation)
        raise InvalidConfig(f"{name} must be {kind}, got {_shown(value, repr)}")


def _shown(value, show) -> str:
    """`show(value)`, or, where `value` is or holds an int of more digits than
    Python prints (sys.get_int_max_str_digits()), the longest one's count."""
    try:
        return show(value)
    except ValueError:
        held = "" if isinstance(value, Integral) else f"a {type(value).__name__} holding "
        return f"{held}an int of {_digits(value)} digits"


def _digits(value) -> int:
    """The most digits of an int in `value` or in the containers it holds."""
    if isinstance(value, dict):
        value = [*value.items()]
    if isinstance(value, (tuple, list, set, frozenset)):
        return max(map(_digits, value), default=0)
    return Decimal(int(value)).adjusted() + 1 if isinstance(value, Integral) else 0


@lru_cache(maxsize=None)
def _annotations(cls) -> tuple[tuple[str, object], ...]:
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def check_fields(config) -> None:
    """`check_value` on each field of the dataclass `config`, in order."""
    for name, annotation in _annotations(type(config)):
        check_value(name, annotation, getattr(config, name))


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
