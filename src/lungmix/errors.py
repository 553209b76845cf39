"""Exception hierarchy shared across the toolkit.

Every error carries a ``category`` used by the CLI to pick its exit code:
``config`` -> 2, ``data`` -> 3, ``io`` -> 4.
"""

import math
from dataclasses import fields


class LungmixError(Exception):
    category = "data"


class InvalidConfig(LungmixError):
    category = "config"


def reject_non_finite(config) -> None:
    """Raise `InvalidConfig` for the first field of the dataclass `config`
    that holds a NaN or infinite float."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(f"{f.name} must be finite, got {value}")


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
