"""`errors.fits` and `errors.check_value`: the one check of a field's type and finiteness, at every
depth of the annotations the dataclasses use."""

import numpy as np
import pytest

from lungmix.errors import InvalidConfig, check_value, fits

HUGE = 10**400  # an int too large for a float
MASKS = tuple[np.ndarray, np.ndarray] | None
EVENTS = list[tuple[float, float, str]]


@pytest.mark.parametrize(
    ("annotation", "value", "expected"),
    [
        pytest.param(float, HUGE, False, id="huge-int-for-float"),
        pytest.param(tuple[float, float], (0.0, 1), True, id="pair"),
        pytest.param(tuple[float, float], (0.0,), False, id="pair-of-one"),
        pytest.param(tuple[float, float], (0.0, 1.0, 2.0), False, id="pair-of-three"),
        pytest.param(tuple[float, float], [0.0, 1.0], False, id="pair-as-list"),
        pytest.param(tuple[float, float], (0.0, float("nan")), False, id="pair-with-nan"),
        pytest.param(tuple[float, float], (0.0, HUGE), False, id="pair-with-huge-int"),
        pytest.param(tuple[float, float], (0.0, False), False, id="pair-with-bool"),
        pytest.param(list[float], [0.5, 2], True, id="list"),
        pytest.param(list[float], [0.5, "x"], False, id="list-with-str"),
        pytest.param(EVENTS, [(0.1, 0.2, "crackle")], True, id="events"),
        pytest.param(EVENTS, [[0.1, 0.2, "crackle"]], False, id="events-with-list-item"),
        pytest.param(EVENTS, [(0.1, float("inf"), "crackle")], False, id="events-with-inf"),
        pytest.param(tuple[float, float] | None, None, True, id="none-for-optional"),
        pytest.param(tuple[float, float], None, False, id="none-for-required"),
        pytest.param(float | None, float("-inf"), False, id="inf-for-optional-float"),
        pytest.param(MASKS, (np.zeros(2), np.zeros(2)), True, id="two-arrays"),
        pytest.param(MASKS, (np.zeros(2),), False, id="one-array"),
        pytest.param(MASKS, ([0, 0], [0, 0]), False, id="two-lists"),
    ],
)
def test_fits(annotation, value, expected):
    assert fits(annotation, value) == expected


LONG = 10**5000  # more digits than Python prints


@pytest.mark.parametrize(
    ("annotation", "value", "message"),
    [
        pytest.param(int, LONG, "x must be finite, got an int of 5001 digits", id="int"),
        pytest.param(EVENTS, [(0.1, LONG, "c")], "got a list holding an int of 5001 digits", id="list"),
        pytest.param(str, {"a": -LONG}, "got a dict holding an int of 5001 digits", id="dict"),
        pytest.param(int, (1, HUGE), f"x must be int, got {(1, HUGE)!r}", id="printable"),
    ],
)
def test_check_value_never_fails_to_show_what_it_refuses(annotation, value, message):
    with pytest.raises(InvalidConfig) as caught:
        check_value("x", annotation, value)
    assert str(caught.value).endswith(message)
