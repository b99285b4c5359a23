"""No golden byte turns on the last bit of a libm function.

Each function that the library calls from math or numpy and that a
platform's libm may round either way returns its neighbouring float, one
function and one direction at a time, while the five golden commands
run. Every golden must stay byte-identical."""

import numpy
import pytest

from grippertool import parse_design

from libm_nudge import NUDGED, label, nudged, patched
from test_cli import GOLDEN_COMMANDS, golden, invoke


def golden_outputs():
    """Each golden command's (exit code, stdout, stderr), parsed afresh:
    parsing derives the open width with math.sin, so a memo hit would
    hide a nudge."""
    parse_design.cache_clear()
    try:
        return {name: invoke(argv) for name, argv in sorted(GOLDEN_COMMANDS.items())}
    finally:
        parse_design.cache_clear()


EXPECTED = {name: (0, golden(name), "") for name in GOLDEN_COMMANDS}


@pytest.fixture(params=[(function, direction) for function in NUDGED
                        for direction in ("up", "down")],
                ids=lambda param: f"{label(*param[0])}-{param[1]}")
def one_nudged(request):
    """One libm function returning its neighbouring float, restored after."""
    function, direction = request.param
    original = getattr(*function)
    with nudged(direction, [function]):
        yield function
    assert getattr(*function) is original


def test_goldens_hold_with_one_function_nudged(one_nudged):
    assert golden_outputs() == EXPECTED


def call(module, name):
    """A listed function on fixed arguments: an array for numpy's."""
    if module is numpy:
        return getattr(module, name)(numpy.array([0.3, 1.1]))
    return getattr(module, name)(*((0.3, 0.7) if name in ("atan2", "hypot") else (0.3,)))


@pytest.mark.parametrize("direction", ["up", "down"])
def test_nudge_moves_each_result_one_float(direction):
    plain = [call(*function) for function in NUDGED]
    with nudged(direction):
        moved = [call(*function) for function in NUDGED]
    restored = [call(*function) for function in NUDGED]
    target = numpy.inf if direction == "up" else -numpy.inf
    for function, before, after, again in zip(NUDGED, plain, moved, restored):
        assert numpy.array_equal(after, numpy.nextafter(before, target)), label(*function)
        assert numpy.array_equal(again, before), label(*function)


def test_a_larger_change_reaches_the_goldens():
    # every listed function off by a relative 1e-3 changes printed digits,
    # so the goldens do read these attributes
    def scale(value):
        return numpy.multiply(value, 1.001, out=value) if isinstance(
            value, numpy.ndarray) else value * 1.001

    with patched(NUDGED, scale):
        outputs = golden_outputs()
    assert outputs != EXPECTED
    assert golden_outputs() == EXPECTED
