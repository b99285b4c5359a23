"""No golden byte turns on the last bit of a libm function or on the
CPU's vector width.

Each function that the library calls from math or numpy and that a
platform's libm may round either way returns its neighbouring float, one
function and one direction at a time, while the five golden commands
run. They run once more with numpy's SIMD dispatch cut to its baseline.
Every golden must stay byte-identical."""

import json

import numpy
import pytest

from grippertool import parse_design

from libm_nudge import NUDGED, label, nudged, patched
from test_cli import GOLDEN_COMMANDS, golden, invoke
from test_g9format import without_simd_dispatch


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


def test_goldens_hold_without_simd_dispatch():
    # numpy's vector log10, tan and arctan may differ from libm's in the
    # last bit where it dispatches above its baseline, and which features
    # it finds depends on the CPU; the child says what it dispatches to
    code = ("import json; from test_g9format import dispatched; "
            "from test_libm_nudge import golden_outputs; "
            "print(json.dumps([golden_outputs(), dispatched()]))")
    outputs, features = json.loads(without_simd_dispatch(code))
    assert features == []
    assert {name: tuple(output) for name, output in outputs.items()} == EXPECTED


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
