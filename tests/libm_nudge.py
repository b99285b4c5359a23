"""Nudge libm functions to return a neighbouring float.

A platform's libm may round sin, cos and the rest either way in the last
bit. nudged() stands in for such a platform: while it is active, each
named function returns its result moved one float up or down. The
library calls every function in NUDGED as a module attribute (math.sin,
np.cos), so setting the attribute reaches every call. The functions are
restored on exit, also when the body raises.

tests/test_libm_nudge.py runs the goldens under one function at a time,
and scripts/differential.py --perturb runs a whole suite under all of
them.
"""

import contextlib
import math

import numpy

NUDGED = (
    (math, "sin"), (math, "cos"), (math, "tan"), (math, "asin"), (math, "atan"),
    (math, "atan2"), (math, "hypot"), (numpy, "sin"), (numpy, "cos"),
)
DIRECTIONS = {"up": math.inf, "down": -math.inf}


def label(module, name):
    return f"{module.__name__}.{name}"


def _moved(function, adjust):
    def moved(*args, **kwargs):
        return adjust(function(*args, **kwargs))
    return moved


def next_float(direction):
    """An adjust for patched(): one float toward +inf ("up") or -inf
    ("down"), in place for a numpy array, so that a call with out= still
    fills out."""
    target = DIRECTIONS[direction]

    def adjust(value):
        if isinstance(value, numpy.ndarray):
            return numpy.nextafter(value, target, out=value)
        return math.nextafter(value, target)
    return adjust


@contextlib.contextmanager
def patched(functions, adjust):
    """Each (module, name) of functions set to its function with adjust
    applied to every result, for the body of the with statement."""
    saved = [(module, name, getattr(module, name)) for module, name in functions]
    try:
        for module, name, function in saved:
            setattr(module, name, _moved(function, adjust))
        yield
    finally:
        for module, name, function in saved:
            setattr(module, name, function)


def nudged(direction, functions=NUDGED):
    """patched(functions, next_float(direction))."""
    return patched(functions, next_float(direction))
