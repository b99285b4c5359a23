"""Run the library's own formula code on sympy symbols: its modules call
math's functions as attributes of math (math.sin, math.sqrt), so
on_symbols() hands a module sympy's for one call, and a proof proves the
expression the library computes, not a copy of it."""

import sys
from types import SimpleNamespace

import sympy

SYMPY_MATH = SimpleNamespace(sin=sympy.sin, cos=sympy.cos, tan=sympy.tan, sqrt=sympy.sqrt)


def exact(value):
    """value, or each item of a tuple or list of them, with its float
    literals made the rationals they stand for (2.0 -> 2)."""
    if isinstance(value, (tuple, list)):
        return type(value)(map(exact, value))
    return sympy.nsimplify(value, rational=True)


def on_symbols(function, *args):
    """exact(function(*args)), with function's module calling sympy for math."""
    module = sys.modules[function.__module__]
    saved, module.math = module.math, SYMPY_MATH
    try:
        return exact(function(*args))
    finally:
        module.math = saved
