"""Exception types shared across the package, the finiteness check,
value_type() and replace(), which make and copy the frozen value types,
and _boundary(), the root search of the sizing and pose solvers."""

import math
from operator import attrgetter


def require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first field of obj that is nan or +-inf.

    A field holds a number or a tuple of numbers. The value types call
    this first in __post_init__, because nan passes every range comparison.
    """
    for name in names:
        value = getattr(obj, name)
        try:
            finite = math.isfinite(value)
        except TypeError:
            finite = all(map(math.isfinite, value))
        if not finite:
            raise ValueError(
                f"{type(obj).__name__}.{name} must be finite, got {value!r}")


def value_type(cls=None, *, eq=True):
    """Class decorator: a frozen value over the annotated fields of cls.

    __init__ takes the fields in order, by position or keyword, fills in
    class-level defaults, then runs cls.__post_init__ if there is one.
    Assignment raises FrozenInstanceError. __repr__ names every field;
    __eq__ and __hash__ go by the field tuple unless eq=False, which
    keeps identity. cls._fields holds the field names. The methods are
    closures: dataclasses would import inspect and compile code at start-up.
    """
    if cls is None:
        return lambda cls: value_type(cls, eq=eq)
    names = cls._fields = tuple(cls.__annotations__)
    known = frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", lambda self: None)
    values = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        fields = self.__dict__
        fields.update(defaults)
        if args:
            fields.update(zip(names, args))
        fields.update(kwargs)
        if (fields.keys() != known or len(args) > len(names) or args and kwargs
                and not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(f"{cls.__qualname__}() takes one value for each of {names}, "
                            f"got {len(args)} by position and {sorted(kwargs)} by keyword")
        post_init(self)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"{cls.__qualname__} is frozen: cannot set {name!r}")

    cls.__init__, cls.__setattr__, cls.__delattr__ = __init__, __setattr__, __setattr__
    cls.__repr__ = lambda self: "%s(%s)" % (cls.__qualname__, ", ".join(
        map("%s=%r".__mod__, zip(names, values(self)))))
    if eq:
        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(values(self))
    return cls


def replace(obj, /, **changes):
    """A copy of the value obj with changes applied, validated again by
    its class's __init__."""
    return obj.__class__(**{**obj.__dict__, **changes})


def _boundary(f, lo: float, hi: float) -> float | None:
    """The float next to a switch of f(x) <= 0 on [lo, hi], on its <= side.

    None when f(lo) <= 0 and f(hi) <= 0 agree. The bracket [lo, hi] keeps
    one end on each side of a switch, and the result is its <= end once
    the two ends are adjacent floats. Each step evaluates f at the secant
    point of the ends (regula falsi with the Illinois rule: an end kept
    twice in a row has its value halved, so both ends close in). A secant
    point that rounds onto an end moves one float in, but not twice in a
    row; any other point not strictly inside (a nan, from infinite or
    equal end values) becomes the midpoint. Where the predicate switches
    once, the result is the float bisection gives; where it switches
    several times within a few ulps, it is next to one of those switches.
    """
    f_lo, f_hi = f(lo), f(hi)
    ok_lo = f_lo <= 0.0
    if ok_lo == (f_hi <= 0.0):
        return None
    kept, nudged = 0, False  # kept: -1 or 1 after lo or hi was kept
    while True:
        x = lo - f_lo * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else math.nan
        if (x == lo or x == hi) and not nudged:
            # the secant puts the switch at an end: try the next float in
            x, nudged = math.nextafter(x, hi if x == lo else lo), True
        else:
            nudged = False
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x <= lo or x >= hi:
                return lo if ok_lo else hi
        f_x = f(x)
        if (f_x <= 0.0) == ok_lo:
            lo, f_lo = x, f_x
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, f_x
            if kept == -1:
                f_lo *= 0.5
            kept = -1


class GripperToolError(Exception):
    """Base class for all library errors."""


class FrozenInstanceError(GripperToolError, AttributeError):
    """Assignment to, or deletion of, a field of a value type."""


class DomainError(GripperToolError, ValueError):
    """An input is outside the domain an operation is defined on."""


class InfeasibleHoldError(DomainError):
    """The gripper cannot hold the tool at any grasp offset.

    Carries the force deficit g_tool - 2*mu*f_n in newtons.
    """

    def __init__(self, deficit: float):
        self.deficit = deficit
        super().__init__(
            f"tool cannot be held: friction capacity short by {deficit:g} N"
        )


class SingularTransmissionError(DomainError):
    """Linkage angle at 90 degrees; the jaw transmission has no leverage."""


class NoFeasiblePayloadError(DomainError):
    """No object weight satisfies equilibrium within the contact capacity."""


class ZeroCapacityError(DomainError):
    """Tangential load demand exceeds the friction capacity mu*f_n."""


class InfeasibleProblemError(GripperToolError):
    """Sizing search space contains no feasible design."""

    def __init__(self, message: str, violations=()):
        self.violations = list(violations)
        super().__init__(message)


class DesignFileError(GripperToolError):
    """Design file cannot be parsed; carries the line number and key."""

    def __init__(self, message: str, line_no: int | None = None, key: str | None = None):
        self.line_no = line_no
        self.key = key
        prefix = ""
        if line_no is not None:
            prefix += f"line {line_no}: "
        if key is not None:
            prefix += f"key '{key}': "
        super().__init__(prefix + message)
