"""Exception types shared across the package, and the finiteness check."""

import math


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


class GripperToolError(Exception):
    """Base class for all library errors."""


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


class DegenerateContactError(DomainError):
    """Contact torque capacity is zero (no grip force)."""


class NoFeasiblePayloadError(DomainError):
    """No object weight satisfies equilibrium within the contact capacity."""


class ZeroCapacityError(DomainError):
    """Tangential load demand exceeds the friction capacity mu*f_n."""


class GeometryError(DomainError):
    """Requested geometry cannot be realized (e.g. clearance span > linkage)."""


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
