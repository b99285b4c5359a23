"""Soft-finger contact model and hold analysis for the gripped tool.

A finger pad pressing with normal force f_n can transmit a tangential
force f and a spin torque t about the contact normal, limited jointly by

    f**2 + t**2 / e**2 <= (mu * f_n)**2

where e is the eccentricity of the contact patch (ratio of maximum torque
to maximum tangential force). Two pads act on the tool, one per finger.
Each formula is one function here: _friction_capacity for mu*f_n and
its square, called once per request, and the cores _hold_offset and
_grip_force, which their checking wrappers call and the proofs of
criteria 3 and 5 call on sympy symbols.
"""

import math
import sys
from enum import Enum

from .errors import (DomainError, InfeasibleHoldError, SingularTransmissionError,
                     require_finite, value_type)
from .mechanism import SpringSpec, ToolDimensions, _spring_torque

# Relative slack applied to the capacity boundary so that wrenches computed
# to sit exactly on it classify as feasible despite rounding.
CAPACITY_SLACK = 1e-9
# A term below the smallest normal float has lost significant digits.
_MIN_NORMAL = sys.float_info.min


class GripConfig(Enum):
    """Which way the base frame travels as the jaw closes.

    BACKWARD_BASE: base retreats from the grasp on closure; the tool weight
    adds to the grip demand, which also means it adds friction margin.
    FORWARD_BASE: base advances into the grasp space; the weight term
    subtracts.
    """

    BACKWARD_BASE = "backward_base"
    FORWARD_BASE = "forward_base"


@value_type
class ContactModel:
    mu: float   # Coulomb friction coefficient
    e: float    # contact eccentricity, meters

    def __post_init__(self):
        require_finite(self, "mu", "e")
        if self.mu <= 0.0:
            raise ValueError("ContactModel.mu must be > 0")
        if self.e <= 0.0:
            raise ValueError("ContactModel.e must be > 0")


@value_type
class GraspState:
    """One held-tool situation.

    alpha is the angle between the tool axis and gravity, gamma the angle
    between the hand and the tool. d is the offset of the grasp point from
    the tool's center of mass; d_com is the moment arm of the tool weight
    used in the object-grasp balance. theta is the current linkage angle.
    """

    f_n: float
    g_tool: float
    alpha: float
    gamma: float
    d: float
    d_com: float
    theta: float
    config: GripConfig = GripConfig.BACKWARD_BASE

    def __post_init__(self):
        check_grasp(self.f_n, self.g_tool, self.alpha, self.gamma, self.d,
                    self.d_com, self.theta, self.config)


def check_grasp(f_n, g_tool, alpha, gamma, d, d_com, theta, config) -> None:
    """GraspState's checks on raw field values, in GraspState's order and
    with its messages. payload_sweep checks grid cells with it without
    building a state per cell."""
    for name, value in zip(("f_n", "g_tool", "alpha", "gamma", "d", "d_com", "theta"),
                           (f_n, g_tool, alpha, gamma, d, d_com, theta)):
        if not math.isfinite(value):
            raise ValueError(f"GraspState.{name} must be finite, got {value!r}")
    if f_n < 0.0:
        raise ValueError("GraspState.f_n must be >= 0")
    if g_tool <= 0.0:
        raise ValueError("GraspState.g_tool must be > 0")
    if not 0.0 <= alpha <= math.pi:
        raise ValueError("GraspState.alpha must be in [0, pi]")
    if not 0.0 <= gamma <= math.pi / 2:
        raise ValueError("GraspState.gamma must be in [0, pi/2]")
    if d < 0.0:
        raise ValueError("GraspState.d must be >= 0")
    if d_com < 0.0:
        raise ValueError("GraspState.d_com must be >= 0")
    if theta < 0.0:
        raise ValueError("GraspState.theta must be >= 0")
    if not isinstance(config, GripConfig):
        raise ValueError("GraspState.config must be a GripConfig")


def capacity_check(model: ContactModel, f_n: float, f: float, t: float) -> bool:
    """True when the wrench (f, t) is within the soft-finger limit at f_n.

    Raises DomainError when f_n < 0 or when (mu*f_n)^2 or (t/e)^2 overflows.
    """
    if f_n < 0.0:
        raise DomainError("f_n must be >= 0")
    rhs = _friction_capacity(model, f_n)[1]
    try:
        lhs = f * f + (t / model.e) ** 2
    except OverflowError:
        raise DomainError(f"(t/e)^2 overflows at t/e = {t / model.e:g}") from None
    return lhs <= rhs * (1.0 + CAPACITY_SLACK)


def _friction_capacity(model: ContactModel, f_n: float) -> tuple[float, float]:
    """mu*f_n and its square, the limit surface's right-hand side.

    The one place the square is taken, by product: capacity_check, the
    hold offset and the pose margin all see the same bits, and the
    payload the same mu*f_n. Raises DomainError when the square overflows.
    """
    mu_fn = model.mu * f_n
    mu_fn2 = mu_fn * mu_fn
    if mu_fn2 == math.inf:
        raise DomainError(f"(mu*f_n)^2 overflows at mu*f_n = {mu_fn:g}")
    return mu_fn, mu_fn2


def holding_max_offset(model: ContactModel, state: GraspState) -> float:
    """Largest grasp-point offset d at which the tool can still be held.

    Per contact, static equilibrium of the hanging tool demands a
    tangential force g_tool/2 and a spin torque g_tool*sin(alpha)*d/2.
    Setting that wrench on the capacity boundary and solving for d gives

        d_max = e * sqrt(4*(mu*f_n)^2 - G^2) / (G*sin(alpha))

    Returns math.inf for a vertical tool, alpha = 0 or pi (float pi's sine
    is 1.2e-16): it puts no spin demand on the contact, so any offset
    works once 2*mu*f_n >= g_tool.

    Raises InfeasibleHoldError when 2*mu*f_n < g_tool (cannot hold at any d),
    and DomainError when (mu*f_n)^2, a term of the formula or the offset
    leaves the normal float range. The offset is exactly 0.0 only where
    4*(mu*f_n)^2 - G^2 is; any other 0.0 has underflowed.
    """
    mu_fn = model.mu * state.f_n
    g = state.g_tool
    if 2.0 * mu_fn < g:
        raise InfeasibleHoldError(deficit=g - 2.0 * mu_fn)
    if state.alpha == 0.0 or state.alpha == math.pi:
        return math.inf
    mu_fn2 = _friction_capacity(model, state.f_n)[1]
    sin_a = math.sin(state.alpha)
    spin = g * sin_a
    # overflow leaves nan or inf, and below the normal range M^2, G*sin(alpha)
    # or the offset has lost digits; 4*M^2 >= G^2 otherwise
    offset = (_hold_offset(model.e, mu_fn2, g, spin)
              if mu_fn2 >= _MIN_NORMAL and spin >= _MIN_NORMAL else math.nan)
    if not (_MIN_NORMAL <= offset < math.inf
            or offset == 0.0 and 4.0 * mu_fn2 - g * g == 0.0):
        raise DomainError("hold offset out of floating-point range: "
                          f"mu*f_n = {mu_fn:g}, g_tool = {g:g}, sin(alpha) = {sin_a:g}")
    return offset


def _hold_offset(e, mu_fn2, g, spin):
    """The hold offset e*sqrt(4*M^2 - G^2)/spin, spin = G*sin(alpha)."""
    return e * math.sqrt(4.0 * mu_fn2 - g * g) / spin


def required_grip_force(dim: ToolDimensions, spring: SpringSpec, state: GraspState,
                        theta: float | None = None,
                        config: GripConfig | None = None) -> float:
    """Grip force needed to keep the jaw closed at linkage angle theta in
    configuration config; None takes the state's own theta or config.

    Balances the spring torque reflected through the linkage plus (for
    BACKWARD_BASE) the weight component pulled in by the closing motion:

        f_n = +- g_tool*cos(alpha)*tan(theta)/2 + 2*v*T_spring/(r*cos(theta))

    with the sign of the weight term set by the base-travel configuration.
    The result does not depend on where along the tool the gripper grabs.
    The one implementation of the formula: the sizing solver calls it at
    the two ends of a design's travel, and analyze in both
    configurations, which spares each a validated GraspState copy per
    value.

    Raises DomainError when theta lies outside [theta_end, theta_init] or
    the force leaves the float range, and SingularTransmissionError when
    theta >= pi/2.
    """
    if theta is None:
        theta = state.theta
    if config is None:
        config = state.config
    if not dim.theta_end <= theta <= dim.theta_init:
        raise DomainError(
            f"theta={theta:g} outside travel "
            f"[{dim.theta_end:g}, {dim.theta_init:g}]"
        )
    if theta >= math.pi / 2:
        raise SingularTransmissionError(
            "linkage angle at 90 degrees transmits no closing force"
        )
    force, transmission, gravity = _grip_force(dim, spring, state.g_tool, state.alpha,
                                               theta, config)
    if not math.isfinite(force):
        raise DomainError("grip force out of floating-point range: "
                          f"transmission = {transmission:g}, gravity = {gravity:g}")
    return force


def _grip_force(dim, spring, g_tool, alpha, theta, config):
    """(force, transmission, gravity) of required_grip_force, unchecked."""
    t_spring = _spring_torque(spring, dim.theta_init - theta)
    transmission = 2.0 * dim.v * t_spring / (dim.r * math.cos(theta))
    gravity = g_tool * math.cos(alpha) * math.tan(theta) / 2.0
    force = (transmission + gravity if config is GripConfig.BACKWARD_BASE
             else transmission - gravity)
    return force, transmission, gravity
