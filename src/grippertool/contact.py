"""Soft-finger contact model and hold analysis for the gripped tool.

A finger pad pressing with normal force f_n can transmit a tangential
force f and a spin torque t about the contact normal, limited jointly by

    f**2 + t**2 / e**2 <= (mu * f_n)**2

where e is the eccentricity of the contact patch (ratio of maximum torque
to maximum tangential force). Two pads act on the tool, one per finger.
"""

import math
from enum import Enum

from .errors import (DomainError, InfeasibleHoldError, SingularTransmissionError,
                     require_finite, value_type)
from .mechanism import SpringSpec, ToolDimensions, spring_torque

# Relative slack applied to the capacity boundary so that wrenches computed
# to sit exactly on it classify as feasible despite rounding.
CAPACITY_SLACK = 1e-9


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
        require_finite(self, "f_n", "g_tool", "alpha", "gamma", "d", "d_com", "theta")
        if self.f_n < 0.0:
            raise ValueError("GraspState.f_n must be >= 0")
        if self.g_tool <= 0.0:
            raise ValueError("GraspState.g_tool must be > 0")
        if not 0.0 <= self.alpha <= math.pi:
            raise ValueError("GraspState.alpha must be in [0, pi]")
        if not 0.0 <= self.gamma <= math.pi / 2:
            raise ValueError("GraspState.gamma must be in [0, pi/2]")
        if self.d < 0.0:
            raise ValueError("GraspState.d must be >= 0")
        if self.d_com < 0.0:
            raise ValueError("GraspState.d_com must be >= 0")
        if self.theta < 0.0:
            raise ValueError("GraspState.theta must be >= 0")
        if not isinstance(self.config, GripConfig):
            raise ValueError("GraspState.config must be a GripConfig")


def capacity_check(model: ContactModel, f_n: float, f: float, t: float) -> bool:
    """True when the wrench (f, t) is within the soft-finger limit at f_n."""
    if f_n < 0.0:
        raise DomainError("f_n must be >= 0")
    lhs = f * f + (t / model.e) ** 2
    rhs = (model.mu * f_n) ** 2
    return lhs <= rhs * (1.0 + CAPACITY_SLACK)


def max_capacities(model: ContactModel, f_n: float) -> tuple[float, float]:
    """Largest pure tangential force and pure spin torque at grip force f_n.

    max_f = mu*f_n follows from the limit surface with t = 0; max_t then
    follows from the eccentricity definition e = max_t / max_f.
    """
    if f_n < 0.0:
        raise DomainError("f_n must be >= 0")
    max_f = model.mu * f_n
    return max_f, model.e * max_f


def holding_max_offset(model: ContactModel, state: GraspState) -> float:
    """Largest grasp-point offset d at which the tool can still be held.

    Per contact, static equilibrium of the hanging tool demands a
    tangential force g_tool/2 and a spin torque g_tool*sin(alpha)*d/2.
    Setting that wrench on the capacity boundary and solving for d gives

        d_max = max_t * sqrt((4*mu^2*f_n^2 - G^2) / (G^2*sin(alpha)^2*mu^2*f_n^2))

    Returns math.inf when sin(alpha) == 0: a vertical tool puts no spin
    demand on the contact, so any offset works once 2*mu*f_n >= g_tool.

    Raises InfeasibleHoldError when 2*mu*f_n < g_tool (cannot hold at any d).
    """
    mu_fn = model.mu * state.f_n
    g = state.g_tool
    if 2.0 * mu_fn < g:
        raise InfeasibleHoldError(deficit=g - 2.0 * mu_fn)
    sin_a = math.sin(state.alpha)
    if sin_a == 0.0:
        return math.inf
    _, max_t = max_capacities(model, state.f_n)
    return max_t * math.sqrt(
        (4.0 * mu_fn * mu_fn - g * g) / (g * g * sin_a * sin_a * mu_fn * mu_fn)
    )


def required_grip_force(dim: ToolDimensions, spring: SpringSpec,
                        state: GraspState) -> float:
    """Grip force needed to keep the jaw closed at the state's linkage angle.

    Balances the spring torque reflected through the linkage plus (for
    BACKWARD_BASE) the weight component pulled in by the closing motion:

        f_n = +- g_tool*cos(alpha)*tan(theta)/2 + 2*v*T_spring/(r*cos(theta))

    with the sign of the weight term set by the base-travel configuration.
    The result does not depend on where along the tool the gripper grabs.
    """
    theta = state.theta
    if not dim.theta_end <= theta <= dim.theta_init:
        raise DomainError(
            f"theta={theta:g} outside travel "
            f"[{dim.theta_end:g}, {dim.theta_init:g}]"
        )
    if theta >= math.pi / 2:
        raise SingularTransmissionError(
            "linkage angle at 90 degrees transmits no closing force"
        )
    t_spring = spring_torque(spring, dim.theta_init - theta)
    transmission = 2.0 * dim.v * t_spring / (dim.r * math.cos(theta))
    gravity = state.g_tool * math.cos(state.alpha) * math.tan(theta) / 2.0
    if state.config is GripConfig.BACKWARD_BASE:
        return gravity + transmission
    return -gravity + transmission
