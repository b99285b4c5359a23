"""Jaw kinematics and torsion-spring transmission.

The tool body is two mirrored four-bar parallelograms. Squeezing the base
frame swings the angular linkages (length r) from theta_init down toward
theta_end, translating the two tooltips in parallel. Four torsion springs
at the inner joints re-open the jaw when the gripper releases.

All angles are radians, lengths meters, forces newtons. Angle convention:
theta is measured between the angular linkage and the base frame plane, so
the jaw width is m + 2*r*sin(theta).

Feasibility captures the interference limits of the real linkage: shafts
need material around them, the parallel linkage must not touch the base
frame at full closure, and the link bars must not overlap (check_feasible).
"""

import math

from .errors import DomainError, require_finite, value_type

# m + 2*r*sin(theta_init) must reproduce w_init, and d_axis + 2*r_edge
# must reproduce q, to this absolute tolerance.
WIDTH_TIE_TOL = 1e-6


@value_type
class ToolDimensions:
    """Geometric parameters of the two-parallelogram mechanism.

    q and w_init are stored redundantly and validated against
    d_axis + 2*r_edge and m + 2*r*sin(theta_init), each within
    WIDTH_TIE_TOL, so that inconsistent design files are rejected instead
    of silently reinterpreted. theta_init may equal pi/2 for analysis
    purposes; such a design is flagged as unusable by check_feasible.
    """

    m: float            # base half-gap width
    r: float            # angular-linkage length
    theta_init: float   # fully-open linkage angle
    theta_end: float    # fully-closed linkage angle
    h: float            # base-frame height clearance
    p: float            # linkage offset clearance
    q: float            # joint clearance span (redundant, validated)
    k: float            # parallel-linkage length
    d_axis: float       # joint shaft diameter
    r_edge: float       # minimum material edge radius around a shaft
    v: float            # dimensionless spring-transmission ratio
    w_init: float       # fully-open jaw width (redundant, validated)

    def __post_init__(self):
        require_finite(self, "m", "r", "theta_init", "theta_end", "h", "p", "q",
                       "k", "d_axis", "r_edge", "v", "w_init")
        for name in ("m", "r", "h", "p", "q", "k", "d_axis", "r_edge", "v", "w_init"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"ToolDimensions.{name} must be > 0")
        if not 0.0 <= self.theta_end < self.theta_init <= math.pi / 2:
            raise ValueError(
                "ToolDimensions requires 0 <= theta_end < theta_init <= pi/2, got "
                f"theta_end={self.theta_end:g}, theta_init={self.theta_init:g}"
            )
        span = clearance_span(self.d_axis, self.r_edge)
        if abs(span - self.q) > WIDTH_TIE_TOL:
            raise ValueError(
                f"ToolDimensions.q={self.q!r} inconsistent with "
                f"d_axis + 2*r_edge={span!r}"
            )
        derived = self.m + 2.0 * self.r * math.sin(self.theta_init)
        if abs(derived - self.w_init) > WIDTH_TIE_TOL:
            raise ValueError(
                f"ToolDimensions.w_init={self.w_init!r} inconsistent with "
                f"m + 2*r*sin(theta_init)={derived!r}"
            )

    @classmethod
    def with_derived_width(cls, m, r, theta_init, theta_end, h, p, q, k,
                           d_axis, r_edge, v=1.0) -> "ToolDimensions":
        """Construct with w_init computed from the width tie."""
        return cls(m=m, r=r, theta_init=theta_init, theta_end=theta_end,
                   h=h, p=p, q=q, k=k, d_axis=d_axis, r_edge=r_edge, v=v,
                   w_init=m + 2.0 * r * math.sin(theta_init))


@value_type
class SpringSpec:
    """Torsion spring at the inner joints.

    kappa: torsional stiffness in N*m/rad.
    beta:  pre-load angle set by the stopper in the base frame.
    """

    kappa: float
    beta: float

    def __post_init__(self):
        require_finite(self, "kappa", "beta")
        if self.kappa <= 0.0:
            raise ValueError("SpringSpec.kappa must be > 0")
        if self.beta < 0.0:
            raise ValueError("SpringSpec.beta must be >= 0")


def clearance_span(d_axis: float, r_edge: float) -> float:
    """Material span a joint needs: shaft diameter plus an edge each side."""
    return d_axis + 2.0 * r_edge


def _closed_angle(q: float, r: float) -> float | None:
    """asin(q/r), the smallest closed angle for span q, or None when q > r."""
    return None if q > r else math.asin(q / r)


def _min_clearances(k: float, r: float, q: float,
                    theta_end: float) -> tuple[float, float]:
    """(p, h): the smallest linkage offset and base-frame height clearances
    at closed angle theta_end, for span q."""
    return k * math.sin(theta_end), r * math.cos(theta_end) + math.tan(theta_end) * q


@value_type
class Violation:
    """A failed feasibility constraint. margin < 0 is the shortfall."""

    constraint: str
    margin: float


def check_feasible(dim: ToolDimensions) -> list[Violation]:
    """All interference constraints violated by dim; empty means feasible.

    Boundary equality counts as feasible. Checked constraints:
      m_edge_clearance        m >= d_axis + 2*r_edge
      theta_end_min           theta_end >= asin((d_axis + 2*r_edge)/r)
      p_linkage_clearance     p >= k*sin(theta_end)
      h_bar_overlap           h >= r*cos(theta_end) + tan(theta_end)*(d_axis + 2*r_edge)
      theta_init_singular     theta_init < pi/2

    The box bounds of a SizingProblem are margins in sizing._bound_margins.
    """
    violations = []
    q = clearance_span(dim.d_axis, dim.r_edge)
    if dim.m < q:
        violations.append(Violation("m_edge_clearance", dim.m - q))
    limit = _closed_angle(q, dim.r)
    if limit is None:
        violations.append(Violation("theta_end_min", dim.r - q))
    elif dim.theta_end < limit:
        violations.append(Violation("theta_end_min", dim.theta_end - limit))
    p_needed, h_needed = _min_clearances(dim.k, dim.r, q, dim.theta_end)
    if dim.p < p_needed:
        violations.append(Violation("p_linkage_clearance", dim.p - p_needed))
    if dim.h < h_needed:
        violations.append(Violation("h_bar_overlap", dim.h - h_needed))
    if dim.theta_init >= math.pi / 2:
        violations.append(Violation("theta_init_singular",
                                    math.pi / 2 - dim.theta_init))
    return violations


def stroke(dim: ToolDimensions) -> float:
    """Jaw stroke 2*r*sin(theta_init - theta_end)."""
    return 2.0 * dim.r * math.sin(dim.theta_init - dim.theta_end)


def stroke_fixed_width(w_init: float, m: float, theta_init: float,
                       theta_end: float) -> float:
    """Stroke with the linkage length eliminated via the width tie.

    Substituting r = (w_init - m) / (2*sin(theta_init)) into the stroke
    expression. Useful when the open width is a fixed requirement and r is
    a derived quantity. The sizing search does not call it; release
    criterion 7 checks the stroke's monotonicity in theta_init, theta_end
    and m with it.
    """
    return (w_init - m) * math.sin(theta_init - theta_end) / math.sin(theta_init)


def spring_torque(spring: SpringSpec, delta_theta: float) -> float:
    """Torque of one torsion spring after closing by delta_theta.

    delta_theta is the rotation of the angular linkage away from the open
    pose, so the spring is always loaded by at least the pre-angle.
    """
    if delta_theta < 0.0:
        raise DomainError(f"delta_theta={delta_theta:g} must be >= 0")
    return _spring_torque(spring, delta_theta)


def _spring_torque(spring: SpringSpec, delta_theta: float) -> float:
    """spring_torque's kappa*(beta + delta_theta), without its check."""
    return spring.kappa * (spring.beta + delta_theta)
