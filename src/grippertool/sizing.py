"""Dimension feasibility and stroke maximization.

Feasibility captures the interference limits of the real linkage: shafts
need material around them, the parallel linkage must not touch the base
frame at full closure, and the link bars must not overlap. The stroke
search fixes the open width w_init, eliminates the linkage length via
r = (w_init - m) / (2*sin(theta_init)), drives theta_end to its geometric
minimum, and searches (m, theta_init) under a grip-force budget.

The budget caps the worst-case grip force over the travel, and that worst
case is computed exactly: with A = +-g_tool*cos(alpha)/2, B = 2*v*kappa/r
and c = beta + theta_init, the demand is

    f(theta) = A*tan(theta) + B*(c - theta)/cos(theta)
    cos(theta)**2 * f'(theta) = A + B*((c - theta)*sin(theta) - cos(theta))

where the term multiplying B has derivative (c - theta)*cos(theta) >= 0
on the travel and B > 0. So f' changes sign at most once, from - to +;
f is quasi-convex and its maximum over [theta_end, theta_init] is at one
of the two ends.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .contact import GraspState, required_grip_force
from .errors import GeometryError, InfeasibleProblemError
from .mechanism import SpringSpec, ToolDimensions, stroke


def clearance_span(d_axis: float, r_edge: float) -> float:
    """Material span a joint needs: shaft diameter plus an edge each side."""
    return d_axis + 2.0 * r_edge


def theta_end_min(r: float, d_axis: float, r_edge: float) -> float:
    """Smallest closed angle before the parallel linkage hits the base frame."""
    q = clearance_span(d_axis, r_edge)
    if q > r:
        raise GeometryError(
            f"clearance span {q:g} exceeds linkage length {r:g}; "
            "no closed angle is reachable"
        )
    return math.asin(q / r)


@dataclass(frozen=True)
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
    """
    violations = []
    q = clearance_span(dim.d_axis, dim.r_edge)
    if dim.m < q:
        violations.append(Violation("m_edge_clearance", dim.m - q))
    if q > dim.r:
        violations.append(Violation("theta_end_min", dim.r - q))
    else:
        limit = math.asin(q / dim.r)
        if dim.theta_end < limit:
            violations.append(Violation("theta_end_min", dim.theta_end - limit))
    p_needed = dim.k * math.sin(dim.theta_end)
    if dim.p < p_needed:
        violations.append(Violation("p_linkage_clearance", dim.p - p_needed))
    h_needed = dim.r * math.cos(dim.theta_end) + math.tan(dim.theta_end) * q
    if dim.h < h_needed:
        violations.append(Violation("h_bar_overlap", dim.h - h_needed))
    if dim.theta_init >= math.pi / 2:
        violations.append(Violation("theta_init_singular",
                                    math.pi / 2 - dim.theta_init))
    return violations


@dataclass(frozen=True)
class SizingProblem:
    """Search space for the stroke maximization.

    d_axis, r_edge, k, w_init and v are fixed by the application; m, r and
    theta_init carry box bounds. grip_budget caps the worst-case grip
    force over the travel, evaluated with the given spring and grasp
    template (its theta is ignored; the budget sweeps the travel).
    """

    d_axis: float
    r_edge: float
    k: float
    w_init: float
    m_bounds: tuple[float, float]
    r_bounds: tuple[float, float]
    theta_init_bounds: tuple[float, float]
    grip_budget: float
    spring: SpringSpec
    grasp: GraspState
    v: float = 1.0

    def __post_init__(self):
        for name in ("d_axis", "r_edge", "k", "w_init", "v"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"SizingProblem.{name} must be > 0")
        for name in ("m_bounds", "r_bounds", "theta_init_bounds"):
            lo, hi = getattr(self, name)
            if not (lo <= hi and lo > 0.0):
                raise ValueError(f"SizingProblem.{name} must satisfy 0 < lo <= hi")
        if self.theta_init_bounds[1] >= math.pi / 2:
            raise ValueError("theta_init upper bound must stay below pi/2")
        if self.grip_budget <= 0.0:
            raise ValueError("SizingProblem.grip_budget must be > 0")


@dataclass(frozen=True)
class SizingResult:
    dims: ToolDimensions
    stroke: float
    active_constraints: list[str]


def grip_demand(dim: ToolDimensions, spring: SpringSpec, state: GraspState) -> float:
    """Worst-case required grip force over the travel [theta_end, theta_init].

    Exact: the demand is quasi-convex in theta (see the module docstring),
    so the larger of the two end values is the maximum.
    """
    return max(required_grip_force(dim, spring, replace(state, theta=theta))
               for theta in (dim.theta_end, dim.theta_init))


def build_dimensions(problem: SizingProblem, m: float,
                     theta_init: float) -> ToolDimensions | None:
    """Candidate dims at (m, theta_init), or None when unrealizable.

    r follows from the width tie, theta_end sits at its geometric minimum,
    and p and h take their smallest feasible values (compact design).
    Bound and feasibility failures return None rather than raising.
    """
    sin_ti = math.sin(theta_init)
    if sin_ti <= 0.0 or theta_init >= math.pi / 2:
        return None
    r = (problem.w_init - m) / (2.0 * sin_ti)
    r_lo, r_hi = problem.r_bounds
    if not r_lo <= r <= r_hi:
        return None
    q = clearance_span(problem.d_axis, problem.r_edge)
    if m < q or q > r:
        return None
    theta_end = math.asin(q / r)
    if theta_end >= theta_init:
        return None
    h = r * math.cos(theta_end) + math.tan(theta_end) * q
    p = problem.k * math.sin(theta_end)
    dims = ToolDimensions(
        m=m, r=r, theta_init=theta_init, theta_end=theta_end, h=h, p=p, q=q,
        k=problem.k, d_axis=problem.d_axis, r_edge=problem.r_edge,
        v=problem.v, w_init=problem.w_init,
    )
    if check_feasible(dims):
        return None
    return dims


def _within_budget(problem: SizingProblem, dims: ToolDimensions) -> bool:
    return grip_demand(dims, problem.spring, problem.grasp) <= problem.grip_budget


def _coarse_grid(problem: SizingProblem, n: int):
    """Vectorized feasibility and stroke over an n x n (m, theta_init) grid.

    Returns (ms, ts, stroke_array) with -inf marking infeasible cells.
    Mirrors build_dimensions/grip_demand, including the grip demand taken
    at the two ends of the travel; a unit test pins the two paths against
    each other.
    """
    q = clearance_span(problem.d_axis, problem.r_edge)
    m_lo = max(problem.m_bounds[0], q)
    m_hi = min(problem.m_bounds[1], problem.w_init)
    t_lo, t_hi = problem.theta_init_bounds
    ms = np.linspace(m_lo, m_hi, n)
    ts = np.linspace(t_lo, t_hi, n)
    m_g, t_g = np.meshgrid(ms, ts, indexing="ij")

    with np.errstate(divide="ignore", invalid="ignore"):
        r = (problem.w_init - m_g) / (2.0 * np.sin(t_g))
        ok = (r >= problem.r_bounds[0]) & (r <= problem.r_bounds[1]) & (r >= q)
        ratio = np.where(ok, np.clip(q / np.where(ok, r, 1.0), -1.0, 1.0), 0.0)
        t_end = np.arcsin(ratio)
        ok &= t_end < t_g

        # worst grip force over the travel: the larger end value, as in grip_demand
        theta = np.stack((t_end, t_g))
        t_spring = problem.spring.kappa * (problem.spring.beta + (t_g - theta))
        transmission = 2.0 * problem.v * t_spring / (r * np.cos(theta))
        gravity = (problem.grasp.g_tool * math.cos(problem.grasp.alpha)
                   * np.tan(theta) / 2.0)
        sign = 1.0 if problem.grasp.config.value == "backward_base" else -1.0
        grip = np.max(sign * gravity + transmission, axis=0)
        ok &= grip <= problem.grip_budget

        strokes = np.where(ok, 2.0 * r * np.sin(t_g - t_end), -np.inf)
    return ms, ts, strokes


def _pin_m(problem: SizingProblem, theta_init: float) -> float | None:
    """Binding lower value of m at theta_init, or None if the slice is empty."""
    q = clearance_span(problem.d_axis, problem.r_edge)
    sin_ti = math.sin(theta_init)
    lo = max(problem.m_bounds[0], q,
             problem.w_init - 2.0 * problem.r_bounds[1] * sin_ti)
    hi = min(problem.m_bounds[1],
             problem.w_init - 2.0 * problem.r_bounds[0] * sin_ti)
    if lo > hi:
        return None
    return lo


def _evaluate(problem: SizingProblem, m: float | None,
              theta_init: float) -> tuple[float, ToolDimensions] | None:
    if m is None:
        return None
    dims = build_dimensions(problem, m, theta_init)
    if dims is None or not _within_budget(problem, dims):
        return None
    return stroke(dims), dims


def _golden_refine(problem: SizingProblem, t_a: float, t_b: float,
                   pin, iters: int = 96):
    """Golden-section maximization of the pinned-m stroke over [t_a, t_b].

    Tracks the best feasible probe seen; infeasible probes score -inf.
    Ties prefer the smaller theta_init.
    """
    best = (-math.inf, None, None)

    def probe(t):
        nonlocal best
        result = _evaluate(problem, pin(t), t)
        if result is None:
            return -math.inf
        s, dims = result
        if s > best[0] or (s == best[0] and best[2] is not None and t < best[2]):
            best = (s, dims, t)
        return s

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = t_a, t_b
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = probe(c), probe(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = probe(d)
    return best


def _active_constraints(problem: SizingProblem, dims: ToolDimensions,
                        rel_tol: float = 1e-9) -> list[str]:
    names = []

    def tight(value, bound, scale):
        return abs(value - bound) <= rel_tol * max(abs(scale), 1e-12)

    if tight(dims.m, problem.m_bounds[0], dims.m):
        names.append("m_lower_bound")
    if tight(dims.m, problem.m_bounds[1], dims.m):
        names.append("m_upper_bound")
    if tight(dims.m, clearance_span(problem.d_axis, problem.r_edge), dims.m):
        names.append("m_edge_clearance")
    if tight(dims.r, problem.r_bounds[0], dims.r):
        names.append("r_lower_bound")
    if tight(dims.r, problem.r_bounds[1], dims.r):
        names.append("r_upper_bound")
    if tight(dims.theta_init, problem.theta_init_bounds[0], 1.0):
        names.append("theta_init_lower_bound")
    if tight(dims.theta_init, problem.theta_init_bounds[1], 1.0):
        names.append("theta_init_upper_bound")
    names.append("theta_end_min")  # held at the geometric minimum by construction
    demand = grip_demand(dims, problem.spring, problem.grasp)
    if abs(demand - problem.grip_budget) <= 1e-6 * max(problem.grip_budget, 1.0):
        names.append("grip_budget")
    return names


def _nearest_bound_violations(problem: SizingProblem) -> list[Violation]:
    """Diagnose an empty feasible set at the most promising corner."""
    q = clearance_span(problem.d_axis, problem.r_edge)
    m = max(problem.m_bounds[0], q)
    t = problem.theta_init_bounds[1]
    sin_ti = math.sin(t)
    r = (problem.w_init - m) / (2.0 * sin_ti) if sin_ti > 0 else 0.0
    violations = []
    if r < problem.r_bounds[0]:
        violations.append(Violation("r_lower_bound", r - problem.r_bounds[0]))
    if r > problem.r_bounds[1]:
        violations.append(Violation("r_upper_bound", problem.r_bounds[1] - r))
    if m > problem.m_bounds[1]:
        violations.append(Violation("m_upper_bound", problem.m_bounds[1] - m))
    if r > 0 and q > r:
        violations.append(Violation("theta_end_min", r - q))
    elif r > 0:
        t_end = math.asin(q / r)
        if t_end >= t:
            violations.append(Violation("theta_end_min", t - t_end))
        else:
            dims = build_dimensions(problem, m, t)
            if dims is not None and not _within_budget(problem, dims):
                demand = grip_demand(dims, problem.spring, problem.grasp)
                violations.append(Violation("grip_budget",
                                            problem.grip_budget - demand))
    if not violations:
        violations.append(Violation("bounds", 0.0))
    return violations


def maximize_stroke(problem: SizingProblem, coarse_points: int = 241) -> SizingResult:
    """Feasible dimensions maximizing the stroke under the grip budget.

    Coarse (m, theta_init) grid, then golden-section refinement of
    theta_init with m tracked along its binding lower boundary (stroke and
    grip demand both improve as m shrinks through the width tie). Ties
    break toward smaller theta_init, then smaller m. Deterministic.

    Raises InfeasibleProblemError with the binding constraints when the
    bounds contain no feasible design.
    """
    ms, ts, strokes = _coarse_grid(problem, coarse_points)
    if not np.isfinite(strokes).any():
        violations = _nearest_bound_violations(problem)
        detail = ", ".join(f"{v.constraint} ({v.margin:g})" for v in violations)
        raise InfeasibleProblemError(
            f"no feasible design within bounds; binding: {detail}", violations
        )

    best_value = strokes.max()
    # tie-break: smallest theta_init, then smallest m, among exact maxima
    i_m, j_t = min(
        ((int(i), int(j)) for i, j in np.argwhere(strokes == best_value)),
        key=lambda ij: (ts[ij[1]], ms[ij[0]]),
    )
    coarse_dims = build_dimensions(problem, float(ms[i_m]), float(ts[j_t]))
    if coarse_dims is not None and _within_budget(problem, coarse_dims):
        best = (stroke(coarse_dims), coarse_dims, float(ts[j_t]))
    else:
        # vectorized and scalar paths can disagree by an ulp at a boundary
        # cell; let the refinement recover a nearby point
        best = (-math.inf, None, None)

    bracket_lo = float(ts[max(0, j_t - 1)])
    bracket_hi = float(ts[min(len(ts) - 1, j_t + 1)])
    for pin in (lambda t: _pin_m(problem, t), lambda t, m0=float(ms[i_m]): m0):
        refined = _golden_refine(problem, bracket_lo, bracket_hi, pin)
        if refined[1] is not None and refined[0] > best[0]:
            best = refined

    _, dims, _ = best
    if dims is None:
        raise InfeasibleProblemError(
            "feasible region too thin to refine near "
            f"theta_init={ts[j_t]:g}", _nearest_bound_violations(problem))
    assert not check_feasible(dims)
    return SizingResult(dims=dims, stroke=stroke(dims),
                        active_constraints=_active_constraints(problem, dims))
