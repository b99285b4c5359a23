"""Dimension feasibility and exact stroke maximization.

Feasibility captures the interference limits of the real linkage: shafts
need material around them, the parallel linkage must not touch the base
frame at full closure, and the link bars must not overlap. The stroke
maximization fixes the open width w_init, holds theta_end at its geometric
minimum and takes p and h at their smallest feasible values, so a design
is fixed by its two travel angles.

The budget caps the worst-case grip force over the travel, and that worst
case is computed exactly: with A = +-g_tool*cos(alpha)/2, B = 2*v*kappa/r
and c = beta + theta_init, the demand is

    f(theta) = A*tan(theta) + B*(c - theta)/cos(theta)
    cos(theta)**2 * f'(theta) = A + B*((c - theta)*sin(theta) - cos(theta))

where the term multiplying B has derivative (c - theta)*cos(theta) >= 0
on the travel and B > 0. So f' changes sign at most once, from - to +;
f is quasi-convex and its maximum over [theta_end, theta_init] is at one
of the two ends.

The stroke maximum is the best of a finite candidate set; test_sizing.py
checks each step below with sympy. Write t = theta_init, e = theta_end,
q = d_axis + 2*r_edge, K = 2*v*kappa/q, A = +-g_tool*cos(alpha)/2 (+ for
backward_base) and B = grip_budget.

1. Substitution. r = q/sin(e), the width tie gives
   m = w_init - 2*q*sin(t)/sin(e), and the stroke is
   S = 2*q*sin(t - e)/sin(e) = 2*q*(sin(t)*cot(e) - cos(t)). For
   0 < e < t < pi/2, dS/dt = 2*q*(cos(t)*cot(e) + sin(t)) > 0 and
   dS/de = -2*q*sin(t)/sin(e)**2 < 0.
2. Constraints as curves. t lies in [T_lo, T_hi]. The r bounds become
   e in [E_lo, E_hi] with sin(E_lo) = q/r_hi and sin(E_hi) = min(1, q/r_lo).
   Each m bound becomes the curve sin(e) = a*sin(t) with
   a = 2*q/(w_init - m), the lower m bound raised to q first; m >= m_lo
   is the side sin(e) >= a*sin(t).
3. Demand at the closed end. D_end = tan(e)*(A + K*(beta + t - e)) is
   affine in t with slope K*tan(e) > 0, so D_end <= B means
   t <= g(e) = e - beta + (B*cot(e) - A)/K. g'(e) = 1 - B/(K*sin(e)**2)
   and g'' = 2*B*cos(e)/(K*sin(e)**3) > 0: g is convex with its minimum
   at sin(e)**2 = B/K, and falls throughout when B >= K.
4. Demand at the open end. D_init = A*tan(t) + K*beta*sin(e)/cos(t), and
   with R = hypot(A, B), phi = atan2(B, A) and c = K*beta*sin(e)/R,
   cos(t)*(B - D_init) = R*(sin(phi - t) - c). D_init <= B holds between
   a falling-branch root phi - pi + asin(c) and a rising-branch root
   h(e) = phi - asin(c), and nowhere when c > 1.
   cos(t)**2 * dD_init/dt = A + K*beta*sin(e)*sin(t) exceeds
   cos(t)**2 * f'(t) by K*sin(e)*cos(t) > 0, so where D_init falls
   in t, f falls at the open end, hence over the whole travel, and
   D_end > D_init. The falling branch is therefore implied by D_end <= B;
   only t <= h(e) is kept.
5. No maximum on a single curve. S has no stationary point, and no
   curve's outward normal in step 7 points along the gradient of S, so S
   rises along every curve one way, and a maximizer sits where two meet.
6. The candidate set. Step 7 leaves eight pairings of curves: t_lo with
   the rising-branch root of D_end = B (g(e) = t, sin(e)**2 > B/K); r_hi
   with t_hi, D_end = B (t = g(E_lo)) or D_init = B (t = h(E_lo)); m_lo
   with t_hi, r_lo (sin(t) = (w_init - m)/(2*r)), D_init = B (along the
   curve D_init = (A + K*beta*a)*tan(t), so tan(t) = B/(A + K*beta*a)) or
   D_end = B (along the curve D_end is negative or increasing: one root).
   The two D_end roots are bisected to the ulp; the rest are closed forms.
7. The cone test. -dS/de - dS/dt = 2*q*cos(e)**2*cos(t)*(tan(t) -
   tan(e))/sin(e)**2 > 0 and dS/dt > 0: the gradient of S points between
   -90 and -45 degrees in (t, e). At a maximizer where two curves meet it
   lies in the cone of their outward normals (of two of them where three
   meet). Clockwise of it lie those of t_lo (180 degrees), r_hi (-90) and
   m_lo ((a*cos(t), -cos(e)), steeper than the gradient as
   (dS/dt)/(-dS/de) - tan(e)/tan(t) = sin(e)**2*sin(t - e)/(sin(t)*cos(e))
   > 0); counterclockwise those of D_end = B ((1, -g'), in (-45, 0) on the
   rising branch, in [0, 90) on the other), t_hi (0), D_init = B
   ((1, -h'), in [0, 90)), r_lo (90) and m_hi (opposite m_lo). Joining one
   of each less than 180 degrees apart gives the pairings of step 6. Where
   both bounds of one variable meet, the feasible set is one curve, and
   the maximizer is where it meets another of those curves.

Floats: each candidate is an (m, theta_init) pair, exact in m on an m
curve and in theta_init on a t bound, and is checked with build_dimensions,
the m and theta_init bounds and grip_demand <= grip_budget (taken per
travel end, so a failure names its curve), all unchanged. A
candidate that fails only the check of a curve it lies on is moved toward
that curve's feasible side by 1, 2, 4, ... ulps and checked again, at most
_ULP_STEPS times in all. This is no search: on random problems no winning
candidate needed more than 6 checks. Where the r bounds meet, r must round
to that one float, which a step in m or t can jump: a candidate on that
curve whose r lands beyond the other bound steps t down an ulp at a time
(its paired curves bound t from above) until the width-tie m hits it.
"""

import math

from .contact import GraspState, GripConfig, required_grip_force
from .errors import (GeometryError, InfeasibleProblemError, replace, require_finite,
                     value_type)
from .mechanism import SpringSpec, ToolDimensions, stroke

# Most checks one candidate gets, its ulp steps included.
_ULP_STEPS = 12


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


@value_type
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
        require_finite(self, "d_axis", "r_edge", "k", "w_init", "v",
                       "m_bounds", "r_bounds", "theta_init_bounds",
                       "grip_budget")
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


@value_type
class SizingResult:
    """The stroke-maximal design and what the solver saw on the way.

    demand_end names the travel end ("theta_end" or "theta_init") whose
    grip demand is the worst case; candidates counts the (m, theta_init)
    points maximize_stroke checked, ulp steps included.
    """

    dims: ToolDimensions
    stroke: float
    active_constraints: list[str]
    demand_end: str | None = None
    candidates: int = 0


def _end_demands(dim: ToolDimensions, spring: SpringSpec,
                 state: GraspState) -> tuple[float, float]:
    """Required grip force at theta_end and at theta_init."""
    return tuple(required_grip_force(dim, spring, replace(state, theta=theta))
                 for theta in (dim.theta_end, dim.theta_init))


def grip_demand(dim: ToolDimensions, spring: SpringSpec, state: GraspState) -> float:
    """Worst-case required grip force over the travel [theta_end, theta_init].

    Exact: the demand is quasi-convex in theta (see the module docstring),
    so the larger of the two end values is the maximum.
    """
    return max(_end_demands(dim, spring, state))


def _linkage_length(problem: SizingProblem, m: float, sin_ti: float) -> float:
    """r from the width tie w_init = m + 2*r*sin(theta_init)."""
    return (problem.w_init - m) / (2.0 * sin_ti)


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
    r = _linkage_length(problem, m, sin_ti)
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


def _evaluate(problem: SizingProblem, m: float,
              theta_init: float) -> tuple[ToolDimensions | None, str | None]:
    """(dims, None) for a feasible design within budget, else (None, check).

    check names what failed: "theta_init", "m" or "r" for their bounds,
    "dims" for any other refusal of build_dimensions (edge clearance, no
    closed angle below theta_init, an interference check), "demand_end" or
    "demand_init" for the end of the travel whose grip demand exceeds the
    budget (grip_demand is the larger of the two). Only a check that a
    candidate's curve can fail by rounding has an ulp step; "dims" has none.
    """
    t_lo, t_hi = problem.theta_init_bounds
    if not t_lo <= theta_init <= t_hi:
        return None, "theta_init"
    m_lo, m_hi = problem.m_bounds
    if not m_lo <= m <= m_hi:
        return None, "m"
    dims = build_dimensions(problem, m, theta_init)
    if dims is None:
        r_lo, r_hi = problem.r_bounds
        r = _linkage_length(problem, m, math.sin(theta_init))
        return None, "dims" if r_lo <= r <= r_hi else "r"
    at_end, at_init = _end_demands(dims, problem.spring, problem.grasp)
    if at_end > problem.grip_budget:
        return None, "demand_end"
    if at_init > problem.grip_budget:
        return None, "demand_init"
    return dims, None


def _boundary(ok, lo: float, hi: float) -> float | None:
    """The float next to the one switch of ok on [lo, hi], on its ok side.

    None when ok(lo) == ok(hi). Bisects to adjacent floats.
    """
    ok_lo = ok(lo)
    if ok_lo == ok(hi):
        return None
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo if ok_lo else hi
        if ok(mid) == ok_lo:
            lo = mid
        else:
            hi = mid


def _nudge(x: float, ulps: int) -> float:
    return x + ulps * math.ulp(x)


def _candidates(problem: SizingProblem):
    """Yield (m, theta_init, moves) for each point of the candidate set.

    moves maps a check the point may fail only by rounding, because the
    point lies on that check's curve, to a step f(m, theta_init, n) that
    moves it n ulps toward the feasible side. See the module docstring.
    """
    q = clearance_span(problem.d_axis, problem.r_edge)
    w = problem.w_init
    beta = problem.spring.beta
    k_end = 2.0 * problem.v * problem.spring.kappa / q
    grasp = problem.grasp
    a_grav = grasp.g_tool * math.cos(grasp.alpha) / 2.0
    if grasp.config is GripConfig.FORWARD_BASE:
        a_grav = -a_grav
    budget = problem.grip_budget

    t_lo, t_hi = problem.theta_init_bounds
    r_lo, r_hi = problem.r_bounds
    # the m lower bound, raised to q, and its curve sin(e) = a*sin(t)
    m_lo = max(problem.m_bounds[0], q)
    a = 2.0 * q / (w - m_lo) if m_lo < w else None
    e_lo = math.asin(min(1.0, q / r_hi))
    e_hi = math.asin(min(1.0, q / r_lo))

    def g(e):
        return e - beta + (budget / math.tan(e) - a_grav) / k_end

    def m_up(m, t, n):
        return _nudge(m, n), t

    def t_down(m, t, n):
        return m, _nudge(t, -n)

    def along_r_hi(m, t, n):
        t = _nudge(t, -n)
        return w - 2.0 * r_hi * math.sin(t), t

    def r_move(r, side, step):
        # step while r is out beyond its own bound; beyond the other one,
        # only where the two meet, walk down the curve (module docstring)
        def move(m, t, n):
            if (_linkage_length(problem, m, math.sin(t)) - r) * side > 0:
                return step(m, t, n)
            for _ in range(_ULP_STEPS):
                m = w - 2.0 * r_lo * math.sin(t)
                if r_lo <= _linkage_length(problem, m, math.sin(t)) <= r_hi:
                    break
                t = _nudge(t, -1)
            return m, t
        return move

    # the m lower bound with t_hi, r_lo, D_init = B and D_end = B
    if a is not None:
        yield m_lo, t_hi, {}
        s = (w - m_lo) / (2.0 * r_lo)
        if r_lo > q and s <= 1.0:
            yield m_lo, math.asin(s), {"r": r_move(r_lo, -1, t_down)}
        slope = a_grav + k_end * beta * a
        if slope > 0.0:
            yield m_lo, math.atan2(budget, slope), {"demand_init": t_down}
        if a < 1.0:
            def d_end(t):
                e = math.asin(a * math.sin(t))
                return math.tan(e) * (a_grav + k_end * (beta + t - e))
            t = _boundary(lambda t: d_end(t) <= budget, t_lo, t_hi)
            if t is not None:
                yield m_lo, t, {"demand_end": t_down}

    # the r upper bound with t_hi, D_end = B and D_init = B
    if r_hi > q:
        r_step = r_move(r_hi, 1, m_up)
        yield w - 2.0 * r_hi * math.sin(t_hi), t_hi, {"r": r_step}
        c = k_end * beta * math.sin(e_lo) / math.hypot(a_grav, budget)
        h = math.atan2(budget, a_grav) - math.asin(c) if c <= 1.0 else None
        for t, end in ((g(e_lo), "demand_end"), (h, "demand_init")):
            if t is not None:
                yield (w - 2.0 * r_hi * math.sin(t), t,
                       {"r": r_step, end: along_r_hi})

    # t_lo with the rising branch of D_end = B, past sin(e)**2 = B/K
    split = math.asin(math.sqrt(budget / k_end)) if budget < k_end else e_hi
    if max(split, e_lo) < e_hi:
        e = _boundary(lambda e: g(e) >= t_lo, max(split, e_lo), e_hi)
        if e is not None:
            yield (w - 2.0 * q * math.sin(t_lo) / math.sin(e), t_lo,
                   {"demand_end": m_up})


def _realize(problem: SizingProblem, m: float, theta_init: float,
             moves) -> tuple[ToolDimensions | None, int]:
    """Check a candidate, stepping it while it fails only its own curves.

    Returns the feasible design or None, and the number of points checked.
    Each kind of step doubles its size in ulps every time it is taken.
    """
    taken = {}
    for checked in range(1, _ULP_STEPS + 1):
        dims, failed = _evaluate(problem, m, theta_init)
        move = moves.get(failed)
        if move is None:
            break
        n = taken.get(failed, 0)
        taken[failed] = n + 1
        m, theta_init = move(m, theta_init, 1 << n)
    return dims, checked


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
    r = _linkage_length(problem, m, math.sin(t))
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
            if dims is not None:
                demand = grip_demand(dims, problem.spring, problem.grasp)
                if demand > problem.grip_budget:
                    violations.append(Violation("grip_budget",
                                                problem.grip_budget - demand))
    if not violations:
        violations.append(Violation("bounds", 0.0))
    return violations


def maximize_stroke(problem: SizingProblem) -> SizingResult:
    """Feasible dimensions maximizing the stroke under the grip budget.

    Exact: the maximum is the best feasible point of the finite candidate
    set in the module docstring, each point checked with the unchanged
    feasibility, bound and budget checks. Ties break toward smaller
    theta_init, then smaller m. Deterministic.

    Raises InfeasibleProblemError with the binding constraints when the
    bounds contain no feasible design.
    """
    best_key, best, checked = None, None, 0
    for m, theta_init, moves in _candidates(problem):
        dims, points = _realize(problem, m, theta_init, moves)
        checked += points
        if dims is not None:
            key = (stroke(dims), -dims.theta_init, -dims.m)
            if best_key is None or key > best_key:
                best_key, best = key, dims
    if best is None:
        violations = _nearest_bound_violations(problem)
        detail = ", ".join(f"{v.constraint} ({v.margin:g})" for v in violations)
        raise InfeasibleProblemError(
            f"no feasible design within bounds; binding: {detail}", violations
        )
    at_end, at_init = _end_demands(best, problem.spring, problem.grasp)
    return SizingResult(
        dims=best, stroke=stroke(best),
        active_constraints=_active_constraints(problem, best),
        demand_end="theta_end" if at_end >= at_init else "theta_init",
        candidates=checked,
    )
