"""Exact stroke maximization.

The design fixes the open width w_init, holds theta_end at its geometric
minimum and takes p and h at their smallest feasible values (the
interference limits of mechanism.check_feasible), so it is fixed by its
two travel angles. The budget caps the worst-case grip force over the
travel, and that worst case is exact: with A = +-g_tool*cos(alpha)/2,
B = 2*v*kappa/r and c = beta + theta_init, the demand
f(theta) = A*tan(theta) + B*(c - theta)/cos(theta) has

    cos(theta)**2 * f'(theta) = A + B*((c - theta)*sin(theta) - cos(theta)),

whose B term has derivative (c - theta)*cos(theta) >= 0 on the travel.
So f' changes sign at most once, from - to +: f is quasi-convex, and its
maximum over [theta_end, theta_init] is at one of the two ends.

The stroke maximum is the best of a finite candidate set. Each curve is
one function, whose docstring names its step; test_sizing.py proves each
step with sympy on those, on contact._grip_force and on mechanism.stroke.
Write t = theta_init, e = theta_end, q = d_axis + 2*r_edge,
K = 2*v*kappa/q, A as above (+ for backward_base) and B = grip_budget.

1. Substitution. r = q/sin(e), the width tie gives
   m = w_init - 2*q*sin(t)/sin(e), and the stroke is
   S = 2*q*sin(t - e)/sin(e) = 2*q*(sin(t)*cot(e) - cos(t)). For 0 < e < t < pi/2,
   dS/dt = 2*q*(cos(t)*cot(e) + sin(t)) > 0 and dS/de = -2*q*sin(t)/sin(e)**2 < 0.
2. Constraints as curves. t lies in [T_lo, T_hi]. The r bounds become
   e in [E_lo, E_hi], sin(E_lo) = q/r_hi and sin(E_hi) = min(1, q/r_lo).
   Each m bound becomes the curve sin(e) = a*sin(t), a = 2*q/(w_init - m),
   the lower one raised to q first; m >= m_lo is the side sin(e) >= a*sin(t).
3. Demand at the closed end. D_end = tan(e)*(A + K*(beta + t - e)) is
   affine in t with slope K*tan(e) > 0, so D_end <= B means t <= g(e) =
   e - beta + (B*cot(e) - A)/K. g'(e) = 1 - B/(K*sin(e)**2) and
   g'' = 2*B*cos(e)/(K*sin(e)**3) > 0: g is convex with its minimum at
   sin(e)**2 = B/K, and falls throughout when B >= K.
4. Demand at the open end. D_init = A*tan(t) + K*beta*sin(e)/cos(t), and
   with R = hypot(A, B), phi = atan2(B, A) and c = K*beta*sin(e)/R,
   cos(t)*(B - D_init) = R*(sin(phi - t) - c): D_init <= B between a
   falling-branch root phi - pi + asin(c) and a rising-branch root
   h(e) = phi - asin(c), and nowhere when c > 1. cos(t)**2 * dD_init/dt =
   A + K*beta*sin(e)*sin(t) exceeds cos(t)**2 * f'(t) by K*sin(e)*cos(t) > 0,
   so where D_init falls in t, f falls over the whole travel and D_end >
   D_init: D_end <= B implies the falling branch; only t <= h(e) is kept.
5. No maximum on a single curve. S has no stationary point, and no
   curve's outward normal in step 7 points along the gradient of S, so S
   rises along every curve one way, and a maximizer sits where two meet.
6. The candidate set. Step 7 leaves eight pairings of curves: t_lo with
   the rising-branch root of D_end = B (g(e) = t, sin(e)**2 > B/K); r_hi
   with t_hi, D_end = B (t = g(E_lo)) or D_init = B (t = h(E_lo)); m_lo
   with t_hi, r_lo (sin(t) = (w_init - m)/(2*r)), D_init = B (along the
   curve D_init = (A + K*beta*a)*tan(t), so tan(t) = B/(A + K*beta*a)) or
   D_end = B (along the curve D_end is negative or increasing: one root).
   The two D_end roots are bracketed (_boundary), the rest closed forms.
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

Floats: a candidate is an (m, r, theta_init) triple, exact in m on an m
curve, in r on an r curve and in theta_init on a t bound, the third
value from the width tie; so a point on an r curve meets its r bound
exactly, collapsed r bounds included. A D_end root is the float next to
a switch of its curve's own rounded predicate, and the design built there
may fail its budget check by a few ulps. _realize then walks it one float
at a time toward that curve's feasible side, at most _ULP_STEPS checks in
all. On 120,000 random problems (seeds 0-119,999 of
tests/sizing_cases.draw_case) no walk ran out of checks, and none that
passed took more than 10.
"""

import math

from .contact import GraspState, GripConfig, required_grip_force
from .errors import (DomainError, InfeasibleProblemError, _boundary, require_finite,
                     value_type)
from .mechanism import (SpringSpec, ToolDimensions, Violation, _closed_angle,
                        _min_clearances, clearance_span, stroke)
# perfbench imports check_feasible from here and traces it as sizing.check_feasible
from .mechanism import check_feasible  # noqa: F401

# Most checks one candidate gets, the points of its walk included.
_ULP_STEPS = 12


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
    grip demand is the worst case; candidates counts the (m, r, theta_init)
    points maximize_stroke checked, walks included. Only points within
    the theta_init bounds are checked, so each could have won.
    """

    dims: ToolDimensions
    stroke: float
    active_constraints: tuple[str, ...]
    demand_end: str | None = None
    candidates: int = 0


def _end_demands(dim: ToolDimensions, spring: SpringSpec,
                 state: GraspState) -> tuple[float, float]:
    """Required grip force at theta_end and at theta_init."""
    return (required_grip_force(dim, spring, state, dim.theta_end),
            required_grip_force(dim, spring, state, dim.theta_init))


def grip_demand(dim: ToolDimensions, spring: SpringSpec, state: GraspState) -> float:
    """Worst-case required grip force over the travel [theta_end, theta_init].

    Exact: the demand is quasi-convex in theta (see the module docstring),
    so the larger of the two end values is the maximum.
    """
    return max(_end_demands(dim, spring, state))


def build_dimensions(problem: SizingProblem, m: float, r: float,
                     theta_init: float) -> ToolDimensions | None:
    """Candidate dims at (m, r, theta_init), or None when unrealizable.

    (m, r, theta_init) must meet the width tie, which ToolDimensions checks
    within WIDTH_TIE_TOL, and theta_init must lie in (0, pi/2). r must lie
    within its bounds, theta_end sits at its geometric minimum, and p and
    h take their smallest feasible values (compact design), so a returned
    design passes check_feasible by construction. The m and theta_init
    bounds are the caller's (_evaluate).
    """
    r_lo, r_hi = problem.r_bounds
    if not r_lo <= r <= r_hi:
        return None
    q = clearance_span(problem.d_axis, problem.r_edge)
    theta_end = _closed_angle(q, r)
    if m < q or theta_end is None or theta_end >= theta_init:
        return None
    p, h = _min_clearances(problem.k, r, q, theta_end)
    return ToolDimensions(
        m=m, r=r, theta_init=theta_init, theta_end=theta_end, h=h, p=p, q=q,
        k=problem.k, d_axis=problem.d_axis, r_edge=problem.r_edge,
        v=problem.v, w_init=problem.w_init,
    )


def _evaluate(problem: SizingProblem, m: float, r: float,
              theta_init: float) -> tuple[ToolDimensions | None, str | None]:
    """(dims, None) for a feasible design within budget, else (None, check).

    check names what failed: "theta_init", "m" or "r" for their bounds,
    "dims" for any other refusal of build_dimensions (edge clearance or no
    closed angle below theta_init), "demand_end" or "demand_init" for the
    end of the travel whose grip demand exceeds the budget (grip_demand is
    the larger of the two). Only a budget check that a candidate's curve
    can fail by rounding has a walk: neither "r", which a point on an r
    curve meets exactly, nor "dims".
    """
    t_lo, t_hi = problem.theta_init_bounds
    if not t_lo <= theta_init <= t_hi:
        return None, "theta_init"
    m_lo, m_hi = problem.m_bounds
    if not m_lo <= m <= m_hi:
        return None, "m"
    dims = build_dimensions(problem, m, r, theta_init)
    if dims is None:
        r_lo, r_hi = problem.r_bounds
        return None, "dims" if r_lo <= r <= r_hi else "r"
    at_end, at_init = _end_demands(dims, problem.spring, problem.grasp)
    if at_end > problem.grip_budget:
        return None, "demand_end"
    if at_init > problem.grip_budget:
        return None, "demand_init"
    return dims, None


def _budget_curve(e, a_grav, k_end, beta, budget):
    """g(e) of step 3: D_end <= B exactly where theta_init <= g(e)."""
    return e - beta + (budget / math.tan(e) - a_grav) / k_end


def _budget_split(k_end, budget):
    """The e of g's minimum, sin(e)**2 = B/K (step 3), for B < K."""
    return math.asin(math.sqrt(budget / k_end))


def _open_end_sine(e, a_grav, k_end, beta, budget):
    """c = K*beta*sin(e)/hypot(A, B) of step 4; h(e) exists where c <= 1."""
    return k_end * beta * math.sin(e) / math.hypot(a_grav, budget)


def _open_end_root(c, a_grav, budget):
    """h(e) = atan2(B, A) - asin(c), the rising-branch root of step 4."""
    return math.atan2(budget, a_grav) - math.asin(c)


def _closed_end_on_m(t, a, a_grav, k_end, beta):
    """D_end at theta_init = t on the m curve sin(e) = a*sin(t), steps 3 and 6."""
    e = math.asin(a * math.sin(t))
    return math.tan(e) * (a_grav + k_end * (beta + t - e))


def _open_end_on_m(a, a_grav, k_end, beta, budget):
    """t where D_init = B on the m curve (step 6), past pi/2 where A + K*beta*a <= 0."""
    return math.atan2(budget, a_grav + k_end * beta * a)


def _at_m(w, m, t):
    """(m, r, t) on the m curve: the width tie w = m + 2*r*sin(t) solved for r (step 1)."""
    return m, (w - m) / (2.0 * math.sin(t)), t


def _at_r(w, r, t):
    """(m, r, t) on the r curve: the width tie solved for m (step 1)."""
    return w - 2.0 * r * math.sin(t), r, t


def _candidates(problem: SizingProblem):
    """Yield ((m, r, theta_init), walk) for each point of the candidate set.

    walk is None, or (check, step) for a point on a budget curve, whose
    check it may fail by rounding: step(m, r, theta_init) gives the next
    float toward the feasible side along the other curve it lies on. A
    point whose theta_init lies outside its bounds is not yielded: its
    first check refuses it, and no step moves it back in.
    """
    q = clearance_span(problem.d_axis, problem.r_edge)
    w = problem.w_init
    beta = problem.spring.beta
    k_end = 2.0 * problem.v * problem.spring.kappa / q
    if k_end == 0.0:  # _budget_curve divides by it
        raise DomainError(f"2*v*kappa/q underflows to 0: v = {problem.v:g}, "
                          f"kappa = {problem.spring.kappa:g}, q = {q:g}")
    a_grav = problem.grasp.g_tool * math.cos(problem.grasp.alpha) / 2.0
    if problem.grasp.config is GripConfig.FORWARD_BASE:
        a_grav = -a_grav
    budget = problem.grip_budget

    t_lo, t_hi = problem.theta_init_bounds
    r_lo, r_hi = problem.r_bounds
    # the m lower bound, raised to q, and its curve sin(e) = a*sin(t)
    m_lo = max(problem.m_bounds[0], q)
    a = 2.0 * q / (w - m_lo) if m_lo < w else None
    e_lo = math.asin(min(1.0, q / r_hi))
    e_hi = math.asin(min(1.0, q / r_lo))

    def m_up(m, r, t):
        return _at_m(w, math.nextafter(m, math.inf), t)

    def t_down_at_m(m, r, t):
        return _at_m(w, m, math.nextafter(t, 0.0))

    def t_down_at_r(m, r, t):
        return _at_r(w, r, math.nextafter(t, 0.0))

    # the m lower bound with t_hi, r_lo, D_init = B and D_end = B
    if a is not None:
        yield _at_m(w, m_lo, t_hi), None
        s = (w - m_lo) / (2.0 * r_lo)
        if r_lo > q and s <= 1.0 and t_lo <= (t := math.asin(s)) <= t_hi:
            yield (m_lo, r_lo, t), None
        if t_lo <= (t := _open_end_on_m(a, a_grav, k_end, beta, budget)) <= t_hi:
            yield _at_m(w, m_lo, t), ("demand_init", t_down_at_m)
        if a < 1.0:
            t = _boundary(lambda t: _closed_end_on_m(t, a, a_grav, k_end, beta) - budget,
                          t_lo, t_hi)
            if t is not None:
                yield _at_m(w, m_lo, t), ("demand_end", t_down_at_m)

    # the r upper bound with t_hi, D_end = B and D_init = B
    if r_hi > q:
        yield _at_r(w, r_hi, t_hi), None
        c = _open_end_sine(e_lo, a_grav, k_end, beta, budget)
        h = _open_end_root(c, a_grav, budget) if c <= 1.0 else None
        for t, end in ((_budget_curve(e_lo, a_grav, k_end, beta, budget), "demand_end"),
                       (h, "demand_init")):
            if t is not None and t_lo <= t <= t_hi:
                yield _at_r(w, r_hi, t), (end, t_down_at_r)

    # t_lo with the rising branch of D_end = B, past sin(e)**2 = B/K
    split = _budget_split(k_end, budget) if budget < k_end else e_hi
    if max(split, e_lo) < e_hi:
        e = _boundary(lambda e: t_lo - _budget_curve(e, a_grav, k_end, beta, budget),
                      max(split, e_lo), e_hi)
        if e is not None:
            m = w - 2.0 * q * math.sin(t_lo) / math.sin(e)
            yield _at_m(w, m, t_lo), ("demand_end", m_up)


def _realize(problem: SizingProblem, point: tuple[float, float, float],
             walk) -> tuple[ToolDimensions | None, int]:
    """Check a candidate, and step it one float along its walk while it
    fails the walk's check, at most _ULP_STEPS checks in all.

    Returns the feasible design or None, and the number of points checked.
    """
    m, r, theta_init = point
    dims, failed = _evaluate(problem, m, r, theta_init)
    checked = 1
    while walk is not None and failed == walk[0] and checked < _ULP_STEPS:
        m, r, theta_init = walk[1](m, r, theta_init)
        dims, failed = _evaluate(problem, m, r, theta_init)
        checked += 1
    return dims, checked


def _bound_margins(problem: SizingProblem, m: float, r: float,
                   theta_init: float) -> tuple[tuple[str, float, float], ...]:
    """(name, margin, scale) of each box bound and of the edge clearance at
    (m, r, theta_init). A margin is >= 0 where its constraint holds; scale
    is the size a margin counts as small against."""
    q = clearance_span(problem.d_axis, problem.r_edge)
    (m_lo, m_hi), (r_lo, r_hi) = problem.m_bounds, problem.r_bounds
    t_lo, t_hi = problem.theta_init_bounds
    return (("m_lower_bound", m - m_lo, m),
            ("m_upper_bound", m_hi - m, m),
            ("m_edge_clearance", m - q, m),
            ("r_lower_bound", r - r_lo, r),
            ("r_upper_bound", r_hi - r, r),
            ("theta_init_lower_bound", theta_init - t_lo, 1.0),
            ("theta_init_upper_bound", t_hi - theta_init, 1.0))


def _active_constraints(problem: SizingProblem, dims: ToolDimensions,
                        demand: float) -> tuple[str, ...]:
    """Names of the bounds within 1e-9 of their scale, and of the budget,
    which demand, the design's grip_demand, meets within 1e-6."""
    names = [name for name, margin, scale
             in _bound_margins(problem, dims.m, dims.r, dims.theta_init)
             if abs(margin) <= 1e-9 * max(abs(scale), 1e-12)]
    names.append("theta_end_min")  # held at its limit by construction
    if abs(demand - problem.grip_budget) <= 1e-6 * max(problem.grip_budget, 1.0):
        names.append("grip_budget")
    return tuple(names)


def _nearest_bound_violations(problem: SizingProblem) -> list[Violation]:
    """Diagnose an empty feasible set at the most promising corner."""
    q = clearance_span(problem.d_axis, problem.r_edge)
    m, r, t = _at_m(problem.w_init, max(problem.m_bounds[0], q), problem.theta_init_bounds[1])
    margins = {name: margin for name, margin, _ in _bound_margins(problem, m, r, t)}
    violations = [Violation(name, margins[name])
                  for name in ("r_lower_bound", "r_upper_bound", "m_upper_bound")
                  if margins[name] < 0.0]
    if r > 0:
        t_end = _closed_angle(q, r)
        if t_end is None:
            violations.append(Violation("theta_end_min", r - q))
        elif t_end >= t:
            violations.append(Violation("theta_end_min", t - t_end))
        elif (dims := build_dimensions(problem, m, r, t)) is not None:
            demand = grip_demand(dims, problem.spring, problem.grasp)
            if demand > problem.grip_budget:
                violations.append(Violation("grip_budget", problem.grip_budget - demand))
    return violations or [Violation("bounds", 0.0)]


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
    for point, walk in _candidates(problem):
        dims, points = _realize(problem, point, walk)
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
        active_constraints=_active_constraints(problem, best, max(at_end, at_init)),
        demand_end="theta_end" if at_end >= at_init else "theta_init",
        candidates=checked,
    )
