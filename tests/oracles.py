"""Independent oracles used by the test suite.

Each oracle re-derives its answer by a route different from the library
code under test: static-equilibrium wrench construction plus feasibility
bisection for the holding and payload limits, and exhaustive grid
enumeration (or, for collapsed r bounds, a scan along the one r curve)
for the stroke optimizer. Formulas here are transcribed
separately from the library on purpose, the soft-finger limit surface
and its tolerance included; do not refactor them to share code with
src/, and import nothing from it.
"""

import math

import numpy as np

BISECTION_ITERS = 200
# Relative tolerance on the limit surface's right-hand side, so that a
# wrench computed to lie on the surface counts as held despite rounding.
LIMIT_REL_TOL = 1e-9


def within_limit(mu, e, f_n, f, t, rel_tol=LIMIT_REL_TOL):
    """True when one pad at normal force f_n transmits the tangential
    force f and spin torque t: f^2 + (t/e)^2 <= (mu*f_n)^2, the right side
    widened by the relative tolerance rel_tol."""
    return f * f + (t / e) ** 2 <= (mu * f_n) ** 2 * (1.0 + rel_tol)


def holding_wrench(g_tool, alpha, d):
    """Per-contact (f, t) demanded by the hanging tool at offset d.

    Weight splits evenly over the two pads; the gravity moment about the
    grasp point splits evenly as well.
    """
    f = g_tool / 2.0
    t = g_tool * math.sin(alpha) * d / 2.0
    return f, t


def holding_feasible(model, f_n, g_tool, alpha, d):
    f, t = holding_wrench(g_tool, alpha, d)
    return within_limit(model.mu, model.e, f_n, f, t)


def bisect_holding_offset(model, f_n, g_tool, alpha):
    """Feasibility boundary over d, found without the closed form."""
    if not holding_feasible(model, f_n, g_tool, alpha, 0.0):
        return None
    hi = 1e-3
    while holding_feasible(model, f_n, g_tool, alpha, hi):
        hi *= 2.0
        if hi > 1e9:
            return math.inf
    lo = 0.0
    for _ in range(BISECTION_ITERS):
        mid = (lo + hi) / 2.0
        if holding_feasible(model, f_n, g_tool, alpha, mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def object_wrench(g_tool, g_obj, alpha, d_com, d_obj):
    """Per-contact (f, t) from the balance of the tool holding an object."""
    f = (g_tool + g_obj) / 2.0
    t = (g_obj * d_obj * math.sin(alpha) - g_tool * d_com * math.cos(alpha)) / 2.0
    return f, t


def payload_feasible(model, state, d_obj, g_obj):
    f, t = object_wrench(state.g_tool, g_obj, state.alpha, state.d_com, d_obj)
    return within_limit(model.mu, model.e, state.f_n, f, t)


def bisect_max_payload(model, state, d_obj, scan_points=4096):
    """Largest feasible object weight by feasibility bisection.

    The feasible weights form a single interval (the capacity residual is
    a convex quadratic in the weight), but the interval need not start at
    zero: a heavy enough object can cancel the tool's own gravity moment.
    So: take g_obj = 0 if feasible, otherwise scan for any feasible
    weight, then bisect the upper interval edge. Returns None when the
    scan finds no feasible weight at all.
    """
    hi = 20.0 * model.mu * state.f_n
    if payload_feasible(model, state, d_obj, hi):
        raise AssertionError("oracle upper bracket unexpectedly feasible")
    if payload_feasible(model, state, d_obj, 0.0):
        lo = 0.0
    else:
        lo = None
        for i in range(1, scan_points):
            g = hi * i / scan_points
            if payload_feasible(model, state, d_obj, g):
                lo = g
                break
        if lo is None:
            return None
    for _ in range(BISECTION_ITERS):
        mid = (lo + hi) / 2.0
        if payload_feasible(model, state, d_obj, mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def grid_max_stroke(problem, n_m=201, n_theta=201, grip_samples=64):
    """Exhaustive (m, theta_init) grid search for the stroke maximization.

    Applies the same feasibility rules as the optimizer contract: width
    tie for r, r within bounds, theta_end at its geometric minimum and
    below theta_init, edge clearance on m, and the worst-case grip force
    within budget. Returns (stroke, m, theta_init) of the best grid point
    or None when every point is infeasible.
    """
    q = problem.d_axis + 2.0 * problem.r_edge
    m_lo = max(problem.m_bounds[0], q)
    m_hi = min(problem.m_bounds[1], problem.w_init)
    if m_lo > m_hi:
        return None
    ms = np.linspace(m_lo, m_hi, n_m)
    ts = np.linspace(problem.theta_init_bounds[0],
                     problem.theta_init_bounds[1], n_theta)
    m_g, t_g = np.meshgrid(ms, ts, indexing="ij")

    with np.errstate(divide="ignore", invalid="ignore"):
        r = (problem.w_init - m_g) / (2.0 * np.sin(t_g))
        ok = (r >= problem.r_bounds[0]) & (r <= problem.r_bounds[1]) & (r >= q)
        t_end = np.arcsin(np.where(ok, np.clip(q / np.where(ok, r, 1.0), 0.0, 1.0), 0.0))
        ok &= t_end < t_g

        frac = np.linspace(0.0, 1.0, grip_samples)
        theta = t_end[..., None] + (t_g - t_end)[..., None] * frac
        spring_torque = problem.spring.kappa * (
            problem.spring.beta + t_g[..., None] - theta
        )
        transmission = (2.0 * problem.v * spring_torque
                        / (r[..., None] * np.cos(theta)))
        gravity = (problem.grasp.g_tool * math.cos(problem.grasp.alpha)
                   * np.tan(theta) / 2.0)
        sign = 1.0 if problem.grasp.config.value == "backward_base" else -1.0
        worst_grip = np.max(sign * gravity + transmission, axis=-1)
        ok &= worst_grip <= problem.grip_budget

        strokes = np.where(ok, 2.0 * r * np.sin(t_g - t_end), -np.inf)

    best = strokes.max()
    if not np.isfinite(best):
        return None
    i, j = min(((int(i), int(j)) for i, j in np.argwhere(strokes == best)),
               key=lambda ij: (ts[ij[1]], ms[ij[0]]))
    return float(best), float(ms[i]), float(ts[j])


def line_max_stroke(problem, r, n_theta=401, ulps=4):
    """Scan along the fixed-r curve for the stroke maximization.

    For r bounds collapsed to one value, where the feasible set is a line
    and a point is feasible only when r rounds to that exact float. Walks
    theta_init over a grid, takes m from the width tie m = w_init -
    2*r*sin(theta_init) and tries m shifted by up to ulps ulps either way;
    each point is judged with plain-float arithmetic in the optimizer's
    order of operations (r = (w_init - m)/(2*sin(theta_init))). Returns
    (stroke, m, theta_init) of the best point or None.
    """
    q = problem.d_axis + 2.0 * problem.r_edge
    w = problem.w_init
    t_lo, t_hi = problem.theta_init_bounds
    m_lo, m_hi = problem.m_bounds
    grasp, spring = problem.grasp, problem.spring
    sign = 1.0 if grasp.config.value == "backward_base" else -1.0
    best = None
    for i in range(n_theta):
        t = min(t_lo + (t_hi - t_lo) * i / max(n_theta - 1, 1), t_hi)
        sin_t = math.sin(t)
        m0 = w - 2.0 * r * sin_t
        for k in range(-ulps, ulps + 1):
            m = m0 + k * math.ulp(m0)
            if not (m_lo <= m <= m_hi and m >= q):
                continue
            r_m = (w - m) / (2.0 * sin_t)
            if not (problem.r_bounds[0] <= r_m <= problem.r_bounds[1]
                    and q <= r_m):
                continue
            t_end = math.asin(q / r_m)
            if not t_end < t < math.pi / 2:
                continue
            worst = -math.inf
            for theta in (t_end, 0.5 * (t_end + t), t):
                torque = spring.kappa * (spring.beta + (t - theta))
                transmission = 2.0 * problem.v * torque / (r_m * math.cos(theta))
                gravity = grasp.g_tool * math.cos(grasp.alpha) * math.tan(theta) / 2.0
                worst = max(worst, sign * gravity + transmission)
            if worst > problem.grip_budget:
                continue
            s = 2.0 * r_m * math.sin(t - t_end)
            if best is None or s > best[0]:
                best = (s, m, t)
    return best
