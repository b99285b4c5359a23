import math
import random
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, strategies as st

from grippertool import (
    GeometryError,
    GraspState,
    GripConfig,
    InfeasibleProblemError,
    SizingProblem,
    SpringSpec,
    ToolDimensions,
    check_feasible,
    clearance_span,
    grip_demand,
    maximize_stroke,
    parse_design,
    replace,
    required_grip_force,
    stroke,
    theta_end_min,
)
from grippertool.sizing import _candidates, _evaluate, _realize, build_dimensions

from oracles import grid_max_stroke, line_max_stroke


def make_problem(**kwargs):
    base = dict(
        d_axis=0.004, r_edge=0.001, k=0.05, w_init=0.08,
        m_bounds=(0.008, 0.03), r_bounds=(0.005, 0.08),
        theta_init_bounds=(0.6, 1.4), grip_budget=1e6,
        spring=SpringSpec(kappa=0.5, beta=math.radians(20)),
        grasp=GraspState(f_n=40.0, g_tool=10.0, alpha=math.radians(60),
                         gamma=0.0, d=0.0, d_com=0.03, theta=math.radians(30)),
    )
    base.update(kwargs)
    return SizingProblem(**base)


def feasible_dims(m=0.012, r=0.03, theta_init=math.radians(60),
                  theta_end=math.radians(12)):
    return ToolDimensions.with_derived_width(
        m=m, r=r, theta_init=theta_init, theta_end=theta_end,
        h=0.032, p=0.011, q=0.006, k=0.05, d_axis=0.004, r_edge=0.001)


class TestThetaEndMin:
    def test_span_equals_linkage(self):
        assert theta_end_min(r=0.01, d_axis=0.005, r_edge=0.0025) == pytest.approx(
            math.pi / 2)

    def test_span_equals_linkage_via_ratios(self):
        r = 0.02
        assert theta_end_min(r=r, d_axis=r / 2, r_edge=r / 4) == pytest.approx(
            math.pi / 2)

    def test_direct_evaluation(self):
        assert theta_end_min(r=0.03, d_axis=0.004, r_edge=0.001) == pytest.approx(
            math.asin(0.2))
        assert theta_end_min(r=0.03, d_axis=0.004, r_edge=0.001) == pytest.approx(
            0.2014, abs=1e-4)

    def test_impossible_geometry(self):
        with pytest.raises(GeometryError):
            theta_end_min(r=0.005, d_axis=0.004, r_edge=0.001)


class TestCheckFeasible:
    def test_clean_design(self):
        assert check_feasible(feasible_dims()) == []

    def test_boundary_counts_as_feasible(self):
        q = clearance_span(0.004, 0.001)
        dims = feasible_dims(m=q)
        assert not [v for v in check_feasible(dims) if v.constraint == "m_edge_clearance"]

    def test_edge_clearance_violation(self):
        dims = feasible_dims(m=0.005)
        names = [v.constraint for v in check_feasible(dims)]
        assert "m_edge_clearance" in names

    def test_theta_end_violation_carries_margin(self):
        dims = feasible_dims(theta_end=math.radians(8))
        violations = {v.constraint: v for v in check_feasible(dims)}
        assert "theta_end_min" in violations
        assert violations["theta_end_min"].margin == pytest.approx(
            math.radians(8) - math.asin(0.2), rel=1e-9)

    def test_singular_open_angle(self):
        dims = ToolDimensions.with_derived_width(
            m=0.012, r=0.03, theta_init=math.pi / 2, theta_end=math.radians(12),
            h=0.032, p=0.011, q=0.006, k=0.05, d_axis=0.004, r_edge=0.001)
        names = [v.constraint for v in check_feasible(dims)]
        assert names == ["theta_init_singular"]

    def test_p_and_h_violations(self):
        dims = ToolDimensions.with_derived_width(
            m=0.012, r=0.03, theta_init=math.radians(60), theta_end=math.radians(12),
            h=0.01, p=0.001, q=0.006, k=0.05, d_axis=0.004, r_edge=0.001)
        names = {v.constraint for v in check_feasible(dims)}
        assert {"p_linkage_clearance", "h_bar_overlap"} <= names


class TestStrokeMonotonicity:
    @given(m=st.floats(min_value=0.007, max_value=0.02),
           theta_init=st.floats(min_value=0.5, max_value=1.45),
           theta_end=st.floats(min_value=0.05, max_value=0.45),
           bump=st.floats(min_value=1e-4, max_value=0.1))
    def test_wider_open_angle_never_shrinks_stroke(self, m, theta_init,
                                                   theta_end, bump):
        assume(theta_end < theta_init)
        w_init = 0.08
        higher = min(theta_init + bump, 1.45)
        from grippertool import stroke_fixed_width
        base = stroke_fixed_width(w_init, m, theta_init, theta_end)
        more = stroke_fixed_width(w_init, m, higher, theta_end)
        assert more >= base - 1e-15

    @given(m=st.floats(min_value=0.007, max_value=0.02),
           theta_init=st.floats(min_value=0.5, max_value=1.45),
           theta_end=st.floats(min_value=0.05, max_value=0.45),
           bump=st.floats(min_value=1e-4, max_value=0.1))
    def test_later_closing_angle_never_grows_stroke(self, m, theta_init,
                                                    theta_end, bump):
        assume(theta_end < theta_init)
        from grippertool import stroke_fixed_width
        w_init = 0.08
        later = min(theta_end + bump, theta_init - 1e-6)
        base = stroke_fixed_width(w_init, m, theta_init, theta_end)
        less = stroke_fixed_width(w_init, m, theta_init, later)
        assert less <= base + 1e-15

    @given(m=st.floats(min_value=0.007, max_value=0.02),
           theta_init=st.floats(min_value=0.5, max_value=1.45),
           theta_end=st.floats(min_value=0.05, max_value=0.45),
           bump=st.floats(min_value=1e-5, max_value=0.01))
    def test_wider_base_never_grows_stroke(self, m, theta_init, theta_end, bump):
        assume(theta_end < theta_init)
        from grippertool import stroke_fixed_width
        w_init = 0.08
        base = stroke_fixed_width(w_init, m, theta_init, theta_end)
        wider = stroke_fixed_width(w_init, m + bump, theta_init, theta_end)
        assert wider <= base + 1e-15


class TestGripDemand:
    def test_demand_is_quasi_convex_in_theta(self):
        # f(theta) = A*tan(theta) + B*(c - theta)/cos(theta) with
        # A = +-G*cos(alpha)/2, B = 2*v*kappa/r > 0, c = beta + theta_init.
        # cos^2*f' = A + B*k and k' = (c - theta)*cos(theta) >= 0 on the
        # travel, so f' changes sign at most once, from - to +.
        theta, a, b, c = sympy.symbols("theta A B c", real=True)
        f = a * sympy.tan(theta) + b * (c - theta) / sympy.cos(theta)
        k = (c - theta) * sympy.sin(theta) - sympy.cos(theta)
        assert sympy.simplify(
            sympy.cos(theta) ** 2 * sympy.diff(f, theta) - (a + b * k)) == 0
        assert sympy.simplify(
            sympy.diff(k, theta) - (c - theta) * sympy.cos(theta)) == 0

        # the symbolic f is the demand the library computes
        dims = feasible_dims()
        spring = SpringSpec(kappa=0.5, beta=math.radians(20))
        f_num = sympy.lambdify((theta, a, b, c), f, "math")
        for config, sign in ((GripConfig.BACKWARD_BASE, 1.0),
                             (GripConfig.FORWARD_BASE, -1.0)):
            state = GraspState(f_n=40.0, g_tool=10.0, alpha=math.radians(60),
                               gamma=0.0, d=0.0, d_com=0.03, theta=0.3,
                               config=config)
            coeffs = (sign * state.g_tool * math.cos(state.alpha) / 2.0,
                      2.0 * dims.v * spring.kappa / dims.r,
                      spring.beta + dims.theta_init)
            for t in (dims.theta_end, 0.5, dims.theta_init):
                assert f_num(t, *coeffs) == pytest.approx(
                    required_grip_force(dims, spring, replace(state, theta=t)),
                    rel=1e-12)

    @given(config=st.sampled_from(list(GripConfig)),
           alpha=st.floats(min_value=0.0, max_value=math.pi),
           beta=st.floats(min_value=0.0, max_value=2.0),
           kappa=st.floats(min_value=0.01, max_value=5.0),
           g_tool=st.floats(min_value=0.1, max_value=200.0),
           r=st.floats(min_value=0.005, max_value=0.1),
           theta_init=st.floats(min_value=0.05, max_value=1.55),
           closed=st.floats(min_value=0.0, max_value=0.99))
    def test_dominates_dense_sampling(self, config, alpha, beta, kappa, g_tool,
                                      r, theta_init, closed):
        dims = feasible_dims(r=r, theta_init=theta_init,
                             theta_end=closed * theta_init)
        spring = SpringSpec(kappa=kappa, beta=beta)
        state = GraspState(f_n=40.0, g_tool=g_tool, alpha=alpha, gamma=0.0,
                           d=0.0, d_com=0.03, theta=dims.theta_end,
                           config=config)
        n = 2001
        span = dims.theta_init - dims.theta_end
        dense = max(
            required_grip_force(dims, spring, replace(
                state, theta=min(dims.theta_end + span * i / (n - 1),
                                 dims.theta_init)))
            for i in range(n)
        )
        demand = grip_demand(dims, spring, state)
        assert demand >= dense - 1e-12 * max(abs(demand), abs(dense))


class TestStrokeLemmas:
    """The steps of the candidate-set argument in the sizing docstring."""

    t, e, q, w, beta, K, A, B = sympy.symbols("t e q w beta K A B", real=True)

    def demand(self, theta):
        # the quasi-convex demand with 2*v*kappa/r = K*sin(e) and c = beta + t
        t, e, beta, K, A = self.t, self.e, self.beta, self.K, self.A
        return (A * sympy.tan(theta)
                + K * sympy.sin(e) * (beta + t - theta) / sympy.cos(theta))

    def test_substitution_and_stroke_slopes(self):
        t, e, q, w = self.t, self.e, self.q, self.w
        r = q / sympy.sin(e)
        s = 2 * r * sympy.sin(t - e)  # mechanism.stroke
        closed = 2 * q * (sympy.sin(t) * sympy.cot(e) - sympy.cos(t))
        assert sympy.simplify(s - closed) == 0
        # dS/dt and dS/de are sums of positive terms for 0 < e < t < pi/2
        assert sympy.simplify(sympy.diff(s, t) - 2 * q * (
            sympy.cos(t) * sympy.cot(e) + sympy.sin(t))) == 0
        assert sympy.simplify(
            sympy.diff(s, e) + 2 * q * sympy.sin(t) / sympy.sin(e) ** 2) == 0

        # the library's builder realizes the substitution
        problem = make_problem()
        q_num = clearance_span(problem.d_axis, problem.r_edge)
        stroke_of = sympy.lambdify((t, e, q), closed, "math")
        for m, theta_init in ((0.01, 0.9), (0.02, 1.3), (0.008, 1.4)):
            dims = build_dimensions(problem, m, theta_init)
            e_num = dims.theta_end
            assert math.sin(e_num) == pytest.approx(q_num / dims.r, rel=1e-14)
            assert dims.m == pytest.approx(
                problem.w_init - 2 * q_num * math.sin(theta_init) / math.sin(e_num),
                rel=1e-12)
            assert stroke(dims) == pytest.approx(
                stroke_of(theta_init, e_num, q_num), rel=1e-12)

    def test_closed_end_demand_is_affine_and_its_bound_convex(self):
        t, e, beta, K, A, B = self.t, self.e, self.beta, self.K, self.A, self.B
        d_end = self.demand(e)
        assert sympy.simplify(
            d_end - sympy.tan(e) * (A + K * (beta + t - e))) == 0
        assert sympy.simplify(sympy.diff(d_end, t) - K * sympy.tan(e)) == 0
        assert sympy.diff(d_end, t, 2) == 0
        g = e - beta + (B * sympy.cot(e) - A) / K
        assert sympy.simplify(d_end.subs(t, g) - B) == 0
        assert sympy.simplify(
            sympy.diff(g, e) - (1 - B / (K * sympy.sin(e) ** 2))) == 0
        assert sympy.simplify(sympy.diff(g, e, 2)
                              - 2 * B * sympy.cos(e) / (K * sympy.sin(e) ** 3)) == 0

    def test_open_end_falling_branch_is_dominated(self):
        t, e, beta, K, A, B = self.t, self.e, self.beta, self.K, self.A, self.B
        theta = sympy.Symbol("theta", real=True)
        d_init = self.demand(t)
        assert sympy.simplify(d_init - (A * sympy.tan(t) + K * beta * sympy.sin(e)
                                        / sympy.cos(t))) == 0
        # R*sin(phi - t) with cos(phi) = A/R and sin(phi) = B/R
        radius = sympy.sqrt(A ** 2 + B ** 2)
        r_sin = radius * (B / radius * sympy.cos(t) - A / radius * sympy.sin(t))
        assert sympy.simplify(sympy.cos(t) * (B - d_init)
                              - (r_sin - K * beta * sympy.sin(e))) == 0
        slope = A + K * beta * sympy.sin(e) * sympy.sin(t)
        assert sympy.simplify(sympy.cos(t) ** 2 * sympy.diff(d_init, t) - slope) == 0
        # cos^2 * f' at the open end is smaller by K*sin(e)*cos(t) > 0
        at_open = (sympy.cos(theta) ** 2 * sympy.diff(self.demand(theta), theta)
                   ).subs(theta, t)
        assert sympy.simplify(
            slope - at_open - K * sympy.sin(e) * sympy.cos(t)) == 0

        # so wherever D_init falls in t, the closed end demands more
        rng = random.Random(4)
        spring = SpringSpec(kappa=0.5, beta=0.0)
        q = 0.006
        checked = 0
        while checked < 200:
            e_num = rng.uniform(0.05, 1.2)
            t_num = rng.uniform(e_num + 1e-3, 1.55)
            spring = replace(spring, kappa=rng.uniform(0.05, 2.0),
                             beta=rng.uniform(0.0, 1.0))
            state = GraspState(f_n=40.0, g_tool=rng.uniform(1.0, 60.0),
                               alpha=rng.uniform(0.0, math.pi), gamma=0.0,
                               d=0.0, d_com=0.03, theta=t_num,
                               config=rng.choice(list(GripConfig)))
            a_num = state.g_tool * math.cos(state.alpha) / 2.0
            if state.config is GripConfig.FORWARD_BASE:
                a_num = -a_num
            k_num = 2.0 * spring.kappa / q
            if a_num + k_num * spring.beta * math.sin(e_num) * math.sin(t_num) >= 0:
                continue
            dims = feasible_dims(r=q / math.sin(e_num), theta_init=t_num,
                                 theta_end=e_num)
            at_end = required_grip_force(dims, spring, replace(state, theta=e_num))
            assert at_end > required_grip_force(dims, spring, state)
            checked += 1

    def test_stroke_rises_along_every_curve(self):
        t, e, q, beta, K = self.t, self.e, self.q, self.beta, self.K
        radius, phi = sympy.symbols("R phi", positive=True)
        s = 2 * q * (sympy.sin(t) * sympy.cot(e) - sympy.cos(t))
        s_t, s_e = sympy.diff(s, t), sympy.diff(s, e)
        # an m curve sin(e) = a*sin(t): de/dt = a*cos(t)/cos(e)
        a = sympy.sin(e) / sympy.sin(t)
        de_dt = a * sympy.cos(t) / sympy.cos(e)
        assert sympy.simplify(de_dt - sympy.tan(e) / sympy.tan(t)) == 0
        assert sympy.simplify(s_t + s_e * de_dt - 2 * q * sympy.cos(t) * (
            sympy.tan(t) - sympy.tan(e))) == 0
        # t = f(e) with f' < 1 and s_t > 0: dS/de = s_t*f' + s_e < s_t + s_e < 0
        assert sympy.simplify(s_t + s_e + 2 * q * sympy.cot(e) * sympy.sin(t - e)
                              / sympy.sin(e)) == 0
        # the rising branch h(e) = phi - asin(c) has h' <= 0
        c = K * beta * sympy.sin(e) / radius
        h = phi - sympy.asin(c)
        assert sympy.simplify(sympy.diff(h, e) + K * beta * sympy.cos(e) / (
            radius * sympy.sqrt(1 - c ** 2))) == 0

    def test_candidate_closed_forms_and_root_counts(self):
        t, e, q, w, beta, K, A, B = (self.t, self.e, self.q, self.w, self.beta,
                                     self.K, self.A, self.B)
        m, r = sympy.symbols("m r", positive=True)
        a = 2 * q / (w - m)
        # an r bound (sin(e) = q/r) meets an m curve at sin(t) = (w - m)/(2*r)
        assert sympy.simplify((q / r) / a - (w - m) / (2 * r)) == 0
        # the m curve is the width tie: m = w - 2*q*sin(t)/sin(e)
        assert sympy.simplify(
            (w - 2 * q * sympy.sin(t) / (a * sympy.sin(t))) - m) == 0
        # along an m curve D_init = (A + K*beta*a)*tan(t)
        along = self.demand(t).subs(sympy.sin(e), a * sympy.sin(t))
        assert sympy.simplify(along - (A + K * beta * a) * sympy.tan(t)) == 0
        # a t bound meets D_init = B at sin(e) = (B*cos(t) - A*sin(t))/(K*beta)
        sin_e = (B * sympy.cos(t) - A * sympy.sin(t)) / (K * beta)
        assert sympy.simplify(self.demand(t).subs(sympy.sin(e), sin_e) - B) == 0
        # along an m curve, A + K*(beta + t - e) and tan(e) both rise in t
        # (de/dt = tan(e)/tan(t) < 1), so D_end is negative or increasing
        e_of_t = sympy.asin(a * sympy.sin(t))
        assert sympy.simplify(sympy.diff(t - e_of_t, t) - (
            1 - sympy.tan(e_of_t) / sympy.tan(t))) == 0
        # g(e) = t: g is convex (previous test), so at most two roots, split
        # where g' = 0
        g = e - beta + (B * sympy.cot(e) - A) / K
        split = sympy.asin(sympy.sqrt(B / K))
        assert sympy.simplify(sympy.diff(g, e).subs(e, split)) == 0

    def test_gradient_cone_leaves_eight_pairings(self):
        t, e, q = self.t, self.e, self.q
        s = 2 * q * (sympy.sin(t) * sympy.cot(e) - sympy.cos(t))
        s_t, s_e = sympy.diff(s, t), sympy.diff(s, e)
        # -dS/de - dS/dt >= 0 exactly when tan(t) >= tan(e): with dS/dt > 0
        # the gradient points between -90 and -45 degrees in (t, e)
        assert sympy.simplify(-s_e - s_t - 2 * q * sympy.cos(e) ** 2 * sympy.cos(t)
                              * (sympy.tan(t) - sympy.tan(e)) / sympy.sin(e) ** 2) == 0
        # the m_lo curve a*sin(t) - sin(e) <= 0 has outward normal
        # (a*cos(t), -cos(e)), a = sin(e)/sin(t): slope ratio tan(e)/tan(t),
        # steeper than the gradient by sin(e)**2*sin(t - e)/(sin(t)*cos(e))
        a = sympy.sin(e) / sympy.sin(t)
        assert sympy.simplify(a * sympy.cos(t) / sympy.cos(e)
                              - sympy.tan(e) / sympy.tan(t)) == 0
        assert sympy.simplify(s_t / -s_e - sympy.tan(e) / sympy.tan(t)
                              - sympy.sin(e) ** 2 * sympy.sin(t - e)
                              / (sympy.sin(t) * sympy.cos(e))) == 0

        # which pairs of outward normals hold the gradient in their cone,
        # over random points and curve slopes g' < 1 (rising branch g' > 0)
        # and h' <= 0
        grad = sympy.lambdify((t, e), (s_t.subs(q, 1), s_e.subs(q, 1)), "math")
        rng = random.Random(11)
        held = set()
        for _ in range(3000):
            e_num = rng.uniform(0.01, 1.5)
            t_num = rng.uniform(e_num + 1e-3, 1.56)
            a_num = math.sin(e_num) / math.sin(t_num)
            m_lo = (a_num * math.cos(t_num), -math.cos(e_num))
            normals = {
                "t_hi": (1.0, 0.0), "t_lo": (-1.0, 0.0),
                "r_hi": (0.0, -1.0), "r_lo": (0.0, 1.0),
                "m_lo": m_lo, "m_hi": (-m_lo[0], -m_lo[1]),
                "d_end_rising": (1.0, -rng.uniform(0.0, 1.0)),
                "d_end_falling": (1.0, rng.uniform(0.0, 5.0)),
                "d_init": (1.0, rng.uniform(0.0, 5.0)),
            }
            gx, gy = grad(t_num, e_num)
            names = sorted(normals)
            for i, first in enumerate(names):
                for second in names[i + 1:]:
                    (ux, uy), (vx, vy) = normals[first], normals[second]
                    det = ux * vy - uy * vx
                    if abs(det) < 1e-9:  # the two bounds of one variable
                        continue
                    if ((gx * vy - gy * vx) / det >= 0.0
                            and (ux * gy - uy * gx) / det >= 0.0):
                        held.add((first, second))
        assert held == {
            ("r_hi", "t_hi"), ("m_lo", "t_hi"), ("d_end_rising", "t_lo"),
            ("d_end_rising", "r_hi"), ("d_end_falling", "r_hi"),
            ("d_init", "r_hi"), ("m_lo", "r_lo"), ("d_end_rising", "m_lo"),
            ("d_end_falling", "m_lo"), ("d_init", "m_lo"),
        }


class TestMaximizeStroke:
    def test_unconstrained_pushes_to_bounds(self):
        problem = make_problem()
        result = maximize_stroke(problem)
        assert result.dims.m == pytest.approx(problem.m_bounds[0])
        assert result.dims.theta_init == pytest.approx(problem.theta_init_bounds[1])
        assert result.dims.theta_end == pytest.approx(
            theta_end_min(result.dims.r, problem.d_axis, problem.r_edge))
        assert "m_lower_bound" in result.active_constraints
        assert "theta_init_upper_bound" in result.active_constraints

    def test_collapsed_bounds_return_that_point(self):
        problem = make_problem(m_bounds=(0.012, 0.012),
                               theta_init_bounds=(1.0, 1.0))
        result = maximize_stroke(problem)
        assert result.dims.m == pytest.approx(0.012)
        assert result.dims.theta_init == pytest.approx(1.0)

    def test_matches_grid_oracle(self):
        problem = make_problem()
        result = maximize_stroke(problem)
        oracle = grid_max_stroke(problem)
        assert oracle is not None
        assert result.stroke == pytest.approx(oracle[0], rel=1e-4)

    def test_budget_bound_instance_matches_fine_oracle(self):
        problem = make_problem(theta_init_bounds=(0.9, 1.45), grip_budget=30.0)
        result = maximize_stroke(problem)
        demand = grip_demand(result.dims, problem.spring, problem.grasp)
        assert demand <= problem.grip_budget * (1.0 + 1e-12)
        assert "grip_budget" in result.active_constraints
        oracle = grid_max_stroke(problem, n_m=201, n_theta=2001)
        assert result.stroke == pytest.approx(oracle[0], rel=1e-4)
        # refinement may only improve on the grid
        assert result.stroke >= oracle[0] - 1e-12

    def test_output_always_feasible(self):
        for budget in (25.0, 40.0, 1e6):
            problem = make_problem(grip_budget=budget)
            result = maximize_stroke(problem)
            assert check_feasible(result.dims) == []
            assert grip_demand(result.dims, problem.spring, problem.grasp) <= budget
            assert result.stroke == pytest.approx(stroke(result.dims))

    def test_infeasible_problem_reports_binding_constraints(self):
        problem = make_problem(grip_budget=0.001)
        with pytest.raises(InfeasibleProblemError) as exc_info:
            maximize_stroke(problem)
        assert any(v.constraint == "grip_budget" for v in exc_info.value.violations)

    def test_empty_geometry_reports(self):
        # r bounds exclude every width-tied linkage length
        problem = make_problem(r_bounds=(0.0001, 0.0002))
        with pytest.raises(InfeasibleProblemError):
            maximize_stroke(problem)

    def test_deterministic(self):
        problem = make_problem(theta_init_bounds=(0.9, 1.45), grip_budget=30.0)
        a = maximize_stroke(problem)
        b = maximize_stroke(problem)
        assert a.stroke == b.stroke
        assert a.dims == b.dims

    def test_golden_optimize_reports_demand_end_and_candidates(self):
        root = Path(__file__).resolve().parent.parent
        dims, spring, _, state = parse_design(
            (root / "designs" / "example_tool.ini").read_text())
        problem = SizingProblem(
            d_axis=dims.d_axis, r_edge=dims.r_edge, k=dims.k, w_init=dims.w_init,
            m_bounds=(0.008, 0.03), r_bounds=(0.005, 0.08),
            theta_init_bounds=(math.radians(40), math.radians(83)),
            grip_budget=36.0, spring=spring, grasp=state, v=dims.v)
        result = maximize_stroke(problem)
        assert result.demand_end == "theta_end"
        at_end = required_grip_force(result.dims, spring,
                                     replace(state, theta=result.dims.theta_end))
        at_init = required_grip_force(result.dims, spring,
                                      replace(state, theta=result.dims.theta_init))
        assert at_end >= at_init
        # a few dozen checked points, not a grid
        assert 4 <= result.candidates <= 100

    def test_instance_a_second_root_at_theta_init_lower_bound(self):
        problem = SizingProblem(
            d_axis=0.0067, r_edge=0.0014, k=0.072, w_init=0.0572,
            m_bounds=(0.0126, 0.0419), r_bounds=(0.0089, 0.093),
            theta_init_bounds=(0.725, 1.028), grip_budget=25.0,
            spring=SpringSpec(kappa=0.92, beta=0.06),
            grasp=GraspState(f_n=40.0, g_tool=15.7, alpha=0.85, gamma=0.0,
                             d=0.0, d_com=0.03, theta=0.5,
                             config=GripConfig.BACKWARD_BASE))
        result = maximize_stroke(problem)
        assert result.stroke >= 0.00279087
        assert result.dims.theta_init == problem.theta_init_bounds[0]
        assert result.demand_end == "theta_end"
        assert "grip_budget" in result.active_constraints
        # the second root: the closed-end demand rises with theta_end there
        q = clearance_span(problem.d_axis, problem.r_edge)
        k_end = 2.0 * problem.v * problem.spring.kappa / q
        assert math.sin(result.dims.theta_end) ** 2 > problem.grip_budget / k_end

    def test_instance_b_solved_on_r_upper_bound(self):
        problem = SizingProblem(
            d_axis=0.0079922, r_edge=0.0010618, k=0.073996, w_init=0.080734,
            m_bounds=(0.0073484, 0.039141), r_bounds=(0.019735, 0.050626),
            theta_init_bounds=(0.60558, 1.2843), grip_budget=25.803,
            spring=SpringSpec(kappa=0.65898, beta=0.48825),
            grasp=GraspState(f_n=40.0, g_tool=28.669, alpha=2.3651, gamma=0.0,
                             d=0.0, d_com=0.03, theta=0.5,
                             config=GripConfig.FORWARD_BASE))
        result = maximize_stroke(problem)
        assert result.stroke >= 0.0398421
        assert "r_upper_bound" in result.active_constraints
        assert_passes_every_check(problem, result)

    def test_r_lower_bound_meets_m_lower_bound(self):
        # the optimum sits where the r lower bound meets the m lower bound:
        # sin(theta_init) = (w_init - m)/(2*r) there
        problem = SizingProblem(
            d_axis=0.0052434, r_edge=0.0013042, k=0.041306, w_init=0.035637,
            m_bounds=(0.0091978, 0.03805), r_bounds=(0.015253, 0.038723),
            theta_init_bounds=(0.8069, 1.1527), grip_budget=1e6,
            spring=SpringSpec(kappa=0.82646, beta=0.20379),
            grasp=GraspState(f_n=40.0, g_tool=31.502, alpha=2.3598, gamma=0.0,
                             d=0.0, d_com=0.03, theta=0.5,
                             config=GripConfig.FORWARD_BASE),
            v=1.8276)
        result = maximize_stroke(problem)
        assert_passes_every_check(problem, result)
        assert {"m_lower_bound", "r_lower_bound"} <= set(result.active_constraints)
        m, r = problem.m_bounds[0], problem.r_bounds[0]
        theta_init = math.asin((problem.w_init - m) / (2.0 * r))
        theta_end = math.asin(clearance_span(problem.d_axis, problem.r_edge) / r)
        assert result.stroke == pytest.approx(
            2.0 * r * math.sin(theta_init - theta_end), rel=1e-12)
        scan = grid_max_stroke(problem, n_m=401, n_theta=401, grip_samples=2)
        assert scan[0] <= result.stroke * (1.0 + 1e-12)

    def test_r_upper_bound_meets_open_end_demand(self):
        # the optimum sits where the r upper bound meets D_init = B, on the
        # rising branch theta_init = phi - asin(K*beta*sin(theta_end)/R)
        problem = SizingProblem(
            d_axis=0.0072893, r_edge=0.0011629, k=0.05944, w_init=0.11219,
            m_bounds=(0.012208, 0.046848), r_bounds=(0.0095209, 0.045565),
            theta_init_bounds=(0.42345, 1.4653), grip_budget=22.945,
            spring=SpringSpec(kappa=0.24088, beta=0.44737),
            grasp=GraspState(f_n=40.0, g_tool=2.1645, alpha=2.4982, gamma=0.0,
                             d=0.0, d_com=0.03, theta=0.5,
                             config=GripConfig.FORWARD_BASE))
        result = maximize_stroke(problem)
        assert_passes_every_check(problem, result)
        assert result.demand_end == "theta_init"
        assert {"r_upper_bound", "grip_budget"} <= set(result.active_constraints)
        q = clearance_span(problem.d_axis, problem.r_edge)
        k_end = 2.0 * problem.v * problem.spring.kappa / q
        a = -problem.grasp.g_tool * math.cos(problem.grasp.alpha) / 2.0
        b = problem.grip_budget
        c = k_end * problem.spring.beta * q / problem.r_bounds[1] / math.hypot(a, b)
        assert result.dims.theta_init == pytest.approx(
            math.atan2(b, a) - math.asin(c), rel=1e-12)
        scan = grid_max_stroke(problem, n_m=401, n_theta=401, grip_samples=2)
        assert scan[0] <= result.stroke * (1.0 + 1e-12)

    def test_theta_init_upper_bound_meets_r_upper_bound(self):
        # the optimum is the box corner theta_init = t_hi, r = r_hi
        problem = SizingProblem(
            d_axis=0.0047497, r_edge=0.00083182, k=0.078066, w_init=0.10109,
            m_bounds=(0.010162, 0.022529), r_bounds=(0.017085, 0.041447),
            theta_init_bounds=(0.7062, 1.2924), grip_budget=46.942,
            spring=SpringSpec(kappa=0.4946, beta=0.23415),
            grasp=GraspState(f_n=40.0, g_tool=5.4888, alpha=1.8571, gamma=0.0,
                             d=0.0, d_com=0.03, theta=0.5,
                             config=GripConfig.BACKWARD_BASE),
            v=0.76489)
        result = maximize_stroke(problem)
        assert_passes_every_check(problem, result)
        assert {"r_upper_bound", "theta_init_upper_bound"} <= set(
            result.active_constraints)
        r, t = problem.r_bounds[1], problem.theta_init_bounds[1]
        theta_end = math.asin(clearance_span(problem.d_axis, problem.r_edge) / r)
        assert result.dims.theta_init == t
        assert result.stroke == pytest.approx(
            2.0 * r * math.sin(t - theta_end), rel=1e-12)
        scan = grid_max_stroke(problem, n_m=401, n_theta=401, grip_samples=2)
        assert scan[0] <= result.stroke * (1.0 + 1e-12)

    def test_m_lower_bound_meets_open_end_demand(self):
        # along the m curve D_init = (A + K*beta*a)*tan(theta_init), so the
        # optimum has tan(theta_init) = B/(A + K*beta*a)
        problem = SizingProblem(
            d_axis=0.0024516, r_edge=0.0013191, k=0.06422, w_init=0.11301,
            m_bounds=(0.012371, 0.041111), r_bounds=(0.016486, 0.0949),
            theta_init_bounds=(0.5111, 1.3426), grip_budget=53.555,
            spring=SpringSpec(kappa=0.53372, beta=0.47432),
            grasp=GraspState(f_n=40.0, g_tool=26.041, alpha=1.7995, gamma=0.0,
                             d=0.0, d_com=0.03, theta=0.5,
                             config=GripConfig.FORWARD_BASE))
        result = maximize_stroke(problem)
        assert_passes_every_check(problem, result)
        assert result.demand_end == "theta_init"
        assert {"m_lower_bound", "grip_budget"} <= set(result.active_constraints)
        q = clearance_span(problem.d_axis, problem.r_edge)
        k_end = 2.0 * problem.v * problem.spring.kappa / q
        a = 2.0 * q / (problem.w_init - problem.m_bounds[0])
        a_grav = -problem.grasp.g_tool * math.cos(problem.grasp.alpha) / 2.0
        assert result.dims.m == problem.m_bounds[0]
        assert result.dims.theta_init == pytest.approx(math.atan2(
            problem.grip_budget, a_grav + k_end * problem.spring.beta * a),
            rel=1e-12)
        scan = grid_max_stroke(problem, n_m=401, n_theta=401, grip_samples=2)
        assert scan[0] <= result.stroke * (1.0 + 1e-12)

    def test_collapsed_r_bounds_step_along_the_r_curve(self):
        # with r_lo == r_hi a point is feasible only where r rounds to that
        # one float; the optimum is where the r curve meets m_lo
        problem = SizingProblem(
            d_axis=0.0048454303147199, r_edge=0.0008113610732637722,
            k=0.06402776875229356, w_init=0.05961348843442575,
            m_bounds=(0.014152312031487597, 0.04042819860215691),
            r_bounds=(0.04278032722466399,) * 2,
            theta_init_bounds=(0.5124933850194491, 1.2742075901578354),
            grip_budget=47.08562256956821,
            spring=SpringSpec(kappa=0.42397502863963443,
                              beta=0.18320421201262835),
            grasp=GraspState(f_n=40, g_tool=15.551524990976523,
                             alpha=1.8307064365268586, gamma=0, d=0, d_com=0.03,
                             theta=0.5, config=GripConfig.BACKWARD_BASE))
        result = maximize_stroke(problem)
        assert_passes_every_check(problem, result)
        assert result.stroke >= 0.0339793
        assert "m_lower_bound" in result.active_constraints
        scan = line_max_stroke(problem, problem.r_bounds[0])
        assert scan[0] <= result.stroke * (1.0 + 1e-12)

    def test_collapsed_r_bounds_beat_a_line_scan(self):
        # each draw with its r bounds collapsed to r_lo and to r_hi
        rng = random.Random(2027)
        solved = 0
        for _ in range(100):
            drawn = draw_problem(rng)
            for r in drawn.r_bounds:
                problem = replace(drawn, r_bounds=(r, r))
                scan = line_max_stroke(problem, r, n_theta=201)
                try:
                    result = maximize_stroke(problem)
                except InfeasibleProblemError:
                    assert scan is None
                    continue
                assert_passes_every_check(problem, result)
                if scan is not None:
                    assert scan[0] <= result.stroke * (1.0 + 1e-12)
                solved += 1
        assert solved >= 30

    def test_r_bounds_a_few_ulps_apart_beat_a_line_scan(self):
        # r_bounds = (r, r + k ulps), r at either drawn bound: the result
        # beats a scan along the r curve of every float in the band, and
        # a refusal needs every scan to find nothing
        rng = random.Random(2029)
        solved = 0
        for _ in range(120):
            drawn = draw_problem(rng)
            for r in drawn.r_bounds:
                band = [r]
                for _ in range(3):
                    band.append(math.nextafter(band[-1], math.inf))
                for k in (1, 2, 3):
                    problem = replace(drawn, r_bounds=(r, band[k]))
                    scans = [scan for scan in (line_max_stroke(problem, r_k, n_theta=201)
                                               for r_k in band[:k + 1]) if scan]
                    try:
                        result = maximize_stroke(problem)
                    except InfeasibleProblemError:
                        assert scans == []
                        continue
                    assert_passes_every_check(problem, result)
                    for scan in scans:
                        assert scan[0] <= result.stroke * (1.0 + 1e-12)
                    solved += 1
        assert solved >= 100

    def test_candidates_lie_on_the_eight_pairings(self):
        pairings = [{"t_hi", "r_hi"}, {"t_hi", "m_lo"}, {"t_lo", "d_end"},
                    {"r_hi", "d_end"}, {"r_hi", "d_init"}, {"r_lo", "m_lo"},
                    {"m_lo", "d_end"}, {"m_lo", "d_init"}]
        rng = random.Random(2028)
        for _ in range(60):
            problem = draw_problem(rng)
            points = list(_candidates(problem))
            assert len(points) <= len(pairings)
            t_lo, t_hi = problem.theta_init_bounds
            for m, t, _ in points:
                # a point outside the t bounds fails its first check
                if t_lo <= t <= t_hi:
                    on = curves_through(problem, m, t)
                    assert any(pair <= on for pair in pairings), on

    def test_m_upper_bound_below_clearance_span_is_infeasible(self):
        # m_hi < q: every m within bounds violates the edge clearance
        problem = make_problem(m_bounds=(0.002, 0.005))
        assert problem.m_bounds[1] < clearance_span(problem.d_axis, problem.r_edge)
        assert grid_max_stroke(problem) is None
        with pytest.raises(InfeasibleProblemError):
            maximize_stroke(problem)

    def test_only_an_r_bound_refusal_takes_the_r_step(self):
        problem = make_problem(m_bounds=(0.008, 0.075),
                               theta_init_bounds=(0.1, 1.4))
        # r = 0.0501 is within bounds, but its closed angle exceeds theta_init
        m, theta_init = 0.07, 0.1
        assert build_dimensions(problem, m, theta_init) is None
        assert _evaluate(problem, m, theta_init) == (None, "dims")
        assert _evaluate(problem, 0.012, theta_init) == (None, "r")
        steps = []

        def r_step(m, t, n):
            steps.append(n)
            return m, t

        assert _realize(problem, m, theta_init, {"r": r_step}) == (None, 1)
        assert steps == []

    def test_no_point_of_a_dense_scan_beats_it(self):
        # wide ranges of every parameter; about one draw in six has no
        # feasible design
        rng = random.Random(2026)
        solved = 0
        for _ in range(60):
            problem = draw_problem(rng)
            scan = grid_max_stroke(problem, n_m=301, n_theta=301, grip_samples=2)
            try:
                result = maximize_stroke(problem)
            except InfeasibleProblemError:
                assert scan is None
                continue
            assert_passes_every_check(problem, result)
            if scan is not None:
                assert scan[0] <= result.stroke * (1.0 + 1e-12)
            solved += 1
        assert solved >= 30


def draw_problem(rng):
    mm = 1e-3
    return SizingProblem(
        d_axis=rng.uniform(2, 8) * mm, r_edge=rng.uniform(0.5, 2) * mm,
        k=rng.uniform(20, 80) * mm, w_init=rng.uniform(50, 120) * mm,
        m_bounds=(rng.uniform(5, 15) * mm, rng.uniform(20, 50) * mm),
        r_bounds=(rng.uniform(3, 20) * mm, rng.uniform(40, 100) * mm),
        theta_init_bounds=(rng.uniform(0.3, 0.9), rng.uniform(1.0, 1.5)),
        grip_budget=1e6 if rng.random() < 0.2 else rng.uniform(10, 60),
        spring=SpringSpec(kappa=rng.uniform(0.2, 1.0), beta=rng.uniform(0, 0.6)),
        grasp=GraspState(f_n=40.0, g_tool=rng.uniform(1, 30),
                         alpha=rng.uniform(0, math.pi), gamma=0.0, d=0.0,
                         d_com=0.03, theta=0.5,
                         config=rng.choice(list(GripConfig))))


def curves_through(problem, m, theta_init):
    """The curves of the sizing docstring that (m, theta_init) lies on."""
    q = clearance_span(problem.d_axis, problem.r_edge)
    t = theta_init
    r = (problem.w_init - m) / (2.0 * math.sin(t))
    e = math.asin(min(1.0, q / r))
    grasp, spring = problem.grasp, problem.spring
    a_grav = grasp.g_tool * math.cos(grasp.alpha) / 2.0
    if grasp.config is GripConfig.FORWARD_BASE:
        a_grav = -a_grav

    def demand(theta):
        return (a_grav * math.tan(theta) + 2.0 * problem.v * spring.kappa
                * (spring.beta + t - theta) / (r * math.cos(theta)))

    budget = problem.grip_budget
    on = {
        "t_lo": t == problem.theta_init_bounds[0],
        "t_hi": t == problem.theta_init_bounds[1],
        "m_lo": m == max(problem.m_bounds[0], q),
        "r_lo": math.isclose(r, problem.r_bounds[0], rel_tol=1e-12),
        "r_hi": math.isclose(r, problem.r_bounds[1], rel_tol=1e-12),
        "d_end": math.isclose(demand(e), budget, rel_tol=1e-9),
        "d_init": math.isclose(demand(t), budget, rel_tol=1e-9),
    }
    return {name for name, hit in on.items() if hit}


def assert_passes_every_check(problem, result):
    dims = result.dims
    assert check_feasible(dims) == []
    assert problem.m_bounds[0] <= dims.m <= problem.m_bounds[1]
    assert problem.r_bounds[0] <= dims.r <= problem.r_bounds[1]
    t_lo, t_hi = problem.theta_init_bounds
    assert t_lo <= dims.theta_init <= t_hi
    assert dims.theta_end == theta_end_min(dims.r, problem.d_axis, problem.r_edge)
    assert grip_demand(dims, problem.spring, problem.grasp) <= problem.grip_budget
    assert result.stroke == stroke(dims)


class TestSizingProblem:
    @pytest.mark.parametrize("value", (math.nan, math.inf))
    @pytest.mark.parametrize("name", [
        "d_axis", "r_edge", "k", "w_init", "v", "grip_budget",
        "m_bounds", "r_bounds", "theta_init_bounds"])
    def test_non_finite_rejected(self, name, value):
        problem = make_problem()
        bad = (getattr(problem, name)[0], value) if name.endswith("_bounds") else value
        with pytest.raises(ValueError, match=f"SizingProblem.{name} must be finite"):
            replace(problem, **{name: bad})
