import math
from dataclasses import replace

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
    required_grip_force,
    stroke,
    theta_end_min,
)
from grippertool.sizing import _coarse_grid, build_dimensions

from oracles import grid_max_stroke


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

    def test_vectorized_grid_matches_scalar(self):
        # the optimizer's numpy path must agree with the scalar formula
        problem = make_problem(grip_budget=30.0)
        ms, ts, strokes = _coarse_grid(problem, 41)
        import numpy as np
        checked = 0
        for i in range(0, 41, 8):
            for j in range(0, 41, 8):
                dims = build_dimensions(problem, float(ms[i]), float(ts[j]))
                within = np.isfinite(strokes[i, j])
                if dims is None:
                    assert not within
                    continue
                demand = grip_demand(dims, problem.spring, problem.grasp)
                assert within == (demand <= problem.grip_budget)
                if within:
                    assert strokes[i, j] == pytest.approx(stroke(dims), rel=1e-12)
                checked += 1
        assert checked > 5


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
