import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import assume, given, strategies as st

from grippertool import (
    DomainError,
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
)
from grippertool import contact, mechanism, sizing
from grippertool.sizing import (_boundary, _candidates, _end_demands, _evaluate, _realize,
                                 build_dimensions)

from oracles import grid_max_stroke, line_max_stroke
from sizing_cases import draw_case, draw_problem
from symbolic import on_symbols


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


def example_problem(m_bounds, r_bounds):
    """The optimize golden's problem on designs/example_tool.ini, with the
    given m and r bounds."""
    root = Path(__file__).resolve().parent.parent
    dims, spring, _, state = parse_design(
        (root / "designs" / "example_tool.ini").read_text())
    return SizingProblem(
        d_axis=dims.d_axis, r_edge=dims.r_edge, k=dims.k, w_init=dims.w_init,
        m_bounds=m_bounds, r_bounds=r_bounds,
        theta_init_bounds=(math.radians(40), math.radians(83)),
        grip_budget=36.0, spring=spring, grasp=state, v=dims.v)


def tied(problem, m, theta_init):
    """The (m, r, theta_init) point the width tie gives at (m, theta_init)."""
    return m, (problem.w_init - m) / (2.0 * math.sin(theta_init)), theta_init


def feasible_dims(m=0.012, r=0.03, theta_init=math.radians(60),
                  theta_end=math.radians(12)):
    return ToolDimensions.with_derived_width(
        m=m, r=r, theta_init=theta_init, theta_end=theta_end,
        h=0.032, p=0.011, q=0.006, k=0.05, d_axis=0.004, r_edge=0.001)


class TestThetaEndMin:
    def test_closed_angle_is_none_past_the_span(self):
        q = clearance_span(0.004, 0.001)
        assert mechanism._closed_angle(q, 0.005) is None
        assert mechanism._closed_angle(q, q) == math.pi / 2
        assert mechanism._closed_angle(q, 0.03) == pytest.approx(math.asin(0.2))
        assert mechanism._closed_angle(q, 0.03) == pytest.approx(0.2014, abs=1e-4)


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
        assert check_feasible(dims) == [mechanism.Violation("theta_init_singular", 0.0)]

    def test_linkage_shorter_than_span_carries_margin(self):
        dims = feasible_dims(r=0.005)
        q = clearance_span(dims.d_axis, dims.r_edge)
        assert check_feasible(dims) == [mechanism.Violation("theta_end_min", dims.r - q)]

    def test_p_and_h_violations(self):
        dims = ToolDimensions.with_derived_width(
            m=0.012, r=0.03, theta_init=math.radians(60), theta_end=math.radians(12),
            h=0.01, p=0.001, q=0.006, k=0.05, d_axis=0.004, r_edge=0.001)
        names = {v.constraint for v in check_feasible(dims)}
        assert {"p_linkage_clearance", "h_bar_overlap"} <= names

    def test_every_built_design_passes(self, monkeypatch):
        # build_dimensions holds theta_end, p and h at their limits, so no
        # design it returns fails a check: every one a solve builds, and
        # random points of each bounds box, collapsed r bounds included
        built = []

        def recording(problem, m, r, theta_init):
            dims = build_dimensions(problem, m, r, theta_init)
            if dims is not None:
                built.append((problem, dims))
            return dims

        monkeypatch.setattr(sizing, "build_dimensions", recording)
        rng = random.Random(2033)
        for seed in range(600):
            problem = draw_case(seed)
            try:
                maximize_stroke(problem)
            except InfeasibleProblemError:
                pass
            for _ in range(5):
                recording(problem, *tied(problem, rng.uniform(*problem.m_bounds),
                                         rng.uniform(*problem.theta_init_bounds)))
        assert all(check_feasible(dims) == [] for _, dims in built)
        collapsed = sum(problem.r_bounds[0] == problem.r_bounds[1] for problem, _ in built)
        assert len(built) >= 2000 and collapsed >= 50


class TestBoundMargins:
    NAMES = ("m_lower_bound", "m_upper_bound", "m_edge_clearance", "r_lower_bound",
             "r_upper_bound", "theta_init_lower_bound", "theta_init_upper_bound")

    def test_inside_the_box_every_margin_holds(self):
        table = sizing._bound_margins(make_problem(), 0.01, 0.04, 1.0)
        assert tuple(name for name, _, _ in table) == self.NAMES
        assert all(margin >= 0.0 for _, margin, _ in table)
        assert [scale for _, _, scale in table] == [0.01] * 3 + [0.04] * 2 + [1.0] * 2

    @pytest.mark.parametrize("m, r, theta_init, failed", [
        (0.007, 0.04, 1.0, "m_lower_bound"),
        (0.031, 0.04, 1.0, "m_upper_bound"),
        (0.01, 0.004, 1.0, "r_lower_bound"),
        (0.01, 0.081, 1.0, "r_upper_bound"),
        (0.01, 0.04, 0.5, "theta_init_lower_bound"),
        (0.01, 0.04, 1.5, "theta_init_upper_bound"),
    ])
    def test_outside_one_bound_only_its_margin_fails(self, m, r, theta_init, failed):
        table = sizing._bound_margins(make_problem(), m, r, theta_init)
        assert [name for name, margin, _ in table if margin < 0.0] == [failed]

    def test_active_constraints_name_the_corner_a_design_sits_on(self):
        problem = make_problem()
        upper = build_dimensions(problem, *tied(problem, 0.03, 1.4))
        demand = grip_demand(upper, problem.spring, problem.grasp)
        assert sizing._active_constraints(problem, upper, demand) == (
            "m_upper_bound", "theta_init_upper_bound", "theta_end_min")
        lower = build_dimensions(problem, *tied(problem, 0.008, 0.6))
        demand = grip_demand(lower, problem.spring, problem.grasp)
        assert sizing._active_constraints(problem, lower, demand) == (
            "m_lower_bound", "theta_init_lower_bound", "theta_end_min")


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
        # contact's own grip force is f(theta) = A*tan(theta) +
        # B*(c - theta)/cos(theta) with A = +-G*cos(alpha)/2,
        # B = 2*v*kappa/r > 0, c = beta + theta_init. cos^2*f' = A + B*k
        # and k' = (c - theta)*cos(theta) >= 0 on the travel, so f'
        # changes sign at most once, from - to +.
        theta, alpha = sympy.symbols("theta alpha", real=True)
        g, v, r, kappa, beta, theta_init = sympy.symbols("G v r kappa beta theta_init",
                                                         positive=True)
        dims = SimpleNamespace(v=v, r=r, theta_init=theta_init)
        spring = SimpleNamespace(kappa=kappa, beta=beta)
        c = beta + theta_init
        k = (c - theta) * sympy.sin(theta) - sympy.cos(theta)
        for config, sign in ((GripConfig.BACKWARD_BASE, 1), (GripConfig.FORWARD_BASE, -1)):
            f = on_symbols(contact._grip_force, dims, spring, g, alpha, theta, config)[0]
            a = sign * g * sympy.cos(alpha) / 2
            assert sympy.simplify(
                sympy.cos(theta) ** 2 * sympy.diff(f, theta) - (a + 2 * v * kappa / r * k)) == 0
        assert sympy.simplify(
            sympy.diff(k, theta) - (c - theta) * sympy.cos(theta)) == 0

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

    def test_end_demands_match_required_grip_force_bit_for_bit(self):
        # _end_demands evaluates the travel ends without a GraspState copy
        rng = random.Random(2031)
        designs = 0
        for _ in range(500):
            problem = draw_problem(rng)
            dims = build_dimensions(problem, *tied(problem, rng.uniform(*problem.m_bounds),
                                                   rng.uniform(*problem.theta_init_bounds)))
            if dims is None:
                continue
            designs += 1
            spring, grasp = problem.spring, problem.grasp
            expected = [required_grip_force(dims, spring, replace(grasp, theta=theta))
                        for theta in (dims.theta_end, dims.theta_init)]
            got = _end_demands(dims, spring, grasp)
            assert [x.hex() for x in got] == [x.hex() for x in expected]
        assert designs >= 100


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
        s = on_symbols(mechanism.stroke,
                       SimpleNamespace(r=q / sympy.sin(e), theta_init=t, theta_end=e))
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
        for m, theta_init in ((0.01, 0.9), (0.02, 1.3), (0.008, 1.4)):
            dims = build_dimensions(problem, *tied(problem, m, theta_init))
            e_num = dims.theta_end
            assert math.sin(e_num) == pytest.approx(q_num / dims.r, rel=1e-14)
            assert dims.m == pytest.approx(
                problem.w_init - 2 * q_num * math.sin(theta_init) / math.sin(e_num),
                rel=1e-12)

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


def floats_from(x, count):
    """count consecutive floats starting at x, upward."""
    out = [x]
    while len(out) < count:
        out.append(math.nextafter(out[-1], math.inf))
    return out


class TestBoundary:
    """_boundary: the float next to a switch of f(x) <= 0, bracketed by an
    adjacent float on the other side."""

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: x - 0.7, 0.0, 1.0),
        (lambda x: 0.7 - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 2.0, -3.0, 5.0),
        (lambda x: 3.0 - math.tan(x), 0.1, 1.5),
        (lambda x: x ** 9 - 1e-6, 0.0, 2.0),
        (lambda x: math.inf if x > 0.9 else x - 0.3, 0.0, 1.0),
        (lambda x: math.sqrt(x) - 0.1 if x > 1e-3 else -math.inf, 0.0, 1.0),
        (lambda x: 1e-300 * (x - 0.25), 0.0, 1.0),
        (lambda x: x - 5e-324, 0.0, 1.0),
    ])
    def test_monotone_function_gives_adjacent_floats(self, f, lo, hi):
        def ok(x):
            return f(x) <= 0.0
        calls = []
        x = _boundary(lambda x: calls.append(x) or f(x), lo, hi)
        other = math.nextafter(x, hi if ok(lo) else lo)
        assert ok(x) and not ok(other)
        # no more than bisection to adjacent floats would take; regula
        # falsi without the Illinois rule needs 10**8 on x**9
        assert len(calls) <= 64

    def test_matches_bisection_where_the_predicate_switches_once(self):
        rng = random.Random(7)
        for _ in range(200):
            root, scale = rng.uniform(0.2, 0.8), 10 ** rng.uniform(-3, 3)
            lo, hi = 0.0, 1.0
            x = _boundary(lambda x: scale * (math.sin(x) - math.sin(root)), lo, hi)
            while True:   # the bisection the result must agree with
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                lo, hi = (mid, hi) if math.sin(mid) <= math.sin(root) else (lo, mid)
            assert x == lo

    @pytest.mark.parametrize("pattern", ["1111101000000", "1110000101000",
                                         "1111100111000000", "1010101000000"])
    @pytest.mark.parametrize("slope", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("ok_low", [True, False])
    def test_several_switches_within_a_few_ulps(self, pattern, slope, ok_low):
        # f(x) <= 0 follows pattern (1 = ok) on consecutive floats from x0,
        # as a rounded demand near its budget can
        x0 = 0.7
        window = floats_from(x0, len(pattern))
        if not ok_low:
            pattern = pattern[::-1]
        marks = dict(zip(window, pattern))

        def f(x):
            if x in marks:
                return -1e-16 if marks[x] == "1" else 1e-16
            return slope * (x - x0) * (1.0 if ok_low else -1.0)

        x = _boundary(f, 0.0, 1.0)
        inward = math.nextafter(x, 1.0 if ok_low else 0.0)
        assert f(x) <= 0.0 < f(inward)
        assert x in marks and inward in marks

    def test_ends_of_equal_value_take_the_midpoint(self):
        # f is 0 from lo up to about 3.4e-300, where the product underflows:
        # bisecting down to it halves f_hi into f_lo, and 0/0 once raised
        def f(x):
            return 1.44e-24 * x
        x = _boundary(f, 0.0, 2.0)
        assert f(x) <= 0.0 < f(math.nextafter(x, 2.0))

    @pytest.mark.parametrize("f", [lambda x: -1.0, lambda x: x - 2.0,
                                   lambda x: 1.0, lambda x: math.nan])
    def test_none_when_the_ends_agree(self, f):
        assert _boundary(f, 0.0, 1.0) is None

    def test_few_evaluations_per_root(self, monkeypatch):
        # plain bisection took about 53 evaluations per root
        counts = []

        def counting(f, lo, hi):
            calls = []
            root = _boundary(lambda x: calls.append(x) or f(x), lo, hi)
            if root is not None:
                counts.append(len(calls))
            return root

        monkeypatch.setattr(sizing, "_boundary", counting)
        rng = random.Random(2030)
        for _ in range(300):
            list(_candidates(draw_problem(rng)))
        assert len(counts) >= 100
        assert sum(counts) / len(counts) <= 16


class TestMaximizeStroke:
    def test_unconstrained_pushes_to_bounds(self):
        problem = make_problem()
        result = maximize_stroke(problem)
        assert result.dims.m == pytest.approx(problem.m_bounds[0])
        assert result.dims.theta_init == pytest.approx(problem.theta_init_bounds[1])
        assert result.dims.theta_end == pytest.approx(mechanism._closed_angle(
            clearance_span(problem.d_axis, problem.r_edge), result.dims.r))
        assert "m_lower_bound" in result.active_constraints
        assert "theta_init_upper_bound" in result.active_constraints

    def test_result_is_hashable_and_its_names_frozen(self):
        result = maximize_stroke(make_problem())
        assert hash(result) == hash(maximize_stroke(make_problem()))
        assert isinstance(result.active_constraints, tuple)
        with pytest.raises(AttributeError):
            result.active_constraints.append("grip_budget")

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
        problem = example_problem(m_bounds=(0.008, 0.03), r_bounds=(0.005, 0.08))
        spring, state = problem.spring, problem.grasp
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
            stroke(SimpleNamespace(r=r, theta_init=theta_init, theta_end=theta_end)), rel=1e-12)
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
            stroke(SimpleNamespace(r=r, theta_init=t, theta_end=theta_end)), rel=1e-12)
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
        # with r_lo == r_hi the feasible set is the one r curve, which each
        # candidate on it meets exactly; the optimum is where it meets m_lo
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
            for (m, r, t), _ in points:
                # a point outside the t bounds would fail its first check
                assert t_lo <= t <= t_hi
                assert m + 2.0 * r * math.sin(t) == pytest.approx(problem.w_init, rel=1e-14)
                on = curves_through(problem, m, r, t)
                assert any(pair <= on for pair in pairings), on

    def test_m_upper_bound_below_clearance_span_is_infeasible(self):
        # m_hi < q: every m within bounds violates the edge clearance
        problem = make_problem(m_bounds=(0.002, 0.005))
        assert problem.m_bounds[1] < clearance_span(problem.d_axis, problem.r_edge)
        assert grid_max_stroke(problem) is None
        with pytest.raises(InfeasibleProblemError) as exc_info:
            maximize_stroke(problem)
        assert str(exc_info.value) == (
            "no feasible design within bounds; binding: m_upper_bound (-0.001)")
        # an r bound fails at the diagnosed corner too: r is named first
        problem = example_problem(m_bounds=(0.0006, 0.0007), r_bounds=(0.005, 0.01))
        with pytest.raises(InfeasibleProblemError) as exc_info:
            maximize_stroke(problem)
        assert str(exc_info.value) == (
            "no feasible design within bounds; binding: "
            "r_upper_bound (-0.0191984), m_upper_bound (-0.0053)")

    def test_theta_init_outside_its_bounds_is_refused(self):
        # one float below and above the theta_init bounds, on the width
        # tie with m and r within theirs: each point builds, and only the
        # theta_init check refuses it
        problem = make_problem()
        t_lo, t_hi = problem.theta_init_bounds
        for theta_init in (math.nextafter(t_lo, 0.0), math.nextafter(t_hi, math.inf)):
            point = tied(problem, 0.012, theta_init)
            assert build_dimensions(problem, *point) is not None
            assert _evaluate(problem, *point) == (None, "theta_init")

    def test_only_a_budget_refusal_takes_a_step(self):
        problem = make_problem(m_bounds=(0.008, 0.075),
                               theta_init_bounds=(0.1, 1.4))
        # r = 0.0501 is within bounds, but its closed angle exceeds theta_init
        closed = tied(problem, 0.07, 0.1)
        assert build_dimensions(problem, *closed) is None
        assert _evaluate(problem, *closed) == (None, "dims")
        # r = 0.339 is beyond its upper bound
        too_long = tied(problem, 0.012, 0.1)
        assert _evaluate(problem, *too_long) == (None, "r")
        steps = []

        def step(m, r, t):
            steps.append(t)
            return tied(problem, m, math.nextafter(t, 0.0))

        for check in ("demand_end", "demand_init"):
            assert _realize(problem, closed, (check, step)) == (None, 1)
            assert _realize(problem, too_long, (check, step)) == (None, 1)
        assert steps == []
        # an over-budget point steps one float at a time, only between
        # checks, until its checks run out
        tight = replace(problem, grip_budget=1.0)
        assert _evaluate(tight, *tied(tight, 0.012, 1.0))[1] == "demand_end"
        assert _realize(tight, tied(tight, 0.012, 1.0), ("demand_end", step)) == (
            None, sizing._ULP_STEPS)
        assert len(steps) == sizing._ULP_STEPS - 1
        assert steps[0] == 1.0
        assert all(b == math.nextafter(a, 0.0) for a, b in zip(steps, steps[1:]))

    def test_a_walk_ends_on_the_first_float_that_passes(self):
        # each step moves the walked coordinate one float, m up or
        # theta_init down, and holds the curve the point lies on; a walk
        # that passes after a step passes nowhere before its last point
        walked = 0
        for seed in range(6000):
            problem = draw_case(seed)
            for point, walk in _candidates(problem):
                if walk is None:
                    continue
                check, step = walk
                dims, checks = _realize(problem, point, walk)
                if dims is None or checks == 1:
                    continue
                path = [point]
                for _ in range(checks - 1):
                    path.append(step(*path[-1]))
                for (m, r, t), (m2, r2, t2) in zip(path, path[1:]):
                    if t2 == t:   # on the t_lo bound
                        assert m2 == math.nextafter(m, math.inf), seed
                    else:         # on an m curve or an r curve
                        assert t2 == math.nextafter(t, 0.0), seed
                        assert m2 == m or r2 == r, seed
                assert path[-1] == (dims.m, dims.r, dims.theta_init)
                for earlier in path[:-1]:
                    assert _evaluate(problem, *earlier)[1] == check, seed
                walked += 1
        assert walked >= 300

    def test_seed_18393_walks_to_the_float_next_to_its_root(self):
        # its r_hi x D_end root fails its budget at theta_init and at
        # theta_init - 1 ulp, and passes at theta_init - 2 ulps, the float
        # its walk must end on
        problem = draw_case(18393)
        walked = [(point, walk) for point, walk in _candidates(problem)
                  if walk is not None and walk[0] == "demand_end"
                  and walk[1].__name__ == "t_down_at_r"]
        assert len(walked) == 1
        (m, r, t), walk = walked[0]
        dims, checks = _realize(problem, (m, r, t), walk)
        assert checks == 3
        assert dims.theta_init == math.nextafter(math.nextafter(t, 0.0), 0.0)
        result = maximize_stroke(problem)
        assert result.dims == dims
        assert result.stroke == float.fromhex("0x1.be0c96ab2b54ap-5")
        assert result.candidates == 9

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


def curves_through(problem, m, r, theta_init):
    """The curves of the sizing docstring that (m, r, theta_init) lies on."""
    q = clearance_span(problem.d_axis, problem.r_edge)
    t = theta_init
    e = math.asin(min(1.0, q / r))
    grasp, spring = problem.grasp, problem.spring
    dims = SimpleNamespace(v=problem.v, r=r, theta_init=t)

    def demand(theta):
        return contact._grip_force(dims, spring, grasp.g_tool, grasp.alpha, theta,
                                   grasp.config)[0]

    budget = problem.grip_budget
    on = {
        "t_lo": t == problem.theta_init_bounds[0],
        "t_hi": t == problem.theta_init_bounds[1],
        "m_lo": m == max(problem.m_bounds[0], q),
        "r_lo": r == problem.r_bounds[0],
        "r_hi": r == problem.r_bounds[1],
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
    assert dims.theta_end == mechanism._closed_angle(
        clearance_span(problem.d_axis, problem.r_edge), dims.r)
    assert grip_demand(dims, problem.spring, problem.grasp) <= problem.grip_budget
    assert result.stroke == stroke(dims)


# draw_case seeds with collapsed r bounds, with m_lo lowered: a scan along
# the r curve finds designs for each, so none may be refused
COLLAPSED_R_LOWERED_M = [
    (2121, 0.04073454494331093),
    (5058, 0.005764626128887694),
    (5058, 0.0053644294479183695),
    (5058, 0.006330348584341711),
    (5058, 0.006936497866602219),
    (8223, 0.0065373857929434415),
    (13629, 0.005752266626331126),
    (13629, 0.008448481984955845),
    (13629, 0.005618538842515166),
]

# the most a relaxation may shorten the stroke on this test's draw. A D_end
# root is next to one of the switches of the rounded budget check, and
# which one can move with the bracket. None of this draw shortens, but
# wider draws still find some: over seeds 0-26,999 with random.Random(7),
# 11 relaxations do, draw_case(21751) by 8 ulps when its theta_init
# upper bound widens
RELAXED_ULPS = 0


def relaxations(problem, rng):
    """problem with each of its bounds relaxed by a random factor, one at a
    time."""
    (m_lo, m_hi), (r_lo, r_hi) = problem.m_bounds, problem.r_bounds
    t_lo, t_hi = problem.theta_init_bounds
    return [
        replace(problem, grip_budget=problem.grip_budget * rng.uniform(1.0, 1.5)),
        replace(problem, m_bounds=(m_lo * rng.uniform(0.5, 1.0), m_hi)),
        replace(problem, m_bounds=(m_lo, m_hi * rng.uniform(1.0, 1.3))),
        replace(problem, r_bounds=(r_lo * rng.uniform(0.7, 1.0), r_hi)),
        replace(problem, r_bounds=(r_lo, r_hi * rng.uniform(1.0, 1.3))),
        replace(problem, theta_init_bounds=(t_lo * rng.uniform(0.7, 1.0), t_hi)),
        replace(problem, theta_init_bounds=(t_lo, min(1.57, t_hi * rng.uniform(1.0, 1.1)))),
    ]


class TestRelaxation:
    """Relaxing a bound only widens the feasible set, so it can neither
    refuse a solved problem nor shorten its maximum stroke."""

    @pytest.mark.parametrize("seed, m_lo", COLLAPSED_R_LOWERED_M)
    def test_collapsed_r_with_lowered_m_lo_beats_a_line_scan(self, seed, m_lo):
        drawn = draw_case(seed)
        r_lo, r_hi = drawn.r_bounds
        assert r_lo == r_hi and m_lo < drawn.m_bounds[0]
        problem = replace(drawn, m_bounds=(m_lo, drawn.m_bounds[1]))
        scan = line_max_stroke(problem, r_lo, n_theta=2001)
        assert scan is not None
        result = maximize_stroke(problem)
        assert_passes_every_check(problem, result)
        assert result.stroke >= scan[0]
        assert result.dims.r == r_lo

    def test_relaxing_one_bound_never_refuses_or_shortens(self):
        rng = random.Random(2032)
        solved, relaxed = 0, 0
        for seed in range(6000):
            problem = draw_case(seed)
            try:
                base = maximize_stroke(problem).stroke
            except InfeasibleProblemError:
                continue
            solved += 1
            for wider in relaxations(problem, rng):
                stroke = maximize_stroke(wider).stroke
                assert stroke >= base - RELAXED_ULPS * math.ulp(base), (seed, wider)
                relaxed += 1
        assert solved >= 3000 and relaxed == 7 * solved


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

    def test_zero_grip_budget_rejected(self):
        with pytest.raises(ValueError) as refused:
            make_problem(grip_budget=0.0)
        assert str(refused.value) == "SizingProblem.grip_budget must be > 0"

    @pytest.mark.parametrize("name, value, message", [
        *((name, value, f"SizingProblem.{name} must be > 0")
          for name in ("d_axis", "r_edge", "k", "w_init", "v", "grip_budget")
          for value in (0.0, -1.0)),
        *((name, bounds, f"SizingProblem.{name} must satisfy 0 < lo <= hi")
          for name in ("m_bounds", "r_bounds", "theta_init_bounds")
          for bounds in ((0.0, 0.5), (-0.5, 0.5), (0.5, 0.4))),
        ("theta_init_bounds", (0.6, math.pi / 2),
         "theta_init upper bound must stay below pi/2"),
        ("theta_init_bounds", (0.6, 2.0), "theta_init upper bound must stay below pi/2"),
    ])
    def test_out_of_range_rejected(self, name, value, message):
        with pytest.raises(ValueError) as refused:
            make_problem(**{name: value})
        assert str(refused.value) == message

    def test_underflowing_transmission_gain_is_domain_error(self):
        # 2*v*kappa/q rounds to 0, and the closed-end curve divides by it
        problem = make_problem(v=1e-200, spring=SpringSpec(kappa=1e-200, beta=0.3))
        with pytest.raises(DomainError) as refused:
            maximize_stroke(problem)
        assert str(refused.value) == ("2*v*kappa/q underflows to 0: "
                                      "v = 1e-200, kappa = 1e-200, q = 0.006")
