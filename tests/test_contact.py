import math

import pytest
from hypothesis import given, strategies as st

from grippertool import (
    ContactModel,
    DomainError,
    GraspState,
    GripConfig,
    InfeasibleHoldError,
    SingularTransmissionError,
    capacity_check,
    holding_max_offset,
    max_capacities,
    replace,
    required_grip_force,
)

from oracles import bisect_holding_offset, holding_feasible, holding_wrench


def state_with(**kwargs):
    base = dict(f_n=40.0, g_tool=10.0, alpha=math.pi / 2, gamma=0.0,
                d=0.0, d_com=0.03, theta=0.3)
    base.update(kwargs)
    return GraspState(**base)


class TestCapacityCheck:
    def test_zero_wrench_always_feasible(self):
        model = ContactModel(mu=0.5, e=0.01)
        assert capacity_check(model, 10.0, 0.0, 0.0)

    def test_tangential_boundary_feasible(self):
        model = ContactModel(mu=0.5, e=0.01)
        assert capacity_check(model, 10.0, 5.0, 0.0)

    def test_torque_just_over_limit(self):
        model = ContactModel(mu=0.5, e=0.01)
        assert not capacity_check(model, 10.0, 0.0, 0.051)

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.0, max_value=0.05),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_both_loads(self, f, t, shrink_f, shrink_t):
        model = ContactModel(mu=0.5, e=0.01)
        if capacity_check(model, 10.0, f, t):
            assert capacity_check(model, 10.0, f * shrink_f, t * shrink_t)


class TestMaxCapacities:
    @pytest.mark.parametrize("mu,e,f_n,expected", [
        (0.5, 0.01, 0.0, (0.0, 0.0)),
        (0.5, 0.01, 10.0, (5.0, 0.05)),
        (1.0, 0.005, 40.0, (40.0, 0.2)),
    ])
    def test_direct_products(self, mu, e, f_n, expected):
        max_f, max_t = max_capacities(ContactModel(mu=mu, e=e), f_n)
        assert max_f == pytest.approx(expected[0], abs=1e-15)
        assert max_t == pytest.approx(expected[1], abs=1e-15)


class TestHoldingMaxOffset:
    def test_capacity_equals_weight_gives_zero(self):
        model = ContactModel(mu=0.5, e=0.01)
        # 2*mu*f_n == g_tool exactly
        assert holding_max_offset(model, state_with(f_n=10.0, g_tool=10.0)) == 0.0

    def test_vertical_tool_unbounded(self):
        model = ContactModel(mu=0.5, e=0.01)
        assert math.isinf(holding_max_offset(model, state_with(alpha=0.0)))

    def test_infeasible_hold_carries_deficit(self):
        model = ContactModel(mu=0.5, e=0.01)
        with pytest.raises(InfeasibleHoldError) as exc_info:
            holding_max_offset(model, state_with(f_n=5.0, g_tool=10.0))
        assert exc_info.value.deficit == pytest.approx(5.0)

    def test_matches_feasibility_bisection(self):
        # frozen expectation computed with oracles.bisect_holding_offset
        model = ContactModel(mu=0.5, e=0.01)
        d = holding_max_offset(model, state_with())
        assert d == pytest.approx(0.03872983346207417, rel=1e-9)
        oracle_d = bisect_holding_offset(model, 40.0, 10.0, math.pi / 2)
        assert d == pytest.approx(oracle_d, rel=1e-6)

    def test_returned_offset_sits_on_capacity_boundary(self):
        model = ContactModel(mu=0.4, e=0.008)
        state = state_with(f_n=60.0, g_tool=18.0, alpha=1.1)
        d = holding_max_offset(model, state)
        f, t = holding_wrench(state.g_tool, state.alpha, d)
        lhs = f * f + (t / model.e) ** 2
        rhs = (model.mu * state.f_n) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_marginal_under_oracle(self):
        model = ContactModel(mu=0.4, e=0.008)
        state = state_with(f_n=60.0, g_tool=18.0, alpha=1.1)
        d = holding_max_offset(model, state)
        assert holding_feasible(model, state.f_n, state.g_tool, state.alpha, 0.999 * d)
        assert not holding_feasible(model, state.f_n, state.g_tool, state.alpha, 1.001 * d)

    @given(st.floats(min_value=0.2, max_value=1.2),
           st.floats(min_value=0.002, max_value=0.03),
           st.floats(min_value=10.0, max_value=100.0),
           st.floats(min_value=0.5, max_value=0.95),
           st.floats(min_value=0.2, max_value=math.pi - 0.2),
           st.floats(min_value=1.01, max_value=2.0))
    def test_monotone_in_weight_and_grip(self, mu, e, f_n, load_frac, alpha, gain):
        model = ContactModel(mu=mu, e=e)
        g = 2.0 * mu * f_n * load_frac
        base = holding_max_offset(model, state_with(f_n=f_n, g_tool=g, alpha=alpha))
        heavier = holding_max_offset(
            model, state_with(f_n=f_n, g_tool=min(g * gain, 2.0 * mu * f_n),
                              alpha=alpha))
        stronger = holding_max_offset(
            model, state_with(f_n=f_n * gain, g_tool=g, alpha=alpha))
        assert heavier <= base * (1.0 + 1e-12)
        assert stronger >= base * (1.0 - 1e-12)


class TestRequiredGripForce:
    def test_horizontal_tool_kills_gravity_term(self, nominal_dims, nominal_spring):
        state = state_with(alpha=math.pi / 2, theta=0.4)
        fb = required_grip_force(nominal_dims, nominal_spring, state)
        ff = required_grip_force(nominal_dims, nominal_spring,
                                 replace(state, config=GripConfig.FORWARD_BASE))
        delta = nominal_dims.theta_init - 0.4
        expected = (2.0 * nominal_dims.v * nominal_spring.kappa
                    * (nominal_spring.beta + delta)
                    / (nominal_dims.r * math.cos(0.4)))
        assert fb == pytest.approx(expected, rel=1e-12)
        assert ff == pytest.approx(expected, rel=1e-12)

    def test_flat_linkage_pure_spring(self, nominal_spring):
        from grippertool import ToolDimensions
        dims = ToolDimensions.with_derived_width(
            m=0.02, r=0.03, theta_init=1.0, theta_end=0.0,
            h=0.05, p=0.02, q=0.006, k=0.05, d_axis=0.004, r_edge=0.001)
        state = state_with(alpha=0.3, theta=0.0)
        expected = (2.0 * nominal_spring.kappa * (nominal_spring.beta + 1.0)
                    / dims.r)
        assert required_grip_force(dims, nominal_spring, state) == pytest.approx(
            expected, rel=1e-12)

    def test_configuration_gap(self, nominal_dims, nominal_spring):
        state = state_with(alpha=math.pi / 4, theta=math.pi / 6, g_tool=10.0)
        fb = required_grip_force(nominal_dims, nominal_spring, state)
        ff = required_grip_force(nominal_dims, nominal_spring,
                                 replace(state, config=GripConfig.FORWARD_BASE))
        assert fb - ff == pytest.approx(
            10.0 * math.cos(math.pi / 4) * math.tan(math.pi / 6), rel=1e-12)
        assert fb - ff == pytest.approx(4.0824829, abs=1e-6)

    def test_independent_of_grasp_point(self, nominal_dims, nominal_spring):
        a = required_grip_force(nominal_dims, nominal_spring,
                                state_with(theta=0.4, d=0.0))
        b = required_grip_force(nominal_dims, nominal_spring,
                                state_with(theta=0.4, d=0.08))
        assert a == b

    def test_singular_transmission(self, nominal_spring):
        from grippertool import ToolDimensions
        dims = ToolDimensions.with_derived_width(
            m=0.02, r=0.03, theta_init=math.pi / 2, theta_end=0.2,
            h=0.05, p=0.02, q=0.006, k=0.05, d_axis=0.004, r_edge=0.001)
        with pytest.raises(SingularTransmissionError):
            required_grip_force(dims, nominal_spring,
                                state_with(theta=math.pi / 2))

    def test_theta_outside_travel(self, nominal_dims, nominal_spring):
        with pytest.raises(DomainError):
            required_grip_force(nominal_dims, nominal_spring,
                                state_with(theta=0.05))

    @given(alpha=st.floats(min_value=0.1, max_value=1.4),
           theta=st.floats(min_value=0.21, max_value=1.04),
           g=st.floats(min_value=5.0, max_value=50.0))
    def test_weight_derivative_matches_finite_differences(self, alpha, theta, g):
        # d f_n / d g_tool is +-cos(alpha)*tan(theta)/2 by configuration
        from grippertool import SpringSpec, ToolDimensions
        dims = ToolDimensions.with_derived_width(
            m=0.012, r=0.03, theta_init=math.radians(60), theta_end=math.radians(12),
            h=0.032, p=0.011, q=0.006, k=0.05, d_axis=0.004, r_edge=0.001)
        spring = SpringSpec(kappa=0.5, beta=math.radians(20))
        h = 1e-3 * g
        for config, sign in ((GripConfig.BACKWARD_BASE, 1.0),
                             (GripConfig.FORWARD_BASE, -1.0)):
            hi = required_grip_force(
                dims, spring,
                state_with(theta=theta, alpha=alpha, g_tool=g + h, config=config))
            lo = required_grip_force(
                dims, spring,
                state_with(theta=theta, alpha=alpha, g_tool=g - h, config=config))
            numeric = (hi - lo) / (2.0 * h)
            analytic = sign * math.cos(alpha) * math.tan(theta) / 2.0
            assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-9)


NON_FINITE = (math.nan, math.inf)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["mu", "e"])
    def test_contact_model(self, name, value):
        with pytest.raises(ValueError, match=f"ContactModel.{name} must be finite"):
            replace(ContactModel(mu=0.5, e=0.01), **{name: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "name", ["f_n", "g_tool", "alpha", "gamma", "d", "d_com", "theta"])
    def test_grasp_state(self, name, value):
        with pytest.raises(ValueError, match=f"GraspState.{name} must be finite"):
            state_with(**{name: value})
