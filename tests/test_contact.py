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
    ZeroCapacityError,
    capacity_check,
    gamma_sweep,
    holding_max_offset,
    replace,
    required_grip_force,
)
from grippertool import contact, payload, pose

from contact_cases import draw_contact
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

    @pytest.mark.parametrize("f_n, t, message", [
        (1e200, 1.0, r"\(mu\*f_n\)\^2 overflows at mu\*f_n = 5e\+199"),
        (10.0, 1e200, r"\(t/e\)\^2 overflows at t/e = 1e\+202"),
    ])
    def test_overflowing_square_is_domain_error(self, f_n, t, message):
        model = ContactModel(mu=0.5, e=0.01)
        with pytest.raises(DomainError, match=message):
            capacity_check(model, f_n, 1.0, t)

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.0, max_value=0.05),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_both_loads(self, f, t, shrink_f, shrink_t):
        model = ContactModel(mu=0.5, e=0.01)
        if capacity_check(model, 10.0, f, t):
            assert capacity_check(model, 10.0, f * shrink_f, t * shrink_t)


class TestFrictionCapacity:
    def test_payload_and_pose_share_the_square_bits(self):
        # libm's x**2 rounds this square one ulp above the product
        model = ContactModel(mu=0.529, e=0.01)
        state = state_with(f_n=40.872)
        mu_fn = 0.529 * 40.872
        # the payload takes mu*f_n, and the square's overflow check, from
        # the same function
        assert payload._friction_capacity is contact._friction_capacity
        # with no tangential load the headroom is the square itself
        capacity = contact._friction_capacity(model, state.f_n)
        assert capacity == (mu_fn, mu_fn * mu_fn)
        assert pose._headroom(capacity[1], state, 0.0)[0] == mu_fn * mu_fn


class TestHoldingMaxOffset:
    def test_capacity_equals_weight_gives_zero(self):
        model = ContactModel(mu=0.5, e=0.01)
        # 2*mu*f_n == g_tool exactly
        assert holding_max_offset(model, state_with(f_n=10.0, g_tool=10.0)) == 0.0

    def test_vertical_tool_unbounded(self):
        model = ContactModel(mu=0.5, e=0.01)
        assert math.isinf(holding_max_offset(model, state_with(alpha=0.0)))

    def test_upside_down_tool_unbounded(self):
        # float pi, 180 deg, has a sine of 1.2e-16, not 0
        model = ContactModel(mu=0.5, e=0.01)
        assert math.isinf(holding_max_offset(model, state_with(alpha=math.pi)))

    def test_infeasible_hold_carries_deficit(self):
        model = ContactModel(mu=0.5, e=0.01)
        with pytest.raises(InfeasibleHoldError) as exc_info:
            holding_max_offset(model, state_with(f_n=5.0, g_tool=10.0))
        assert exc_info.value.deficit == pytest.approx(5.0)

    @pytest.mark.parametrize("model, state", [
        (ContactModel(mu=0.5, e=0.01), state_with(f_n=1e200)),
        (ContactModel(mu=1e200, e=0.01), state_with()),
    ])
    def test_out_of_range_offset_is_domain_error(self, model, state):
        # the message of the payload and pose modules, from the one square
        mu_fn = model.mu * state.f_n
        with pytest.raises(DomainError) as exc_info:
            holding_max_offset(model, state)
        assert str(exc_info.value) == f"(mu*f_n)^2 overflows at mu*f_n = {mu_fn:g}"

    @pytest.mark.parametrize("model, state, message", [
        # G*sin(alpha) below the normal range: e*sqrt(4*M^2 - G^2)/(G*sin(alpha))
        # would be 3.87e317
        (ContactModel(mu=0.5, e=0.01), state_with(alpha=1e-320),
         "^hold offset out of floating-point range: "
         r"mu\*f_n = 20, g_tool = 10, sin\(alpha\) = 9\.99989e-321$"),
        # below the normal range the offset would be finite but inexact:
        # G*sin(alpha) = 1e-310 ...
        (ContactModel(mu=0.5, e=1e-6), state_with(g_tool=1e-300, alpha=1e-10),
         "^hold offset out of floating-point range"),
        # ... and (mu*f_n)^2 = 2.5e-321, and the offset itself, 7.7e-318, as
        # draw_contact seed 11636's 2.1e-318 was
        (ContactModel(mu=0.5, e=0.01), state_with(f_n=1e-160, g_tool=5e-161),
         "^hold offset out of floating-point range"),
        (ContactModel(mu=0.5, e=2e-318), state_with(),
         "^hold offset out of floating-point range"),
        # e*sqrt(4*M^2 - G^2)/G, about 1e-324 and 2e-323, underflows to 0.0,
        # which is exact only where 4*M^2 = G^2
        (ContactModel(mu=0.5, e=5e-324), state_with(f_n=10.0, g_tool=9.999),
         "^hold offset out of floating-point range"),
        (ContactModel(mu=0.5, e=1e-322), state_with(f_n=10.0, g_tool=9.999),
         "^hold offset out of floating-point range"),
    ])
    def test_offset_beyond_the_normal_range_is_domain_error(self, model, state, message):
        with pytest.raises(DomainError, match=message):
            holding_max_offset(model, state)

    @pytest.mark.parametrize("state, offset", [
        # 2*mu*f_n = g_tool: no spin capacity is left
        (state_with(f_n=1e100, g_tool=1e100), 0.0),
        # e*sqrt(4*M^2 - G^2)/(G*sin(alpha)) = 0.01*sqrt(1500)/1e-199, with
        # no product of squares that underflows
        (state_with(alpha=1e-200), 0.01 * math.sqrt(1500.0) / 1e-199),
    ])
    def test_extreme_offsets_are_exact(self, state, offset):
        assert holding_max_offset(ContactModel(mu=0.5, e=0.01), state) == offset

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


@pytest.mark.parametrize("seed", [3319, 11636, 14748])
def test_subnormal_eccentricity_leaves_no_subnormal_margin(seed):
    # draw_contact models whose e, and with it 2*e*mu*f_n, is subnormal:
    # their peak margins were 8.24e-316, 1.60e-317 and 1.36e-317
    model, state, _ = draw_contact(seed)
    with pytest.raises(DomainError, match=r"^torque margin out of floating-point range"):
        gamma_sweep(model, state, 2)


@pytest.mark.parametrize("seed", [157, 489])
def test_no_hold_at_any_gamma_is_zero_capacity(seed):
    # draw_contact models whose mu*f_n, and with it 2*e*mu*f_n, is
    # subnormal, and whose pads hold the tool at no gamma: that verdict is
    # exact, so it is not the range error of a subnormal term
    model, state, _ = draw_contact(seed)
    assert 0.0 < 2.0 * model.e * model.mu * state.f_n < contact._MIN_NORMAL
    with pytest.raises(ZeroCapacityError,
                       match="^no hand-tool angle has positive friction capacity$"):
        gamma_sweep(model, state, 2)


class TestRequiredGripForce:
    def test_horizontal_tool_kills_gravity_term(self, nominal_dims, nominal_spring):
        # neither the configuration nor the tool's weight moves the force
        state = state_with(alpha=math.pi / 2, theta=0.4)
        forces = [required_grip_force(nominal_dims, nominal_spring,
                                      replace(state, g_tool=g, config=config))
                  for g in (1.0, 50.0) for config in GripConfig]
        assert forces == pytest.approx([forces[0]] * 4, rel=1e-15)

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


class TestOutOfRangeRejected:
    def test_zero_friction(self):
        with pytest.raises(ValueError) as refused:
            ContactModel(mu=0.0, e=0.01)
        assert str(refused.value) == "ContactModel.mu must be > 0"

    def test_negative_normal_force(self):
        with pytest.raises(ValueError) as refused:
            state_with(f_n=-1.0)
        assert str(refused.value) == "GraspState.f_n must be >= 0"

    @pytest.mark.parametrize("name, value, message", [
        ("mu", -0.5, "ContactModel.mu must be > 0"),
        ("e", 0.0, "ContactModel.e must be > 0"),
        ("e", -0.01, "ContactModel.e must be > 0"),
    ])
    def test_contact_model(self, name, value, message):
        with pytest.raises(ValueError) as refused:
            replace(ContactModel(mu=0.5, e=0.01), **{name: value})
        assert str(refused.value) == message

    @pytest.mark.parametrize("name, value, message", [
        ("g_tool", 0.0, "GraspState.g_tool must be > 0"),
        ("g_tool", -10.0, "GraspState.g_tool must be > 0"),
        ("alpha", -0.1, "GraspState.alpha must be in [0, pi]"),
        ("alpha", 3.2, "GraspState.alpha must be in [0, pi]"),
        ("gamma", -0.1, "GraspState.gamma must be in [0, pi/2]"),
        ("gamma", 1.6, "GraspState.gamma must be in [0, pi/2]"),
        ("d", -0.01, "GraspState.d must be >= 0"),
        ("d_com", -0.01, "GraspState.d_com must be >= 0"),
        ("theta", -0.1, "GraspState.theta must be >= 0"),
        ("config", "backward_base", "GraspState.config must be a GripConfig"),
    ])
    def test_grasp_state(self, name, value, message):
        with pytest.raises(ValueError) as refused:
            state_with(**{name: value})
        assert str(refused.value) == message

    def test_capacity_check_negative_normal_force(self):
        with pytest.raises(DomainError) as refused:
            capacity_check(ContactModel(mu=0.5, e=0.01), -1.0, 0.0, 0.0)
        assert str(refused.value) == "f_n must be >= 0"
