import math

import pytest
from hypothesis import given, strategies as st

from grippertool import (
    DomainError,
    SpringSpec,
    ToolDimensions,
    jaw_width,
    replace,
    spring_torque,
    stroke,
    stroke_fixed_width,
)


def wide_dims(theta_init=math.pi / 2, theta_end=0.0, m=0.02, r=0.03):
    return ToolDimensions.with_derived_width(
        m=m, r=r, theta_init=theta_init, theta_end=theta_end,
        h=0.05, p=0.02, q=0.006, k=0.05, d_axis=0.004, r_edge=0.001,
    )


class TestJawWidth:
    def test_closed_flat(self):
        assert jaw_width(wide_dims(), 0.0) == pytest.approx(0.02, abs=1e-15)

    def test_fully_extended(self):
        assert jaw_width(wide_dims(), math.pi / 2) == pytest.approx(0.08, abs=1e-15)

    def test_half_extension(self):
        assert jaw_width(wide_dims(), math.pi / 6) == pytest.approx(0.05, abs=1e-15)

    def test_angle_outside_travel_rejected(self):
        dims = wide_dims(theta_init=1.0, theta_end=0.2)
        with pytest.raises(DomainError):
            jaw_width(dims, 0.1)
        with pytest.raises(DomainError):
            jaw_width(dims, 1.1)

    @given(st.floats(min_value=1e-3, max_value=math.pi / 2 - 1e-3),
           st.floats(min_value=1e-4, max_value=0.4))
    def test_strictly_increasing_in_theta(self, theta, delta):
        dims = wide_dims()
        hi = min(theta + delta, math.pi / 2)
        assert jaw_width(dims, hi) > jaw_width(dims, theta) or hi == theta


class TestStroke:
    def test_zero_stroke_rejected_by_type(self):
        with pytest.raises(ValueError):
            wide_dims(theta_init=0.5, theta_end=0.5)

    def test_near_zero_stroke(self):
        dims = wide_dims(theta_init=0.5 + 1e-9, theta_end=0.5)
        assert stroke(dims) == pytest.approx(0.0, abs=1e-9)

    def test_maximal_stroke(self):
        assert stroke(wide_dims(r=0.03)) == pytest.approx(0.06, abs=1e-15)

    def test_thirty_degree_span(self):
        dims = wide_dims(theta_init=math.pi / 3, theta_end=math.pi / 6, r=0.03)
        assert stroke(dims) == pytest.approx(0.03, abs=1e-15)

    @given(st.floats(min_value=0.2, max_value=1.5),
           st.floats(min_value=0.0, max_value=0.15),
           st.floats(min_value=0.005, max_value=0.05),
           st.floats(min_value=0.01, max_value=0.06))
    def test_fixed_width_form_agrees(self, theta_init, theta_end, m, r):
        if theta_end >= theta_init or theta_init > math.pi / 2:
            return
        dims = wide_dims(theta_init=theta_init, theta_end=theta_end, m=m, r=r)
        via_tie = stroke_fixed_width(dims.w_init, dims.m, dims.theta_init,
                                     dims.theta_end)
        assert via_tie == pytest.approx(stroke(dims), rel=1e-12)


class TestSpringTorque:
    def test_unloaded(self):
        assert spring_torque(SpringSpec(kappa=1.0, beta=0.0), 0.0) == 0.0

    def test_direct_substitution(self):
        assert spring_torque(SpringSpec(kappa=2.0, beta=0.1), 0.2) == pytest.approx(0.6)

    def test_preload_only(self):
        assert spring_torque(SpringSpec(kappa=1.5, beta=0.3), 0.0) == pytest.approx(0.45)

    def test_negative_deflection_rejected(self):
        with pytest.raises(DomainError):
            spring_torque(SpringSpec(kappa=1.0, beta=0.1), -0.01)

    @given(st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.01, max_value=10.0))
    def test_exact_linearity(self, a, b, kappa):
        spring = SpringSpec(kappa=kappa, beta=0.2)
        gain = spring_torque(spring, a + b) - spring_torque(spring, a)
        assert gain == pytest.approx(kappa * b, rel=1e-12, abs=1e-12)


class TestToolDimensions:
    def test_width_tie_validated(self):
        with pytest.raises(ValueError, match="w_init"):
            ToolDimensions(m=0.02, r=0.03, theta_init=1.0, theta_end=0.2,
                           h=0.05, p=0.02, q=0.006, k=0.05, d_axis=0.004,
                           r_edge=0.001, v=1.0, w_init=0.09)

    def test_width_tie_tolerates_rounding(self):
        # value rounded to 9 digits, well within the 1e-6 tolerance
        ToolDimensions(m=0.012, r=0.03, theta_init=math.radians(60),
                       theta_end=math.radians(12), h=0.032, p=0.011, q=0.006,
                       k=0.05, d_axis=0.004, r_edge=0.001, v=1.0,
                       w_init=0.063961524)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="r "):
            wide_dims(r=-0.01)

    def test_angle_ordering_enforced(self):
        with pytest.raises(ValueError):
            wide_dims(theta_init=0.2, theta_end=0.5)

    def test_ninety_degree_open_angle_constructible(self):
        # analysis needs to represent the singular design to report on it
        dims = wide_dims(theta_init=math.pi / 2)
        assert dims.theta_init == math.pi / 2


NON_FINITE = (math.nan, math.inf)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ToolDimensions._fields)
    def test_tool_dimensions(self, name, value):
        with pytest.raises(ValueError, match=f"ToolDimensions.{name} must be finite"):
            replace(wide_dims(), **{name: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["kappa", "beta"])
    def test_spring_spec(self, name, value):
        with pytest.raises(ValueError, match=f"SpringSpec.{name} must be finite"):
            replace(SpringSpec(kappa=0.5, beta=0.3), **{name: value})
