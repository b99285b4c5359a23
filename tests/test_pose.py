import math

import pytest
from hypothesis import example, given, strategies as st

from grippertool import (
    ContactModel,
    DomainError,
    GraspState,
    ZeroCapacityError,
    gamma_sweep,
    torque_margin,
)

from sweep_reference import bits, gamma_curve


def pose_state(**kwargs):
    base = dict(f_n=40.0, g_tool=10.0, alpha=math.pi / 2, gamma=0.0,
                d=0.0, d_com=0.03, theta=0.3)
    base.update(kwargs)
    return GraspState(**base)


def reference_margin_horizontal(mu, e, f_n, g, d_com, gamma):
    """Direct transcription of the margin for a horizontal tool."""
    available = 2.0 * e * math.sqrt((mu * f_n) ** 2 - (g / 2.0 * math.cos(gamma)) ** 2)
    return available - g * d_com * math.sin(gamma)


class TestTorqueMargin:
    def test_zero_arm_zero_angle(self):
        model = ContactModel(mu=0.5, e=0.01)
        state = pose_state(d_com=0.0)
        expected = 2.0 * model.e * math.sqrt((0.5 * 40.0) ** 2 - 25.0)
        assert torque_margin(model, state, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_weightless_tool_flat_curve(self):
        model = ContactModel(mu=0.5, e=0.01)
        # g_tool must stay positive; make it negligible instead of zero
        state = pose_state(g_tool=1e-12, d_com=0.03)
        values = [torque_margin(model, state, g)
                  for g in (0.0, 0.4, 0.9, math.pi / 2)]
        flat = 2.0 * model.e * 0.5 * 40.0
        for value in values:
            assert value == pytest.approx(flat, rel=1e-9)

    def test_horizontal_tool_matches_reference_formula(self):
        model = ContactModel(mu=0.5, e=0.01)
        state = pose_state(alpha=math.pi / 2)
        for i in range(19):
            gamma = math.pi / 2 * i / 18
            ours = torque_margin(model, state, gamma)
            ref = reference_margin_horizontal(0.5, 0.01, 40.0, 10.0, 0.03, gamma)
            assert ours == pytest.approx(ref, rel=1e-12)

    def test_gamma_domain(self):
        model = ContactModel(mu=0.5, e=0.01)
        with pytest.raises(DomainError):
            torque_margin(model, pose_state(), -0.01)
        with pytest.raises(DomainError):
            torque_margin(model, pose_state(), math.pi / 2 + 0.01)

    def test_zero_capacity_error(self):
        model = ContactModel(mu=0.1, e=0.01)
        # tangential demand g/2 = 5 exceeds mu*f_n = 4 at gamma = 0
        with pytest.raises(ZeroCapacityError):
            torque_margin(model, pose_state(f_n=40.0, g_tool=10.0), 0.0)

    @given(gamma=st.floats(min_value=0.0, max_value=math.pi / 2 - 1e-9),
           step=st.floats(min_value=1e-6, max_value=0.01))
    def test_continuity(self, gamma, step):
        model = ContactModel(mu=0.5, e=0.01)
        state = pose_state(alpha=math.radians(67))
        hi = min(gamma + step, math.pi / 2)
        jump = abs(torque_margin(model, state, hi)
                   - torque_margin(model, state, gamma))
        # Lipschitz bound: |available'| <= 2*e*q^2/sqrt(M^2-q^2), |demand'| <= g*d_com
        m_cap, q = 0.5 * 40.0, 5.0
        lipschitz = (2.0 * model.e * q * q / math.sqrt(m_cap**2 - q**2)
                     + state.g_tool * state.d_com)
        assert jump <= lipschitz * (hi - gamma) * (1.0 + 1e-9) + 1e-15

    def test_rise_then_fall_at_nominal(self, nominal_model, nominal_state):
        # tool angle 67 degrees puts the demand null at gamma = 23 degrees
        margins = {
            deg: torque_margin(nominal_model, nominal_state, math.radians(deg))
            for deg in (5, 23, 60)
        }
        assert margins[23] > margins[5]
        assert margins[23] > margins[60]

    def test_derivative_sign_change_brackets_the_peak(self, nominal_model,
                                                      nominal_state):
        # independent route to the interior maximum: bisect the sign change
        # of the finite-difference slope
        def slope(gamma, h=1e-7):
            return (torque_margin(nominal_model, nominal_state, gamma + h)
                    - torque_margin(nominal_model, nominal_state, gamma - h)) / (2 * h)

        lo, hi = math.radians(1.0), math.radians(89.0)
        assert slope(lo) > 0.0
        assert slope(hi) < 0.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if slope(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        crossing = (lo + hi) / 2.0
        assert 0.0 < crossing < math.pi / 2
        curve = gamma_sweep(nominal_model, nominal_state, 181)
        assert crossing == pytest.approx(curve.peak_gamma, abs=math.radians(0.5))


class TestGammaSweep:
    def test_sample_count_and_ordering(self, nominal_model, nominal_state):
        curve = gamma_sweep(nominal_model, nominal_state, 19)
        assert len(curve.samples) == 19
        gammas = [g for g, _ in curve.samples]
        assert gammas == sorted(gammas)
        assert gammas[0] == 0.0
        assert gammas[-1] == pytest.approx(math.pi / 2)

    def test_flat_curve_tie_breaks_to_zero(self):
        model = ContactModel(mu=0.5, e=0.01)
        curve = gamma_sweep(model, pose_state(g_tool=1e-12), 31)
        assert curve.peak_gamma == 0.0

    def test_two_samples_pick_larger_endpoint(self):
        model = ContactModel(mu=0.5, e=0.01)
        state = pose_state(alpha=math.pi / 2, d_com=0.03)
        curve = gamma_sweep(model, state, 2)
        m0 = torque_margin(model, state, 0.0)
        m1 = torque_margin(model, state, math.pi / 2)
        assert curve.peak_margin == max(m0, m1)
        assert curve.peak_gamma == (0.0 if m0 >= m1 else math.pi / 2)

    def test_interior_peak_located(self, nominal_model, nominal_state):
        curve = gamma_sweep(nominal_model, nominal_state, 91)
        assert 0.0 < curve.peak_gamma < math.pi / 2
        assert math.degrees(curve.peak_gamma) == pytest.approx(23.0, abs=1.0)
        assert curve.peak_margin >= max(m for _, m in curve.samples)

    def test_error_samples_become_nan(self):
        model = ContactModel(mu=0.1, e=0.01)
        # capacity fails near gamma = 0 but recovers as cos(gamma) shrinks
        state = pose_state(f_n=40.0, g_tool=10.0, d_com=0.0)
        curve = gamma_sweep(model, state, 10)
        assert math.isnan(curve.samples[0][1])
        assert not math.isnan(curve.samples[-1][1])

    def test_too_few_samples(self, nominal_model, nominal_state):
        with pytest.raises(DomainError):
            gamma_sweep(nominal_model, nominal_state, 1)

    @given(mu=st.floats(min_value=0.05, max_value=1.2),
           e=st.floats(min_value=0.0005, max_value=0.03),
           f_n=st.floats(min_value=1.0, max_value=100.0),
           g_tool=st.floats(min_value=0.5, max_value=40.0),
           alpha=st.floats(min_value=0.0, max_value=math.pi),
           d_com=st.floats(min_value=0.0, max_value=0.1),
           n=st.integers(min_value=2, max_value=300))
    @example(mu=0.1, e=0.01, f_n=40.0, g_tool=10.0, alpha=math.pi / 2,
             d_com=0.0, n=10)                     # nan near gamma = 0
    @example(mu=0.05, e=0.01, f_n=40.0, g_tool=10.0, alpha=1.0,
             d_com=0.03, n=5)                     # nan everywhere
    @example(mu=0.5, e=0.01, f_n=40.0, g_tool=1e-12, alpha=1.0,
             d_com=0.0, n=7)                      # every sample ties
    def test_matches_scalar_samples(self, mu, e, f_n, g_tool, alpha, d_com, n):
        model = ContactModel(mu=mu, e=e)
        state = pose_state(f_n=f_n, g_tool=g_tool, alpha=alpha, d_com=d_com)
        try:
            samples, peak_gamma, peak_margin = gamma_curve(model, state, n)
        except ZeroCapacityError:
            with pytest.raises(ZeroCapacityError):
                gamma_sweep(model, state, n)
            return
        curve = gamma_sweep(model, state, n)
        assert [(bits(g), bits(m)) for g, m in curve.samples] == [
            (bits(g), bits(m)) for g, m in samples]
        assert bits(curve.peak_gamma) == bits(peak_gamma)
        assert bits(curve.peak_margin) == bits(peak_margin)
