import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import example, given, strategies as st

from grippertool import (
    ContactModel,
    DomainError,
    GraspState,
    GripperToolError,
    ZeroCapacityError,
    gamma_sweep,
    parse_design,
    replace,
    torque_margin,
)

from grippertool.contact import _friction_capacity
from grippertool import pose
from grippertool.pose import _one_sign, _quartic, _roots

from sweep_reference import bits, certified_peak, gamma_curve
from symbolic import on_symbols
from test_payload import EXAMPLE, scaling_draws


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
        # every margin rounds to 0.4, the kink's (near 33 deg) too
        curve = gamma_sweep(model, pose_state(g_tool=1e-12, alpha=1.0, d_com=0.0), 31)
        assert (curve.peak_gamma, curve.peak_margin) == (0.0, 0.4)

    def test_two_samples_pick_larger_endpoint(self):
        model = ContactModel(mu=0.5, e=0.01)
        state = pose_state(alpha=math.pi / 2, d_com=0.03)
        curve = gamma_sweep(model, state, 2)
        m0 = torque_margin(model, state, 0.0)
        m1 = torque_margin(model, state, math.pi / 2)
        assert curve.peak_margin == max(m0, m1)
        assert curve.peak_gamma == (0.0 if m0 >= m1 else math.pi / 2)

    def test_interior_peak_located(self, nominal_model, nominal_state):
        # the kink of the margin, where the demand vanishes
        curve = gamma_sweep(nominal_model, nominal_state, 91)
        kink = math.pi / 2 - nominal_state.alpha
        assert curve.peak_gamma == kink
        assert curve.peak_margin == torque_margin(nominal_model, nominal_state, kink)
        assert curve.peak_margin >= max(m for _, m in curve.samples)

    def test_stationary_peak_past_the_kink(self):
        # the margin peaks near 60 deg, where its slope vanishes, not at
        # the kink (about 29 deg) or at either end
        model = ContactModel(mu=0.15, e=0.0106)
        state = pose_state(f_n=61.5, g_tool=36.8, alpha=1.07, d_com=0.092)
        peak_gamma, peak_margin = certified_peak(model, state)
        assert math.pi / 2 - state.alpha + 0.5 < peak_gamma < math.pi / 2 - 0.5
        h = 1e-6
        for side in (-h, h):
            assert torque_margin(model, state, peak_gamma + side) <= peak_margin

    @pytest.mark.parametrize("f_n, g_tool, alpha, d_com", [
        (1e90, 1e100, 1.0, 0.1),      # the pads hold from about 1e-10 below pi/2
        (1e150, 1e150, 1.2, 1e100),   # only the kink has a positive margin
    ])
    def test_huge_loads_keep_an_attained_peak(self, f_n, g_tool, alpha, d_com):
        # Q's coefficients overflow to inf; the peak is still a candidate's
        # margin and beats every sample
        model = ContactModel(mu=0.5, e=0.01)
        state = pose_state(f_n=f_n, g_tool=g_tool, alpha=alpha, d_com=d_com)
        curve = gamma_sweep(model, state, 1001)
        assert curve.peak_margin == torque_margin(model, state, curve.peak_gamma)
        assert curve.peak_margin >= max(m for _, m in curve.samples if not math.isnan(m))

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
             d_com=0.03, n=5)                     # only negative margins
    @example(mu=0.05, e=0.01, f_n=1e-18, g_tool=10.0, alpha=1.0,
             d_com=0.03, n=5)                     # nan everywhere
    @example(mu=0.5, e=0.01, f_n=40.0, g_tool=1e-12, alpha=1.0,
             d_com=0.0, n=7)                      # every sample ties
    @example(mu=0.15, e=0.0106, f_n=61.5, g_tool=36.8, alpha=1.07,
             d_com=0.092, n=19)                   # stationary peak past the kink
    def test_matches_scalar_samples(self, mu, e, f_n, g_tool, alpha, d_com, n):
        model = ContactModel(mu=mu, e=e)
        state = pose_state(f_n=f_n, g_tool=g_tool, alpha=alpha, d_com=d_com)
        rows = gamma_curve(model, state, n)
        if all(math.isnan(m) for _, m in rows):
            with pytest.raises(ZeroCapacityError):
                gamma_sweep(model, state, n)
            return
        curve = gamma_sweep(model, state, n)
        assert [(bits(g), bits(m)) for g, m in curve.samples] == [
            (bits(g), bits(m)) for g, m in rows]
        peak_gamma, peak_margin = certified_peak(model, state)
        assert bits(curve.peak_gamma) == bits(peak_gamma)
        assert bits(curve.peak_margin) == bits(peak_margin)


POSE_FIELDS = {"mu": "model", "e": "model", "f_n": "state", "g_tool": "state",
               "d_com": "state"}


class TestScaledDesigns:
    """gamma_sweep's numpy pass equals torque_margin bit for bit at every
    sample, or both refuse with one error type, on the example design with
    two fields scaled by powers of ten: squares and products that overflow
    or fall below the normal range, which the drawn designs above never
    reach."""

    SAMPLES = 37

    @staticmethod
    def outcome(compute):
        try:
            return [(bits(g), bits(m)) for g, m in compute()]
        except (GripperToolError, ValueError) as exc:
            return type(exc).__name__

    def assert_sweep_matches_scalar(self, model, state):
        def sweep():
            curve = gamma_sweep(model, state, self.SAMPLES)
            return zip(curve.gammas.tolist(), curve.margins.tolist())

        def scalar():
            rows = gamma_curve(model, state, self.SAMPLES)
            if all(math.isnan(m) for _, m in rows):
                raise ZeroCapacityError("no sample holds the tool")
            return rows

        assert self.outcome(sweep) == self.outcome(scalar)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_two_field_scalings(self, seed):
        _, _, model, state = parse_design(EXAMPLE.read_text())
        base = {f: getattr(model if where == "model" else state, f)
                for f, where in POSE_FIELDS.items()}
        swept = 0
        for draw in scaling_draws(seed, 300, POSE_FIELDS):
            # two factors of 10**(x/2): each is finite where 10**x is not
            values = {f: base[f] * 10.0 ** (x / 2) * 10.0 ** (x / 2) for f, x in draw.items()}
            try:
                scaled_model = replace(model, **{f: v for f, v in values.items()
                                                 if POSE_FIELDS[f] == "model"})
                scaled_state = replace(state, **{f: v for f, v in values.items()
                                                 if POSE_FIELDS[f] == "state"})
            except (GripperToolError, ValueError):
                continue
            self.assert_sweep_matches_scalar(scaled_model, scaled_state)
            swept += 1
        assert swept >= 100


class TestPeakLemmas:
    """The steps of the candidate-set argument in the pose docstring, on
    the expressions pose's own _headroom, _margin and _quartic build from
    sympy symbols."""

    gamma, kink, G, d, e, M, t = sympy.symbols("gamma kink G d e M t", real=True)
    u = sympy.Symbol("u", positive=True)   # |sin(gamma - kink)|, the demand's sine

    def parts(self):
        """(headroom h, margin in u, available torque's slope in gamma)."""
        state = SimpleNamespace(g_tool=self.G, d_com=self.d)
        h = on_symbols(pose._headroom, self.M**2, state, sympy.cos(self.gamma))[0]
        margin = on_symbols(pose._margin, SimpleNamespace(e=self.e), state, sympy.sqrt(h),
                            self.u)
        return h, margin, sympy.diff(margin.subs(self.u, 0), self.gamma)

    def quartic(self):
        """(Q(t), the sums over absolute terms of its coefficients)."""
        coeffs, magnitudes = on_symbols(pose._quartic, SimpleNamespace(e=self.e),
                                        SimpleNamespace(g_tool=self.G, d_com=self.d),
                                        self.M**2, self.kink)
        return sum(coeff * self.t**i for i, coeff in enumerate(coeffs)), magnitudes

    def test_quartic_is_the_squared_stationarity_condition(self):
        gamma, kink, t = self.gamma, self.kink, self.t
        h, margin, available_slope = self.parts()
        # on the falling branch sin(gamma - kink) >= 0: the demand is smooth,
        # and its slope is the margin's u-coefficient times cos(gamma - kink)
        demand_slope = -sympy.diff(margin, self.u) * sympy.cos(gamma - kink)
        assert sympy.simplify(sympy.diff(margin.subs(self.u, sympy.sin(gamma - kink)), gamma)
                              - (available_slope - demand_slope)) == 0
        # slope 0 squared, times h*cos(gamma)**4, is Q(tan(gamma))*cos(gamma)**4
        lhs = self.quartic()[0].subs(t, sympy.tan(gamma)) * sympy.cos(gamma)**4
        rhs = (demand_slope**2 - available_slope**2) * h
        assert sympy.simplify(sympy.expand(sympy.expand_trig(lhs - rhs))) == 0

    def test_library_coefficients_are_the_quartic(self):
        # the magnitudes _one_sign scales its rounding bound by are the
        # coefficients' sums over absolute terms; the test above proves
        # the coefficients themselves
        quartic, magnitudes = self.quartic()
        coeffs = sympy.Poly(quartic, self.t).all_coeffs()[::-1]
        assert len(coeffs) == len(magnitudes) == 5
        for coeff, magnitude in zip(coeffs, magnitudes):
            terms = sympy.Add.make_args(sympy.expand(coeff))
            assert sympy.expand(magnitude - sum(abs(term) for term in terms)) == 0

    def test_margin_rises_off_the_falling_branch(self):
        gamma, kink, G, d, e = self.gamma, self.kink, self.G, self.d, self.e
        h, margin, available_slope = self.parts()
        # sin(gamma), cos(gamma) and sqrt(h) are positive inside the
        # feasible range, and so is the demand's cosine factor v
        s, k, r, v = sympy.symbols("s k r v", positive=True)
        e_, G_, d_ = sympy.symbols("e G d", positive=True)
        positive = {sympy.sin(gamma): s, sympy.cos(gamma): k, sympy.sqrt(h): r,
                    e: e_, G: G_, d: d_}
        # on [edge, kink] the demand G*d*sin(kink - gamma) falls
        before = sympy.diff(margin.subs(self.u, sympy.sin(kink - gamma)), gamma)
        assert sympy.simplify(before - (available_slope
                                        + G * d * sympy.cos(kink - gamma))) == 0
        assert (available_slope + G * d * v).subs(positive).is_positive
        # past pi - alpha, cos(gamma - kink) = -v < 0
        after = sympy.diff(margin.subs(self.u, sympy.sin(gamma - kink)), gamma)
        assert after.subs(sympy.cos(gamma - kink), -v).subs(positive).is_positive

    @staticmethod
    def shifted(coeffs, t0):
        """Coefficients, lowest first, of p(t0 + u) in u."""
        shifted = list(coeffs)
        for i in range(len(shifted) - 1):
            for j in range(len(shifted) - 2, i - 1, -1):
                shifted[j] += t0 * shifted[j + 1]
        return shifted

    def test_descartes_skip_leaves_no_root(self):
        # wherever the sign rule skips the search, on Q's own coefficients,
        # Q keeps one sign on the rest of [0, pi/2], evaluated from its
        # formula, and the search finds nothing. Where only the rule on the
        # coefficients of Q(t0 + u) rules out roots, the search runs, finds
        # nothing, and Q keeps one sign there too.
        rng = random.Random(26)
        skips = {"own": 0, "shifted": 0, "none": 0}
        quartic = sympy.lambdify((self.G, self.d, self.e, self.M, self.kink, self.t),
                                 self.quartic()[0], "numpy")
        for _ in range(400):
            mu, e, f_n = rng.uniform(0.05, 1.2), rng.uniform(0.0005, 0.03), rng.uniform(1.0, 100.0)
            g_tool, alpha, d_com = rng.uniform(0.5, 40.0), rng.uniform(0.0, math.pi), rng.uniform(0.0, 0.1)
            model, state = ContactModel(mu=mu, e=e), pose_state(
                f_n=f_n, g_tool=g_tool, alpha=alpha, d_com=d_com)
            kink, c, big_m = math.pi / 2 - alpha, g_tool / 2.0, mu * f_n
            start = max(kink, math.acos(min(big_m / c, 1.0)))
            if not start < min(math.pi / 2, math.pi - alpha):
                continue
            big_m2 = _friction_capacity(model, f_n)[1]
            coeffs, magnitudes = _quartic(model, state, big_m2, kink)
            t0 = math.tan(start)
            if _one_sign(coeffs, magnitudes):
                skips["own"] += 1
            elif _one_sign(self.shifted(coeffs, t0), self.shifted(magnitudes, t0)):
                skips["shifted"] += 1
            else:
                skips["none"] += 1
                continue
            assert _roots(coeffs, t0, math.tan(math.pi / 2)) == []
            ts = np.tan(start + (math.pi / 2 - start) * np.arange(2000) / 2000)
            q = quartic(g_tool, d_com, e, big_m, kink, ts)
            assert np.all(q != 0.0) and len(set(np.sign(q))) == 1
        assert min(skips.values()) >= 20, skips
