import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from grippertool import (
    ContactModel,
    DomainError,
    GraspState,
    GripperToolError,
    NoFeasiblePayloadError,
    PayloadResult,
    capacity_check,
    max_payload,
    parse_design,
    payload,
    payload_sweep,
    replace,
)

from grippertool.cli import MAX_GRID_CELLS

import payload_reference as reference
from contact_cases import draw_contact
from oracles import bisect_max_payload, object_wrench, payload_feasible
from sweep_reference import bits, payload_rows


def state_with(**kwargs):
    base = dict(f_n=40.0, g_tool=10.0, alpha=math.pi / 4, gamma=0.0,
                d=0.02, d_com=0.03, theta=0.3)
    base.update(kwargs)
    return GraspState(**base)


def reference_args(model, state, d_obj):
    """payload_reference's arguments for max_payload's float inputs."""
    return (model.mu, model.e, state.f_n, state.g_tool, d_obj, state.d_com,
            math.sin(state.alpha), math.cos(state.alpha))


def reference_root(model, state, d_obj):
    """The 80-digit larger root on max_payload's float inputs, or None."""
    return reference.larger_root(*reference_args(model, state, d_obj))


def near_tie(model, state, d_obj):
    """Whether K lies within rounding of 0, where the float verdict may
    go either way: M = mu*f_n alone is rounded once."""
    k, size = reference.capacity(*reference_args(model, state, d_obj))
    return abs(k) <= 1e-12 * size


class TestStableQuadraticRoots:
    """max_payload's closed form for the larger root of the payload
    quadratic: (n + e*sqrt(K))/E where n >= 0 and its conjugate where
    n < 0, so that neither subtracts n and e*sqrt(K)."""

    def test_plain_quadratic(self):
        # a vertical tool with its center of mass on the grasp line takes
        # the conjugate: w = 2*mu*f_n - g_tool, exactly
        model = ContactModel(mu=0.5, e=0.5)
        assert max_payload(model, state_with(f_n=32.0, alpha=0.0, d_com=0.0),
                           0.05).max_weight == 22.0
        # a tilted one with d_obj*d_com*sin*cos > e^2 takes the sum form
        model, state = ContactModel(mu=0.5, e=0.005), state_with()
        assert max_payload(model, state, 0.05).max_weight == pytest.approx(
            float(reference_root(model, state, 0.05)), rel=4e-16)

    def test_cancellation_prone_case(self):
        # draws with a small e, where b^2 and 4*a*c of the old quadratic
        # agreed to 16 digits: it refused the first four, and printed a
        # weight for the last four; the reference says the opposite
        for seed in (4602, 6645, 14662, 23781, 4980, 15448, 16542, 25702):
            model, state, d_obj = draw_contact(seed)
            assert model.e < 1e-8
            root = reference_root(model, state, d_obj)
            if root is None:
                with pytest.raises(NoFeasiblePayloadError):
                    max_payload(model, state, d_obj)
            else:
                assert max_payload(model, state, d_obj).max_weight == pytest.approx(
                    float(root), rel=1e-14), seed

    def test_double_root_at_zero(self):
        # K = 0: 2*mu*f_n*e = g_tool*d_com for a vertical tool, so the two
        # roots meet at w = n/E = -g_tool, which clamps to 0; the conjugate
        # divides by n = -g_tool*e^2 rather than 0/0
        model = ContactModel(mu=0.5, e=0.5)
        result = max_payload(model, state_with(alpha=0.0, d_com=2.0), 0.05)
        assert (result.max_weight, result.residual, result.zero_clamped) == (0.0, 0.0, True)

    @given(mu=st.floats(min_value=0.2, max_value=1.2),
           e=st.floats(min_value=1e-12, max_value=0.03),
           f_n=st.floats(min_value=1.0, max_value=100.0),
           load=st.floats(min_value=0.05, max_value=1.0),
           alpha=st.floats(min_value=0.0, max_value=math.pi),
           d_com=st.floats(min_value=0.0, max_value=0.1),
           d_obj=st.floats(min_value=0.0, max_value=0.2))
    def test_roots_satisfy_quadratic(self, mu, e, f_n, load, alpha, d_com, d_obj):
        # the weight is the reference's larger root of the balance
        # quadratic, within rounding of the terms of size g_tool
        model = ContactModel(mu=mu, e=e)
        state = state_with(f_n=f_n, g_tool=2.0 * mu * f_n * load, alpha=alpha, d_com=d_com)
        root = reference_root(model, state, d_obj)
        try:
            result = max_payload(model, state, d_obj)
        except NoFeasiblePayloadError:
            assert root is None or near_tie(model, state, d_obj)
            return
        if root is None:
            assert near_tie(model, state, d_obj)
            return
        assert abs(result.max_weight - max(float(root), 0.0)) <= 1e-11 * state.g_tool


@pytest.fixture(params=["numpy", "scalar"])
def driver(request, monkeypatch):
    """Runs the test once with payload_sweep's numpy pass on every grid and
    once with its one-cell-at-a-time pass on every grid."""
    limit = 0 if request.param == "numpy" else MAX_GRID_CELLS
    monkeypatch.setattr(payload, "SCALAR_GRID_CELLS", limit)
    return request.param


class TestMaxPayload:
    def test_tool_too_heavy(self):
        model = ContactModel(mu=0.5, e=0.005)
        with pytest.raises(NoFeasiblePayloadError):
            max_payload(model, state_with(f_n=5.0, g_tool=10.0), 0.05)

    @pytest.mark.parametrize("max_weight, residual, message", [
        (-1.0, 0.0, "PayloadResult.max_weight must be >= 0"),
        (-1e-300, 0.0, "PayloadResult.max_weight must be >= 0"),
    ])
    def test_out_of_range_result_rejected(self, max_weight, residual, message):
        with pytest.raises(ValueError) as refused:
            PayloadResult(max_weight, residual)
        assert str(refused.value) == message

    @pytest.mark.parametrize("model, state, d_obj, named", [
        # E = e^2 + D^2 overflows
        (ContactModel(mu=0.5, e=0.005), state_with(), 1e160,
         "d_obj = 1e+160, e = 0.005, d_com = 0.02"),
        (ContactModel(mu=0.5, e=1e200), state_with(), 0.05,
         "d_obj = 0.05, e = 1e+200, d_com = 0.02"),
        # the old quadratic's residual overflowed its a*x^2; the closed
        # form forms no such term
        (ContactModel(mu=0.5, e=1e-143), state_with(), 0.05, None),
        # the old discriminant's 4*a*c overflowed
        (ContactModel(mu=1.5e152, e=0.005), state_with(d=0.0), 0.05, None),
        # e*sqrt(K), or e^2*(2*M - g)*(2*M + g) of the conjugate,
        # overflows (in the old quadratic, a = 0 although a >= 1/4)
        (ContactModel(mu=0.5, e=5e152), state_with(), 0.05,
         "d_obj = 0.05, e = 5e+152, d_com = 0.02"),
        (ContactModel(mu=0.5, e=3.54e152), state_with(g_tool=1.0), 0.05,
         "d_obj = 0.05, e = 3.54e+152, d_com = 0.02"),
        # E = e^2 + (d_obj*sin(alpha))^2 underflows to 0, the sum form's
        # denominator
        (ContactModel(mu=0.5, e=1e-170), state_with(alpha=0.0, d=0.0), 0.05,
         "d_obj = 0.05, e = 1e-170, d_com = 0"),
        # n = -g_tool*e^2 overflows, so the conjugate's denominator is -inf
        # while its numerator stays finite: their quotient, 0, is not the
        # weight 2*mu*f_n - g_tool = 0.3
        (ContactModel(mu=0.5, e=1e154), state_with(f_n=2.3, g_tool=2.0, alpha=0.0, d=0.0),
         0.05, "d_obj = 0.05, e = 1e+154, d_com = 0"),
    ])
    def test_overflowing_coefficients_raise_like_sweep(self, model, state, d_obj, named,
                                                       driver):
        # inputs whose old quadratic coefficients, discriminant or residual
        # overflowed: where a term of the closed form overflows, the error
        # names the inputs (the sweep's d_com is the cell's d) rather than
        # the residual; elsewhere max_payload gives the reference's weight,
        # and the sweep the same bits
        state = replace(state, d_com=state.d)
        if named is None:
            weight = max_payload(model, state, d_obj).max_weight
            assert weight == pytest.approx(float(reference_root(model, state, d_obj)),
                                           rel=1e-15)
            grid = payload_sweep(model, state, d_obj, [state.alpha], [state.d])
            assert bits(float(grid.weights[0][0])) == bits(weight)
            return
        with pytest.raises(DomainError) as scalar:
            max_payload(model, state, d_obj)
        with pytest.raises(DomainError) as sweep:
            payload_sweep(model, state, d_obj, [state.alpha], [state.d])
        assert str(scalar.value) == ("payload quadratic out of floating-point range: "
                                     + named)
        assert str(sweep.value) == str(scalar.value)

    def test_sweep_names_the_first_overflowing_cell(self, driver):
        # d_com = d: the cells with d = 0 stay finite, and at d = 1e154,
        # where d_obj*sin(alpha) + d*cos(alpha) nearly cancels, n =
        # g_tool*(d_obj*d*sin(alpha)*cos(alpha) - e^2) overflows
        model, state = ContactModel(mu=0.5, e=0.005), state_with()
        alphas, ds = [3 * math.pi / 4, 2.5], [0.0, 1e154, 2e154]
        with pytest.raises(DomainError) as expected:
            payload_rows(model, state, 1e154, alphas, ds)
        with pytest.raises(DomainError) as raised:
            payload_sweep(model, state, 1e154, alphas, ds)
        assert "d_obj = 1e+154, e = 0.005, d_com = 1e+154" in str(expected.value)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("model, f_n", [
        (ContactModel(mu=0.5, e=0.005), 1e200), (ContactModel(mu=1e200, e=0.005), 40.0),
    ])
    def test_squared_capacity_overflow_is_domain_error(self, model, f_n, driver):
        state = state_with(f_n=f_n)
        with pytest.raises(DomainError, match="overflows") as scalar:
            max_payload(model, state, 0.05)
        with pytest.raises(DomainError) as sweep:
            payload_sweep(model, state, 0.05, [state.alpha], [state.d])
        assert str(sweep.value) == str(scalar.value)

    def test_squared_capacity_underflow_keeps_the_weight(self, monkeypatch):
        # (mu*f_n)^2 underflows to 0, which the old quadratic refused as a
        # zero torque capacity; the closed form squares no capacity
        model, state = ContactModel(mu=0.5, e=0.005), state_with(f_n=1e-200, g_tool=1e-201)
        weight = max_payload(model, state, 0.05).max_weight
        assert weight == pytest.approx(float(reference_root(model, state, 0.05)), rel=1e-15)
        cell = replace(state, d_com=state.d)
        for limit in (0, MAX_GRID_CELLS):   # the numpy pass, then the one-cell pass
            monkeypatch.setattr(payload, "SCALAR_GRID_CELLS", limit)
            grid = payload_sweep(model, cell, 0.05, [state.alpha], [state.d])
            assert bits(float(grid.weights[0][0])) == bits(
                max_payload(model, cell, 0.05).max_weight)

    def test_nominal_against_bisection_oracle(self):
        # frozen from oracles.bisect_max_payload on these parameters
        model = ContactModel(mu=0.5, e=0.005)
        state = state_with()
        result = max_payload(model, state, 0.05)
        assert result.max_weight == pytest.approx(10.829363551522128, rel=1e-8)
        oracle = bisect_max_payload(model, state, 0.05)
        assert result.max_weight == pytest.approx(oracle, rel=1e-6)

    def test_residual_within_bound(self):
        # the residual is the limit surface's, at the balance wrench of
        # the returned weight, over (mu*f_n)^2 here
        model, state = ContactModel(mu=0.5, e=0.01), state_with()
        result = max_payload(model, state, 0.05)
        assert result.residual <= 1e-15
        f, t = object_wrench(state.g_tool, result.max_weight, state.alpha, state.d_com, 0.05)
        mu_fn2 = (model.mu * state.f_n) ** 2
        assert abs(f * f + (t / model.e) ** 2 - mu_fn2) / mu_fn2 <= 1e-15

    @pytest.mark.parametrize("e", [1e-6, 1e-9, 1e-12])
    def test_residual_is_the_rounding_of_the_weight_for_small_e(self, e):
        # over (mu*f_n)^2 alone, t/e's slope D/(2*e) would make the residual
        # of the correctly rounded weight ~ 1e-18/e, past the bound
        model, state = ContactModel(mu=0.5, e=e), state_with()
        result = max_payload(model, state, 0.05)
        assert result.max_weight == pytest.approx(
            float(reference_root(model, state, 0.05)), rel=1e-15)
        assert result.residual <= 1e-15

    def test_capacity_tight_at_the_root(self):
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with()
        x = max_payload(model, state, 0.05).max_weight
        f, t = object_wrench(state.g_tool, x, state.alpha, state.d_com, 0.05)
        assert capacity_check(model, state.f_n, f, t)
        f, t = object_wrench(state.g_tool, 1.001 * x, state.alpha, state.d_com, 0.05)
        assert not capacity_check(model, state.f_n, f, t)

    def test_zero_clamped_result(self):
        # vertical tool with the center of mass far off the grasp line:
        # the capacity roots are both negative, so the payload clamps to 0
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with(alpha=0.0, d_com=0.0399)
        result = max_payload(model, state, d_obj=0.0)
        assert result.zero_clamped
        assert result.max_weight == 0.0
        assert not payload_feasible(model, state, 0.0, 0.0)

    def test_equilibrium_residuals_at_oracle_boundary(self):
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with()
        x = bisect_max_payload(model, state, 0.05)
        f, t = object_wrench(state.g_tool, x, state.alpha, state.d_com, 0.05)
        assert abs(2.0 * f - state.g_tool - x) < 1e-9
        assert abs(state.g_tool * state.d_com * math.cos(state.alpha)
                   + 2.0 * t - x * 0.05 * math.sin(state.alpha)) < 1e-9

    @given(mu=st.floats(min_value=0.2, max_value=1.2),
           e=st.floats(min_value=0.003, max_value=0.03),
           f_n=st.floats(min_value=10.0, max_value=100.0),
           load=st.floats(min_value=0.1, max_value=0.8),
           alpha=st.floats(min_value=0.05, max_value=math.pi - 0.05),
           d_com=st.floats(min_value=0.0, max_value=0.05),
           d_obj=st.floats(min_value=0.0, max_value=0.2))
    def test_solver_tracks_oracle(self, mu, e, f_n, load, alpha, d_com, d_obj):
        model = ContactModel(mu=mu, e=e)
        g = 2.0 * mu * f_n * load
        state = state_with(f_n=f_n, g_tool=g, alpha=alpha, d_com=d_com)
        try:
            result = max_payload(model, state, d_obj)
        except NoFeasiblePayloadError:
            assert bisect_max_payload(model, state, d_obj) is None
            return
        if result.zero_clamped:
            assert not payload_feasible(model, state, d_obj, 0.0)
            return
        oracle = bisect_max_payload(model, state, d_obj)
        assert oracle is not None
        assert result.max_weight == pytest.approx(oracle, rel=1e-6, abs=1e-6)

    @given(alpha=st.floats(min_value=0.0, max_value=math.pi),
           d_com=st.floats(min_value=0.0, max_value=0.06),
           d_obj=st.floats(min_value=0.0, max_value=0.2),
           weight=st.floats(min_value=0.0, max_value=60.0))
    def test_equilibrium_quadratic_sign_is_feasibility(self, alpha, d_com,
                                                       d_obj, weight):
        # the balance quadratic has the sign of the capacity excess at
        # weight w, and max_payload's weight is its larger root: the
        # quadratic is positive at every weight above it
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with(alpha=alpha, d_com=d_com)
        value, scale = reference.balance_quadratic(weight, *reference_args(model, state, d_obj))
        feasible = payload_feasible(model, state, d_obj, weight)
        if abs(value) > 1e-9 * scale:
            assert feasible == (value < 0.0)
        try:
            top = max_payload(model, state, d_obj).max_weight
        except NoFeasiblePayloadError:
            assert reference_root(model, state, d_obj) is None or near_tie(model, state, d_obj)
            return
        if weight > top + 1e-11 * state.g_tool:
            assert value > 0.0


class TestClosedFormVerdicts:
    """Seeded draw_contact checks against the 80-digit reference, which
    the old quadratic failed at small e."""

    SEEDS = range(27_000)
    # draws with a subnormal e, where w*D/(2*e) overflows; their roots are
    # negative, so each weight is the clamped 0
    SUBNORMAL_E = (846, 7610, 11511, 15105, 20135, 21616, 22449, 23591)

    def test_verdict_is_the_sign_of_k(self):
        # a weight exactly where K >= 0 on the float inputs; 36 of these
        # draws had the wrong verdict under the old quadratic
        answered = 0
        for seed in self.SEEDS:
            model, state, d_obj = draw_contact(seed)
            if 2.0 * model.mu * state.f_n < state.g_tool:
                continue
            sign = reference.capacity_sign(*reference_args(model, state, d_obj))
            try:
                max_payload(model, state, d_obj)
            except NoFeasiblePayloadError:
                assert sign < 0, seed
            except DomainError:
                continue   # a term out of the float range
            else:
                assert sign >= 0, seed
            answered += 1
        # about 23% of the draws cannot hold the tool, and 3% overflow
        assert answered > 0.7 * len(self.SEEDS)

    def test_weight_is_the_reference_root(self):
        # every weight returned is the 80-digit larger root, clamped at 0,
        # to 1e-12 of the larger of it and g_tool: the solve's accuracy,
        # checked here rather than by a residual on every cell
        weights = 0
        for seed in self.SEEDS:
            model, state, d_obj = draw_contact(seed)
            try:
                weight = max_payload(model, state, d_obj).max_weight
            except (NoFeasiblePayloadError, DomainError):
                continue
            root = max(reference_root(model, state, d_obj), 0)
            assert abs(weight - root) <= 1e-12 * max(root, state.g_tool), seed
            weights += 1
        assert weights > 12_000

    def test_every_residual_is_finite_and_small(self):
        # the residual takes its terms times e, so a subnormal e, as in the
        # SUBNORMAL_E draws, leaves it finite
        residuals = {}
        for seed in self.SEEDS:
            model, state, d_obj = draw_contact(seed)
            try:
                residuals[seed] = max_payload(model, state, d_obj).residual
            except (NoFeasiblePayloadError, DomainError):
                continue
        assert all(0.0 <= residual <= 2e-15 for residual in residuals.values())
        assert set(self.SUBNORMAL_E) <= residuals.keys() and len(residuals) > 12_000

    @pytest.mark.parametrize("seed", SUBNORMAL_E)
    def test_subnormal_e_gives_the_clamped_zero(self, seed):
        model, state, d_obj = draw_contact(seed)
        assert 0.0 < model.e < sys.float_info.min
        assert reference_root(model, state, d_obj) < 0
        result = max_payload(model, state, d_obj)
        assert (result.max_weight.hex(), result.zero_clamped) == ("0x0.0p+0", True)

    @staticmethod
    def outcome(model, state, d_obj):
        """The weight, None where no weight is feasible, or the error type
        of a term out of the float range."""
        try:
            return max_payload(model, state, d_obj).max_weight
        except NoFeasiblePayloadError:
            return None
        except DomainError as exc:
            return type(exc)

    @pytest.mark.parametrize("factor", [1.001, 1.5])
    def test_weight_does_not_decrease_in_mu_or_f_n(self, factor):
        # more friction capacity only widens the feasible set; the old
        # quadratic took 7 to 9 of 20,000 draws from a weight to none
        # (seed 4980: 77.8 N, then none at mu * 1.001)
        for seed in (4980, *range(20_000)):
            model, state, d_obj = draw_contact(seed)
            before = self.outcome(model, state, d_obj)
            if not isinstance(before, float):
                continue
            for raised in (self.outcome(replace(model, mu=model.mu * factor), state, d_obj),
                           self.outcome(model, replace(state, f_n=state.f_n * factor), d_obj)):
                if raised is not DomainError:   # (mu*f_n)^2 or K may overflow
                    assert raised is not None and raised >= before, seed


@pytest.mark.usefixtures("driver")
class TestPayloadSweep:
    def test_single_cell_equals_direct_call(self):
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with()
        rows = list(payload_sweep(model, state, 0.05, [math.pi / 4], [0.03]))
        assert len(rows) == 1
        alpha, d, weight = rows[0]
        direct = max_payload(model, replace(state, alpha=alpha, d=d, d_com=d), 0.05)
        assert weight == direct.max_weight

    def test_row_major_ordering_and_determinism(self):
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with()
        alphas = [0.2, 0.6, 1.0]
        ds = [0.0, 0.02]
        rows = payload_sweep(model, state, 0.05, alphas, ds)
        assert [(a, d) for a, d, _ in rows] == [
            (a, d) for a in alphas for d in ds]
        again = payload_sweep(model, state, 0.05, alphas, ds)
        assert list(rows) == list(again)

    def test_infeasible_cells_are_explicit(self):
        model = ContactModel(mu=0.5, e=0.001)
        state = state_with(f_n=11.0, g_tool=10.0)
        # a large grasp offset overloads the spin capacity at every weight
        rows = list(payload_sweep(model, state, 0.0, [math.pi / 4], [0.0, 5.0]))
        assert rows[0][2] is not None
        assert rows[1][2] is None

    def test_empty_range_rejected(self):
        model = ContactModel(mu=0.5, e=0.01)
        with pytest.raises(ValueError):
            payload_sweep(model, state_with(), 0.05, [], [0.0])

    def test_grid_cells_spot_checked_against_bisection(self):
        import numpy as np
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with()
        alphas = [math.radians(5 + 5 * i) for i in range(17)]
        ds = [0.1 * i / 19 for i in range(20)]
        rows = list(payload_sweep(model, state, 0.05, alphas, ds))
        rng = np.random.default_rng(42)
        for idx in rng.choice(len(rows), size=10, replace=False):
            alpha, d, weight = rows[idx]
            cell_state = replace(state, alpha=alpha, d=d, d_com=d)
            oracle = bisect_max_payload(model, cell_state, 0.05)
            if weight is None:
                assert oracle is None
            else:
                assert weight == pytest.approx(oracle, rel=1e-6, abs=1e-6)

    def test_every_cell_kind_matches_scalar(self):
        # positive, zero-clamped (vertical tool, center of mass far off the
        # grasp line) and no-real-root cells (large offset) in one grid
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with()
        alphas = [0.0, 0.3, math.pi / 2, math.pi]
        ds = [0.0, 0.0399, 0.2, 5.0]
        rows = payload_sweep(model, state, 0.0, alphas, ds)
        expected = payload_rows(model, state, 0.0, alphas, ds)
        assert [(a, d, bits(w)) for a, d, w in rows] == [
            (a, d, bits(w)) for a, d, w in expected]
        weights = [w for _, _, w in rows]
        assert None in weights
        assert 0.0 in weights
        assert any(w is not None and w > 0.0 for w in weights)

    @staticmethod
    def weight_cells(grid, numpy_pass):
        """grid.weights' cells in row order, after checking their type: the
        numpy pass's float64 array, which the CLI formats without a copy,
        or lists of Python floats, which load no numpy."""
        import numpy as np
        shape = (len(grid.alphas), len(grid.ds))
        if numpy_pass:
            assert type(grid.weights) is np.ndarray
            assert (grid.weights.dtype, grid.weights.shape) == (np.float64, shape)
            return grid.weights.ravel().tolist()
        assert type(grid.weights) is list and len(grid.weights) == shape[0]
        assert all(type(row) is list and len(row) == shape[1] for row in grid.weights)
        cells = [w for row in grid.weights for w in row]
        assert all(type(w) is float for w in cells)
        return cells

    @pytest.mark.parametrize("state, held", [(state_with(), True),
                                             (state_with(f_n=5.0, g_tool=10.0), False)],
                             ids=["held", "tool-too-heavy"])
    def test_weights_are_rows_of_floats(self, state, held, driver):
        # a tool not held takes neither pass: its grid is nan lists
        model = ContactModel(mu=0.5, e=0.01)
        alphas, ds = [0.0, 0.3, math.pi / 2], [0.0, 0.2, 5.0]
        grid = payload_sweep(model, state, 0.0, alphas, ds)
        rows = payload_rows(model, state, 0.0, alphas, ds)
        cells = self.weight_cells(grid, driver == "numpy" and held)
        assert [bits(w) for w in cells] == [
            bits(math.nan if w is None else w) for _, _, w in rows]
        # iterating gives the same rows, in Python floats
        assert None in [w for _, _, w in rows]
        assert list(grid) == rows
        assert all(w is None or type(w) is float for _, _, w in grid)

    def test_numpy_ranges_give_python_floats(self, driver):
        import numpy as np
        model = ContactModel(mu=0.5, e=0.01)
        alphas, ds = np.array([0.0, 0.3]), np.array([0.0, 0.02])
        grid = payload_sweep(model, state_with(), 0.0, alphas, ds)
        assert all(type(v) is float for v in grid.alphas + grid.ds)
        self.weight_cells(grid, driver == "numpy")
        assert all(type(v) is float for cell in grid for v in cell)
        assert list(grid) == payload_rows(model, state_with(), 0.0,
                                          alphas.tolist(), ds.tolist())

    def test_counts_and_worst_residual_match_scalar(self):
        # positive, zero-clamped and no-real-root cells in one grid
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with(g_tool=20.0)
        alphas, ds = [0.0, 0.3], [0.0, 0.01732049, 0.019, 0.03]
        grid = payload_sweep(model, state, 0.0, alphas, ds)
        results = []
        for alpha in alphas:
            for d in ds:
                try:
                    results.append(max_payload(
                        model, replace(state, alpha=alpha, d=d, d_com=d), 0.0))
                except NoFeasiblePayloadError:
                    pass
        zero_clamped = sum(r.zero_clamped for r in results)
        assert 0 < zero_clamped < len(results) < len(grid)
        assert grid.feasible == len(results)
        assert grid.infeasible == len(grid) - len(results)
        assert grid.zero_clamped == zero_clamped

    def test_tool_too_heavy_every_cell_infeasible(self):
        model = ContactModel(mu=0.5, e=0.01)
        rows = payload_sweep(model, state_with(f_n=5.0, g_tool=10.0), 0.05,
                             [0.2, 1.0], [0.0, 0.02, 0.04])
        assert [w for _, _, w in rows] == [None] * 6
        assert (rows.feasible, rows.infeasible, rows.zero_clamped) == (0, 6, 0)

    @pytest.mark.parametrize("alphas, ds", [
        ([0.5, math.pi + 0.1], [0.0, 0.02]),
        ([0.5, math.nan], [0.0]),
        ([0.5], [0.0, -0.01]),
        ([0.5], [0.0, math.nan]),
        ([0.5, 1.0], [0.0, math.inf]),
        ([math.pi + 0.1, 0.5], [-0.01]),   # the first cell fails on alpha
        ([0.5, math.pi + 0.1], [-0.01]),   # ... and on d
        ([0.5, math.pi + 0.1], [0.0, -0.01]),
        # the first bad value in grid order names the error, not the
        # smallest or largest one
        ([0.5], [0.0, -0.01, math.nan]),
        ([0.5], [0.0, math.inf, -math.inf]),
        ([0.5, 4.0, math.nan], [0.0]),
        ([0.5, math.inf, -math.inf], [0.0]),
    ])
    def test_range_checks_match_scalar(self, alphas, ds):
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with()
        with pytest.raises(ValueError) as expected:
            payload_rows(model, state, 0.05, alphas, ds)
        with pytest.raises(ValueError) as raised:
            payload_sweep(model, state, 0.05, alphas, ds)
        assert str(raised.value) == str(expected.value)

    @given(mu=st.floats(min_value=0.2, max_value=1.2),
           e=st.floats(min_value=0.0005, max_value=0.03),
           f_n=st.floats(min_value=1.0, max_value=100.0),
           load=st.floats(min_value=0.05, max_value=1.5),
           d_obj=st.floats(min_value=-0.05, max_value=0.3),
           alphas=st.lists(st.floats(min_value=0.0, max_value=math.pi),
                           min_size=1, max_size=5),
           ds=st.lists(st.floats(min_value=0.0, max_value=0.3),
                       min_size=1, max_size=5))
    @example(mu=0.5, e=0.001, f_n=11.0, load=10.0 / 11.0, d_obj=0.0,
             alphas=[math.pi / 4], ds=[0.0, 0.3])          # no real root
    @example(mu=0.5, e=0.01, f_n=40.0, load=0.5, d_obj=0.0,
             alphas=[0.0], ds=[0.0399])                      # zero-clamped
    @example(mu=0.5, e=0.01, f_n=5.0, load=4.0, d_obj=0.05,
             alphas=[0.2, 1.0], ds=[0.0, 0.02])              # tool too heavy
    # the driver fixture is set once per test, not per example
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_scalar_cells(self, mu, e, f_n, load, d_obj, alphas, ds):
        # load is g_tool / (2*mu*f_n): above 1 the tool itself slips
        model = ContactModel(mu=mu, e=e)
        state = state_with(f_n=f_n, g_tool=2.0 * mu * f_n * load)
        rows = payload_sweep(model, state, d_obj, alphas, ds)
        expected = payload_rows(model, state, d_obj, alphas, ds)
        assert [(a, d, bits(w)) for a, d, w in rows] == [
            (a, d, bits(w)) for a, d, w in expected]


EXAMPLE = Path(__file__).resolve().parent.parent / "designs" / "example_tool.ini"
PAYLOAD_FIELDS = {"mu": "model", "e": "model", "f_n": "state", "g_tool": "state"}


def scaling_draws(seed, count, fields=PAYLOAD_FIELDS):
    """count draws of two of the example design's fields (payload fields
    by default), each to be scaled by 10**x: x uniform over the float
    range, within 2 of an overflow or underflow threshold, or within 3 of
    0."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        draw = {}
        for field in rng.sample(sorted(fields), 2):
            draw[field] = rng.choice([
                rng.uniform(-320.0, 300.0),
                rng.choice([-320.0, -308.0, -154.0, 154.0, 308.0]) + rng.uniform(-2.0, 2.0),
                rng.uniform(-3.0, 3.0)])
        draws.append(draw)
    return draws


class TestDriversAgree:
    """payload_sweep's numpy pass and its one-cell pass give the same grid
    bit for bit, or raise the same error, on the example design with two
    fields scaled by powers of ten: an invariant that needs no oracle and
    reaches cells where a term of the closed form overflows."""

    ALPHAS = [math.radians(a) for a in (15.0, 30.0, 45.0, 60.0, 75.0)]
    DS = [0.0, 0.01, 0.02, 0.03, 0.04]

    def outcome(self, model, state, monkeypatch, driver_limit):
        monkeypatch.setattr(payload, "SCALAR_GRID_CELLS", driver_limit)
        try:
            grid = payload_sweep(model, state, 0.05, self.ALPHAS, self.DS)
        except (GripperToolError, ValueError) as exc:
            return type(exc).__name__, str(exc)
        return ([bits(float(w)) for row in grid.weights for w in row], grid.feasible,
                grid.zero_clamped)

    def assert_drivers_agree(self, monkeypatch, values):
        """False when the scaled design is refused before any sweep."""
        _, _, model, state = parse_design(EXAMPLE.read_text())
        try:
            model = replace(model, **{f: v for f, v in values.items()
                                      if PAYLOAD_FIELDS[f] == "model"})
            state = replace(state, **{f: v for f, v in values.items()
                                      if PAYLOAD_FIELDS[f] == "state"})
        except (GripperToolError, ValueError):
            return False
        numpy_pass = self.outcome(model, state, monkeypatch, 0)
        cell_pass = self.outcome(model, state, monkeypatch, MAX_GRID_CELLS)
        assert numpy_pass == cell_pass, values
        return True

    @pytest.mark.parametrize("values", [
        # a term of the conjugate form overflows: the numpy pass must
        # solve the cell again alone to raise max_payload's error
        {"e": 3.54e152, "g_tool": 1.0},
        {"e": 5e152, "mu": 0.5},
    ], ids=["e=3.54e152,g_tool=1", "e=5e152,mu=0.5"])
    def test_named_draw(self, monkeypatch, values):
        assert self.assert_drivers_agree(monkeypatch, values)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_two_field_scalings(self, monkeypatch, seed):
        _, _, model, state = parse_design(EXAMPLE.read_text())
        base = {"mu": model.mu, "e": model.e, "f_n": state.f_n, "g_tool": state.g_tool}
        swept = 0
        for draw in scaling_draws(seed, 300):
            # two factors of 10**(x/2): each is finite where 10**x is not
            values = {f: base[f] * 10.0 ** (x / 2) * 10.0 ** (x / 2) for f, x in draw.items()}
            swept += self.assert_drivers_agree(monkeypatch, values)
        assert swept >= 100
