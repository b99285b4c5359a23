import math

import pytest
from hypothesis import assume, example, given, strategies as st

from grippertool import (
    ContactModel,
    GraspState,
    NoFeasiblePayloadError,
    capacity_check,
    equilibrium_coefficients,
    max_payload,
    payload,
    payload_sweep,
    replace,
    stable_quadratic_roots,
)

from oracles import bisect_max_payload, object_wrench, payload_feasible
from sweep_reference import bits, payload_rows


def state_with(**kwargs):
    base = dict(f_n=40.0, g_tool=10.0, alpha=math.pi / 4, gamma=0.0,
                d=0.02, d_com=0.03, theta=0.3)
    base.update(kwargs)
    return GraspState(**base)


class TestStableQuadraticRoots:
    def test_plain_quadratic(self):
        lo, hi = stable_quadratic_roots(1.0, -3.0, 2.0)
        assert (lo, hi) == (1.0, 2.0)

    def test_cancellation_prone_case(self):
        # roots 1e-8 and 1e8; naive formula loses the small root
        lo, hi = stable_quadratic_roots(1.0, -(1e8 + 1e-8), 1.0)
        assert lo == pytest.approx(1e-8, rel=1e-12)
        assert hi == pytest.approx(1e8, rel=1e-12)

    @given(st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=0.01, max_value=100.0))
    def test_roots_satisfy_quadratic(self, r1, r2, a):
        # near-double roots can round to a tiny negative discriminant,
        # which the solver treats as no real roots by contract
        assume(abs(r1 - r2) > 1e-6 * (abs(r1) + abs(r2) + 1.0))
        b = -a * (r1 + r2)
        c = a * r1 * r2
        lo, hi = stable_quadratic_roots(a, b, c)
        for x in (lo, hi):
            residual = abs(a * x * x + b * x + c)
            scale = max(abs(a * x * x), abs(b * x), abs(c), 1.0)
            assert residual <= 1e-9 * scale


class TestMaxPayload:
    def test_tool_too_heavy(self):
        model = ContactModel(mu=0.5, e=0.005)
        with pytest.raises(NoFeasiblePayloadError):
            max_payload(model, state_with(f_n=5.0, g_tool=10.0), 0.05)

    def test_vertical_tool_closed_form(self):
        model = ContactModel(mu=0.5, e=0.005)
        state = state_with(alpha=0.0, d_com=0.001)
        result = max_payload(model, state, 0.05)
        t0 = -state.g_tool * state.d_com / 2.0
        closed = 2.0 * math.sqrt((model.mu * state.f_n) ** 2
                                 - (t0 / model.e) ** 2) - state.g_tool
        assert result.max_weight == pytest.approx(closed, abs=1e-9)

    def test_nominal_against_bisection_oracle(self):
        # frozen from oracles.bisect_max_payload on these parameters
        model = ContactModel(mu=0.5, e=0.005)
        state = state_with()
        result = max_payload(model, state, 0.05)
        assert result.max_weight == pytest.approx(10.829363551522128, rel=1e-8)
        oracle = bisect_max_payload(model, state, 0.05)
        assert result.max_weight == pytest.approx(oracle, rel=1e-6)

    def test_residual_within_bound(self):
        model = ContactModel(mu=0.5, e=0.01)
        result = max_payload(model, state_with(), 0.05)
        assert result.residual <= 1e-9
        a, b, c = result.coefficients
        x = result.max_weight
        assert abs(a * x * x + b * x + c) <= 1e-9 * max(
            abs(a * x * x), abs(b * x), abs(c), 1.0)

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
        # a*w^2 + b*w + c has the sign of the capacity excess at weight w
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with(alpha=alpha, d_com=d_com)
        a, b, c = equilibrium_coefficients(model, state, d_obj)
        value = a * weight * weight + b * weight + c
        feasible = payload_feasible(model, state, d_obj, weight)
        if abs(value) > 1e-9 * max(abs(a * weight * weight), abs(c), 1.0):
            assert feasible == (value < 0.0)


class TestPayloadSweep:
    def test_single_cell_equals_direct_call(self):
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with()
        rows = payload_sweep(model, state, 0.05, [math.pi / 4], [0.03])
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
        rows = payload_sweep(model, state, 0.0, [math.pi / 4], [0.0, 5.0])
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
        rows = payload_sweep(model, state, 0.05, alphas, ds)
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

    def test_weights_array_holds_the_cells(self):
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with()
        alphas, ds = [0.0, 0.3, math.pi / 2], [0.0, 0.2, 5.0]
        grid = payload_sweep(model, state, 0.0, alphas, ds)
        rows = payload_rows(model, state, 0.0, alphas, ds)
        assert grid.weights.shape == (3, 3)
        assert [bits(w) for w in grid.weights.ravel().tolist()] == [
            bits(math.nan if w is None else w) for _, _, w in rows]
        # indexing, negative indices included, gives the same rows
        assert None in [w for _, _, w in rows]
        assert [grid[k] for k in range(-9, 9)] == rows + rows
        with pytest.raises(IndexError):
            grid[9]

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
        assert grid.max_residual == max(r.residual for r in results)

    def test_tool_too_heavy_every_cell_infeasible(self):
        model = ContactModel(mu=0.5, e=0.01)
        rows = payload_sweep(model, state_with(f_n=5.0, g_tool=10.0), 0.05,
                             [0.2, 1.0], [0.0, 0.02, 0.04])
        assert [w for _, _, w in rows] == [None] * 6
        assert (rows.feasible, rows.infeasible, rows.zero_clamped,
                rows.max_residual) == (0, 6, 0, 0.0)

    @pytest.mark.parametrize("alphas, ds", [
        ([0.5, math.pi + 0.1], [0.0, 0.02]),
        ([0.5, math.nan], [0.0]),
        ([0.5], [0.0, -0.01]),
        ([0.5], [0.0, math.nan]),
        ([0.5, 1.0], [0.0, math.inf]),
        ([math.pi + 0.1, 0.5], [-0.01]),   # the first cell fails on alpha
        ([0.5, math.pi + 0.1], [-0.01]),   # ... and on d
        ([0.5, math.pi + 0.1], [0.0, -0.01]),
    ])
    def test_range_checks_match_scalar(self, alphas, ds):
        model = ContactModel(mu=0.5, e=0.01)
        state = state_with()
        with pytest.raises(ValueError) as expected:
            payload_rows(model, state, 0.05, alphas, ds)
        with pytest.raises(ValueError) as raised:
            payload_sweep(model, state, 0.05, alphas, ds)
        assert str(raised.value) == str(expected.value)

    def test_residual_bound_raises_like_scalar(self, monkeypatch):
        # a negative bound fails every feasible cell: both paths must stop
        # at the first one in grid order with the PayloadResult message
        monkeypatch.setattr(payload, "ROOT_RESIDUAL_TOL", -1.0)
        model = ContactModel(mu=0.5, e=0.001)
        state = state_with(f_n=11.0, g_tool=10.0)
        alphas, ds = [math.pi / 4, 1.0], [5.0, 0.0, 0.01]
        with pytest.raises(ValueError) as expected:
            payload_rows(model, state, 0.0, alphas, ds)
        with pytest.raises(ValueError) as raised:
            payload_sweep(model, state, 0.0, alphas, ds)
        assert "PayloadResult.residual" in str(expected.value)
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
    def test_matches_scalar_cells(self, mu, e, f_n, load, d_obj, alphas, ds):
        # load is g_tool / (2*mu*f_n): above 1 the tool itself slips
        model = ContactModel(mu=mu, e=e)
        state = state_with(f_n=f_n, g_tool=2.0 * mu * f_n * load)
        rows = payload_sweep(model, state, d_obj, alphas, ds)
        expected = payload_rows(model, state, d_obj, alphas, ds)
        assert [(a, d, bits(w)) for a, d, w in rows] == [
            (a, d, bits(w)) for a, d, w in expected]
