import math

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from grippertool import (
    ContactModel,
    DegenerateContactError,
    DomainError,
    GraspState,
    NoFeasiblePayloadError,
    PayloadResult,
    capacity_check,
    equilibrium_coefficients,
    max_payload,
    payload,
    payload_sweep,
    replace,
)

from grippertool.cli import MAX_GRID_CELLS

from oracles import bisect_max_payload, object_wrench, payload_feasible
from sweep_reference import bits, payload_rows


def state_with(**kwargs):
    base = dict(f_n=40.0, g_tool=10.0, alpha=math.pi / 4, gamma=0.0,
                d=0.02, d_com=0.03, theta=0.3)
    base.update(kwargs)
    return GraspState(**base)


class TestStableQuadraticRoots:
    """payload._roots, the cancellation-safe quadratic root formula that
    max_payload uses."""

    @staticmethod
    def roots(a, b, c):
        return sorted(payload._roots(a, b, c, math.sqrt(payload._discriminant(a, b, c))))

    def test_plain_quadratic(self):
        assert self.roots(1.0, -3.0, 2.0) == [1.0, 2.0]

    def test_cancellation_prone_case(self):
        # roots 1e-8 and 1e8; naive formula loses the small root
        lo, hi = self.roots(1.0, -(1e8 + 1e-8), 1.0)
        assert lo == pytest.approx(1e-8, rel=1e-12)
        assert hi == pytest.approx(1e8, rel=1e-12)

    @given(st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=0.01, max_value=100.0))
    def test_roots_satisfy_quadratic(self, r1, r2, a):
        # near-double roots can round to a tiny negative discriminant,
        # which max_payload treats as no real roots
        assume(abs(r1 - r2) > 1e-6 * (abs(r1) + abs(r2) + 1.0))
        b = -a * (r1 + r2)
        c = a * r1 * r2
        for x in self.roots(a, b, c):
            residual = abs(a * x * x + b * x + c)
            scale = max(abs(a * x * x), abs(b * x), abs(c), 1.0)
            assert residual <= 1e-9 * scale


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

    def test_vertical_tool_closed_form(self):
        model = ContactModel(mu=0.5, e=0.005)
        state = state_with(alpha=0.0, d_com=0.001)
        result = max_payload(model, state, 0.05)
        t0 = -state.g_tool * state.d_com / 2.0
        closed = 2.0 * math.sqrt((model.mu * state.f_n) ** 2
                                 - (t0 / model.e) ** 2) - state.g_tool
        assert result.max_weight == pytest.approx(closed, abs=1e-9)

    def test_nan_residual_rejected(self):
        with pytest.raises(ValueError, match="PayloadResult.residual nan"):
            PayloadResult(1.0, (1.0, 0.0, -1.0), math.nan)

    @pytest.mark.parametrize("model, state, d_obj, named", [
        (ContactModel(mu=0.5, e=0.005), state_with(), 1e160,
         "d_obj = 1e+160, e = 0.005, d_com = 0.02"),
        (ContactModel(mu=0.5, e=1e200), state_with(), 0.05,
         "d_obj = 0.05, e = 1e+200, d_com = 0.02"),
        # finite coefficients: a*x^2 overflows in the residual, which is nan
        (ContactModel(mu=0.5, e=1e-143), state_with(), 0.05,
         "d_obj = 0.05, e = 1e-143, d_com = 0.02"),
        # finite coefficients: 4*a*c overflows, so the discriminant is inf,
        # the root 0 and its residual 1
        (ContactModel(mu=1.5e152, e=0.005), state_with(d=0.0), 0.05,
         "d_obj = 0.05, e = 0.005, d_com = 0"),
        # 4*max_t^2 overflows, so a = 0 although a >= 1/4: b and c are nan,
        # and the scalar solve divided by a = 0
        (ContactModel(mu=0.5, e=5e152), state_with(), 0.05,
         "d_obj = 0.05, e = 5e+152, d_com = 0.02"),
        # a = 0 with b and c finite: the numpy pass's root of b*w + c = 0
        # passed the residual bound and printed 800 where the weight is 39
        (ContactModel(mu=0.5, e=3.54e152), state_with(g_tool=1.0), 0.05,
         "d_obj = 0.05, e = 3.54e+152, d_com = 0.02"),
    ])
    def test_overflowing_coefficients_raise_like_sweep(self, model, state, d_obj, named,
                                                       driver):
        # a term of a, b or c, the discriminant or the residual overflows:
        # the error names the inputs (the sweep's d_com is the cell's d)
        # rather than the residual
        state = replace(state, d_com=state.d)
        with pytest.raises(DomainError) as scalar:
            max_payload(model, state, d_obj)
        with pytest.raises(DomainError) as sweep:
            payload_sweep(model, state, d_obj, [state.alpha], [state.d])
        assert str(scalar.value) == ("payload quadratic out of floating-point range: "
                                     + named)
        assert str(sweep.value) == str(scalar.value)

    def test_sweep_names_the_first_overflowing_cell(self, driver):
        # d_com = d: the cells with d = 0 stay finite, d = 1e154 overflows b and c
        model, state = ContactModel(mu=0.5, e=0.005), state_with()
        alphas, ds = [math.pi / 4, 1.0], [0.0, 1e154, 2e154]
        with pytest.raises(DomainError) as expected:
            payload_rows(model, state, 1e150, alphas, ds)
        with pytest.raises(DomainError) as raised:
            payload_sweep(model, state, 1e150, alphas, ds)
        assert "d_obj = 1e+150, e = 0.005, d_com = 1e+154" in str(expected.value)
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

    def test_squared_capacity_underflow_is_degenerate(self):
        state = state_with(f_n=1e-200, g_tool=1e-201)
        with pytest.raises(DegenerateContactError):
            max_payload(ContactModel(mu=0.5, e=0.005), state, 0.05)

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

    @pytest.mark.parametrize("state", [state_with(), state_with(f_n=5.0, g_tool=10.0)],
                             ids=["held", "tool-too-heavy"])
    def test_weights_are_rows_of_floats(self, state):
        model = ContactModel(mu=0.5, e=0.01)
        alphas, ds = [0.0, 0.3, math.pi / 2], [0.0, 0.2, 5.0]
        grid = payload_sweep(model, state, 0.0, alphas, ds)
        rows = payload_rows(model, state, 0.0, alphas, ds)
        assert len(grid.weights) == len(alphas)
        assert all(len(row) == len(ds) for row in grid.weights)
        cells = [w for row in grid.weights for w in row]
        assert all(type(w) is float for w in cells)
        assert [bits(w) for w in cells] == [
            bits(math.nan if w is None else w) for _, _, w in rows]
        # iterating gives the same rows
        assert None in [w for _, _, w in rows]
        assert list(grid) == rows

    def test_numpy_ranges_give_python_floats(self):
        import numpy as np
        model = ContactModel(mu=0.5, e=0.01)
        alphas, ds = np.array([0.0, 0.3]), np.array([0.0, 0.02])
        grid = payload_sweep(model, state_with(), 0.0, alphas, ds)
        assert all(type(v) is float for v in grid.alphas + grid.ds)
        assert all(type(w) is float for row in grid.weights for w in row)
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
