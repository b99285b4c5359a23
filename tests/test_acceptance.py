"""Acceptance suite.

Each test exercises one release criterion end to end at its stated
tolerance and prints a single PASS line on success (a failed criterion
shows up as the failed test itself). Randomized criteria use fixed seeds.
Run with -s to see the lines during a green run.
"""

import io
import math
import time
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import sympy
from sympy.calculus.util import minimum

from grippertool import (
    ContactModel,
    GraspState,
    GripConfig,
    SizingProblem,
    SpringSpec,
    check_feasible,
    gamma_sweep,
    grip_demand,
    holding_max_offset,
    max_payload,
    maximize_stroke,
    replace,
    required_grip_force,
    stroke_fixed_width,
    torque_margin,
)
from grippertool import contact, mechanism, payload
from grippertool.cli import run

from oracles import (
    bisect_max_payload,
    grid_max_stroke,
    holding_feasible,
    payload_feasible,
)
from symbolic import exact, on_symbols

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = str(ROOT / "designs" / "example_tool.ini")
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def base_state(**kwargs):
    values = dict(f_n=40.0, g_tool=10.0, alpha=math.pi / 4, gamma=0.0,
                  d=0.02, d_com=0.03, theta=0.3)
    values.update(kwargs)
    return GraspState(**values)


def draw_payload_case(rng):
    """Random valid parameters with the empty tool holdable at the grasp."""
    while True:
        mu = rng.uniform(0.2, 1.2)
        e = rng.uniform(0.003, 0.03)
        f_n = rng.uniform(10.0, 100.0)
        g = rng.uniform(0.2, 0.8) * 2.0 * mu * f_n
        alpha = rng.uniform(0.05, math.pi - 0.05)
        d_com = rng.uniform(0.0, 0.06)
        d_obj = rng.uniform(0.0, 0.2)
        model = ContactModel(mu=mu, e=e)
        state = base_state(f_n=f_n, g_tool=g, alpha=alpha, d_com=d_com)
        if payload_feasible(model, state, d_obj, 0.0):
            return model, state, d_obj


class TestCriterion1And2:
    def test_payload_oracle_equivalence_and_residual(self):
        rng = np.random.default_rng(20240811)
        start = time.monotonic()
        worst_gap = 0.0
        worst_residual = 0.0
        for _ in range(1000):
            model, state, d_obj = draw_payload_case(rng)
            result = max_payload(model, state, d_obj)
            oracle = bisect_max_payload(model, state, d_obj)
            assert oracle is not None
            gap = abs(result.max_weight - oracle) / max(1.0, oracle)
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-6
            worst_residual = max(worst_residual, result.residual)
            assert result.residual <= 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        report(1, f"payload oracle equivalence, worst rel gap {worst_gap:.2e}, "
                  f"{elapsed:.1f} s")
        report(2, f"limit-surface residual, worst {worst_residual:.2e}")


class TestCriterion1And2Proof:
    """The payload's closed form proved, next to the sampled check above,
    on the expressions payload's own _terms and _root_parts build from
    sympy symbols: the balance substituted into the limit surface is a
    quadratic whose discriminant is (e*sqrt(K))^2, and both forms of the
    root that max_payload takes are one value, on the limit surface, and
    the larger root."""

    g, e, m, d_obj, d_com = sympy.symbols("g e M d_obj d_com", positive=True)  # M = mu*f_n
    s, c, w = sympy.symbols("s c w", real=True)   # s, c = sin(alpha), cos(alpha)

    def quadratic(self):
        """4*e^2*(f^2 + (t/e)^2 - M^2) at weight w, as a polynomial in w,
        with f and t solved from the two balance equations."""
        f, t = sympy.symbols("f t", real=True)
        balance = sympy.solve([2 * f - self.g - self.w,
                               self.g * self.d_com * self.c + 2 * t - self.w * self.d_obj * self.s],
                              [f, t], dict=True)
        excess = (f ** 2 + (t / self.e) ** 2 - self.m ** 2).subs(balance[0])
        return sympy.Poly(sympy.expand(4 * self.e ** 2 * excess), self.w)

    def forms(self):
        """E, the feasibility slack, e*sqrt(K), n and the two root forms,
        from payload's code: a where() that keeps both branches gives the
        numerators n + e*sqrt(K) and the conjugate's, and the denominators
        E and n - e*sqrt(K)."""
        g, e, m = self.g, self.e, self.m
        d, q, big_e, reach, slack = exact(payload._terms(
            m, e, g, self.d_obj, self.d_com, self.s, self.c, sympy.sqrt))
        (summed, conjugate), (over_e, over_n) = exact(payload._root_parts(
            m, e, g, d, q, big_e, reach, slack, sympy.sqrt, lambda cond, x, y: (x, y)))
        return (big_e, slack, (summed - over_n) / 2, (summed + over_n) / 2,
                summed / over_e, conjugate / over_n)

    def test_discriminant_factors_and_both_forms_are_the_larger_root(self):
        quadratic = self.quadratic()
        a2, a1, a0 = quadratic.all_coeffs()
        big_e, slack, e_root_k, n, summed, conjugate = self.forms()
        assert sympy.expand(a2 - big_e) == 0 and sympy.expand(a1 + 2 * n) == 0
        # (b/2)^2 - a*c = (e*sqrt(K))^2, and K = slack*(2*M*sqrt(E) + g*|L|),
        # whose second factor is >= 0: feasible exactly where slack >= 0
        assert sympy.expand((a1 / 2) ** 2 - a2 * a0 - e_root_k ** 2) == 0
        reach, load = 2 * self.m * sympy.sqrt(big_e), self.g * sympy.Abs(
            self.d_com * self.c + self.d_obj * self.s)
        assert sympy.expand(slack - (reach - load)) == 0
        assert sympy.expand(e_root_k ** 2 - self.e ** 2 * (reach - load) * (reach + load)) == 0
        # the two forms are one value: cross-multiplied, their difference is 0
        assert sympy.expand((n + e_root_k) * (n - e_root_k)
                            - big_e * conjugate * (n - e_root_k)) == 0
        # each lies on the limit surface
        surface = quadratic.as_expr()
        assert sympy.expand(sympy.cancel(big_e * surface.subs(self.w, summed))) == 0
        assert sympy.expand(sympy.cancel(
            (n - e_root_k) ** 2 * surface.subs(self.w, conjugate))) == 0
        # with the other root, it sums and multiplies to -a1/a2 and a0/a2,
        # and exceeds it by 2*e*sqrt(K)/E >= 0
        other = (n - e_root_k) / big_e
        assert sympy.simplify(summed + other + a1 / a2) == 0
        assert sympy.simplify(summed * other - a0 / a2) == 0
        assert sympy.simplify(summed - other - 2 * e_root_k / big_e) == 0
        report(2, "payload closed form proved from the balance and limit surface")

    def test_transcription_is_max_payload(self):
        big_e, slack, e_root_k, n, summed, conjugate = self.forms()
        names = (self.g, self.e, self.m, self.d_obj, self.d_com, self.s, self.c)
        library = sympy.lambdify(names, (n, summed, conjugate), "mpmath")
        rng = np.random.default_rng(2929)
        forms_seen = set()
        for _ in range(50):
            model, state, d_obj = draw_payload_case(rng)
            weight = max_payload(model, state, d_obj).max_weight
            with mpmath.workdps(40):
                n_value, *roots = library(
                    mpmath.mpf(state.g_tool), mpmath.mpf(model.e),
                    mpmath.mpf(model.mu) * state.f_n, mpmath.mpf(d_obj),
                    mpmath.mpf(state.d_com), mpmath.mpf(math.sin(state.alpha)),
                    mpmath.mpf(math.cos(state.alpha)))
            forms_seen.add(n_value >= 0)
            for root in roots:
                assert weight == pytest.approx(max(float(root), 0.0), rel=1e-12, abs=1e-12)
        assert forms_seen == {True, False}

    def test_vertical_tool_payload_is_criterion_4s_closed_form(self):
        # at alpha = 0 both forms are w = 2*sqrt(M^2 - (t0/e)^2) - g with the
        # tool's own spin torque t0 = -g*d_com/2; the two radicands of
        # e*sqrt(K) are >= 0 where a weight is feasible, so their roots combine
        t0 = -self.g * self.d_com / 2
        closed = 2 * sympy.sqrt(self.m ** 2 - (t0 / self.e) ** 2) - self.g
        for form in self.forms()[4:]:
            vertical = form.subs({self.s: 0, self.c: 1})
            assert sympy.simplify(sympy.powsimp(vertical, force=True) - closed) == 0
        report(4, "vertical-tool payload proved from the payload code")


class TestCriterion3:
    def test_holding_offset_is_feasibility_marginal(self):
        rng = np.random.default_rng(7071)
        for _ in range(200):
            mu = rng.uniform(0.2, 1.2)
            e = rng.uniform(0.002, 0.03)
            f_n = rng.uniform(10.0, 100.0)
            g = rng.uniform(0.1, 0.95) * 2.0 * mu * f_n
            alpha = rng.uniform(0.1, math.pi - 0.1)
            model = ContactModel(mu=mu, e=e)
            state = base_state(f_n=f_n, g_tool=g, alpha=alpha)
            d = holding_max_offset(model, state)
            assert holding_feasible(model, f_n, g, alpha, 0.999 * d)
            assert not holding_feasible(model, f_n, g, alpha, 1.001 * d)
        report(3, "holding-condition boundary marginal on 200 draws")


class TestCriterion3Proof:
    """Criterion 3 proved, next to the sampled check above: the wrench
    that the hanging tool puts on each pad lies exactly on the limit
    surface f^2 + (t/e)^2 = (mu*f_n)^2 at the offset contact's own
    _hold_offset computes, and its torque term grows with d, so that
    offset is the one boundary between held and dropped."""

    g, e, m, s = sympy.symbols("g e M s", positive=True)   # M = mu*f_n, s = sin(alpha)
    d = sympy.symbols("d", positive=True)

    def wrench(self):
        """(f, t) per pad at offset d, solved from the tool's force and
        moment balance over the two pads."""
        f, t = sympy.symbols("f t", real=True)
        balance = sympy.solve([2 * f - self.g, 2 * t - self.g * self.s * self.d], [f, t],
                              dict=True)[0]
        return balance[f], balance[t]

    def test_offset_is_on_the_limit_surface_and_the_torque_grows_with_d(self):
        f, t = self.wrench()
        # the spin moment per unit offset that both pads carry, 2*dt/dd
        offset = on_symbols(contact._hold_offset, self.e, self.m ** 2, self.g,
                            2 * sympy.diff(t, self.d))
        excess = f ** 2 + (t / self.e) ** 2 - self.m ** 2
        assert sympy.simplify(excess.subs(self.d, offset)) == 0
        # only the torque term depends on d, and it rises for every d > 0
        assert not f.has(self.d)
        assert sympy.diff((t / self.e) ** 2, self.d).is_positive
        report(3, "hold offset proved on the limit surface, the excess rising in d")


class TestCriterion4:
    def test_closed_form_identities(self):
        model = ContactModel(mu=0.5, e=0.01)
        exact = holding_max_offset(model, base_state(f_n=10.0, g_tool=10.0,
                                                     alpha=1.0))
        assert exact == 0.0

        assert math.isinf(holding_max_offset(model, base_state(alpha=0.0)))

        model0 = ContactModel(mu=0.5, e=0.005)
        state0 = base_state(alpha=0.0, d_com=0.001)
        result = max_payload(model0, state0, d_obj=0.05)
        t0 = -state0.g_tool * state0.d_com / 2.0
        closed = (2.0 * math.sqrt((model0.mu * state0.f_n) ** 2
                                  - (t0 / model0.e) ** 2) - state0.g_tool)
        assert result.max_weight == pytest.approx(closed, abs=1e-9)
        report(4, "closed-form identities")


class TestCriterion5:
    def test_configuration_gap(self, nominal_dims, nominal_spring):
        rng = np.random.default_rng(515151)
        for _ in range(500):
            alpha = rng.uniform(1e-3, math.pi / 2 - 1e-3)
            theta = rng.uniform(nominal_dims.theta_end, nominal_dims.theta_init)
            g = rng.uniform(1.0, 60.0)
            state = base_state(alpha=alpha, theta=theta, g_tool=g)
            backward = required_grip_force(nominal_dims, nominal_spring, state)
            forward = required_grip_force(
                nominal_dims, nominal_spring,
                replace(state, config=GripConfig.FORWARD_BASE))
            gap = backward - forward
            expected = g * math.cos(alpha) * math.tan(theta)
            scale = max(1.0, abs(backward), abs(forward))
            assert abs(gap - expected) <= 1e-12 * scale
            assert gap >= 0.0
        report(5, "configuration gap exact and nonnegative on 500 draws")


class TestCriterion5Proof:
    """Criterion 5 proved, next to the sampled check above: contact's own
    _grip_force, on symbols, gives backward - forward =
    g*cos(alpha)*tan(theta) identically, and that gap is >= 0 for alpha
    in [0, pi/2] and theta in [0, pi/2)."""

    g, v, r, kappa, beta, theta_init = sympy.symbols("g v r kappa beta theta_init",
                                                     positive=True)
    alpha, theta = sympy.symbols("alpha theta", real=True)

    def test_gap_is_g_cos_alpha_tan_theta_and_nonnegative(self):
        dims = SimpleNamespace(v=self.v, r=self.r, theta_init=self.theta_init)
        spring = SimpleNamespace(kappa=self.kappa, beta=self.beta)
        backward, forward = (on_symbols(contact._grip_force, dims, spring, self.g, self.alpha,
                                        self.theta, config)[0]
                             for config in (GripConfig.BACKWARD_BASE, GripConfig.FORWARD_BASE))
        gap = self.g * sympy.cos(self.alpha) * sympy.tan(self.theta)
        assert sympy.simplify(backward - forward - gap) == 0
        # the weight adds gap/(2*g) per newton to backward, takes it from forward
        assert sympy.diff(backward, self.g) == -sympy.diff(forward, self.g) == gap / (2 * self.g)
        # g > 0, and neither factor falls below 0 on its interval
        assert self.g.is_positive
        assert minimum(sympy.cos(self.alpha), self.alpha, sympy.Interval(0, sympy.pi / 2)) == 0
        assert minimum(sympy.tan(self.theta), self.theta,
                       sympy.Interval.Ropen(0, sympy.pi / 2)) == 0
        report(5, "configuration gap proved from the grip-force code")


SIZING_SPRING = SpringSpec(kappa=0.5, beta=math.radians(20))
SIZING_GRASP = GraspState(f_n=40.0, g_tool=10.0, alpha=math.radians(60),
                          gamma=0.0, d=0.0, d_com=0.03, theta=math.radians(30))

SIZING_INSTANCES = [
    # (problem, oracle grid shape)
    (SizingProblem(d_axis=0.004, r_edge=0.001, k=0.05, w_init=0.08,
                   m_bounds=(0.008, 0.03), r_bounds=(0.005, 0.08),
                   theta_init_bounds=(0.6, 1.4), grip_budget=1e6,
                   spring=SIZING_SPRING, grasp=SIZING_GRASP), (201, 201)),
    (SizingProblem(d_axis=0.004, r_edge=0.001, k=0.05, w_init=0.08,
                   m_bounds=(0.01, 0.02), r_bounds=(0.005, 0.08),
                   theta_init_bounds=(0.9, 1.2), grip_budget=1e6,
                   spring=SIZING_SPRING, grasp=SIZING_GRASP), (201, 201)),
    (SizingProblem(d_axis=0.006, r_edge=0.0015, k=0.06, w_init=0.1,
                   m_bounds=(0.009, 0.04), r_bounds=(0.01, 0.09),
                   theta_init_bounds=(0.7, 1.45), grip_budget=1e6,
                   spring=SpringSpec(kappa=0.8, beta=0.5),
                   grasp=SIZING_GRASP), (201, 201)),
    (SizingProblem(d_axis=0.004, r_edge=0.001, k=0.05, w_init=0.08,
                   m_bounds=(0.008, 0.03), r_bounds=(0.005, 0.08),
                   theta_init_bounds=(0.6, 1.4), grip_budget=1e6,
                   spring=SIZING_SPRING,
                   grasp=replace(SIZING_GRASP, alpha=math.pi / 4,
                                 config=GripConfig.FORWARD_BASE)), (201, 201)),
    (SizingProblem(d_axis=0.004, r_edge=0.001, k=0.05, w_init=0.08,
                   m_bounds=(0.008, 0.03), r_bounds=(0.005, 0.08),
                   theta_init_bounds=(0.9, 1.45), grip_budget=30.0,
                   spring=SIZING_SPRING, grasp=SIZING_GRASP), (201, 2001)),
]


class TestCriterion6:
    def test_sizing_matches_exhaustive_grid(self):
        start = time.monotonic()
        worst = 0.0
        for problem, (n_m, n_theta) in SIZING_INSTANCES:
            result = maximize_stroke(problem)
            assert check_feasible(result.dims) == []
            demand = grip_demand(result.dims, problem.spring, problem.grasp)
            assert demand <= problem.grip_budget * (1.0 + 1e-12)
            oracle = grid_max_stroke(problem, n_m=n_m, n_theta=n_theta)
            assert oracle is not None
            gap = abs(result.stroke - oracle[0]) / oracle[0]
            worst = max(worst, gap)
            assert gap <= 1e-4
            # no oracle point may beat the optimizer beyond tolerance
            assert oracle[0] <= result.stroke * (1.0 + 1e-4)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        report(6, f"sizing oracle on 5 instances, worst rel gap {worst:.2e}, "
                  f"{elapsed:.1f} s")


class TestCriterion7:
    def test_stroke_monotonicity(self):
        rng = np.random.default_rng(777)
        w_init = 0.08
        for _ in range(500):
            m = rng.uniform(0.007, 0.02)
            theta_end = rng.uniform(0.05, 0.45)
            theta_init = rng.uniform(theta_end + 0.05, 1.45)
            bump = rng.uniform(1e-4, 0.05)
            base = stroke_fixed_width(w_init, m, theta_init, theta_end)
            assert stroke_fixed_width(
                w_init, m, min(theta_init + bump, 1.45), theta_end
            ) >= base - 1e-15
            assert stroke_fixed_width(
                w_init, m, theta_init, min(theta_end + bump, theta_init - 1e-4)
            ) <= base + 1e-15
            assert stroke_fixed_width(
                w_init, m + bump / 10.0, theta_init, theta_end
            ) <= base + 1e-15
        report(7, "stroke monotone in theta_init, theta_end, m on 500 draws")


class TestCriterion7Proof:
    """Criterion 7 proved, next to the sampled check above: the stroke at
    a fixed open width that mechanism's own stroke_fixed_width computes,
    S = (w - m)*sin(theta_i - theta_e)/sin(theta_i), rises in theta_i and
    falls in theta_e and in m for 0 < theta_e < theta_i < pi/2 and m < w."""

    w, m, theta_i, theta_e = sympy.symbols("w m theta_i theta_e", real=True)

    def test_stroke_rises_in_theta_init_and_falls_in_theta_end_and_m(self):
        ti, te, slack = self.theta_i, self.theta_e, self.w - self.m
        stroke = on_symbols(mechanism.stroke_fixed_width, self.w, self.m, ti, te)
        sin, cos = sympy.sin, sympy.cos
        # each slope is a product of slack = w - m > 0 and sines and
        # cosines of theta_e, theta_i and theta_i - theta_e
        assert sympy.simplify(sympy.diff(stroke, ti) - slack * sin(te) / sin(ti) ** 2) == 0
        assert sympy.simplify(sympy.diff(stroke, te) + slack * cos(ti - te) / sin(ti)) == 0
        assert sympy.simplify(sympy.diff(stroke, self.m) + sin(ti - te) / sin(ti)) == 0
        # those three angles lie in (0, pi/2), where sin and cos are positive
        x = sympy.Symbol("x", real=True)
        quarter = sympy.Interval.open(0, sympy.pi / 2)
        assert sympy.solveset(sin(x) <= 0, x, quarter) == sympy.EmptySet
        assert sympy.solveset(cos(x) <= 0, x, quarter) == sympy.EmptySet
        report(7, "stroke at a fixed width proved rising in theta_init, falling in "
                  "theta_end and m")


class TestCriterion8:
    def test_pose_curve_rises_then_falls(self, nominal_model, nominal_state):
        curve = gamma_sweep(nominal_model, nominal_state, 91)
        margins = [m for _, m in curve.samples]
        peak_i = margins.index(max(margins))
        assert 0 < peak_i < len(margins) - 1
        # witness triple strictly inside (0, 90) degrees
        g1, g2, g3 = curve.samples[1][0], curve.samples[peak_i][0], curve.samples[-2][0]
        m1 = torque_margin(nominal_model, nominal_state, g1)
        m2 = torque_margin(nominal_model, nominal_state, g2)
        m3 = torque_margin(nominal_model, nominal_state, g3)
        assert g1 < g2 < g3
        assert m2 > m1 and m2 > m3
        # test_pose pins the peak itself at the kink, pi/2 - alpha
        report(8, "pose margin rises then falls; peak near "
                  f"{math.degrees(curve.peak_gamma):.1f} deg")


class TestCriterion9:
    GOLDEN_COMMANDS = {
        "validate.txt": ["validate", SAMPLE],
        "analyze.txt": ["analyze", SAMPLE, "--d-obj", "0.05"],
        "payload_sweep.txt": ["payload-sweep", SAMPLE,
                              "--alpha", "15:75:15deg", "--d", "0:0.04:0.01"],
        "optimize.txt": ["optimize", SAMPLE, "--m", "0.008:0.03",
                         "--r", "0.005:0.08", "--theta-init", "40:83deg",
                         "--grip-budget", "36"],
        "pose_sweep.txt": ["pose-sweep", SAMPLE, "--samples", "19"],
    }

    @staticmethod
    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    def test_cli_golden_files(self):
        for name, argv in self.GOLDEN_COMMANDS.items():
            golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
            first = self.invoke(argv)
            second = self.invoke(argv)
            assert first == second
            assert first[0] == 0 and first[2] == ""
            assert first[1] == golden
            if name in ("payload_sweep.txt", "pose_sweep.txt"):
                for workers in ("2", "4"):
                    varied = self.invoke(argv + ["--workers", workers])
                    assert varied[1] == golden
        report(9, "CLI outputs byte-identical to goldens across runs and workers")
