"""Seeded sizing inputs, shared by test_sizing.py and scripts/differential.py."""

import math
import random

from grippertool import (GraspState, GripConfig, SizingProblem, SpringSpec, ToolDimensions,
                         clearance_span, replace)


def draw_problem(rng):
    mm = 1e-3
    return SizingProblem(
        d_axis=rng.uniform(2, 8) * mm, r_edge=rng.uniform(0.5, 2) * mm,
        k=rng.uniform(20, 80) * mm, w_init=rng.uniform(50, 120) * mm,
        m_bounds=(rng.uniform(5, 15) * mm, rng.uniform(20, 50) * mm),
        r_bounds=(rng.uniform(3, 20) * mm, rng.uniform(40, 100) * mm),
        theta_init_bounds=(rng.uniform(0.3, 0.9), rng.uniform(1.0, 1.5)),
        grip_budget=1e6 if rng.random() < 0.2 else rng.uniform(10, 60),
        spring=SpringSpec(kappa=rng.uniform(0.2, 1.0), beta=rng.uniform(0, 0.6)),
        grasp=GraspState(f_n=40.0, g_tool=rng.uniform(1, 30),
                         alpha=rng.uniform(0, math.pi), gamma=0.0, d=0.0,
                         d_com=0.03, theta=0.5,
                         config=rng.choice(list(GripConfig))))


def draw_case(seed):
    """The draw_problem draw of seed, with its r bounds collapsed to one of
    them when seed % 3 == 0, and its m bounds drawn log-uniformly from
    q/10 to 2*w_init when seed % 5 == 1: then m_hi < q (every m fails the
    edge clearance) or m_lo > w_init (r < 0) are both common."""
    rng = random.Random(seed)
    problem = draw_problem(rng)
    if seed % 3 == 0:
        r = problem.r_bounds[rng.random() < 0.5]
        problem = replace(problem, r_bounds=(r, r))
    if seed % 5 == 1:
        q = clearance_span(problem.d_axis, problem.r_edge)
        lo, hi = math.log(q / 10.0), math.log(2.0 * problem.w_init)
        m_bounds = sorted(math.exp(rng.uniform(lo, hi)) for _ in range(2))
        problem = replace(problem, m_bounds=tuple(m_bounds))
    return problem


def draw_dims(rng):
    """ToolDimensions with m, theta_end, p and h each at, below or above its
    check_feasible limit, r below q now and then, and theta_init = pi/2
    one time in eight."""
    mm = 1e-3

    def near(x):
        return x * rng.choice((1.0, 1.0 - rng.uniform(0, 0.2), 1.0 + rng.uniform(0, 0.2)))

    d_axis, r_edge, k = rng.uniform(2, 8) * mm, rng.uniform(0.5, 2) * mm, rng.uniform(20, 80) * mm
    q = d_axis + 2.0 * r_edge
    r = rng.uniform(0.8 * q, 100 * mm)
    theta_init = math.pi / 2 if rng.random() < 0.125 else rng.uniform(0.3, 1.5)
    theta_end = near(math.asin(min(1.0, q / r)))
    if theta_end >= theta_init:
        theta_end = theta_init * rng.uniform(0.01, 0.99)
    return ToolDimensions.with_derived_width(
        m=near(q) if rng.random() < 0.5 else rng.uniform(q, 30 * mm), r=r,
        theta_init=theta_init, theta_end=theta_end,
        h=near(r * math.cos(theta_end) + math.tan(theta_end) * q),
        p=near(k * math.sin(theta_end)), q=q, k=k, d_axis=d_axis, r_edge=r_edge)
