"""Independent checks of one request's outcome, run outside the timed region.

A request fails when its exit code differs from the one the generator
expects, when stderr holds a traceback, when stdout prints nan, or when
its output fails the check for its kind:

    optimize exit 0     the printed dims rebuild into a design with no
                        interference violation and grip demand <= budget
    optimize exit 1     stderr names the binding constraint the generator built in
    payload-sweep       on a seeded sample of feasible cells, the contact
                        capacity holds at the printed weight and fails just above it
    pose-sweep          the '# peak' margin is >= every sampled margin

Printed numbers carry 9 significant digits, so each comparison allows the
rounding that implies and no more.
"""

import math
import random

from grippertool.contact import ContactModel, GraspState, GripConfig, capacity_check
from grippertool.mechanism import SpringSpec, ToolDimensions
from grippertool.sizing import check_feasible, grip_demand

DEG = math.pi / 180.0
TRACEBACK = "Traceback (most recent call last)"
INFEASIBLE = "INFEASIBLE"

# 9-digit printing moves a value by at most 5e-10 relative: the allowances
# below are well above that and far below any real modelling error.
BELOW = 1e-7         # capacity must hold at w * (1 - BELOW)
ABOVE = 1e-6         # and fail at w * (1 + ABOVE)
MARGIN_TOL = 1e-8    # violation margins (m or rad) this small are rounding
BUDGET_TOL = 1e-7    # relative excess of grip demand over the budget


def _state(p: dict) -> GraspState:
    return GraspState(f_n=p["f_n"], g_tool=p["g_tool"], alpha=p["alpha"],
                      gamma=p["gamma"], d=p["d"], d_com=p["d_com"],
                      theta=p["theta"], config=GripConfig(p["config"]))


def _optimize_solved(check: dict, out: str) -> str | None:
    p = check["design"]
    v = dict(line.split(" = ", 1) for line in out.splitlines())
    dims = ToolDimensions(
        m=float(v["m_m"]), r=float(v["r_m"]),
        theta_init=float(v["theta_init_deg"]) * DEG,
        theta_end=float(v["theta_end_deg"]) * DEG,
        h=float(v["h_m"]), p=float(v["p_m"]), q=float(v["q_m"]), k=p["k"],
        d_axis=p["d_axis"], r_edge=p["r_edge"], v=p["v"],
        w_init=float(v["w_init_m"]),
    )
    violated = [f"{x.constraint} ({x.margin:g})" for x in check_feasible(dims)
                if x.margin < -MARGIN_TOL]
    if violated:
        return "optimize: printed design violates " + ", ".join(violated)
    demand = grip_demand(dims, SpringSpec(p["kappa"], p["beta"]), _state(p))
    if demand > check["budget"] * (1.0 + BUDGET_TOL):
        return f"optimize: grip demand {demand!r} exceeds budget {check['budget']!r}"
    return None


def _optimize_refused(check: dict, err: str) -> str | None:
    if check["binding"] not in err:
        return f"optimize: stderr does not name {check['binding']}"
    return None


def _payload_sweep(check: dict, out: str) -> str | None:
    p = check["design"]
    model = ContactModel(p["mu"], p["e"])
    g, f_n, d_obj = p["g_tool"], p["f_n"], check["d_obj"]
    feasible = []
    for line in out.splitlines()[1:]:
        alpha_deg, d, weight = line.split(",")
        if weight != INFEASIBLE:
            feasible.append((float(alpha_deg) * DEG, float(d), float(weight)))

    def holds(alpha, d, w):
        # balance of the tool-plus-object free body; the sweep sets d_com = d
        f = (g + w) / 2.0
        t = (w * d_obj * math.sin(alpha) - g * d * math.cos(alpha)) / 2.0
        return capacity_check(model, f_n, f, t)

    sample = random.Random(check["sample_seed"]).sample(
        feasible, min(check["sample"], len(feasible)))
    for alpha, d, w in sample:
        cell = f"cell alpha={alpha / DEG:g}deg d={d:g} w={w!r}"
        if w > 0.0 and not holds(alpha, d, w * (1.0 - BELOW)):
            return f"payload-sweep: capacity fails below the printed weight at {cell}"
        if holds(alpha, d, max(w * (1.0 + ABOVE), 1e-9)):
            return f"payload-sweep: capacity holds above the printed weight at {cell}"
    return None


def _pose_sweep(check: dict, out: str) -> str | None:
    lines = out.splitlines()
    peak = float(lines[-1].rsplit("=", 1)[1])
    margins = [float(m) for m in (line.split(",")[1] for line in lines[1:-1])
               if m != INFEASIBLE]
    if margins and peak < max(margins):
        return f"pose-sweep: peak margin {peak!r} below sampled {max(margins)!r}"
    return None


def failure(request: dict, code, out: str, err: str) -> tuple[str, bool] | None:
    """None when the request succeeded, else (reason, wrong).

    wrong is True when the program crashed or printed a wrong result, and
    False when it only refused a request with an unexpected exit code.
    """
    if TRACEBACK in err:
        return "traceback on stderr: " + err.strip().splitlines()[-1], True
    if code != request["expect"]:
        return (f"exit {code}, expected {request['expect']}: "
                f"{err.strip()[:160]}"), False
    if "nan" in out:
        return "stdout prints nan", True
    kind, check = request["kind"], request["check"]
    if not check:
        return None
    try:
        if kind == "optimize":
            reason = (_optimize_solved(check, out) if code == 0
                      else _optimize_refused(check, err))
        elif kind == "payload-sweep":
            reason = _payload_sweep(check, out)
        elif kind == "pose-sweep":
            reason = _pose_sweep(check, out)
        else:
            reason = None
    except (ValueError, KeyError, IndexError) as exc:
        reason = f"{kind}: output does not parse ({exc})"
    return (reason, True) if reason else None


def result_rows(request: dict, code, out: str) -> int:
    """Result rows of a successful sweep: payload cells or pose samples."""
    if code != 0:
        return 0
    if request["kind"] == "payload-sweep":
        return out.count("\n") - 1
    if request["kind"] == "pose-sweep":
        return out.count("\n") - 2
    return 0
