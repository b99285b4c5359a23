"""Command-line interface.

Subcommands: validate, analyze, payload-sweep, optimize, pose-sweep.
Angles are accepted and printed in degrees; everything else stays in SI
units. Numeric output uses 9 significant digits. Exit codes: 0 success,
1 domain errors, 2 usage errors. Non-finite numbers, reversed intervals,
ranges or pose-sweep sample counts of more than MAX_RANGE_POINTS points
and payload grids of more than MAX_GRID_CELLS cells are usage errors,
refused before any grid is built.

The sweep commands print their CSV straight from the float arrays the
library returns. A payload sweep builds one line template per chunk of
at most CHUNK_LINES d values once, and formats each alpha row, or each
chunk of a longer row, with one % call. A pose sweep converts gamma to
degrees with one vectorized divide and formats CHUNK_LINES lines per %
call. A nan cell prints as INFEASIBLE. The text of the whole grid is
never held in memory at once.

The argument parser is built once per process, on the first call of
run(), and reused: parse_args() returns a fresh Namespace and changes
nothing in the parser. Every byte a run() call prints, usage errors and
--help included, goes to its out and err streams. argparse's messages get
there by swapping sys.stdout and sys.stderr while the arguments are
parsed, so run() calls from concurrent threads can exchange them.
"""

import argparse
import contextlib
import functools
import math
import sys

from .contact import GripConfig, holding_max_offset, required_grip_force
from .designfile import parse_design
from .errors import GripperToolError, InfeasibleHoldError, NoFeasiblePayloadError, replace
from .payload import max_payload, payload_sweep
from .pose import gamma_sweep
from .sizing import SizingProblem, check_feasible, maximize_stroke

INFEASIBLE = "INFEASIBLE"

DEG = math.pi / 180.0

# Largest number of points one start:stop:step range, or one pose sweep,
# may expand to.
MAX_RANGE_POINTS = 100_000

# Largest number of (alpha, d) cells one payload sweep may compute.
MAX_GRID_CELLS = 1_000_000

# Most CSV lines a sweep formats with one % call.
CHUNK_LINES = 1024


class _UsageError(Exception):
    """A request that parsed but asks for more than the CLI will compute."""


def fmt(value: float) -> str:
    """Canonical 9-significant-digit rendering used for all numeric output."""
    return f"{value:.9g}"


def _mark_infeasible(lines: str) -> str:
    """CSV lines with every nan last field printed as INFEASIBLE.

    Only the last field can print nan: the others are alpha, d or gamma,
    finite because the CLI refuses nan and inf input with exit 2. So
    "nan\n" occurs exactly where a cell is infeasible.
    """
    return lines.replace("nan\n", f"{INFEASIBLE}\n")


def _finite_float(text: str) -> float:
    """argparse type for a finite number; nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _parse_numbers(text: str, kind: str, form: str,
                   count: int) -> tuple[list[float], float]:
    """Split a colon-separated list of finite numbers with an optional
    trailing 'deg'; returns the numbers and the unit factor."""
    raw = text.strip()
    factor = 1.0
    if raw.endswith("deg"):
        factor = DEG
        raw = raw[:-3]
    parts = raw.split(":")
    if len(parts) != count:
        raise argparse.ArgumentTypeError(f"{kind} {text!r} must be {form}")
    try:
        return [_finite_float(p) for p in parts], factor
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"{kind} {text!r}: {exc}") from None


def _parse_range(text: str) -> list[float]:
    """start:stop:step, optional trailing 'deg'. Stop is included when it
    lands within 1e-12 (relative) of a step multiple. The point count is
    checked against MAX_RANGE_POINTS before the list is built."""
    (start, stop, step), factor = _parse_numbers(
        text, "range", "start:stop:step[deg]", 3)
    if step <= 0.0 or stop < start:
        raise argparse.ArgumentTypeError(
            f"range {text!r} needs step > 0 and stop >= start"
        )
    span = (stop - start) / step
    if not math.isfinite(span):
        raise argparse.ArgumentTypeError(
            f"range {text!r} has more than {MAX_RANGE_POINTS} points")
    count = round(span)
    if abs(span - count) > 1e-12 * max(1.0, abs(span)):
        count = math.floor(span)
    if count + 1 > MAX_RANGE_POINTS:
        raise argparse.ArgumentTypeError(
            f"range {text!r} has {count + 1} points, more than {MAX_RANGE_POINTS}")
    return [(start + i * step) * factor for i in range(count + 1)]


def _sample_count(text: str) -> int:
    """argparse type for --samples; counts above MAX_RANGE_POINTS are refused."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if count > MAX_RANGE_POINTS:
        raise argparse.ArgumentTypeError(
            f"{count} samples, more than {MAX_RANGE_POINTS}")
    return count


def _parse_interval(text: str) -> tuple[float, float]:
    """lo:hi, optional trailing 'deg'; lo must not exceed hi."""
    (lo, hi), factor = _parse_numbers(text, "interval", "lo:hi[deg]", 2)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"interval {text!r} needs lo <= hi")
    return lo * factor, hi * factor


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_design(fh.read())


def _cmd_validate(args, out) -> int:
    dims, _, _, _ = _load(args.design)
    violations = check_feasible(dims)
    if not violations:
        print("no violations", file=out)
        return 0
    for v in violations:
        print(f"violation {v.constraint}: margin = {fmt(v.margin)}", file=out)
    return 1


def _cmd_analyze(args, out) -> int:
    dims, spring, model, state = _load(args.design)
    try:
        offset = holding_max_offset(model, state)
        offset_text = "unbounded" if math.isinf(offset) else fmt(offset)
    except InfeasibleHoldError:
        offset_text = INFEASIBLE
    print(f"holding_max_offset_m = {offset_text}", file=out)
    for config in (GripConfig.BACKWARD_BASE, GripConfig.FORWARD_BASE):
        force = required_grip_force(dims, spring, replace(state, config=config))
        print(f"required_grip_force_{config.value}_N = {fmt(force)}", file=out)
    try:
        result = max_payload(model, state, args.d_obj)
        payload_text = fmt(result.max_weight)
    except NoFeasiblePayloadError:
        payload_text = INFEASIBLE
    print(f"max_payload_N = {payload_text}", file=out)
    return 0


def _cmd_payload_sweep(args, out) -> int:
    cells = len(args.alpha) * len(args.d)
    if cells > MAX_GRID_CELLS:
        raise _UsageError(
            f"payload grid has {cells} cells, more than {MAX_GRID_CELLS}")
    _, _, model, state = _load(args.design)
    grid = payload_sweep(model, state, args.d_obj, args.alpha, args.d)
    out.write("alpha_deg,d_m,max_weight_N\n")
    # "\0" stands for the row's alpha text in these templates
    templates = [(start, "".join(f"\0,{fmt(d)},%.9g\n"
                                 for d in args.d[start:start + CHUNK_LINES]))
                 for start in range(0, len(args.d), CHUNK_LINES)]
    for alpha, row in zip(args.alpha, grid.weights):
        alpha_text = fmt(alpha / DEG)
        weights = row.tolist()
        for start, template in templates:
            lines = (template.replace("\0", alpha_text)
                     % tuple(weights[start:start + CHUNK_LINES]))
            out.write(_mark_infeasible(lines))
    return 0


def _cmd_optimize(args, out) -> int:
    dims, spring, _, state = _load(args.design)
    problem = SizingProblem(
        d_axis=dims.d_axis, r_edge=dims.r_edge, k=dims.k, w_init=dims.w_init,
        m_bounds=args.m, r_bounds=args.r, theta_init_bounds=args.theta_init,
        grip_budget=args.grip_budget, spring=spring, grasp=state, v=dims.v,
    )
    result = maximize_stroke(problem)
    d = result.dims
    print(f"m_m = {fmt(d.m)}", file=out)
    print(f"r_m = {fmt(d.r)}", file=out)
    print(f"theta_init_deg = {fmt(d.theta_init / DEG)}", file=out)
    print(f"theta_end_deg = {fmt(d.theta_end / DEG)}", file=out)
    print(f"h_m = {fmt(d.h)}", file=out)
    print(f"p_m = {fmt(d.p)}", file=out)
    print(f"q_m = {fmt(d.q)}", file=out)
    print(f"w_init_m = {fmt(d.w_init)}", file=out)
    print(f"stroke_m = {fmt(result.stroke)}", file=out)
    print(f"active_constraints = {','.join(result.active_constraints)}", file=out)
    return 0


def _cmd_pose_sweep(args, out) -> int:
    _, _, model, state = _load(args.design)
    curve = gamma_sweep(model, state, args.samples)
    out.write("gamma_deg,torque_margin_Nm\n")
    degrees = curve.gammas / DEG   # IEEE division, bit-identical to Python's /
    for start in range(0, len(degrees), CHUNK_LINES):
        gammas = degrees[start:start + CHUNK_LINES].tolist()
        values = [0.0] * (2 * len(gammas))
        values[0::2] = gammas
        values[1::2] = curve.margins[start:start + CHUNK_LINES].tolist()
        out.write(_mark_infeasible("%.9g,%.9g\n" * len(gammas) % tuple(values)))
    print(f"# peak gamma_deg = {fmt(curve.peak_gamma / DEG)} "
          f"margin_Nm = {fmt(curve.peak_margin)}", file=out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grippertool",
        description="Quasi-static analysis of the spring-return parallel-jaw tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check dimension feasibility")
    p.add_argument("design")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="hold offset, grip forces, max payload")
    p.add_argument("design")
    p.add_argument("--d-obj", type=_finite_float, default=0.0,
                   help="object moment arm in meters (default 0)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("payload-sweep", help="max payload over (alpha, d) grid")
    p.add_argument("design")
    p.add_argument("--alpha", type=_parse_range, required=True,
                   help="tool angle range start:stop:step[deg]")
    p.add_argument("--d", type=_parse_range, required=True,
                   help="grasp offset range start:stop:step (meters)")
    p.add_argument("--d-obj", type=_finite_float, default=0.0)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=_cmd_payload_sweep)

    p = sub.add_parser("optimize", help="maximize stroke within bounds")
    p.add_argument("design")
    p.add_argument("--m", type=_parse_interval, required=True,
                   help="bounds lo:hi for the base half-gap (meters)")
    p.add_argument("--r", type=_parse_interval, required=True,
                   help="bounds lo:hi for the linkage length (meters)")
    p.add_argument("--theta-init", type=_parse_interval, required=True,
                   help="bounds lo:hi[deg] for the open angle")
    p.add_argument("--grip-budget", type=_finite_float, required=True,
                   help="maximum acceptable grip force (N)")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("pose-sweep", help="torque margin over the hand-tool angle")
    p.add_argument("design")
    p.add_argument("--samples", type=_sample_count, default=91,
                   help=f"number of samples, at most {MAX_RANGE_POINTS}")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=_cmd_pose_sweep)

    return parser


def run(argv, out=None, err=None) -> int:
    """Dispatch argv (without the program name); returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except _UsageError as exc:
        print(f"grippertool {args.command}: error: {exc}", file=err)
        return 2
    except (GripperToolError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
