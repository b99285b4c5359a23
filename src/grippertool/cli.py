"""Command-line interface.

Subcommands: validate, analyze, payload-sweep, optimize, pose-sweep.
Angles are accepted and printed in degrees; everything else stays in SI
units. Numeric output uses 9 significant digits. Exit codes: 0 success,
1 domain errors, 2 usage errors. Non-finite numbers, reversed intervals,
ranges or pose-sweep sample counts of more than MAX_RANGE_POINTS points
and payload grids of more than MAX_GRID_CELLS cells are usage errors,
refused before any grid is built.

The sweep commands print their CSV straight from the floats the library
returns: a payload grid's weights (its numpy pass's float64 array, or
rows of floats), a pose curve's float arrays. A pose sweep converts
gamma to degrees with one vectorized divide and interleaves it with the
margins in one array. A nan cell prints as INFEASIBLE. Sweeps of fewer
than CHUNK_LINES lines, and payload grids of rows of floats at any
size, are formatted by %, and _mark_infeasible rewrites their nan cells:
a payload sweep builds one line template over all d values once and
formats each alpha row, as Python floats, with one % call, and a pose
sweep formats all its lines with one. A longer sweep of float64 arrays
is written through _g9format (a numpy-pass payload grid's own, without
a copy): numpy writes each float's exact '%.9g' text and INFEASIBLE for
each nan, and the floats it cannot decide exactly go through one % call
per block. A pose sweep goes CHUNK_LINES lines per block. A payload
sweep goes in blocks of whole alpha rows, about CHUNK_LINES lines each
and at least one row, with the alpha and d texts formatted once per
axis. Output goes one row or block at a time, so the text of the whole
grid is never held in memory at once.

Each subcommand's handler and options are described once, in _COMMANDS.
A request is table-shaped when argv[0] names a subcommand and the rest
is the design and exact flags, each followed by a value that does not
start with "-", with no flag repeated. _parse_request converts the
values of a table-shaped argv in argv order, as argparse does. When a
type function refuses one with ArgumentTypeError, ValueError or
TypeError, run() prints what argparse prints for it: the subcommand's
usage, formatted once per terminal width, and "argument FLAG: MESSAGE".
When every value is accepted and the design and every required flag are
present, run() parses the request straight from the table. Any other
argv goes to argparse's full parser, so --help, usage errors and
"unrecognized arguments" print exactly what it prints.
argparse is imported only to build the parser, on the first request
that needs it or refuses a value, so importing this module and running
well-formed requests never load it. The parser is then reused by every
later call: parsing returns a fresh Namespace and changes nothing in the
parser. Every byte a run() call prints, usage errors and --help
included, goes to its out and err streams, and to no other: the parser
writes what argparse would print on sys.stdout or sys.stderr to the
streams of the run() call parsing on its thread. So run() calls on
concurrent threads each print to their own streams, whatever their argv.

validate, analyze and optimize compute every value, then write their
whole result with one out.write.

Importing this module loads only what parse_design needs, and validate
needs no more; a handler imports the payload, pose or sizing solver, and
a long sweep of float64 arrays _g9format, through _lib on first use.

Design files are read with os.open and os.read, without Python's io
stack, and decoded as UTF-8; a read error names the path as open()
does. parse_design splits lines with str.splitlines(), so CRLF and CR
line endings parse as LF does.
"""

import functools
import math
import os
import sys
import threading
from types import SimpleNamespace

from .contact import GripConfig, holding_max_offset, required_grip_force
from .designfile import DEG, parse_design
from .errors import GripperToolError, InfeasibleHoldError, NoFeasiblePayloadError
from .mechanism import check_feasible

INFEASIBLE = "INFEASIBLE"

# Largest number of points one start:stop:step range, or one pose sweep,
# may expand to.
MAX_RANGE_POINTS = 100_000

# Largest number of (alpha, d) cells one payload sweep may compute.
MAX_GRID_CELLS = 1_000_000

# A sweep of float64 arrays of at least this many CSV lines is written
# through _g9format, about this many lines per block; any other is
# formatted by one % call (pose) or one per alpha row (payload).
CHUNK_LINES = 4096


class _UsageError(Exception):
    """A request that parsed but asks for more than the CLI will compute."""


class _RefusedValue(Exception):
    """A table-shaped request with a value its type function refused; the
    message is argparse's "argument FLAG: MESSAGE"."""


def fmt(value: float) -> str:
    """Canonical 9-significant-digit rendering used for all numeric output."""
    return f"{value:.9g}"


def _mark_infeasible(lines: str) -> str:
    """%-formatted CSV lines with every nan last field printed as
    INFEASIBLE; a sweep of float64 arrays of CHUNK_LINES lines or more
    has _g9format write INFEASIBLE itself.

    Only the last field can print nan: the others are alpha, d or gamma,
    finite because the CLI refuses nan and inf input with exit 2. So
    "nan\n" occurs exactly where a cell is infeasible.
    """
    return lines.replace("nan\n", f"{INFEASIBLE}\n")


def _argument_type_error() -> type:
    """argparse.ArgumentTypeError, which a type function raises for a
    refused value. argparse is imported only where a value is refused or
    the parser is built, so a request whose values are all accepted never
    loads it."""
    import argparse
    return argparse.ArgumentTypeError


def _type_error(message: str) -> Exception:
    return _argument_type_error()(message)


def _finite_float(text: str) -> float:
    """argparse type for a finite number; nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise _type_error(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise _type_error(f"{text!r} is not a finite number")
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
        raise _type_error(f"{kind} {text!r} must be {form}")
    try:
        return [_finite_float(p) for p in parts], factor
    except Exception as exc:  # the ArgumentTypeError of _finite_float
        raise _type_error(f"{kind} {text!r}: {exc}") from None


def _parse_range(text: str) -> list[float]:
    """start:stop:step, optional trailing 'deg'. Stop is included when it
    lands within 1e-12 (relative) of a step multiple. The point count is
    checked against MAX_RANGE_POINTS before the list is built."""
    (start, stop, step), factor = _parse_numbers(
        text, "range", "start:stop:step[deg]", 3)
    if step <= 0.0 or stop < start:
        raise _type_error(f"range {text!r} needs step > 0 and stop >= start")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise _type_error(
            f"range {text!r} has more than {MAX_RANGE_POINTS} points")
    count = round(span)
    if abs(span - count) > 1e-12 * max(1.0, abs(span)):
        count = math.floor(span)
    if count + 1 > MAX_RANGE_POINTS:
        raise _type_error(
            f"range {text!r} has {count + 1} points, more than {MAX_RANGE_POINTS}")
    return [(start + i * step) * factor for i in range(count + 1)]


def _sample_count(text: str) -> int:
    """argparse type for --samples; counts below 2 or above MAX_RANGE_POINTS
    are refused."""
    try:
        count = int(text)
    except ValueError:
        raise _type_error(f"{text!r} is not an integer") from None
    if count < 2:
        raise _type_error(f"{count} samples, fewer than 2")
    if count > MAX_RANGE_POINTS:
        raise _type_error(f"{count} samples, more than {MAX_RANGE_POINTS}")
    return count


def _parse_interval(text: str) -> tuple[float, float]:
    """lo:hi, optional trailing 'deg'; lo must not exceed hi."""
    (lo, hi), factor = _parse_numbers(text, "interval", "lo:hi[deg]", 2)
    if lo > hi:
        raise _type_error(f"interval {text!r} needs lo <= hi")
    return lo * factor, hi * factor


@functools.cache
def _lib(name: str):
    # what `from . import name` runs, so -X importtime logs it
    return getattr(__import__(__package__, fromlist=[name]), name)


def _load(path: str):
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    chunks = []
    try:
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except IsADirectoryError as exc:
        # os.read names no file, where open() names the path
        raise IsADirectoryError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return parse_design(b"".join(chunks).decode("utf-8"))


def _cmd_validate(args, out) -> int:
    dims, _, _, _ = _load(args.design)
    violations = check_feasible(dims)
    if not violations:
        out.write("no violations\n")
        return 0
    out.write("".join(f"violation {v.constraint}: margin = {fmt(v.margin)}\n"
                      for v in violations))
    return 1


def _cmd_analyze(args, out) -> int:
    dims, spring, model, state = _load(args.design)
    try:
        offset = holding_max_offset(model, state)
        offset_text = "unbounded" if math.isinf(offset) else fmt(offset)
    except InfeasibleHoldError:
        offset_text = INFEASIBLE
    forces = "".join(
        f"required_grip_force_{config.value}_N = "
        f"{fmt(required_grip_force(dims, spring, state, config=config))}\n"
        for config in (GripConfig.BACKWARD_BASE, GripConfig.FORWARD_BASE))
    try:
        result = _lib("payload").max_payload(model, state, args.d_obj)
        payload_text = fmt(result.max_weight)
    except NoFeasiblePayloadError:
        payload_text = INFEASIBLE
    # every value is computed before any is printed, so a refused request
    # writes nothing to out
    out.write(f"holding_max_offset_m = {offset_text}\n{forces}"
              f"max_payload_N = {payload_text}\n")
    return 0


def _cmd_payload_sweep(args, out) -> int:
    cells = len(args.alpha) * len(args.d)
    if cells > MAX_GRID_CELLS:
        raise _UsageError(
            f"payload grid has {cells} cells, more than {MAX_GRID_CELLS}")
    _, _, model, state = _load(args.design)
    grid = _lib("payload").payload_sweep(model, state, args.d_obj, args.alpha, args.d)
    out.write("alpha_deg,d_m,max_weight_N\n")
    rows = grid.weights
    if not isinstance(rows, list) and cells >= CHUNK_LINES:
        blocks = _lib("_g9format").grid_blocks(
            rows, CHUNK_LINES, [alpha / DEG for alpha in args.alpha], args.d, INFEASIBLE)
    else:
        if not isinstance(rows, list):   # % formats Python floats faster than numpy's
            rows = rows.tolist()
        # "\0" stands for the row's alpha text in this template
        template = "".join(f"\0,{fmt(d)},%.9g\n" for d in args.d)
        blocks = (_mark_infeasible(template.replace("\0", fmt(alpha / DEG)) % tuple(row))
                  for alpha, row in zip(args.alpha, rows))
    for block in blocks:
        out.write(block)
    return 0


def _cmd_optimize(args, out) -> int:
    dims, spring, _, state = _load(args.design)
    problem = _lib("sizing").SizingProblem(
        d_axis=dims.d_axis, r_edge=dims.r_edge, k=dims.k, w_init=dims.w_init,
        m_bounds=args.m, r_bounds=args.r, theta_init_bounds=args.theta_init,
        grip_budget=args.grip_budget, spring=spring, grasp=state, v=dims.v,
    )
    result = _lib("sizing").maximize_stroke(problem)
    d = result.dims
    out.write(f"m_m = {fmt(d.m)}\n"
              f"r_m = {fmt(d.r)}\n"
              f"theta_init_deg = {fmt(d.theta_init / DEG)}\n"
              f"theta_end_deg = {fmt(d.theta_end / DEG)}\n"
              f"h_m = {fmt(d.h)}\n"
              f"p_m = {fmt(d.p)}\n"
              f"q_m = {fmt(d.q)}\n"
              f"w_init_m = {fmt(d.w_init)}\n"
              f"stroke_m = {fmt(result.stroke)}\n"
              f"active_constraints = {','.join(result.active_constraints)}\n")
    return 0


def _cmd_pose_sweep(args, out) -> int:
    _, _, model, state = _load(args.design)
    curve = _lib("pose").gamma_sweep(model, state, args.samples)
    out.write("gamma_deg,torque_margin_Nm\n")
    values = (curve.gammas / DEG).repeat(2)   # IEEE division, bit-identical to Python's /
    values[1::2] = curve.margins
    if args.samples >= CHUNK_LINES:
        blocks = _lib("_g9format").table_blocks(values.reshape(-1, 2), CHUNK_LINES,
                                                nan_text=INFEASIBLE)
    else:
        blocks = [_mark_infeasible("%.9g,%.9g\n" * args.samples % tuple(values.tolist()))]
    for block in blocks:
        out.write(block)
    out.write(f"# peak gamma_deg = {fmt(curve.peak_gamma / DEG)} "
              f"margin_Nm = {fmt(curve.peak_margin)}\n")
    return 0


# Each subcommand's handler, help and options, in the order the parser
# adds them after the design file positional: flag -> (type, default,
# required, help).
_COMMANDS = {
    "validate": (_cmd_validate, "check dimension feasibility", {}),
    "analyze": (_cmd_analyze, "hold offset, grip forces, max payload", {
        "--d-obj": (_finite_float, 0.0, False,
                    "object moment arm in meters (default 0)"),
    }),
    "payload-sweep": (_cmd_payload_sweep, "max payload over (alpha, d) grid", {
        "--alpha": (_parse_range, None, True, "tool angle range start:stop:step[deg]"),
        "--d": (_parse_range, None, True, "grasp offset range start:stop:step (meters)"),
        "--d-obj": (_finite_float, 0.0, False, None),
        "--workers": (int, 1, False, "accepted for compatibility; has no effect"),
    }),
    "optimize": (_cmd_optimize, "maximize stroke within bounds", {
        "--m": (_parse_interval, None, True, "bounds lo:hi for the base half-gap (meters)"),
        "--r": (_parse_interval, None, True, "bounds lo:hi for the linkage length (meters)"),
        "--theta-init": (_parse_interval, None, True, "bounds lo:hi[deg] for the open angle"),
        "--grip-budget": (_finite_float, None, True, "maximum acceptable grip force (N)"),
    }),
    "pose-sweep": (_cmd_pose_sweep, "torque margin over the hand-tool angle", {
        "--samples": (_sample_count, 91, False,
                      f"number of samples, at most {MAX_RANGE_POINTS}"),
        "--workers": (int, 1, False, "accepted for compatibility; has no effect"),
    }),
}


# streams: (out, err) of the run() call whose argv the parser is parsing
# on this thread, or None
_request = threading.local()


@functools.cache
def _build_parser():
    """The full parser and its subparsers by name, built from _COMMANDS.
    Within run(), they print to that call's out and err."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            # argparse passes sys.stdout or sys.stderr
            streams = getattr(_request, "streams", None)
            if streams is not None:
                file = streams[0] if file is sys.stdout else streams[1]
            super()._print_message(message, file)

    parser = Parser(
        prog="grippertool",
        description="Quasi-static analysis of the spring-return parallel-jaw tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("design")
        for flag, (type_, default, required, option_help) in options.items():
            p.add_argument(flag, type=type_, default=default, required=required,
                           help=option_help)
    return parser, sub.choices


def _parse_request(argv):
    """The arguments of a request whose argv[0] names a subcommand, parsed
    from _COMMANDS, or None for an argv that argparse must parse (see the
    module docstring); where both parse, they give the same values.

    Values are converted in argv order, before the design and the required
    flags are checked, which is the order argparse reports errors in. The
    first value refused with ArgumentTypeError, ValueError or TypeError
    raises _RefusedValue with argparse's text for it.
    """
    options = _COMMANDS[argv[0]][2]
    given = {}
    design = None
    i, n = 1, len(argv)
    while i < n:
        arg = argv[i]
        if arg[:1] != "-":
            if design is not None:
                return None
            design = arg
            i += 1
        elif arg in options and arg not in given and i + 1 < n and argv[i + 1][:1] != "-":
            given[arg] = argv[i + 1]
            i += 2
        else:
            return None
    args = SimpleNamespace(command=argv[0], design=design)
    for flag, text in given.items():
        type_ = options[flag][0]
        try:
            setattr(args, flag[2:].replace("-", "_"), type_(text))
        except (TypeError, ValueError):
            message = f"invalid {type_.__name__} value: {text!r}"
        except _argument_type_error() as exc:
            message = str(exc)
        else:
            continue
        raise _RefusedValue(f"argument {flag}: {message}") from None
    if design is None:
        return None
    for flag, (_, default, required, _) in options.items():
        if flag not in given:
            if required:
                return None
            setattr(args, flag[2:].replace("-", "_"), default)
    return args


@functools.cache
def _error_prefix(command: str, columns: int) -> str:
    """What argparse's error() prints before the message on a subcommand's
    parser at a terminal width: the usage text, then "PROG: error: ". The
    usage formatter reads nothing but the parser and the width."""
    sub = _build_parser()[1][command]
    return f"{sub.format_usage()}{sub.prog}: error: "


def run(argv, out=None, err=None) -> int:
    """Dispatch argv (without the program name); returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parse_request(argv) if argv and argv[0] in _COMMANDS else None
    except _RefusedValue as exc:
        import shutil
        err.write(f"{_error_prefix(argv[0], shutil.get_terminal_size().columns)}{exc}\n")
        return 2
    if args is None:
        _request.streams = out, err
        try:
            args = _build_parser()[0].parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        finally:
            _request.streams = None
    try:
        return _COMMANDS[args.command][0](args, out)
    except _UsageError as exc:
        err.write(f"grippertool {args.command}: error: {exc}\n")
        return 2
    except (GripperToolError, ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
