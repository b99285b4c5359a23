#!/usr/bin/env python3
"""Compare the outputs of two source trees, case by case.

Usage:
    python scripts/differential.py TREE_A TREE_B --seeds 0:27000 [--suite contact]
    python scripts/differential.py TREE_A TREE_B --seeds 1:4 --suite workloads
    python scripts/differential.py TREE_A TREE_B --seeds 0:20 --suite sweeps
    python scripts/differential.py TREE TREE --seeds 0:20000 --suite contact --perturb down

Each tree runs in its own subprocess with PYTHONPATH=<tree>/src, so each
imports its own grippertool, while the cases come from this script's
tests/ modules, so both trees see the same inputs. In the sizing suite,
the default, seed s gives:

  - one stroke problem, sizing_cases.draw_case(s), solved with
    maximize_stroke: the dims and stroke as float.hex, the active
    constraints, demand_end and candidates, or the refusal's message and
    its violations with their margins as float.hex;
  - DIMS_PER_SEED random ToolDimensions from sizing_cases.draw_dims,
    checked with check_feasible: each violation's name and margin.

In the contact suite, seed s gives one (ContactModel, GraspState, d_obj)
draw, contact_cases.draw_contact(s), and three cases: holding_max_offset,
max_payload's weight and gamma_sweep's exact peak (gamma and margin),
each as float.hex or as the error's type and text.

In the workloads suite, seed s gives every request of the benchmark's
interactive, surface and sizing cycles for seed s, from
perfbench/workloads.py (imported, never written), with their design
files in a temporary directory. Each request runs in-process through
cli.run, and its case is the exit code, stdout and stderr, with the
directory's path replaced by <dir>; an output longer than MAX_TEXT
characters is given by its SHA-256.

In the sweeps suite, seed s gives three payload-sweep requests of more
than CHUNK_LINES cells, run in-process through cli.run: a one-alpha row
of 4,097 to 20,000 cells and a grid of several alpha rows, both on
designs/example_tool.ini, and that grid again on a copy whose f_n = 5
cannot hold the tool. Each case is the exit code and the SHA-256 of
stdout and of stderr.

With --perturb up or --perturb down, TREE_B's process runs the library
with every function in tests/libm_nudge.py (math's sin, cos, tan, asin,
atan, atan2 and hypot, numpy's sin and cos) returning its neighbouring
float in that direction, as another platform's libm may round. Each
case's inputs are drawn before the nudge. Given one tree twice, the
differences are the cases that turn on the last bit of a libm result.

Prints one JSON line: the suite, the seed range, the number of cases,
the number that differ, the names of all that differ, and the first
MAX_SHOWN differences in full.
Exits 0 when no case differs and 1 when some do.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import operator
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIMS_PER_SEED = 8
MAX_SHOWN = 5
MAX_TEXT = 400


def seed_range(text):
    start, stop = (int(part) for part in text.split(":"))
    if not 0 <= start < stop:
        raise argparse.ArgumentTypeError(f"seeds {text!r} must be A:B with 0 <= A < B")
    return range(start, stop)


def _problem_output(problem):
    from grippertool import InfeasibleProblemError, maximize_stroke

    try:
        result = maximize_stroke(problem)
    except InfeasibleProblemError as exc:
        return {"refusal": str(exc),
                "violations": [[v.constraint, v.margin.hex()] for v in exc.violations]}
    dims = result.dims
    return {"dims": [getattr(dims, name).hex() for name in dims._fields],
            "stroke": result.stroke.hex(), "active": list(result.active_constraints),
            "demand_end": result.demand_end, "candidates": result.candidates}


def _error_text(exc):
    return {"error": f"{type(exc).__name__}: {exc}"}


def _sizing_cases(seeds):
    """Yield (case name, call) for every sizing case of seeds."""
    from grippertool import check_feasible
    from sizing_cases import draw_case, draw_dims

    def violations(dims):
        return [[v.constraint, v.margin.hex()] for v in check_feasible(dims)]

    for seed in seeds:
        problem = draw_case(seed)
        yield f"problem {seed}", lambda: _problem_output(problem)
        rng = random.Random(seed)
        for i in range(DIMS_PER_SEED):
            dims = draw_dims(rng)
            yield f"dims {seed}.{i}", lambda: violations(dims)


def _contact_cases(seeds):
    """Yield (case name, call) for every contact case of seeds; each call
    gives its floats as float.hex."""
    from contact_cases import draw_contact
    from grippertool import gamma_sweep, holding_max_offset, max_payload

    peak = operator.attrgetter("peak_gamma", "peak_margin")
    for seed in seeds:
        model, state, d_obj = draw_contact(seed)
        yield f"hold {seed}", lambda: [holding_max_offset(model, state).hex()]
        yield f"payload {seed}", lambda: [max_payload(model, state, d_obj).max_weight.hex()]
        yield f"peak {seed}", lambda: [value.hex() for value in peak(gamma_sweep(model, state, 2))]


def _sha256(text):
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _short(text, directory):
    text = text.replace(directory, "<dir>")
    return text if len(text) <= MAX_TEXT else _sha256(text)


def load_perfbench(name):
    """The module perfbench/<name>.py, imported without writing bytecode there."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module(name)


def _workload_cases(seeds):
    """Yield (case name, call) for every benchmark request of seeds."""
    from grippertool import cli

    def request_output(argv, directory):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, out, err)
        return [code, _short(out.getvalue(), directory), _short(err.getvalue(), directory)]

    workloads = load_perfbench("workloads")
    for seed in seeds:
        for workload in sorted(workloads.GENERATORS):
            with tempfile.TemporaryDirectory() as directory:
                requests = workloads.generate(workload, seed, Path(directory))
                for i, request in enumerate(requests):
                    yield (f"{workload} {seed}.{i}",
                           lambda: request_output(request["argv"], directory))


def _sweep_cases(seeds):
    """Yield (case name, call) for every payload sweep of seeds."""
    from grippertool import cli

    def sweep_output(argv):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, out, err)
        return [code, _sha256(out.getvalue()), _sha256(err.getvalue())]

    design = ROOT / "designs" / "example_tool.ini"
    with tempfile.TemporaryDirectory() as directory:
        not_held = Path(directory) / "not_held.ini"
        text = design.read_text(encoding="utf-8")
        assert text.count("f_n = 40") == 1
        not_held.write_text(text.replace("f_n = 40", "f_n = 5"), encoding="utf-8")
        for seed in seeds:
            rng = random.Random(seed)
            d_obj = ["--d-obj", repr(rng.choice([0.0, rng.uniform(0.0, 0.1)]))]
            cells = rng.randint(cli.CHUNK_LINES + 1, 20_000)
            alpha = rng.randint(0, 90)
            row = ["--alpha", f"{alpha}:{alpha}:1deg", "--d", f"0:{(cells - 1) * 1e-5!r}:1e-05"]
            rows = rng.randint(2, 40)
            columns = rng.randint(cli.CHUNK_LINES // rows + 1, 20_000 // rows)
            alpha, d = rng.randint(0, 91 - rows), rng.choice([0.0, 0.005])
            step = rng.choice([1e-5, 2e-5, 5e-5])
            grid = ["--alpha", f"{alpha}:{alpha + rows - 1}:1deg",
                    "--d", f"{d!r}:{d + (columns - 1) * step!r}:{step!r}"]
            for name, argv in (("row", [str(design), *row]), ("grid", [str(design), *grid]),
                               ("not-held", [str(not_held), *grid])):
                yield f"{name} {seed}", lambda: sweep_output(["payload-sweep", *argv, *d_obj])


SUITES = {"sizing": _sizing_cases, "contact": _contact_cases,
          "workloads": _workload_cases, "sweeps": _sweep_cases}


def import_from(tree):
    """Import grippertool in a child process started with tree_env(tree);
    exit if it came from anywhere but tree's src/."""
    import grippertool

    expected = (Path(tree) / "src").resolve()
    if expected not in Path(grippertool.__file__).resolve().parents:
        sys.exit(f"grippertool was imported from {grippertool.__file__}, not {expected}")


def tree_env(tree):
    """The environment of a child process that imports tree's grippertool."""
    return dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))


def _output(call):
    """call()'s result, or the error it raises."""
    try:
        return call()
    except Exception as exc:  # a crash in one tree is a difference
        return _error_text(exc)


def _child(seeds, tree, suite, perturb):
    # grippertool is imported in the child processes only, from their tree
    sys.path.insert(0, str(ROOT / "tests"))
    import_from(tree)
    if perturb:
        from libm_nudge import nudged
    # the inputs are drawn with the plain functions, the library runs nudged
    for case, call in SUITES[suite](seeds):
        with nudged(perturb) if perturb else contextlib.nullcontext():
            output = _output(call)
        print(json.dumps([case, output]))


def _spawn(tree, seeds, suite, perturb=None):
    return subprocess.Popen(
        [sys.executable, __file__, "--child", tree, tree,
         "--seeds", f"{seeds.start}:{seeds.stop}", "--suite", suite,
         *(["--perturb", perturb] if perturb else [])],
        env=tree_env(tree), stdout=subprocess.PIPE, text=True)


def compare(tree_a, tree_b, seeds, suite="sizing", perturb=None):
    """The JSON-ready summary of running a suite's seeds on both trees,
    tree_b with the libm functions nudged when perturb is given."""
    procs = [_spawn(tree_a, seeds, suite), _spawn(tree_b, seeds, suite, perturb)]
    cases, differing, differences = 0, [], []
    for line_a, line_b in zip(*(proc.stdout for proc in procs)):
        cases += 1
        if line_a != line_b:
            (case, a), (_, b) = json.loads(line_a), json.loads(line_b)
            differing.append(case)
            if len(differences) < MAX_SHOWN:
                differences.append({"case": case, "a": a, "b": b})
    for proc in procs:
        rest = proc.stdout.read()
        if proc.wait() != 0 or rest:
            raise RuntimeError(f"{proc.args[3]}: exit status {proc.returncode}, "
                               "or more cases than the other tree")
    return {"suite": suite, "seeds": f"{seeds.start}:{seeds.stop}", "cases": cases,
            "differing": len(differing), "differing_cases": differing,
            "differences": differences}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--seeds", type=seed_range, required=True, help="A:B")
    parser.add_argument("--suite", choices=sorted(SUITES), default="sizing")
    parser.add_argument("--perturb", choices=("up", "down"),
                        help="run TREE_B with each libm function in "
                             "tests/libm_nudge.py one float up or down")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(args.seeds, args.tree_a, args.suite, args.perturb)
        return 0
    summary = compare(args.tree_a, args.tree_b, args.seeds, args.suite, args.perturb)
    print(json.dumps(summary))
    return 1 if summary["differing"] else 0


if __name__ == "__main__":
    sys.exit(main())
