#!/usr/bin/env python3
"""Compare the outputs of two source trees, case by case.

Usage:
    python scripts/differential.py TREE_A TREE_B --seeds 0:27000 [--suite contact]
    python scripts/differential.py TREE_A TREE_B --seeds 1:4 --suite workloads

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

Prints one JSON line: the suite, the seed range, the number of cases,
the number that differ and the first MAX_SHOWN differences in full.
Exits 0 when no case differs and 1 when some do.
"""

import argparse
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
    """Yield (case name, output) for every sizing case of seeds."""
    from grippertool import check_feasible
    from sizing_cases import draw_case, draw_dims

    for seed in seeds:
        try:
            output = _problem_output(draw_case(seed))
        except Exception as exc:  # a crash in one tree is a difference
            output = _error_text(exc)
        yield f"problem {seed}", output
        rng = random.Random(seed)
        for i in range(DIMS_PER_SEED):
            dims = draw_dims(rng)
            yield f"dims {seed}.{i}", [[v.constraint, v.margin.hex()]
                                       for v in check_feasible(dims)]


def _hex_or_error(call):
    """call()'s floats as float.hex, or the error it raises."""
    try:
        return [value.hex() for value in call()]
    except Exception as exc:  # a crash in one tree is a difference
        return _error_text(exc)


def _contact_cases(seeds):
    """Yield (case name, output) for every contact case of seeds."""
    from contact_cases import draw_contact
    from grippertool import gamma_sweep, holding_max_offset, max_payload

    peak = operator.attrgetter("peak_gamma", "peak_margin")
    for seed in seeds:
        model, state, d_obj = draw_contact(seed)
        yield f"hold {seed}", _hex_or_error(lambda: [holding_max_offset(model, state)])
        yield f"payload {seed}", _hex_or_error(
            lambda: [max_payload(model, state, d_obj).max_weight])
        yield f"peak {seed}", _hex_or_error(lambda: peak(gamma_sweep(model, state, 2)))


def _short(text, directory):
    text = text.replace(directory, "<dir>")
    if len(text) <= MAX_TEXT:
        return text
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_perfbench(name):
    """The module perfbench/<name>.py, imported without writing bytecode there."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module(name)


def _workload_cases(seeds):
    """Yield (case name, output) for every benchmark request of seeds."""
    from grippertool import cli

    workloads = load_perfbench("workloads")
    for seed in seeds:
        for workload in sorted(workloads.GENERATORS):
            with tempfile.TemporaryDirectory() as directory:
                requests = workloads.generate(workload, seed, Path(directory))
                for i, request in enumerate(requests):
                    out, err = io.StringIO(), io.StringIO()
                    try:
                        code = cli.run(request["argv"], out, err)
                    except Exception as exc:  # a crash in one tree is a difference
                        code = _error_text(exc)
                    yield (f"{workload} {seed}.{i}",
                           [code, _short(out.getvalue(), directory),
                            _short(err.getvalue(), directory)])


SUITES = {"sizing": _sizing_cases, "contact": _contact_cases,
          "workloads": _workload_cases}


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


def _child(seeds, tree, suite):
    # grippertool is imported in the child processes only, from their tree
    sys.path.insert(0, str(ROOT / "tests"))
    import_from(tree)
    for case, output in SUITES[suite](seeds):
        print(json.dumps([case, output]))


def _spawn(tree, seeds, suite):
    return subprocess.Popen(
        [sys.executable, __file__, "--child", tree, tree,
         "--seeds", f"{seeds.start}:{seeds.stop}", "--suite", suite],
        env=tree_env(tree), stdout=subprocess.PIPE, text=True)


def compare(tree_a, tree_b, seeds, suite="sizing"):
    """The JSON-ready summary of running a suite's seeds on both trees."""
    procs = [_spawn(tree, seeds, suite) for tree in (tree_a, tree_b)]
    cases, differing, differences = 0, 0, []
    for line_a, line_b in zip(*(proc.stdout for proc in procs)):
        cases += 1
        if line_a != line_b:
            differing += 1
            if len(differences) < MAX_SHOWN:
                (case, a), (_, b) = json.loads(line_a), json.loads(line_b)
                differences.append({"case": case, "a": a, "b": b})
    for proc in procs:
        rest = proc.stdout.read()
        if proc.wait() != 0 or rest:
            raise RuntimeError(f"{proc.args[3]}: exit status {proc.returncode}, "
                               "or more cases than the other tree")
    return {"suite": suite, "seeds": f"{seeds.start}:{seeds.stop}", "cases": cases,
            "differing": differing, "differences": differences}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--seeds", type=seed_range, required=True, help="A:B")
    parser.add_argument("--suite", choices=sorted(SUITES), default="sizing")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(args.seeds, args.tree_a, args.suite)
        return 0
    summary = compare(args.tree_a, args.tree_b, args.seeds, args.suite)
    print(json.dumps(summary))
    return 1 if summary["differing"] else 0


if __name__ == "__main__":
    sys.exit(main())
