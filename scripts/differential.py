#!/usr/bin/env python3
"""Compare the sizing outputs of two source trees, case by case.

Usage:
    python scripts/differential.py TREE_A TREE_B --seeds 0:27000

Each tree runs in its own subprocess with PYTHONPATH=<tree>/src, so each
imports its own grippertool, while the cases come from this script's
tests/sizing_cases.py, so both trees see the same inputs. Seed s gives:

  - one stroke problem, sizing_cases.draw_case(s), solved with
    maximize_stroke: the dims and stroke as float.hex, the active
    constraints, demand_end and candidates, or the refusal's message and
    its violations with their margins as float.hex;
  - DIMS_PER_SEED random ToolDimensions from sizing_cases.draw_dims,
    checked with check_feasible: each violation's name and margin.

Prints one JSON line: the suite, the seed range, the number of cases,
the number that differ and the first MAX_SHOWN differences in full.
Exits 0 when no case differs and 1 when some do.
"""

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIMS_PER_SEED = 8
MAX_SHOWN = 5


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


def _cases(seeds):
    """Yield (case name, output) for every case of seeds in this process."""
    # grippertool is imported in the child processes only, from their tree
    sys.path.insert(0, str(ROOT / "tests"))
    from grippertool import check_feasible
    from sizing_cases import draw_case, draw_dims

    for seed in seeds:
        try:
            output = _problem_output(draw_case(seed))
        except Exception as exc:  # a crash in one tree is a difference
            output = {"error": f"{type(exc).__name__}: {exc}"}
        yield f"problem {seed}", output
        rng = random.Random(seed)
        for i in range(DIMS_PER_SEED):
            dims = draw_dims(rng)
            yield f"dims {seed}.{i}", [[v.constraint, v.margin.hex()]
                                       for v in check_feasible(dims)]


def _child(seeds, tree):
    import grippertool

    expected = (Path(tree) / "src").resolve()
    if expected not in Path(grippertool.__file__).resolve().parents:
        sys.exit(f"grippertool was imported from {grippertool.__file__}, not {expected}")
    for case, output in _cases(seeds):
        print(json.dumps([case, output]))


def _spawn(tree, seeds):
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    return subprocess.Popen(
        [sys.executable, __file__, "--child", tree, tree,
         "--seeds", f"{seeds.start}:{seeds.stop}"],
        env=env, stdout=subprocess.PIPE, text=True)


def compare(tree_a, tree_b, seeds):
    """The JSON-ready summary of running seeds on both trees."""
    procs = [_spawn(tree, seeds) for tree in (tree_a, tree_b)]
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
    return {"suite": "sizing", "seeds": f"{seeds.start}:{seeds.stop}", "cases": cases,
            "differing": differing, "differences": differences}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--seeds", type=seed_range, required=True, help="A:B")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(args.seeds, args.tree_a)
        return 0
    summary = compare(args.tree_a, args.tree_b, args.seeds)
    print(json.dumps(summary))
    return 1 if summary["differing"] else 0


if __name__ == "__main__":
    sys.exit(main())
