#!/usr/bin/env python3
"""Time two source trees, in alternating processes.

Usage:
    python scripts/timing.py --in-process TREE_A TREE_B --workload interactive \\
        --seeds 1:7 [--cycles 15]
    python scripts/timing.py --fresh TREE_A TREE_B [--pairs 11]

TREE_A and TREE_B are each a source tree directory or, where no such
directory exists, a git revision of this repository (HEAD, a commit, a
branch), which is git-archived into a temporary directory for the run.

--in-process times a benchmark workload inside child processes.
For each seed of the range, one fresh child process per tree runs the
workload's cycle for that seed, from perfbench/workloads.py (imported,
never written), with its design files in a temporary directory. The
order of the two children alternates from seed to seed. Each child pins
itself to the highest CPU it may use, where the platform allows it,
imports grippertool from its tree's src/, and sends the cycle through
cli.run once untimed, then --cycles times timed. A request's latency is
the wall time of its cli.run call, and its best latency is the smallest
over the timed cycles.

Over each request's best latency, a child gives what perfbench/run.py
reports for a run: the median (p50_ms), the workload's tail percentile
(tail_ms, with perfbench/run.py's own nearest-rank function) and the
requests per second of busy time. Each seed is one pair of children.

A child also counts each timed cli.run call's minor page faults: the
change in resource.getrusage(RUSAGE_SELF).ru_minflt, read outside the
perf_counter window. A request's faults are the median over its timed
calls.

Prints one JSON line: the CPUs the children ran on (cpus); per tree, the
median over the pairs of those three values, the median over the pairs
of each request kind's median best latency (kind_p50_ms) and of its
median faults per call (kind_faults, null where the platform has no
resource module), and the number of cli.run calls, warm-up cycles
included, that returned an exit code other than the one the workload
expects (failed); the pairs each tree wins on each of the three values
(a tie counts for neither); and every pair's three values.

--fresh times whole processes, as a user's shell starts them: each of
the five golden commands as `python -m grippertool.cli ...` on
designs/example_tool.ini, with three floors, `python -c pass`,
`python -S -c pass` (the interpreter without site's work on the
installed packages) and `python -c "import numpy"`. A pair runs every
command once on each tree, the two runs of a command back to back, the
tree that goes first alternating from pair to pair. Each run's time is
the wall time from starting its process to its exit, with the process
pinned to the highest CPU this one may use, where the platform allows
it. Prints one JSON line: the CPUs, each command's arguments after
python, the bytecode state (the value of
PYTHONDONTWRITEBYTECODE, and per tree whether a __pycache__ directory
exists under src/ before the first run and after the last); per tree
and command, the median and quartiles of the run times in ms; per
command, the pairs each tree wins (a tie counts for neither); and per
tree the number of runs that exited with a status other than 0.
"""

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from differential import ROOT, import_from, load_perfbench, seed_range, tree_env

try:
    import resource
except ImportError:   # not on Windows
    resource = None

METRICS = {"p50_ms": "lower", "tail_ms": "lower", "requests_per_s": "higher"}

SAMPLE = str(ROOT / "designs" / "example_tool.ini")
# tests/test_cli.py's GOLDEN_COMMANDS, which tests/test_timing.py checks
# --fresh runs
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
# --fresh's commands, the floors first, each an argument list after python
FRESH_COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "python -S -c pass": ["-S", "-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    **{name.removesuffix(".txt"): ["-m", "grippertool.cli", *argv]
       for name, argv in GOLDEN_COMMANDS.items()},
}


def _minor_faults():
    """This process's minor page faults so far, or 0 without resource."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else 0


def replay(requests, cycles):
    """Each request's best latency and median minor faults over the timed
    cycles, and the number of calls that returned an exit code other than
    expected."""
    from grippertool import cli

    best = [math.inf] * len(requests)
    faults = [[] for _ in requests]
    failed = 0
    for cycle in range(1 + cycles):  # the first cycle warms up, untimed
        for i, request in enumerate(requests):
            out, err = io.StringIO(), io.StringIO()
            before = _minor_faults()
            start = time.perf_counter()
            code = cli.run(request["argv"], out, err)
            elapsed = time.perf_counter() - start
            after = _minor_faults()
            failed += code != request["expect"]
            if cycle:
                best[i] = min(best[i], elapsed)
                faults[i].append(after - before)
    return best, [statistics.median(counts) for counts in faults], failed


def _by_kind(values, kinds):
    """The median of values per kind, in kind order."""
    groups = {}
    for value, kind in zip(values, kinds):
        groups.setdefault(kind, []).append(value)
    return {kind: statistics.median(group) for kind, group in sorted(groups.items())}


def summarize(best, faults, kinds, tail_pct):
    """A child's p50, tail and requests per second over the best latencies
    (seconds), and each kind's median latency and median faults."""
    return {"p50_ms": statistics.median(best) * 1e3,
            "tail_ms": load_perfbench("run")._percentile(best, tail_pct) * 1e3,
            "requests_per_s": len(best) / sum(best),
            "kind_p50_ms": {kind: value * 1e3
                            for kind, value in _by_kind(best, kinds).items()},
            "kind_faults": _by_kind(faults, kinds) if resource else None}


def _pin():
    """Pin this process, and so its children, to the highest CPU it may
    use; that CPU, or None where the platform cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _child(args, workloads):
    cpu = _pin()
    import_from(args.tree_a)
    with tempfile.TemporaryDirectory() as directory:
        requests = workloads.generate(args.workload, args.seeds.start, Path(directory))
        best, faults, failed = replay(requests, args.cycles)
    summary = summarize(best, faults, [request["kind"] for request in requests],
                        workloads.WORKLOADS[args.workload]["tail_pct"])
    print(json.dumps(dict(summary, failed=failed, cpu=cpu)))


def _spawn(tree, args, seed):
    command = [sys.executable, __file__, "--in-process", tree, tree, "--child",
               "--workload", args.workload, "--seeds", f"{seed}:{seed + 1}",
               "--cycles", str(args.cycles)]
    proc = subprocess.run(command, env=tree_env(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} seed {seed}: exit status {proc.returncode}\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def beats(metric, run, other):
    """Whether run's value of metric is better than other's."""
    if METRICS[metric] == "lower":
        return run[metric] < other[metric]
    return run[metric] > other[metric]


def checkout(tree, directory):
    """tree if it is a directory, else the git revision tree of this
    repository archived into directory."""
    if Path(tree).is_dir():
        return tree
    os.mkdir(directory)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", tree],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive.stdout, check=True)
    return str(directory)


def _pycache(tree):
    """Whether a __pycache__ directory exists under tree's src/."""
    return any(path.is_dir() for path in (Path(tree) / "src").rglob("__pycache__"))


def _quartiles(values):
    """[first quartile, median, third quartile] of values."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _time_fresh(command, tree):
    """The wall time in ms of one fresh process running python with
    command's arguments on tree's src/, and whether it exited with 0."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *command], env=tree_env(tree),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1e3, proc.returncode == 0


def compare_fresh(args, scratch):
    """The JSON-ready summary of args.pairs pairs of fresh-process runs of
    FRESH_COMMANDS; a tree given as a git revision is archived under the
    directory scratch."""
    trees = {"a": args.tree_a, "b": args.tree_b}
    directories = {name: checkout(tree, Path(scratch) / name) for name, tree in trees.items()}
    pycache = {name: {"before": _pycache(directory)}
               for name, directory in directories.items()}
    cpu = _pin()
    times = {name: {command: [] for command in FRESH_COMMANDS} for name in trees}
    failed = dict.fromkeys(trees, 0)
    for k in range(args.pairs):
        order = "ab" if k % 2 == 0 else "ba"
        for command, arguments in FRESH_COMMANDS.items():
            for name in order:
                elapsed, ok = _time_fresh(arguments, directories[name])
                times[name][command].append(elapsed)
                failed[name] += not ok
    for name, directory in directories.items():
        pycache[name]["after"] = _pycache(directory)
    bytecode = {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                "pycache": pycache}
    summary = {"mode": "fresh", "pairs": args.pairs, "cpus": [cpu],
               "commands": FRESH_COMMANDS, "bytecode": bytecode}
    for name, tree in trees.items():
        summary[name] = {"tree": str(tree), "ms": {
            command: dict(zip(("q1", "median", "q3"), _quartiles(values)))
            for command, values in times[name].items()}, "failed": failed[name]}
    summary["wins"] = {command: {name: sum(mine < theirs for mine, theirs
                                           in zip(times[name][command], times[other][command]))
                                 for name, other in (("a", "b"), ("b", "a"))}
                       for command in FRESH_COMMANDS}
    return summary


def compare(args, workloads, scratch):
    """The JSON-ready summary of the pairs of args.seeds; a tree given as a
    git revision is archived under the directory scratch."""
    trees = {"a": args.tree_a, "b": args.tree_b}
    directories = {name: checkout(tree, Path(scratch) / name) for name, tree in trees.items()}
    pairs = []
    for k, seed in enumerate(args.seeds):
        order = "ab" if k % 2 == 0 else "ba"
        runs = {name: _spawn(directories[name], args, seed) for name in order}
        pairs.append({"seed": seed, "a": runs["a"], "b": runs["b"]})
    summary = {"workload": args.workload, "seeds": f"{args.seeds.start}:{args.seeds.stop}",
               "cycles": args.cycles,
               "cpus": sorted({pair[name]["cpu"] for pair in pairs for name in trees},
                              key=str),
               "tail_pct": workloads.WORKLOADS[args.workload]["tail_pct"]}
    for name, tree in trees.items():
        runs = [pair[name] for pair in pairs]
        summary[name] = {"tree": str(tree)}
        summary[name].update({metric: statistics.median(run[metric] for run in runs)
                              for metric in METRICS})
        for key in ("kind_p50_ms", "kind_faults"):
            summary[name][key] = runs[0][key] and {
                kind: statistics.median(run[key][kind] for run in runs)
                for kind in runs[0][key]}
        summary[name]["failed"] = sum(run["failed"] for run in runs)
    summary["wins"] = {metric: {name: sum(beats(metric, pair[name], pair[other])
                                          for pair in pairs)
                                for name, other in (("a", "b"), ("b", "a"))}
                       for metric in METRICS}
    summary["pairs"] = [{"seed": pair["seed"],
                         **{name: [pair[name][metric] for metric in METRICS]
                            for name in trees}} for pair in pairs]
    return summary


def main():
    workloads = load_perfbench("workloads")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--in-process", action="store_true",
                      help="time cli.run calls inside the child processes")
    mode.add_argument("--fresh", action="store_true",
                      help="time whole processes running the golden commands")
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS),
                        help="the workload of --in-process")
    parser.add_argument("--seeds", type=seed_range, help="A:B, the seeds of --in-process")
    parser.add_argument("--cycles", type=int, default=15,
                        help="timed cycles per child of --in-process (default 15)")
    parser.add_argument("--pairs", type=int, default=11,
                        help="pairs of runs of each command for --fresh (default 11)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.in_process and (args.workload is None or args.seeds is None):
        parser.error("--in-process needs --workload and --seeds")
    if args.cycles < 1 or args.pairs < 1:
        parser.error("--cycles and --pairs must be at least 1")
    if args.child:
        _child(args, workloads)
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        if args.fresh:
            print(json.dumps(compare_fresh(args, scratch)))
        else:
            print(json.dumps(compare(args, workloads, scratch)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
