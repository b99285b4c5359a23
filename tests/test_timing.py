"""scripts/timing.py pairs two trees, directories or git revisions, on a
workload in-process or on the golden commands in fresh processes, and
reports every key of its summary; the numbers themselves are not
checked."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import GOLDEN_COMMANDS

try:
    import resource
except ImportError:   # not on Windows
    resource = None

ROOT = Path(__file__).resolve().parent.parent


def assert_pairs_reported(trees, seeds):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "timing.py"), "--in-process",
                           *trees, "--workload", "interactive", "--seeds", seeds,
                           "--cycles", "1"], capture_output=True, text=True, check=True)
    summary = json.loads(proc.stdout)
    metrics = ["p50_ms", "tail_ms", "requests_per_s"]
    assert list(summary) == ["workload", "seeds", "cycles", "cpus", "tail_pct",
                             "a", "b", "wins", "pairs"]
    assert len(summary["cpus"]) == 1  # every child pins itself to the same CPU
    assert (summary["workload"], summary["seeds"], summary["cycles"],
            summary["tail_pct"]) == ("interactive", seeds, 1, 99.0)
    for tree, name in zip(("a", "b"), trees):
        assert list(summary[tree]) == ["tree", *metrics, "kind_p50_ms", "kind_faults",
                                       "failed"]
        assert summary[tree]["tree"] == name
        kinds = ["analyze", "payload-sweep", "pose-sweep", "validate"]
        assert list(summary[tree]["kind_p50_ms"]) == kinds
        # minor page faults per cli.run call, where the platform counts them
        faults = summary[tree]["kind_faults"]
        if resource is None:
            assert faults is None
        else:
            assert list(faults) == kinds
            assert all(count >= 0 for count in faults.values())
        assert summary[tree]["failed"] == 0
    assert list(summary["wins"]) == metrics
    pairs = range(*map(int, seeds.split(":")))
    for wins in summary["wins"].values():
        assert list(wins) == ["a", "b"] and wins["a"] + wins["b"] <= len(pairs)
    assert [pair["seed"] for pair in summary["pairs"]] == list(pairs)
    assert all(len(pair["a"]) == len(pair["b"]) == 3 for pair in summary["pairs"])


def test_in_process_pairs_report_each_tree():
    assert_pairs_reported((str(ROOT), str(ROOT)), "1:3")


def skip_outside_git():
    if shutil.which("git") is None or subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
            capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")


def test_git_revisions_are_archived_as_trees():
    skip_outside_git()
    assert_pairs_reported(("HEAD", "HEAD"), "1:2")


def test_fresh_pairs_report_each_command():
    skip_outside_git()
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "timing.py"), "--fresh",
                           "HEAD", "HEAD", "--pairs", "1"],
                          capture_output=True, text=True, check=True)
    summary = json.loads(proc.stdout)
    assert list(summary) == ["mode", "pairs", "cpus", "commands", "bytecode", "a", "b",
                             "wins"]
    assert (summary["mode"], summary["pairs"], len(summary["cpus"])) == ("fresh", 1, 1)
    floors = {"python -c pass": ["-c", "pass"], "python -S -c pass": ["-S", "-c", "pass"],
              "import numpy": ["-c", "import numpy"]}
    goldens = {name.removesuffix(".txt"): ["-m", "grippertool.cli", *argv]
               for name, argv in GOLDEN_COMMANDS.items()}
    assert summary["commands"] == {**floors, **goldens}
    commands = list(summary["commands"])
    bytecode = summary["bytecode"]
    assert list(bytecode) == ["PYTHONDONTWRITEBYTECODE", "pycache"]
    assert bytecode["PYTHONDONTWRITEBYTECODE"] == os.environ.get("PYTHONDONTWRITEBYTECODE")
    for tree in ("a", "b"):
        assert list(bytecode["pycache"][tree]) == ["before", "after"]
        assert list(summary[tree]) == ["tree", "ms", "failed"]
        assert summary[tree]["tree"] == "HEAD" and summary[tree]["failed"] == 0
        assert list(summary[tree]["ms"]) == commands
        for times in summary[tree]["ms"].values():
            assert list(times) == ["q1", "median", "q3"]
            assert 0.0 < times["q1"] <= times["median"] <= times["q3"]
    assert list(summary["wins"]) == commands
    for wins in summary["wins"].values():
        assert list(wins) == ["a", "b"] and wins["a"] + wins["b"] <= 1
