"""scripts/timing.py pairs two trees, directories or git revisions, on a
workload and reports every key of its summary; the numbers themselves
are not checked."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_git_revisions_are_archived_as_trees():
    if shutil.which("git") is None or subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
            capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    assert_pairs_reported(("HEAD", "HEAD"), "1:2")
