"""scripts/differential.py finds no difference between the repo and itself,
and finds those of a copy with one sizing output changed."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from grippertool import InfeasibleProblemError, maximize_stroke

from sizing_cases import draw_case

ROOT = Path(__file__).resolve().parent.parent


def differential(tree_a, tree_b, seeds="0:300"):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "differential.py"),
                           str(tree_a), str(tree_b), "--seeds", seeds],
                          capture_output=True, text=True, check=False)
    return proc.returncode, json.loads(proc.stdout)


def test_repo_against_itself():
    code, summary = differential(ROOT, ROOT)
    assert code == 0
    assert summary == {"suite": "sizing", "seeds": "0:300", "cases": 300 * 9,
                       "differing": 0, "differences": []}


def test_cases_reach_the_refusals():
    # collapsed r bounds and m bounds across q and w_init make every kind of
    # refusal, m_upper_bound after an r bound included
    bindings = []
    for seed in range(300):
        try:
            maximize_stroke(draw_case(seed))
        except InfeasibleProblemError as exc:
            bindings.append([item.split(" ")[0]
                             for item in str(exc).split("binding: ")[1].split(", ")])
    firsts = {names[0] for names in bindings}
    assert {"r_lower_bound", "r_upper_bound", "m_upper_bound", "grip_budget"} <= firsts
    assert any(names[0].startswith("r_") and "m_upper_bound" in names for names in bindings)


@pytest.mark.parametrize("old, new, kind", [
    # the refusal names m_upper_bound before an r bound
    ('("r_lower_bound", "r_upper_bound", "m_upper_bound")',
     '("m_upper_bound", "r_lower_bound", "r_upper_bound")', "problem"),
    # theta_init = pi/2 passes check_feasible
    ("if dim.theta_init >= math.pi / 2:", "if dim.theta_init > math.pi / 2:", "dims"),
])
def test_patched_copy_differs(tmp_path, old, new, kind):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    sizing = tmp_path / "src" / "grippertool" / "sizing.py"
    text = sizing.read_text(encoding="utf-8")
    assert text.count(old) == 1
    sizing.write_text(text.replace(old, new), encoding="utf-8")
    code, summary = differential(ROOT, tmp_path)
    assert code == 1
    assert summary["cases"] == 300 * 9 and summary["differing"] > 0
    assert all(d["case"].startswith(kind + " ") and d["a"] != d["b"]
               for d in summary["differences"])
