"""scripts/differential.py finds no difference between the repo and itself,
and finds those of a copy with one sizing, contact, CLI or sweep output
changed."""

import collections
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from grippertool import (GripperToolError, InfeasibleProblemError, gamma_sweep,
                         holding_max_offset, max_payload, maximize_stroke)

from contact_cases import draw_contact
from sizing_cases import draw_case

ROOT = Path(__file__).resolve().parent.parent


def differential(tree_a, tree_b, seeds="0:300", *suite):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "differential.py"),
                           str(tree_a), str(tree_b), "--seeds", seeds, *suite],
                          capture_output=True, text=True, check=False)
    return proc.returncode, json.loads(proc.stdout)


def patched_copy(tmp_path, module, old, new):
    """tmp_path holding a copy of src/ with old replaced by new in module."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "grippertool" / f"{module}.py"
    text = source.read_text(encoding="utf-8")
    assert text.count(old) == 1
    source.write_text(text.replace(old, new), encoding="utf-8")
    return tmp_path


def test_repo_against_itself():
    code, summary = differential(ROOT, ROOT)
    assert code == 0
    assert summary == {"suite": "sizing", "seeds": "0:300", "cases": 300 * 9,
                       "differing": 0, "differing_cases": [], "differences": []}


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


@pytest.mark.parametrize("old, new, kind, module", [
    # the refusal names m_upper_bound before an r bound
    ('("r_lower_bound", "r_upper_bound", "m_upper_bound")',
     '("m_upper_bound", "r_lower_bound", "r_upper_bound")', "problem", "sizing"),
    # theta_init = pi/2 passes check_feasible
    ("if dim.theta_init >= math.pi / 2:", "if dim.theta_init > math.pi / 2:", "dims",
     "mechanism"),
])
def test_patched_copy_differs(tmp_path, old, new, kind, module):
    code, summary = differential(ROOT, patched_copy(tmp_path, module, old, new))
    assert code == 1
    assert summary["cases"] == 300 * 9 and summary["differing"] > 0
    assert all(d["case"].startswith(kind + " ") and d["a"] != d["b"]
               for d in summary["differences"])
    # every differing case is named, the first MAX_SHOWN also in full
    assert len(summary["differing_cases"]) == summary["differing"]
    assert all(case.startswith(kind + " ") for case in summary["differing_cases"])
    assert [d["case"] for d in summary["differences"]] == summary["differing_cases"][:5]


def test_contact_suite_against_itself():
    code, summary = differential(ROOT, ROOT, "0:300", "--suite", "contact")
    assert code == 0
    assert summary == {"suite": "contact", "seeds": "0:300", "cases": 300 * 3,
                       "differing": 0, "differing_cases": [], "differences": []}


def test_contact_cases_reach_every_outcome():
    # vertical poses and overflowing or denormal terms: every hold outcome,
    # and values and errors of the payload and the peak
    outcomes = collections.Counter()
    for seed in range(300):
        model, state, d_obj = draw_contact(seed)
        for name, call in (("hold", lambda: holding_max_offset(model, state)),
                           ("payload", lambda: max_payload(model, state, d_obj)),
                           ("peak", lambda: gamma_sweep(model, state, 2))):
            try:
                value = call()
                outcomes[name, "inf" if value == math.inf else "value"] += 1
            except (GripperToolError, ValueError) as exc:   # the CLI's refusals
                outcomes[name, type(exc).__name__] += 1
    assert {("hold", "inf"), ("hold", "value"), ("hold", "InfeasibleHoldError"),
            ("hold", "DomainError"), ("payload", "value"), ("payload", "DomainError"),
            ("peak", "value"), ("peak", "DomainError")} <= outcomes.keys(), outcomes


@pytest.mark.parametrize("module, old, new, kind", [
    # alpha = pi is no longer a vertical pose
    ("contact", "if state.alpha == 0.0 or state.alpha == math.pi:", "if state.alpha == 0.0:",
     "hold"),
    # the available spin torque one ulp larger
    ("pose", "available = 2.0 * model.e * sqrt_headroom",
     "available = 2.0 * model.e * sqrt_headroom * (1.0 + 2.0**-52)", "peak"),
])
def test_patched_contact_copy_differs(tmp_path, module, old, new, kind):
    code, summary = differential(ROOT, patched_copy(tmp_path, module, old, new), "0:300",
                                 "--suite", "contact")
    assert code == 1
    assert summary["cases"] == 300 * 3 and summary["differing"] > 0
    assert all(d["case"].startswith(kind + " ") and d["a"] != d["b"]
               for d in summary["differences"])


def test_workloads_suite_against_itself():
    # seed 1 of the benchmark's three workloads: 1,000 interactive, 36
    # surface and 12 sizing requests
    code, summary = differential(ROOT, ROOT, "1:2", "--suite", "workloads")
    assert code == 0
    assert summary == {"suite": "workloads", "seeds": "1:2", "cases": 1048,
                       "differing": 0, "differing_cases": [], "differences": []}


def test_patched_workloads_copy_differs(tmp_path):
    tree = patched_copy(tmp_path, "cli", 'out.write("no violations\\n")',
                        'out.write("no violation\\n")')
    code, summary = differential(ROOT, tree, "1:2", "--suite", "workloads")
    assert code == 1
    assert summary["cases"] == 1048 and summary["differing"] > 0
    assert all(d["case"].startswith("interactive ") and d["a"] == [0, "no violations\n", ""]
               and d["b"] == [0, "no violation\n", ""] for d in summary["differences"])


def test_sweeps_suite_against_itself():
    code, summary = differential(ROOT, ROOT, "0:10", "--suite", "sweeps")
    assert code == 0
    assert summary == {"suite": "sweeps", "seeds": "0:10", "cases": 10 * 3,
                       "differing": 0, "differing_cases": [], "differences": []}


def test_patched_sweeps_copy_differs(tmp_path):
    # every line of a block of several alpha rows takes the block's first alpha
    tree = patched_copy(tmp_path, "_g9format", "outer[r:r + step, None]", "outer[r:r + 1, None]")
    code, summary = differential(ROOT, tree, "0:10", "--suite", "sweeps")
    assert code == 1
    assert summary["cases"] == 10 * 3 and summary["differing"] > 0
    assert all(d["case"].startswith("grid ") and d["a"][0] == d["b"][0] == 0
               and d["a"][1] != d["b"][1] for d in summary["differences"])


@pytest.mark.parametrize("direction", ["up", "down"])
def test_perturbed_run_moves_last_bits(direction):
    # the same tree with every libm function one float off: values move in
    # their last bits, so some cases differ, and each by little
    code, summary = differential(ROOT, ROOT, "0:100", "--suite", "contact",
                                 "--perturb", direction)
    assert code == 1
    assert summary["cases"] == 100 * 3 and 0 < summary["differing"] < 300
    for difference in summary["differences"]:
        a, b = ([float.fromhex(value) for value in difference[side]] for side in "ab")
        assert a != b and b == pytest.approx(a, rel=1e-12), difference
