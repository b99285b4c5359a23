"""Work budgets of golden requests, counted rather than timed.

Each test runs a CLI request in-process with counting wrappers on the
entry points it must call at most so often, and asserts upper bounds.
A change that lowers a count should tighten its bound; one that raises
a bound should say why.
"""

import collections
import functools
import io

import pytest

from grippertool import GraspState, cli, parse_design, payload

from test_cli import GOLDEN_COMMANDS, SAMPLE


@pytest.fixture
def counts(monkeypatch):
    """Calls of GraspState() (copies by replace included) and of the
    numpy grid pass, from a parse with an empty memo onward."""
    counted = collections.Counter()

    def counting(name, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GraspState, "__init__",
                        counting("GraspState", GraspState.__init__))
    monkeypatch.setattr(payload, "_grid_weights",
                        counting("_grid_weights", payload._grid_weights))
    parse_design.cache_clear()
    yield counted
    parse_design.cache_clear()


def run_ok(argv):
    out = io.StringIO()
    assert cli.run(argv, out, out) == 0, out.getvalue()


@pytest.mark.parametrize("name", ["analyze.txt", "payload_sweep.txt"])
def test_golden_request_builds_only_the_parsed_state(counts, name):
    # the 25-cell golden sweep is solved one cell at a time
    run_ok(GOLDEN_COMMANDS[name])
    assert counts["GraspState"] <= 1
    assert counts["_grid_weights"] <= 0


def test_grid_above_the_threshold_takes_one_numpy_pass(counts):
    cells = payload.SCALAR_GRID_CELLS + 1
    run_ok(["payload-sweep", SAMPLE, "--alpha", "45:45:1deg",
            "--d", f"0:{0.001 * (cells - 1)!r}:0.001"])
    assert counts["GraspState"] <= 1
    assert counts["_grid_weights"] == 1
