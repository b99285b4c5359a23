"""Work budgets of golden requests, counted rather than timed.

Each test runs a CLI request in-process with counting wrappers on the
entry points it must call at most so often, and asserts upper bounds,
or the exact count where fewer calls could not give the output. A
function is wrapped under every module name it is bound to, since
wrapping only the defining module counts no call made through an
imported name. A change that lowers a count should tighten its bound;
one that raises a bound should say why.
"""

import argparse
import collections
import functools
import io
import os

import pytest

from grippertool import (ContactModel, DomainError, GraspState, _g9format, cli, contact,
                         mechanism, parse_design, payload, pose, sizing)

from test_cli import GOLDEN_COMMANDS, SAMPLE, edited_design, golden
from test_pose import pose_state


def counting(counted, name, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        counted[name] += 1
        return function(*args, **kwargs)
    return wrapper


@pytest.fixture
def counts(monkeypatch):
    """Calls of GraspState() (copies by replace included), of the payload
    grid passes and the one-cell payload solve, of the solver's entry
    points under every name they are bound to, of the predicates _boundary
    evaluates ("predicate"), of the CLI's two INFEASIBLE writers
    (_mark_infeasible and the formatter's records) and of os.open, which
    opens each design file, from a parse with an empty memo onward."""
    counted = collections.Counter()

    def count(name, *modules):
        wrapper = counting(counted, name, getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapper)

    sizing_boundary = sizing._boundary

    def boundary(f, lo, hi):
        counted["_boundary"] += 1
        return sizing_boundary(counting(counted, "predicate", f), lo, hi)

    for module in (sizing, pose):
        monkeypatch.setattr(module, "_boundary", boundary)
    monkeypatch.setattr(GraspState, "__init__",
                        counting(counted, "GraspState", GraspState.__init__))
    count("_grid_weights", payload)
    count("_cell_weights", payload)
    count("_solve_cell", payload)
    count("_evaluate", sizing)
    count("required_grip_force", contact, sizing, cli)
    count("torque_margin", pose)
    count("_margin_at", pose)
    count("_friction_capacity", contact, payload, pose)
    count("check_feasible", mechanism, sizing, cli)
    count("_mark_infeasible", cli)
    count("records", _g9format)
    count("open", os)
    parse_design.cache_clear()
    yield counted
    parse_design.cache_clear()


def run_ok(argv):
    out = io.StringIO()
    assert cli.run(argv, out, out) == 0, out.getvalue()
    return out.getvalue()


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


@pytest.mark.parametrize("name, cells", [("analyze.txt", 1), ("payload_sweep.txt", 25)])
def test_golden_request_solves_each_payload_cell_once(counts, name, cells):
    run_ok(GOLDEN_COMMANDS[name])
    assert counts["_solve_cell"] == cells


def test_overflowing_grid_solves_only_its_first_bad_cell_again(counts):
    # d_com = d: the cells with d = 0 stay finite, and at d = 1e154 the
    # closed form's g_tool*d_obj*d*sin(alpha)*cos(alpha) overflows
    ds = [0.0] * payload.SCALAR_GRID_CELLS + [1e154]
    state = GraspState(f_n=40.0, g_tool=10.0, alpha=2.5, gamma=0.0, d=0.0, d_com=0.0,
                       theta=0.3)
    with pytest.raises(DomainError, match="d_com = 1e[+]154"):
        payload.payload_sweep(ContactModel(mu=0.5, e=0.005), state, 1e154, [2.5], ds)
    assert counts["_grid_weights"] == 1
    assert counts["_cell_weights"] == 1
    assert counts["_solve_cell"] == 1


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_request_reads_its_design_once(counts, name):
    run_ok(GOLDEN_COMMANDS[name])
    assert counts["open"] == 1


class CountingOut(io.StringIO):
    """A text stream that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("name", ["validate.txt", "analyze.txt", "optimize.txt"])
def test_golden_result_is_written_at_once(name):
    out, err = CountingOut(), io.StringIO()
    assert cli.run(GOLDEN_COMMANDS[name], out, err) == 0
    assert (out.getvalue(), err.getvalue(), out.writes) == (golden(name), "", 1)


def test_golden_optimize_checks_few_candidates(counts):
    run_ok(GOLDEN_COMMANDS["optimize.txt"])
    assert counts["_evaluate"] <= 6
    assert counts["required_grip_force"] <= 8
    assert counts["_boundary"] <= 2
    assert counts["predicate"] <= 21


def test_golden_analyze_solves_each_configuration_once(counts):
    run_ok(GOLDEN_COMMANDS["analyze.txt"])
    assert counts["required_grip_force"] == 2


def test_golden_validate_checks_the_design_once(counts):
    run_ok(GOLDEN_COMMANDS["validate.txt"])
    assert counts["check_feasible"] == 1
    assert counts["_friction_capacity"] == 0


@pytest.mark.parametrize("name, capacities", [
    # the hold offset and the payload, one each
    ("analyze.txt", 2),
    # one for the whole grid, solved one cell at a time
    ("payload_sweep.txt", 1),
])
def test_golden_request_forms_each_capacity_once(counts, name, capacities):
    run_ok(GOLDEN_COMMANDS[name])
    assert counts["_friction_capacity"] == capacities


@pytest.mark.parametrize("samples", ["2", "19", "91", "1001"])
def test_golden_pose_sweep_takes_three_peak_candidates(counts, samples):
    # the candidates are gamma = 0 (the pads hold there), the kink and
    # pi/2; Descartes' rule rules out a stationary point, so no root is
    # searched, and the samples take the vectorized pass. The samples,
    # the peak and its candidates share one capacity.
    run_ok([*GOLDEN_COMMANDS["pose_sweep.txt"][:-1], samples])
    assert counts["_boundary"] == 0
    assert counts["_margin_at"] == 3
    assert counts["torque_margin"] == 0
    assert counts["_friction_capacity"] == 1


def test_stationary_peak_searches_the_quartic_briefly(counts):
    model = ContactModel(mu=0.15, e=0.0106)
    state = pose_state(f_n=61.5, g_tool=36.8, alpha=1.07, d_com=0.092)
    pose.gamma_sweep(model, state, 19)
    assert counts["_boundary"] <= 5
    assert counts["predicate"] <= 146


def pose_argv(design, samples):
    return ["pose-sweep", design, "--samples", str(samples)]


@pytest.mark.parametrize("sweep, blocks", [
    ("pose", 1), ("pose-long", 3), ("payload-row", 1), ("payload-long-row", 1),
    ("payload-grid", 2)])
def test_long_sweep_writes_infeasible_from_the_formatter(counts, tmp_path, sweep, blocks):
    # f_n = 5 leaves the pads unable to carry the tool below gamma = 60 deg;
    # the payload sweeps have infeasible cells at large d
    not_held = edited_design(tmp_path, "f_n = 40", "f_n = 5")
    argv = {"pose": pose_argv(not_held, cli.CHUNK_LINES),
            "pose-long": pose_argv(not_held, 2 * cli.CHUNK_LINES + 1),
            "payload-row": ["payload-sweep", SAMPLE, "--alpha", "40:40:1deg",
                            "--d", f"0:{0.00002 * (cli.CHUNK_LINES - 1)!r}:0.00002"],
            "payload-long-row": ["payload-sweep", SAMPLE, "--alpha", "40:40:1deg",
                                 "--d", "0:0.99999:0.00001"],
            "payload-grid": ["payload-sweep", SAMPLE, "--alpha", "5:85:1deg",
                             "--d", "0:0.1:0.001"]}[sweep]
    out = run_ok(argv)
    assert counts["_mark_infeasible"] == 0
    assert counts["records"] == blocks
    assert cli.INFEASIBLE in out


@pytest.mark.parametrize("sweep, rows", [("payload", 5), ("pose", 1)])
def test_short_sweep_marks_each_percent_call(counts, tmp_path, sweep, rows):
    # one call per alpha row of the golden payload sweep, one per pose sweep
    not_held = edited_design(tmp_path, "f_n = 40", "f_n = 5")
    argv = {"payload": GOLDEN_COMMANDS["payload_sweep.txt"],
            "pose": pose_argv(not_held, cli.CHUNK_LINES - 1)}[sweep]
    out = run_ok(argv)
    assert counts["_mark_infeasible"] == rows
    assert counts["records"] == 0
    assert (cli.INFEASIBLE in out) == (sweep == "pose")


def test_refusals_of_one_subcommand_format_its_usage_once(counts, monkeypatch):
    # two reversed ranges at one terminal width; neither reads the design
    monkeypatch.setenv("COLUMNS", "97")
    monkeypatch.setattr(argparse.ArgumentParser, "format_usage",
                        counting(counts, "format_usage", argparse.ArgumentParser.format_usage))
    cli._error_prefix.cache_clear()
    for alpha in ("56:43:5deg", "57:43:5deg"):
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(["payload-sweep", SAMPLE, "--alpha", alpha, "--d", "0:0.04:0.01"],
                       out, err) == 2
        assert f"error: argument --alpha: range '{alpha}'" in err.getvalue()
    assert counts["format_usage"] == 1
    assert counts["open"] == 0
