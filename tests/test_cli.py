import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc

from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grippertool
from grippertool import (GripConfig, gamma_sweep, holding_max_offset, parse_design,
                         payload_sweep, required_grip_force)
from grippertool import cli
from grippertool.cli import (CHUNK_LINES, DEG, INFEASIBLE, MAX_GRID_CELLS, MAX_RANGE_POINTS,
                             _build_parser, _parse_range, _sample_count, fmt, run)
from grippertool.payload import SCALAR_GRID_CELLS

from argv_corpus import argv_corpus, refused_values
from design_mutations import THRESHOLDS, mutated_designs, sample_text
from sweep_reference import assert_same_text, payload_csv, payload_rows, pose_csv

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = str(ROOT / "designs" / "example_tool.ini")
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

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


def golden(name):
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


FRESH_SCRIPT = """\
import io, json, sys
first, watch, commands = json.loads(sys.argv[1])
prefixes = tuple(name for name in watch if name.endswith("."))
def loaded():
    return [name for name in sorted(sys.modules) if name in watch or name.startswith(prefixes)]
exec(first, {})
modules, results = [loaded()], []
for argv in commands:
    from grippertool.cli import run
    out, err = io.StringIO(), io.StringIO()
    results.append([run(argv, out, err), out.getvalue(), err.getvalue()])
    modules.append(loaded())
json.dump([modules, results], sys.stdout)
"""


def fresh(commands, watch=(), first="import grippertool.cli"):
    """Runs the statement first, then each argv of commands through run(),
    in one fresh interpreter. Returns the watched modules loaded after
    first and after each command, and each command's [code, stdout,
    stderr]. A watched name ending in "." matches every module under it.
    python -S keeps site .pth files from loading modules first, so src and
    numpy's directory go on the path by hand."""
    path = [str(ROOT / "src"), str(Path(numpy.__file__).parents[1]),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", FRESH_SCRIPT, json.dumps([first, list(watch), commands])],
        capture_output=True, text=True, cwd=str(ROOT), env=env, check=True)
    return json.loads(proc.stdout)


class TestNumpyImport:
    """numpy is loaded by the large-grid pass and the pose sweep alone:
    importing the package, the scalar commands, a payload sweep of at
    most SCALAR_GRID_CELLS cells and one whose tool is not held, at any
    size, leave it unloaded. That a sweep which
    imports it on its first call still prints its golden output is
    checked by TestParserReuse.test_sequence_matches_first_runs."""

    SCALAR = ["validate.txt", "analyze.txt", "optimize.txt"]

    @staticmethod
    def sweep(design, cells):
        """A one-alpha payload-sweep of the given number of cells."""
        return ["payload-sweep", design, "--alpha", "45:45:1deg",
                "--d", f"0:{0.001 * (cells - 1)!r}:0.001"]

    def test_scalar_commands_leave_numpy_unloaded(self, tmp_path):
        # the largest grid solved one cell at a time, for a tool too heavy to hold
        heavy = edited_design(tmp_path, "f_n = 40", "f_n = 5")
        heavy_sweep = self.sweep(heavy, SCALAR_GRID_CELLS)
        names = self.SCALAR + ["payload_sweep.txt"]
        commands = [GOLDEN_COMMANDS[name] for name in names]
        commands += [heavy_sweep, GOLDEN_COMMANDS["pose_sweep.txt"]]
        loaded, results = fresh(commands, ["numpy"])
        # after the import, each scalar command and both small sweeps; the
        # pose sweep then loads it
        assert loaded == [[]] * (1 + len(names) + 1) + [["numpy"]]
        for name, result in zip(names, results):
            assert result == [0, golden(name), ""]
        code, out, err = results[len(names)]
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", 1 + SCALAR_GRID_CELLS)
        assert all(line.endswith(f",{INFEASIBLE}") for line in lines[1:])

    def test_grid_above_the_threshold_loads_numpy(self):
        cells = SCALAR_GRID_CELLS + 1
        loaded, [result] = fresh([self.sweep(SAMPLE, cells)], ["numpy"])
        assert loaded == [[], ["numpy"]]
        assert result[0] == 0 and len(result[1].splitlines()) == 1 + cells

    def test_list_grid_of_chunk_lines_is_written_without_numpy(self, tmp_path):
        # a tool too heavy to hold gives rows of floats, which % writes at
        # any size; the same grid on the example design takes the numpy
        # pass and the formatter
        heavy = edited_design(tmp_path, "f_n = 40", "f_n = 5")
        grid = ["--alpha", "5:85:1deg", "--d", "0:0.1:0.001"]
        watch = ["grippertool._g9format", "numpy"]
        loaded, results = fresh([["payload-sweep", heavy, *grid],
                                 ["payload-sweep", SAMPLE, *grid]], watch)
        assert loaded == [[], [], watch]
        for code, out, err in results:
            assert (code, err, len(out.splitlines())) == (0, "", 1 + 81 * 101)
        assert 81 * 101 >= CHUNK_LINES
        assert all(line.endswith(f",{INFEASIBLE}") for line in results[0][1].splitlines()[1:])


class TestModuleLoading:
    """Importing the CLI loads contact, designfile, errors and mechanism
    alone; each command then loads only the solver modules it calls.
    Importing the package loads no submodule: it imports each public name
    from its submodule on first access."""

    PARSE = ["cli", "contact", "designfile", "errors", "mechanism"]
    SOLVERS = {"validate.txt": [], "optimize.txt": ["sizing"],
               "analyze.txt": ["payload"], "payload_sweep.txt": ["payload"],
               "pose_sweep.txt": ["pose"]}

    @staticmethod
    def modules(names):
        return [f"grippertool.{name}" for name in sorted(names)]

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_each_command_loads_only_its_solvers(self, name):
        (imported, ran), [result] = fresh([GOLDEN_COMMANDS[name]], ["grippertool."])
        assert imported == self.modules(self.PARSE)
        assert ran == self.modules(self.PARSE + self.SOLVERS[name])
        assert result == [0, golden(name), ""]

    @staticmethod
    def sweeps(lines):
        """A pose sweep and a one-alpha payload sweep of the given number of
        CSV lines, each with its stdout's number of lines."""
        return [(["pose-sweep", SAMPLE, "--samples", str(lines)], lines + 2),
                (["payload-sweep", SAMPLE, "--alpha", "40:40:1deg",
                  "--d", f"0:{0.00002 * (lines - 1)!r}:0.00002"], lines + 1)]

    def test_only_sweeps_of_chunk_lines_load_the_formatter(self):
        formatter = "grippertool._g9format"
        names = sorted(GOLDEN_COMMANDS)
        for (short, short_lines), (long, long_lines) in zip(self.sweeps(CHUNK_LINES - 1),
                                                            self.sweeps(CHUNK_LINES)):
            commands = [GOLDEN_COMMANDS[name] for name in names] + [short, long]
            loaded, results = fresh(commands, [formatter])
            # after the import, each golden command and the short sweep;
            # the sweep of CHUNK_LINES lines then loads it
            assert loaded == [[]] * (2 + len(names)) + [[formatter]]
            for name, result in zip(names, results):
                assert result == [0, golden(name), ""]
            assert [len(out.splitlines()) for _, out, _ in results[-2:]] == [short_lines,
                                                                             long_lines]

    def test_package_resolves_names_on_first_access(self):
        assert fresh([], ["grippertool."], first="import grippertool") == [[[]], []]
        [starred], _ = fresh([], ["grippertool."], first="from grippertool import *")
        assert starred == self.modules(["contact", "designfile", "errors", "mechanism",
                                        "payload", "pose", "sizing"])
        star = {}
        exec("from grippertool import *", star)
        assert sorted(star.keys() - {"__builtins__"}) == grippertool.__all__

    def test_package_names_are_the_submodules_objects(self):
        for name in grippertool.__all__:
            value = getattr(grippertool, name)
            assert getattr(sys.modules[value.__module__], name) is value
        assert set(grippertool.__all__) <= set(dir(grippertool))
        from grippertool import payload
        assert payload is sys.modules["grippertool.payload"]

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError) as missing:
            grippertool.no_such_name
        assert str(missing.value) == "module 'grippertool' has no attribute 'no_such_name'"
        with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
            from grippertool import no_such_name  # noqa: F401


class TestDataclassesImport:
    """The value types are built without dataclasses, so neither it nor
    the inspect module it imports is loaded by the package or by the
    scalar commands."""

    UNWANTED = ("dataclasses", "inspect")

    def test_scalar_commands_leave_dataclasses_unloaded(self):
        scalar = TestNumpyImport.SCALAR
        loaded, results = fresh([GOLDEN_COMMANDS[name] for name in scalar], self.UNWANTED)
        assert loaded == [[]] * (1 + len(scalar))
        for name, result in zip(scalar, results):
            assert result == [0, golden(name), ""]


class TestArgparseImport:
    """Importing the CLI and running well-formed requests load neither
    argparse nor the gettext module it imports; the first usage error
    loads them and prints what the full parser prints."""

    UNWANTED = ("argparse", "gettext")
    USAGE_ERROR = ["analyze", SAMPLE, "--d-obj", "nan"]

    def test_golden_commands_leave_argparse_unloaded(self):
        names = sorted(GOLDEN_COMMANDS)
        commands = [GOLDEN_COMMANDS[name] for name in names] + [self.USAGE_ERROR]
        loaded, results = fresh(commands, self.UNWANTED)
        assert loaded == [[]] * (1 + len(names)) + [list(self.UNWANTED)]
        for name, result in zip(names, results):
            assert result == [0, golden(name), ""]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                pytest.raises(SystemExit) as full_parser:
            _build_parser()[0].parse_args(self.USAGE_ERROR)
        refused = results[-1]
        assert refused == [full_parser.value.code, out.getvalue(), err.getvalue()]
        assert refused[:2] == [2, ""]
        assert refused[2].endswith(
            "error: argument --d-obj: 'nan' is not a finite number\n")


class TestExitCodes:
    def test_validate_feasible_sample(self):
        code, out, _ = invoke(["validate", SAMPLE])
        assert code == 0
        assert out == "no violations\n"

    def test_validate_reports_violations(self, tmp_path):
        text = Path(SAMPLE).read_text().replace("theta_end = 12deg",
                                                "theta_end = 8deg")
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        code, out, _ = invoke(["validate", str(bad)])
        assert code == 1
        assert "theta_end_min" in out
        # theta_init = 90deg is singular: check_feasible's limit is strict
        bad.write_text(Path(SAMPLE).read_text().replace(
            "theta_init = 60deg", "theta_init = 90deg").replace(
            "w_init = 0.063961524", "w_init = 0.072"))
        code, out, _ = invoke(["validate", str(bad)])
        assert code == 1
        assert "violation theta_init_singular: margin = 0" in out.splitlines()

    def test_parse_error_is_domain_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(Path(SAMPLE).read_text().replace("mu = 0.5", "mu = x"))
        code, _, err = invoke(["analyze", str(bad)])
        assert code == 1
        assert "mu" in err

    def test_missing_file_is_domain_error(self):
        assert invoke(["analyze", "no_such_file.ini"]) == (
            1, "", "error: [Errno 2] No such file or directory: 'no_such_file.ini'\n")

    def test_unreadable_paths_print_what_open_prints(self, tmp_path):
        # a directory opens on Linux and fails on its first read; a path
        # with a NUL byte is refused before any system call
        assert invoke(["analyze", str(tmp_path)]) == (
            1, "", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")
        assert invoke(["analyze", "design\0.ini"]) == (1, "", "error: embedded null byte\n")

    def test_usage_error_exit_2(self):
        for argv in (["payload-sweep", SAMPLE, "--alpha", "nonsense",
                      "--d", "0:0.1:0.05"],
                     ["no-such-command"]):
            code, out, err = invoke(argv)
            assert (code, out) == (2, "")
            assert err.startswith("usage: grippertool")

    @pytest.mark.parametrize("argv", [["--help"], ["pose-sweep", "--help"],
                                      ["optimize", "--help"]])
    def test_help_goes_to_out(self, argv):
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert out.startswith(" ".join(["usage: grippertool", *argv[:-1]]) + " ")
        assert "--help" in out

    @pytest.mark.parametrize("line, value, message", [
        ("f_n = 40", "f_n = -1",
         "invariant violated in [grasp]: GraspState.f_n must be >= 0"),
        ("mu = 0.5", "mu = 0",
         "invariant violated in [contact]: ContactModel.mu must be > 0"),
        ("q = 0.006", "q = 0.5", "invariant violated in [tool]: ToolDimensions.q=0.5 "
                                 "inconsistent with d_axis + 2*r_edge=0.006"),
    ])
    def test_out_of_range_design_value_names_its_check(self, tmp_path, line, value,
                                                       message):
        design = edited_design(tmp_path, line, value)
        assert invoke(["analyze", design]) == (1, "", f"error: {message}\n")

    def test_zero_grip_budget_names_its_check(self):
        argv = GOLDEN_COMMANDS["optimize.txt"][:-1] + ["0"]
        assert invoke(argv) == (1, "", "error: SizingProblem.grip_budget must be > 0\n")

    def test_infeasible_bounds_name_their_binding_checks(self):
        # an m box below the clearance span: the refusal names the failing
        # r bound before m_upper_bound
        argv = ["optimize", SAMPLE, "--m", "0.0006:0.0007", "--r", "0.005:0.01",
                "--theta-init", "40:83deg", "--grip-budget", "36"]
        assert invoke(argv) == (1, "", "error: no feasible design within bounds; binding: "
                                       "r_upper_bound (-0.0191984), m_upper_bound (-0.0053)\n")

    def test_closed_angle_at_theta_hi_names_theta_end_min(self):
        # an m box so high that r at the theta_init upper bound closes the
        # jaw only at or past that bound
        argv = ["optimize", SAMPLE, "--m", "0.052:0.06", "--r", "0.005:0.08",
                "--theta-init", "40:83deg", "--grip-budget", "36"]
        assert invoke(argv) == (1, "", "error: no feasible design within bounds; binding: "
                                       "theta_end_min (-0.0298236)\n")

    def test_non_finite_design_value_is_domain_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(Path(SAMPLE).read_text().replace("mu = 0.5", "mu = nan"))
        code, out, err = invoke(["analyze", str(bad), "--d-obj", "0.05"])
        assert (code, out) == (1, "")
        assert err == "error: line 24: key 'mu': non-finite value 'nan'\n"

    def test_malformed_range_is_usage_error(self):
        code, _, _ = invoke(["payload-sweep", SAMPLE,
                             "--alpha", "10:5:1deg", "--d", "0:0.1:0.05"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["analyze", SAMPLE, "--d-obj", "nan"],
        ["payload-sweep", SAMPLE, "--alpha", "15:75:15deg", "--d", "0:0.04:0.01",
         "--d-obj", "nan"],
        ["payload-sweep", SAMPLE, "--alpha", "nan:75:15deg", "--d", "0:0.04:0.01"],
        ["payload-sweep", SAMPLE, "--alpha", "15:75:15deg", "--d", "0:inf:1"],
        ["payload-sweep", SAMPLE, "--alpha", "15:75:infdeg", "--d", "0:0.04:0.01"],
        ["optimize", SAMPLE, "--m", "0.008:0.03", "--r", "0.005:0.08",
         "--theta-init", "40:83deg", "--grip-budget", "inf"],
        ["optimize", SAMPLE, "--m", "nan:0.03", "--r", "0.005:0.08",
         "--theta-init", "40:83deg", "--grip-budget", "36"],
        ["optimize", SAMPLE, "--m", "0.008:0.03", "--r", "0.005:0.08",
         "--theta-init", "40:-infdeg", "--grip-budget", "36"],
    ])
    def test_non_finite_number_is_usage_error(self, argv):
        code, out, err = invoke(argv)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("flag, value", [
        ("--m", "0.03:0.008"),
        ("--r", "0.08:0.005"),
        ("--theta-init", "83:40deg"),
    ])
    def test_reversed_interval_is_usage_error(self, flag, value):
        bounds = {"--m": "0.008:0.03", "--r": "0.005:0.08",
                  "--theta-init": "40:83deg", flag: value}
        argv = ["optimize", SAMPLE, "--grip-budget", "36"]
        for name, text in bounds.items():
            argv += [name, text]
        code, out, err = invoke(argv)
        assert code == 2
        assert out == ""
        assert "lo <= hi" in err

    def test_oversized_range_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(argparse.ArgumentTypeError, match="points"):
                _parse_range("0:1e12:1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        code, out, err = invoke(["payload-sweep", SAMPLE,
                                 "--alpha", "15:75:15deg", "--d", "0:1e12:1"])
        assert (code, out) == (2, "")
        assert "points" in err

    def test_range_of_non_finite_span_is_usage_error(self):
        # (stop - start) / step overflows to inf
        code, out, err = invoke(["payload-sweep", SAMPLE, "--alpha", "10:20:5deg",
                                 "--d", "0:1e308:1e-300"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: grippertool payload-sweep ")
        assert err.endswith("error: argument --d: range '0:1e308:1e-300' "
                            "has more than 100000 points\n")

    def test_oversized_grid_refused_before_allocating(self):
        # 1,001 x 1,001 cells: each axis is far below MAX_RANGE_POINTS
        argv = ["payload-sweep", SAMPLE, "--alpha", "0:1000:1deg",
                "--d", "0:0.1:0.0001"]
        invoke(argv[:2])   # parser built outside the traced window
        tracemalloc.start()
        try:
            code, out, err = invoke(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 1001 * 1001 > MAX_GRID_CELLS
        assert (code, out) == (2, "")
        assert "1002001 cells" in err
        assert peak < 1024 * 1024   # one float64 grid array would be 8 MB

    def test_grid_cell_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_CELLS", 20)
        argv = ["payload-sweep", SAMPLE, "--alpha", "15:75:20deg"]
        assert invoke(argv + ["--d", "0:0.04:0.01"])[0] == 0     # 4 x 5
        code, out, err = invoke(argv + ["--d", "0:0.05:0.01"])  # 4 x 6
        assert (code, out) == (2, "")
        assert "24 cells, more than 20" in err

    @pytest.mark.parametrize("samples", [MAX_RANGE_POINTS + 1, 10**12])
    def test_oversized_sample_count_refused_before_allocating(self, samples):
        invoke(["pose-sweep"])   # parser built outside the traced window
        tracemalloc.start()
        try:
            code, out, err = invoke(["pose-sweep", SAMPLE, "--samples", str(samples)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert f"more than {MAX_RANGE_POINTS}" in err
        assert peak < 64 * 1024

    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_too_few_samples_is_a_usage_error(self, samples):
        code, out, err = invoke(["pose-sweep", SAMPLE, "--samples", samples])
        assert (code, out) == (2, "")
        assert err.startswith("usage: grippertool pose-sweep ")
        assert err.endswith(f"error: argument --samples: {samples} samples, fewer than 2\n")

    def test_sample_count_floor_is_inclusive(self):
        assert _sample_count("2") == 2
        with pytest.raises(argparse.ArgumentTypeError):
            _sample_count("1")

    def test_sample_count_cap_is_inclusive(self):
        assert _sample_count(str(MAX_RANGE_POINTS)) == MAX_RANGE_POINTS
        with pytest.raises(argparse.ArgumentTypeError):
            _sample_count(str(MAX_RANGE_POINTS + 1))

    def test_range_point_cap_is_inclusive(self):
        assert len(_parse_range(f"0:{MAX_RANGE_POINTS - 1}:1")) == MAX_RANGE_POINTS
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_range(f"0:{MAX_RANGE_POINTS}:1")


class TestSweepMemory:
    """The two numpy sweeps compute in place: each grid- or sample-sized
    value is one array, updated in place, alive only within its call."""

    ALPHAS = [i * DEG for i in range(5, 86)]      # 81 x 101 cells, numpy pass
    DS = [i * 0.001 for i in range(101)]
    SAMPLES = 10_000

    def sweeps(self):
        _, _, model, state = parse_design(Path(SAMPLE).read_text())
        return (lambda: payload_sweep(model, state, 0.05, self.ALPHAS, self.DS),
                lambda: gamma_sweep(model, state, self.SAMPLES))

    @staticmethod
    def traced_peak(sweep):
        sweep()   # numpy loaded outside the traced window
        tracemalloc.start()
        try:
            sweep()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_payload_sweep_peak_in_grid_arrays(self):
        # a new array per numpy operation peaked at 10.2 grid arrays, the
        # quadratic computed in place at 6.5, and the closed form at 5.4
        payload, _ = self.sweeps()
        grid = len(self.ALPHAS) * len(self.DS) * 8
        assert self.traced_peak(payload) / grid <= 5.5

    def test_gamma_sweep_peak_in_sample_arrays(self):
        # a new array per numpy operation peaked at 7.0 sample arrays
        _, pose = self.sweeps()
        assert self.traced_peak(pose) / (self.SAMPLES * 8) <= 5.2

    def test_consecutive_sweeps_share_no_memory(self):
        payload, pose = self.sweeps()
        grids, curves = (payload(), payload()), (pose(), pose())
        arrays = [grids[0].weights, curves[0].gammas, curves[0].margins]
        before = [array.tobytes() for array in arrays]
        later = [grids[1].weights, curves[1].gammas, curves[1].margins]
        assert not any(numpy.shares_memory(a, b) for a in arrays for b in later)
        assert [array.tobytes() for array in arrays] == before
        assert [array.tobytes() for array in later] == before


class TestParserReuse:
    """One parser serves every run() call of a process without carrying
    anything from one request to the next."""

    USAGE_ERRORS = [
        ["no-such-command"],
        ["analyze", SAMPLE, "--d-obj", "nan"],
        ["payload-sweep", SAMPLE, "--alpha", "15:75:15deg"],
        ["optimize", SAMPLE, "--m", "0.03:0.008", "--r", "0.005:0.08",
         "--theta-init", "40:83deg", "--grip-budget", "36"],
        ["pose-sweep", SAMPLE, "--samples", "many"],
    ]

    def sequence(self):
        """Golden commands with usage errors between them, then requests
        whose options a leaked default or value would change."""
        golden = sorted(GOLDEN_COMMANDS)
        steps = []
        for name, usage_error in zip(golden, self.USAGE_ERRORS):
            steps += [GOLDEN_COMMANDS[name], usage_error]
        steps += [
            ["analyze", SAMPLE, "--d-obj", "0.05"],
            ["analyze", SAMPLE],
            ["payload-sweep", SAMPLE, "--alpha", "15:75:15deg",
             "--d", "0:0.04:0.01", "--workers", "3"],
            ["pose-sweep", SAMPLE],
        ]
        return steps

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()
        invoke(GOLDEN_COMMANDS["validate.txt"])
        assert _build_parser() is _build_parser()

    def test_requests_build_no_parser(self, monkeypatch):
        _build_parser()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in self.sequence():
            invoke(argv)
        assert built == []

    def test_sequence_matches_first_runs(self):
        # each distinct request as the first run() call of a fresh interpreter
        first = {}
        for argv in dict.fromkeys(map(tuple, self.sequence())):
            _, [result] = fresh([list(argv)])
            first[argv] = tuple(result)
        for argv in self.sequence():
            assert invoke(argv) == first[tuple(argv)]
        for name, argv in GOLDEN_COMMANDS.items():
            assert first[tuple(argv)] == (0, golden(name), "")
        for argv in self.USAGE_ERRORS:
            code, out, err = first[tuple(argv)]
            assert (code, out) == (2, "")
            assert "error:" in err
        code, out, err = first[("pose-sweep", SAMPLE)]
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + 91 + 1

    def test_output_follows_a_rewritten_file(self, tmp_path):
        # same path, size and mtime: only the text tells the designs apart
        path = Path(edited_design(tmp_path, "f_n = 40", "f_n = 40"))
        before = invoke(["analyze", str(path)])
        stat = path.stat()
        path.write_text(path.read_text().replace("f_n = 40", "f_n = 45"))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        after = invoke(["analyze", str(path)])
        fresh = tmp_path / "fresh.ini"
        fresh.write_text(path.read_text())
        assert after == invoke(["analyze", str(fresh)])
        assert after != before


# Option values by type function: ones the type accepts, and odd ones
# that are negative, empty, non-finite, reversed or not numbers at all.
# argparse takes "-0.05" as a value but "-1e-3" as a flag.
TABLE_VALUES = {
    cli._finite_float: (["0.05", "36", "1_000", "1e-3"],
                        ["-0.05", "-1e-3", "", "nan", "inf", "x"]),
    cli._parse_range: (["15:75:15deg", "0:0.04:0.01"],
                       ["-0.01:0.01:0.01", "75:15:15deg", "0:1", "nan:1:1"]),
    cli._parse_interval: (["0.008:0.03", "40:83deg"], ["-1:1", "83:40deg", "a:b"]),
    cli._sample_count: (["19", "2", "1_000"], ["1", "-3", "-1_000", "many"]),
    int: (["3", "0", "1_000"], ["-1", "-1_000", "x"]),
}


@st.composite
def table_argvs(draw):
    """argvs built from a subcommand's table entry: each flag dropped, kept
    or repeated, spelled exactly, abbreviated or joined to its value with
    "=", given an accepted or an odd value, the design dropped or doubled,
    and the whole shuffled. Three in four draws keep each part as a
    well-formed request has it."""
    usually = st.sampled_from([True, True, True, False])
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    items = [["design.ini"]] * (1 if draw(usually) else draw(st.sampled_from([0, 2])))
    for flag, (type_, *_) in cli._COMMANDS[name][2].items():
        for _ in range(1 if draw(usually) else draw(st.sampled_from([0, 2]))):
            accepted, odd = TABLE_VALUES[type_]
            value = draw(st.sampled_from(accepted if draw(usually) else odd))
            if draw(usually):
                items.append([flag, value])
            elif draw(st.booleans()):
                items.append([f"{flag}={value}"])
            else:
                items.append([flag[:draw(st.integers(3, len(flag)))], value])
    return [name] + [arg for item in draw(st.permutations(items)) for arg in item]


class TestDispatch:
    """run() parses a request whose first argument names a subcommand from
    the option table alone when it is made of the design and exact flags
    with accepted values, and reports the first refused value of such a
    request from the table too; it parses any other argv with the full
    parser, and prints what the full parser prints for every argv."""

    CORPUS = argv_corpus(SAMPLE)

    @staticmethod
    @contextlib.contextmanager
    def recording():
        """Namespaces passed to the subcommand handlers, which are replaced
        by recorders in cli._COMMANDS while the context is open."""
        saved = dict(cli._COMMANDS)
        seen = []
        for name, (_, help_text, options) in saved.items():
            cli._COMMANDS[name] = (lambda args, out: seen.append(vars(args)) or 0,
                                   help_text, options)
        try:
            yield seen
        finally:
            cli._COMMANDS.update(saved)

    @pytest.fixture
    def handled(self):
        with self.recording() as seen:
            yield seen

    def assert_parsed_as_full_parser(self, argv, handled):
        parser, _ = _build_parser()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                expected = vars(parser.parse_args(argv))
        except SystemExit as exc:
            assert invoke(argv) == (int(exc.code or 0), out.getvalue(), err.getvalue())
            assert handled == []
        else:
            assert invoke(argv) == (0, "", "")
            assert handled == [expected]

    @pytest.mark.parametrize("argv", CORPUS,
                             ids=[" ".join(a).replace(SAMPLE, "design") for a in CORPUS])
    def test_parse_matches_full_parser(self, handled, argv):
        self.assert_parsed_as_full_parser(argv, handled)

    @settings(max_examples=1000)
    @given(argv=table_argvs())
    def test_table_argvs_match_full_parser(self, argv):
        with self.recording() as handled:
            self.assert_parsed_as_full_parser(argv, handled)

    def test_good_requests_skip_the_full_parser(self, monkeypatch):
        parser, subparsers = _build_parser()
        calls = []

        def spy(prog, parse):
            def record(*args, **kwargs):
                calls.append((prog, *args))
                return parse(*args, **kwargs)
            return record

        for each in (parser, *subparsers.values()):
            for method in ("parse_known_args", "parse_args"):
                monkeypatch.setattr(each, method, spy(each.prog, getattr(each, method)))
        for name, argv in GOLDEN_COMMANDS.items():
            assert invoke(argv) == (0, golden(name), "")
        assert calls == []
        # refused values are reported from the table; the corpus test
        # checks their bytes against the full parser
        for argv in refused_values(SAMPLE):
            assert invoke(argv)[:2] == (2, "")
            assert calls == [], argv
        for argv in (["validate", SAMPLE, "extra"], ["no-such-command"], ["--help"]):
            invoke(argv)
            assert ("grippertool", argv) in calls
            calls.clear()

    def test_refusal_usage_follows_the_terminal_width(self, monkeypatch):
        argv = ["payload-sweep", SAMPLE, "--alpha", "56:43:5deg", "--d", "0:0.04:0.01"]
        printed = []
        for columns in ("40", "200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            with self.recording() as handled:
                self.assert_parsed_as_full_parser(argv, handled)
            printed.append(invoke(argv))
        assert printed[0] == printed[2] != printed[1]

    @staticmethod
    def concurrently(argv_of, threads=8, requests=100):
        """Runs argv_of(t, i) for each i < requests on each of threads
        threads, switching between them every microsecond. Returns each
        argv with run()'s code, out and err, after checking that
        sys.stdout and sys.stderr are the objects they were before."""
        results = {}

        def serve(t):
            for i in range(requests):
                argv = argv_of(t, i)
                out, err = io.StringIO(), io.StringIO()
                results[t, i] = argv, run(argv, out, err), out.getvalue(), err.getvalue()

        streams = sys.stdout, sys.stderr
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=serve, args=(t,)) for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            after = sys.stdout, sys.stderr
            sys.stdout, sys.stderr = streams
        assert after[0] is streams[0] and after[1] is streams[1]
        assert not any(worker.is_alive() for worker in workers)
        assert len(results) == threads * requests
        return results.values()

    @staticmethod
    def alpha_refusal(argv):
        return ("grippertool payload-sweep: error: argument --alpha: "
                f"range {argv[3]!r} needs step > 0 and stop >= start")

    def test_concurrent_refusals_reach_their_own_err(self):
        """Refused values are written to the request's err alone, and
        sys.stdout and sys.stderr are left as they were."""
        for argv, code, out, err in self.concurrently(lambda t, i: [
                "payload-sweep", SAMPLE, "--alpha", f"{56 + t}:{43 - i}:5deg",
                "--d", "0:0.04:0.01"]):
            assert (code, out) == (2, "")
            assert [line for line in err.splitlines() if "error:" in line] == [
                self.alpha_refusal(argv)]

    def test_concurrent_argparse_messages_reach_their_own_streams(self):
        """What argparse's parser prints, an abbreviated flag's refused
        value and --help alike, goes to the request's own out or err."""
        help_text = invoke(["pose-sweep", "--help"])[1]
        assert help_text.startswith("usage: grippertool pose-sweep [-h]")
        refused = invoke(["payload-sweep", "--alph", "2:1:1"])[2]
        usage = refused[:refused.index("grippertool payload-sweep: error:")]
        for argv, code, out, err in self.concurrently(lambda t, i: [
                "payload-sweep", SAMPLE, "--alph", f"{56 + t}:{43 - i}:5deg",
                "--d", "0:0.04:0.01"] if i % 2 else ["pose-sweep", "--help"]):
            if argv[1] == "--help":
                assert (code, out, err) == (0, help_text, "")
            else:
                assert (code, out, err) == (2, "", f"{usage}{self.alpha_refusal(argv)}\n")

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_line_endings(self, tmp_path, newline):
        text = Path(SAMPLE).read_bytes()
        assert b"\r" not in text
        design = tmp_path / "design.ini"
        design.write_bytes(text.replace(b"\n", newline))
        for name in ("validate.txt", "analyze.txt"):
            argv = [str(design) if a == SAMPLE else a for a in GOLDEN_COMMANDS[name]]
            assert invoke(argv) == (0, golden(name), "")

    def test_invalid_utf8_is_domain_error(self, tmp_path):
        text = Path(SAMPLE).read_bytes()
        design = tmp_path / "design.ini"
        design.write_bytes(text.replace(b"mu = 0.5", b"mu = 0.5\xff"))
        position = text.index(b"mu = 0.5") + len(b"mu = 0.5")
        assert invoke(["analyze", str(design)]) == (
            1, "", f"error: 'utf-8' codec can't decode byte 0xff in position {position}: "
                   "invalid start byte\n")


class TestRangeGrid:
    def test_inclusive_endpoint_grid(self):
        code, out, _ = invoke(["payload-sweep", SAMPLE,
                               "--alpha", "5:85:5deg", "--d", "0:0.1:0.005"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha_deg,d_m,max_weight_N"
        assert len(lines) == 1 + 17 * 21
        assert lines[1].startswith("5,0,")
        assert lines[-1].startswith("85,0.1,")


class TestSweepOutput:
    """Large sweeps print exactly what per-cell scalar calls and fmt give."""

    def test_payload_sweep_matches_scalar_reference(self):
        alpha_text, d_text = "5:85:1deg", "0:0.1:0.001"
        code, out, err = invoke(["payload-sweep", SAMPLE, "--alpha", alpha_text,
                                 "--d", d_text, "--d-obj", "0.05"])
        assert (code, err) == (0, "")
        _, _, model, state = parse_design(Path(SAMPLE).read_text())
        alphas, ds = _parse_range(alpha_text), _parse_range(d_text)
        assert (len(alphas), len(ds)) == (81, 101)
        lines = ["alpha_deg,d_m,max_weight_N"]
        for alpha, d, weight in payload_rows(model, state, 0.05, alphas, ds):
            cell = INFEASIBLE if weight is None else fmt(weight)
            lines.append(f"{fmt(alpha / DEG)},{fmt(d)},{cell}")
        assert INFEASIBLE in out
        assert_same_text(out, "\n".join(lines) + "\n")

    @pytest.mark.parametrize("cells", [SCALAR_GRID_CELLS, SCALAR_GRID_CELLS + 1])
    def test_payload_sweep_at_the_driver_threshold(self, cells):
        # the largest grid solved one cell at a time, then the smallest
        # solved by the numpy pass
        rows = max(k for k in range(1, 8) if cells % k == 0)
        alpha_text = f"30:{30 + 5 * (rows - 1)}:5deg"
        d_text = f"0:{0.02 * (cells // rows - 1)!r}:0.02"
        code, out, err = invoke(["payload-sweep", SAMPLE, "--alpha", alpha_text,
                                 "--d", d_text, "--d-obj", "0.05"])
        assert (code, err) == (0, "")
        _, _, model, state = parse_design(Path(SAMPLE).read_text())
        alphas, ds = _parse_range(alpha_text), _parse_range(d_text)
        assert len(alphas) * len(ds) == cells
        assert INFEASIBLE in out
        assert_same_text(out, payload_csv(model, state, 0.05, alphas, ds))

    @pytest.mark.parametrize("mu", ["0.5", "0.11"])
    def test_pose_sweep_matches_scalar_reference(self, tmp_path, mu):
        # mu = 0.11 leaves no friction capacity near gamma = 0
        design = tmp_path / "pose.ini"
        design.write_text(Path(SAMPLE).read_text().replace("mu = 0.5", f"mu = {mu}"))
        code, out, err = invoke(["pose-sweep", str(design), "--samples", "10000"])
        assert (code, err) == (0, "")
        _, _, model, state = parse_design(design.read_text())
        assert_same_text(out, pose_csv(model, state, 10000))
        assert (INFEASIBLE in out) == (mu == "0.11")


def edited_design(tmp_path, old, new):
    """Path of a copy of the sample design with one line replaced."""
    text = Path(SAMPLE).read_text()
    assert old in text
    path = tmp_path / "design.ini"
    path.write_text(text.replace(old, new))
    return str(path)


class TestSweepChunks:
    """Sweep output prints what fmt gives cell by cell: on both sides of
    CHUNK_LINES, where the formatter module takes over from %, at its
    block boundaries, for a long payload row and for every kind of
    cell."""

    def payload(self, design, alpha_text, d_text):
        code, out, err = invoke(["payload-sweep", design, "--alpha", alpha_text,
                                 "--d", d_text])
        assert (code, err) == (0, "")
        _, _, model, state = parse_design(Path(design).read_text())
        assert_same_text(out, payload_csv(model, state, 0.0, _parse_range(alpha_text),
                                          _parse_range(d_text)))
        return out.splitlines()[1:]

    @pytest.mark.parametrize("n", [2, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1,
                                   2 * CHUNK_LINES + 1])
    def test_pose_sweep_at_chunk_boundaries(self, n):
        code, out, err = invoke(["pose-sweep", SAMPLE, "--samples", str(n)])
        assert (code, err) == (0, "")
        _, _, model, state = parse_design(Path(SAMPLE).read_text())
        assert_same_text(out, pose_csv(model, state, n))

    def test_payload_single_alpha_row_of_2001_cells(self):
        # one % call formats the whole row
        lines = self.payload(SAMPLE, "40:40:1deg", "0:0.1:0.00005")
        assert len(lines) == 2001 < CHUNK_LINES

    @pytest.mark.parametrize("cells", [CHUNK_LINES - 1, CHUNK_LINES, 2 * CHUNK_LINES + 1])
    def test_payload_single_alpha_row_at_chunk_boundaries(self, cells):
        # from CHUNK_LINES cells on, the formatter writes the row as one block
        lines = self.payload(SAMPLE, "40:40:1deg", f"0:{0.00002 * (cells - 1)!r}:0.00002")
        assert len(lines) == cells

    def test_payload_grid_of_rows_longer_than_a_block(self):
        # each row is a block of its own, after its alpha and d texts
        lines = self.payload(SAMPLE, "40:42:1deg", f"0:{0.00002 * CHUNK_LINES!r}:0.00002")
        assert len(lines) == 3 * (CHUNK_LINES + 1)

    def test_payload_grid_whose_rows_do_not_divide_a_block(self):
        lines = self.payload(SAMPLE, "5:85:1deg", "0:0.1:0.001")
        assert len(lines) == 81 * 101 > CHUNK_LINES
        assert CHUNK_LINES % 101 and any(line.endswith(INFEASIBLE) for line in lines)

    def test_payload_single_d(self):
        lines = self.payload(SAMPLE, "5:85:1deg", "0.03:0.03:1")
        assert len(lines) == 81

    def test_tool_not_held_prints_every_cell_infeasible(self, tmp_path):
        design = edited_design(tmp_path, "f_n = 40", "f_n = 5")
        lines = self.payload(design, "15:75:15deg", "0:0.04:0.01")
        assert len(lines) == 25
        assert all(line.endswith(f",{INFEASIBLE}") for line in lines)

    def test_tool_not_held_prints_every_cell_infeasible_in_blocks(self, tmp_path):
        # a grid of lists of CHUNK_LINES cells or more, written by %
        design = edited_design(tmp_path, "f_n = 40", "f_n = 5")
        lines = self.payload(design, "5:85:1deg", "0:0.1:0.001")
        assert len(lines) == 81 * 101 >= CHUNK_LINES
        assert all(line.endswith(f",{INFEASIBLE}") for line in lines)

    def test_zero_clamped_and_exponent_form_weights(self, tmp_path):
        # a vertical tool twice the sample's weight: the payload reaches 0
        # near d = 0.0173205 and is clamped to 0 beyond it
        design = edited_design(tmp_path, "g_tool = 10", "g_tool = 20")
        lines = self.payload(design, "0:10:5deg", "0.0173204:0.0173206:0.00000001")
        weights = [line.rsplit(",", 1)[1] for line in lines]
        assert "0" in weights
        assert any("e-05" in w for w in weights)


class TestOverflow:
    """Finite inputs whose squares overflow exit 1 with one error line,
    printing no nan, and nothing at all to stdout."""

    def assert_refused(self, argv):
        code, out, err = invoke(argv)
        assert code == 1
        assert "nan" not in out
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_huge_object_moment_arm(self):
        err = self.assert_refused(["analyze", SAMPLE, "--d-obj", "1e160"])
        assert err == ("error: payload quadratic out of floating-point range: "
                       "d_obj = 1e+160, e = 0.01, d_com = 0.03\n")

    @pytest.mark.parametrize("line, huge", [
        ("f_n = 40", "f_n = 1e200"), ("mu = 0.5", "mu = 1e200"),
        ("e = 0.01", "e = 1e200"), ("d_com = 0.03", "d_com = 1e200"),
    ])
    def test_huge_design_value(self, tmp_path, line, huge):
        design = edited_design(tmp_path, line, huge)
        if huge.startswith("d_com"):
            # g_tool*|d_com*cos(alpha) + d_obj*sin(alpha)| is finite and far
            # past the capacity, so no object weight is feasible
            code, out, err = invoke(["analyze", design, "--d-obj", "0.05"])
            assert (code, err) == (0, "")
            assert out.endswith("max_payload_N = INFEASIBLE\n")
        else:
            self.assert_refused(["analyze", design, "--d-obj", "0.05"])
        if not huge.startswith("d_com"):   # the sweep replaces d_com by d
            self.assert_refused(["payload-sweep", design, "--alpha", "15:75:15deg",
                                 "--d", "0:0.04:0.01"])
        if huge.startswith(("f_n", "mu")):   # (mu*f_n)^2 overflows
            err = self.assert_refused(["pose-sweep", design, "--samples", "5"])
            assert "(mu*f_n)^2 overflows" in err

    def test_overflowing_capacity_is_one_error_line(self, tmp_path):
        # the hold offset, the payload and the pose margin form (mu*f_n)^2
        # in one place, so every command refuses it with one message
        design = edited_design(tmp_path, "f_n = 40", "f_n = 1e200")
        for argv in (["analyze", design, "--d-obj", "0.05"],
                     ["payload-sweep", design, "--alpha", "15:75:15deg", "--d", "0:0.04:0.01"],
                     ["pose-sweep", design, "--samples", "19"]):
            err = self.assert_refused(argv)
            assert err == "error: (mu*f_n)^2 overflows at mu*f_n = 5e+199\n"

    @pytest.mark.parametrize("argv, d_obj, d_com", [
        (GOLDEN_COMMANDS["analyze.txt"], "0.05", "0.03"),
        (GOLDEN_COMMANDS["payload_sweep.txt"], "0", "0"),
        (["payload-sweep", SAMPLE, "--alpha", "5:85:5deg", "--d", "0:0.1:0.01"], "0", "0"),
    ])
    def test_overflowing_payload_normalizer(self, tmp_path, argv, d_obj, d_com):
        # e*sqrt(K) of the payload's closed form overflows
        design = edited_design(tmp_path, "e = 0.01", "e = 5e152")
        err = self.assert_refused([design if a == SAMPLE else a for a in argv])
        assert err == ("error: payload quadratic out of floating-point range: "
                       f"d_obj = {d_obj}, e = 5e+152, d_com = {d_com}\n")

    OPTIMIZE_EXAMPLE = ["optimize", SAMPLE, "--m", "0.008:0.03", "--r", "0.005:0.08",
                        "--theta-init", "40:83deg", "--grip-budget", "36"]

    @pytest.mark.parametrize("line, huge, argv, message", [
        # the spring term of the grip force overflows; analyze used to print
        # inf, and optimize to refuse with "binding: grip_budget (-inf)"
        ("kappa = 0.5", "kappa = 1e308", ["analyze", SAMPLE],
         "grip force out of floating-point range: transmission = inf, gravity = 1.12794"),
        ("kappa = 0.5", "kappa = 1e308", OPTIMIZE_EXAMPLE,
         "grip force out of floating-point range: transmission = inf, gravity = 0.425556"),
        # a bound of the torque margin overflows; pose-sweep used to print
        # inf and -inf margins
        ("e = 0.01", "e = 1e307", ["pose-sweep", SAMPLE, "--samples", "3"],
         "torque margin out of floating-point range: 2*e*mu*f_n = inf, g_tool*d_com = 0.3"),
        ("d_com = 0.03", "d_com = 1e308", ["pose-sweep", SAMPLE, "--samples", "3"],
         "torque margin out of floating-point range: 2*e*mu*f_n = 0.4, g_tool*d_com = inf"),
    ])
    def test_infinite_result(self, tmp_path, line, huge, argv, message):
        design = edited_design(tmp_path, line, huge)
        err = self.assert_refused([design if a == SAMPLE else a for a in argv])
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("line, huge, argv, printed", [
        # a tiny e overflowed the old payload quadratic's residual, and a
        # huge mu its discriminant, through both payload drivers; the
        # closed form has no such term. As e goes to 0 the weight goes to
        # g_tool*d_com*cos(alpha)/(d_obj*sin(alpha)).
        ("e = 0.01", "e = 1e-143", ["analyze", SAMPLE, "--d-obj", "0.05"],
         "max_payload_N = 2.5468489"),
        ("mu = 0.5", "mu = 1.5e152", GOLDEN_COMMANDS["payload_sweep.txt"] + ["--d-obj", "0.05"],
         "15,0,7.33744961e+153"),
        ("mu = 0.5", "mu = 1.5e152", ["payload-sweep", SAMPLE, "--alpha", "5:85:5deg",
                                      "--d", "0:0.1:0.01", "--d-obj", "0.05"],
         "85,0.1,2.36203554e+153"),
    ])
    def test_payload_past_the_old_quadratics_range(self, tmp_path, line, huge, argv,
                                                   printed):
        design = edited_design(tmp_path, line, huge)
        code, out, err = invoke([design if a == SAMPLE else a for a in argv])
        assert (code, err) == (0, "")
        assert printed in out.splitlines()
        assert "nan" not in out and "inf" not in out

    def test_underflowing_transmission_gain(self, tmp_path):
        # 2*v*kappa/q underflows to 0, and the closed-end curve divides by it
        design = edited_design(tmp_path, "v = 1.0", "v = 1e-200")
        Path(design).write_text(Path(design).read_text().replace(
            "kappa = 0.5", "kappa = 1e-200"))
        argv = [design if a == SAMPLE else a for a in GOLDEN_COMMANDS["optimize.txt"]]
        err = self.assert_refused(argv)
        assert err == ("error: 2*v*kappa/q underflows to 0: "
                       "v = 1e-200, kappa = 1e-200, q = 0.006\n")

    def test_grasp_outside_travel(self, tmp_path):
        # analyze used to print the hold offset before the grip forces refused
        design = edited_design(tmp_path, "theta = 30deg", "theta = 89deg")
        err = self.assert_refused(["analyze", design])
        assert "outside travel" in err


class TestMutatedDesigns:
    """Every subcommand on a damaged design file exits 0, 1 or 2, with no
    exception escaping run(), no nan or inf printed, nothing on stderr at
    exit 0 and, when it prints an error, nothing on stdout and one line
    on stderr."""

    # the golden commands, with a payload grid that has infeasible cells
    # on the sample design, so that its nan weights must print INFEASIBLE
    COMMANDS = dict(GOLDEN_COMMANDS, **{"payload_sweep.txt": [
        "payload-sweep", SAMPLE, "--alpha", "15:75:15deg", "--d", "0:0.1:0.02"]})

    # and, for the threshold values, a grid that takes the numpy pass and a
    # pose sweep written through the formatter module, whose fallback then
    # gets subnormal and scientific-notation values
    THRESHOLD_COMMANDS = dict(COMMANDS, **{
        "payload_grid": ["payload-sweep", SAMPLE, "--alpha", "15:75:15deg",
                         "--d", "0:0.1:0.0125"],
        "pose_chunk": ["pose-sweep", SAMPLE, "--samples", str(CHUNK_LINES)]})

    @pytest.fixture(scope="class")
    def design(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutated") / "design.ini"

    def assert_exits_cleanly(self, design, commands=COMMANDS):
        for name, argv in commands.items():
            code, out, err = invoke([str(design) if a == SAMPLE else a for a in argv])
            assert code in (0, 1, 2), name
            assert "Traceback" not in err, name
            assert "nan" not in out, name
            assert not {"inf", "-inf"} & set(re.split(r"[\s,=]+", out)), name
            assert code != 0 or err == "", name
            # a refused run writes nothing to stdout and one line to stderr;
            # validate's violation listing exits 1 with no error: line
            if "error:" in err:
                assert out == "", name
                assert err.count("\n") == 1 and err.endswith("\n"), name

    @settings(max_examples=300)
    @given(text=mutated_designs())
    def test_every_command_exits_cleanly(self, design, text):
        # garbled lines may hold lone surrogates: write them as invalid UTF-8
        design.write_bytes(text.encode("utf-8", "surrogatepass"))
        self.assert_exits_cleanly(design)

    def test_each_value_at_each_threshold_exits_cleanly(self, design):
        grid = self.THRESHOLD_COMMANDS["payload_grid"]
        assert len(_parse_range(grid[3])) * len(_parse_range(grid[5])) > SCALAR_GRID_CELLS
        # a draw above sets a given key to a given threshold in about one
        # line edit of 5,000, so each pair is also run here
        lines = sample_text().splitlines()
        for i, line in enumerate(lines):
            key, eq, _ = line.partition("=")
            if not eq:
                continue
            for value in THRESHOLDS:
                design.write_text("\n".join(lines[:i] + [f"{key}= {value}"] + lines[i + 1:]))
                self.assert_exits_cleanly(design, self.THRESHOLD_COMMANDS)


class TestPoseSweepGrid:
    @pytest.mark.parametrize("samples", [14, 27, 48])
    def test_last_sample_is_ninety_degrees(self, samples):
        # for these counts pi/2*(n-1)/(n-1) rounds one ulp above pi/2
        code, out, err = invoke(["pose-sweep", SAMPLE, "--samples", str(samples)])
        assert code == 0
        assert err == ""
        lines = out.strip().split("\n")
        assert len(lines) == samples + 2
        assert lines[-2].startswith("90,")


class TestLibraryConsistency:
    def test_analyze_numbers_match_library(self):
        _, out, _ = invoke(["analyze", SAMPLE, "--d-obj", "0.05"])
        dims, spring, model, state = parse_design(Path(SAMPLE).read_text())
        lines = dict(line.split(" = ") for line in out.strip().split("\n"))
        assert lines["holding_max_offset_m"] == fmt(
            holding_max_offset(model, state))
        from grippertool import replace
        assert lines["required_grip_force_backward_base_N"] == fmt(
            required_grip_force(dims, spring, state))
        assert lines["required_grip_force_forward_base_N"] == fmt(
            required_grip_force(
                dims, spring, replace(state, config=GripConfig.FORWARD_BASE)))
        from grippertool import max_payload
        assert lines["max_payload_N"] == fmt(
            max_payload(model, state, 0.05).max_weight)

    def test_unbounded_hold_prints_unbounded(self, tmp_path):
        text = Path(SAMPLE).read_text().replace("alpha = 67deg", "alpha = 0")
        f = tmp_path / "vertical.ini"
        f.write_text(text)
        _, out, _ = invoke(["analyze", str(f)])
        assert "holding_max_offset_m = unbounded" in out

    def test_upside_down_hold_prints_unbounded(self, tmp_path):
        # the other vertical pose: float pi's sine is 1.2e-16, not 0
        design = edited_design(tmp_path, "alpha = 67deg", "alpha = 180deg")
        code, out, _ = invoke(["analyze", design])
        assert code == 0
        assert "holding_max_offset_m = unbounded" in out

    def test_infeasible_hold_prints_sentinel(self, tmp_path):
        text = Path(SAMPLE).read_text().replace("f_n = 40", "f_n = 5")
        f = tmp_path / "weak.ini"
        f.write_text(text)
        code, out, _ = invoke(["analyze", str(f)])
        assert code == 0
        assert "holding_max_offset_m = INFEASIBLE" in out


class TestGoldenFiles:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_output_matches_golden(self, name):
        code, out, err = invoke(GOLDEN_COMMANDS[name])
        assert err == ""
        assert code == 0
        assert out == golden(name)

    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_reruns_byte_identical(self, name):
        first = invoke(GOLDEN_COMMANDS[name])
        second = invoke(GOLDEN_COMMANDS[name])
        assert first == second

    @pytest.mark.parametrize("args", [
        ["payload-sweep", SAMPLE, "--alpha", "15:75:15deg", "--d", "0:0.04:0.01"],
        ["pose-sweep", SAMPLE, "--samples", "19"],
    ])
    def test_worker_counts_byte_identical(self, args):
        serial = invoke(args + ["--workers", "1"])
        threaded = invoke(args + ["--workers", "3"])
        assert serial == threaded

    def test_fresh_process_matches_golden(self):
        # bit-stable across interpreter instances, not just within one; main()
        # exits with run()'s code, 1 for a refused input and 2 for a usage error
        usage_error = TestArgparseImport.USAGE_ERROR
        usage = invoke(usage_error)
        assert usage[:2] == (2, "")
        requests = [(GOLDEN_COMMANDS[name], (0, golden(name), ""))
                    for name in sorted(GOLDEN_COMMANDS)]
        requests += [(["analyze", SAMPLE, "--d-obj", "1e160"],
                      (1, "", "error: payload quadratic out of floating-point range: "
                              "d_obj = 1e+160, e = 0.01, d_com = 0.03\n")),
                     (usage_error, usage)]
        for argv, expected in requests:
            proc = subprocess.run([sys.executable, "-m", "grippertool.cli", *argv],
                                  capture_output=True, text=True, cwd=str(ROOT))
            assert (proc.returncode, proc.stdout, proc.stderr) == expected
