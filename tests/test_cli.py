import argparse
import io
import json
import os
import subprocess
import sys
import tracemalloc

from pathlib import Path

import pytest
from hypothesis import given, settings

from grippertool import GripConfig, holding_max_offset, parse_design, required_grip_force
from grippertool import cli
from grippertool.cli import (CHUNK_LINES, DEG, INFEASIBLE, MAX_GRID_CELLS, MAX_RANGE_POINTS,
                             _build_parser, _parse_range, _sample_count, fmt, run)

from design_mutations import mutated_designs
from sweep_reference import gamma_curve, payload_csv, payload_rows, pose_csv

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


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def first_run(argv):
    """(code, stdout, stderr) of argv as the first run() call of a fresh
    interpreter."""
    script = ("import io, json, sys\n"
              "from grippertool.cli import run\n"
              "out, err = io.StringIO(), io.StringIO()\n"
              "code = run(sys.argv[1:], out, err)\n"
              "json.dump([code, out.getvalue(), err.getvalue()], sys.stdout)\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, cwd=str(ROOT), check=True)
    return tuple(json.loads(proc.stdout))


class TestNumpyImport:
    """numpy is loaded by the two sweeps alone: importing the package and
    the scalar commands leave it unloaded. That a sweep which imports it
    on its first call still prints its golden output is checked by
    TestParserReuse.test_sequence_matches_first_runs."""

    SCALAR = ["validate.txt", "analyze.txt", "optimize.txt"]

    def test_scalar_commands_leave_numpy_unloaded(self):
        script = ("import io, json, sys\n"
                  "import grippertool\n"
                  "from grippertool.cli import run\n"
                  "loaded = ['numpy' in sys.modules]\n"
                  "results = []\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    out, err = io.StringIO(), io.StringIO()\n"
                  "    code = run(argv, out, err)\n"
                  "    results.append([code, out.getvalue(), err.getvalue()])\n"
                  "    loaded.append('numpy' in sys.modules)\n"
                  "json.dump([loaded, results], sys.stdout)\n")
        commands = [GOLDEN_COMMANDS[name] for name in self.SCALAR]
        commands.append(GOLDEN_COMMANDS["pose_sweep.txt"])
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              capture_output=True, text=True, cwd=str(ROOT),
                              check=True)
        loaded, results = json.loads(proc.stdout)
        # after the import and each scalar command; the sweep then loads it
        assert loaded == [False] * (1 + len(self.SCALAR)) + [True]
        for name, result in zip(self.SCALAR, results):
            expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
            assert result == [0, expected, ""]


class TestDataclassesImport:
    """The value types are built without dataclasses, so neither it nor
    the inspect module it imports is loaded by the package or by the
    scalar commands. python -S keeps site .pth files from loading them
    first."""

    UNWANTED = ("dataclasses", "inspect")

    def test_scalar_commands_leave_dataclasses_unloaded(self):
        script = ("import io, json, sys\n"
                  "import grippertool\n"
                  "from grippertool.cli import run\n"
                  f"unwanted = {self.UNWANTED!r}\n"
                  "loaded = [sorted(set(unwanted) & set(sys.modules))]\n"
                  "results = []\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    out, err = io.StringIO(), io.StringIO()\n"
                  "    code = run(argv, out, err)\n"
                  "    results.append([code, out.getvalue(), err.getvalue()])\n"
                  "    loaded.append(sorted(set(unwanted) & set(sys.modules)))\n"
                  "json.dump([loaded, results], sys.stdout)\n")
        scalar = TestNumpyImport.SCALAR
        commands = [GOLDEN_COMMANDS[name] for name in scalar]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-S", "-c", script, json.dumps(commands)],
                              capture_output=True, text=True, cwd=str(ROOT),
                              env=env, check=True)
        loaded, results = json.loads(proc.stdout)
        assert loaded == [[]] * (1 + len(scalar))
        for name, result in zip(scalar, results):
            expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
            assert result == [0, expected, ""]


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

    def test_parse_error_is_domain_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(Path(SAMPLE).read_text().replace("mu = 0.5", "mu = x"))
        code, _, err = invoke(["analyze", str(bad)])
        assert code == 1
        assert "mu" in err

    def test_missing_file_is_domain_error(self):
        code, _, err = invoke(["analyze", "no_such_file.ini"])
        assert code == 1
        assert err.startswith("error:")

    def test_usage_error_exit_2(self):
        for argv in (["payload-sweep", SAMPLE, "--alpha", "nonsense",
                      "--d", "0:0.1:0.05"],
                     ["no-such-command"]):
            code, out, err = invoke(argv)
            assert (code, out) == (2, "")
            assert err.startswith("usage: grippertool")

    @pytest.mark.parametrize("argv", [["--help"], ["pose-sweep", "--help"]])
    def test_help_goes_to_out(self, argv):
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: grippertool")
        assert "--help" in out

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

    def test_sample_count_cap_is_inclusive(self):
        assert _sample_count(str(MAX_RANGE_POINTS)) == MAX_RANGE_POINTS
        with pytest.raises(argparse.ArgumentTypeError):
            _sample_count(str(MAX_RANGE_POINTS + 1))

    def test_range_point_cap_is_inclusive(self):
        assert len(_parse_range(f"0:{MAX_RANGE_POINTS - 1}:1")) == MAX_RANGE_POINTS
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_range(f"0:{MAX_RANGE_POINTS}:1")


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
        first = {argv: first_run(argv)
                 for argv in dict.fromkeys(map(tuple, self.sequence()))}
        for argv in self.sequence():
            assert invoke(argv) == first[tuple(argv)]
        for name, argv in GOLDEN_COMMANDS.items():
            expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
            assert first[tuple(argv)] == (0, expected, "")
        for argv in self.USAGE_ERRORS:
            code, out, err = first[tuple(argv)]
            assert (code, out) == (2, "")
            assert "error:" in err
        code, out, err = first[("pose-sweep", SAMPLE)]
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + 91 + 1


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
        assert out == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("mu", ["0.5", "0.11"])
    def test_pose_sweep_matches_scalar_reference(self, tmp_path, mu):
        # mu = 0.11 leaves no friction capacity near gamma = 0
        design = tmp_path / "pose.ini"
        design.write_text(Path(SAMPLE).read_text().replace("mu = 0.5", f"mu = {mu}"))
        code, out, err = invoke(["pose-sweep", str(design), "--samples", "10000"])
        assert (code, err) == (0, "")
        _, _, model, state = parse_design(design.read_text())
        samples, peak_gamma, peak_margin = gamma_curve(model, state, 10000)
        lines = ["gamma_deg,torque_margin_Nm"]
        for gamma, margin in samples:
            cell = INFEASIBLE if margin != margin else fmt(margin)
            lines.append(f"{fmt(gamma / DEG)},{cell}")
        lines.append(f"# peak gamma_deg = {fmt(peak_gamma / DEG)} "
                     f"margin_Nm = {fmt(peak_margin)}")
        assert out == "\n".join(lines) + "\n"
        assert (INFEASIBLE in out) == (mu == "0.11")


def edited_design(tmp_path, old, new):
    """Path of a copy of the sample design with one line replaced."""
    text = Path(SAMPLE).read_text()
    assert old in text
    path = tmp_path / "design.ini"
    path.write_text(text.replace(old, new))
    return str(path)


class TestSweepChunks:
    """Row and chunk formatting prints what fmt gives cell by cell, at the
    chunk boundaries and for every kind of cell."""

    def payload(self, design, alpha_text, d_text):
        code, out, err = invoke(["payload-sweep", design, "--alpha", alpha_text,
                                 "--d", d_text])
        assert (code, err) == (0, "")
        _, _, model, state = parse_design(Path(design).read_text())
        assert out == payload_csv(model, state, 0.0, _parse_range(alpha_text),
                                  _parse_range(d_text))
        return out.splitlines()[1:]

    @pytest.mark.parametrize("n", [2, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1])
    def test_pose_sweep_at_chunk_boundaries(self, n):
        code, out, err = invoke(["pose-sweep", SAMPLE, "--samples", str(n)])
        assert (code, err) == (0, "")
        _, _, model, state = parse_design(Path(SAMPLE).read_text())
        assert out == pose_csv(model, state, n)

    def test_payload_single_alpha_row_of_two_chunks(self):
        lines = self.payload(SAMPLE, "40:40:1deg", "0:0.1:0.00005")
        assert len(lines) == 2001 > CHUNK_LINES

    def test_payload_single_d(self):
        lines = self.payload(SAMPLE, "5:85:1deg", "0.03:0.03:1")
        assert len(lines) == 81

    def test_tool_not_held_prints_every_cell_infeasible(self, tmp_path):
        design = edited_design(tmp_path, "f_n = 40", "f_n = 5")
        lines = self.payload(design, "15:75:15deg", "0:0.04:0.01")
        assert len(lines) == 25
        assert all(line.endswith(f",{INFEASIBLE}") for line in lines)

    def test_zero_clamped_and_exponent_form_weights(self, tmp_path):
        # a vertical tool twice the sample's weight: the payload reaches 0
        # near d = 0.0173205 and is clamped to 0 beyond it
        design = edited_design(tmp_path, "g_tool = 10", "g_tool = 20")
        lines = self.payload(design, "0:10:5deg", "0.0173204:0.0173206:0.00000001")
        weights = [line.rsplit(",", 1)[1] for line in lines]
        assert "0" in weights
        assert any("e-05" in w for w in weights)


class TestMutatedDesigns:
    """Every subcommand on a damaged design file exits 0, 1 or 2, with no
    exception escaping run() and no nan printed."""

    # the golden commands, with a payload grid that has infeasible cells
    # on the sample design, so that its nan weights must print INFEASIBLE
    COMMANDS = dict(GOLDEN_COMMANDS, **{"payload_sweep.txt": [
        "payload-sweep", SAMPLE, "--alpha", "15:75:15deg", "--d", "0:0.1:0.02"]})

    @pytest.fixture(scope="class")
    def design(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutated") / "design.ini"

    @settings(max_examples=300)
    @given(text=mutated_designs())
    def test_every_command_exits_cleanly(self, design, text):
        # garbled lines may hold lone surrogates: write them as invalid UTF-8
        design.write_bytes(text.encode("utf-8", "surrogatepass"))
        for name, argv in self.COMMANDS.items():
            code, out, err = invoke([str(design) if a == SAMPLE else a for a in argv])
            assert code in (0, 1, 2), name
            assert "Traceback" not in err, name
            assert "nan" not in out, name


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
        expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert out == expected

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
        # bit-stable across interpreter instances, not just within one
        proc = subprocess.run(
            [sys.executable, "-m", "grippertool.cli"] + GOLDEN_COMMANDS["analyze.txt"],
            capture_output=True, text=True, cwd=str(ROOT),
        )
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN_DIR / "analyze.txt").read_text(encoding="utf-8")
