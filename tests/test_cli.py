import argparse
import io
import tracemalloc

from pathlib import Path

import pytest

from grippertool import GripConfig, holding_max_offset, parse_design, required_grip_force
from grippertool.cli import DEG, INFEASIBLE, MAX_RANGE_POINTS, _parse_range, fmt, run

from sweep_reference import gamma_curve, payload_rows

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
        assert invoke(["payload-sweep", SAMPLE, "--alpha", "nonsense",
                       "--d", "0:0.1:0.05"])[0] == 2
        assert invoke(["no-such-command"])[0] == 2

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
    def test_non_finite_number_is_usage_error(self, argv, capsys):
        code, out, _ = invoke(argv)
        assert code == 2
        assert out == ""
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--m", "0.03:0.008"),
        ("--r", "0.08:0.005"),
        ("--theta-init", "83:40deg"),
    ])
    def test_reversed_interval_is_usage_error(self, flag, value, capsys):
        bounds = {"--m": "0.008:0.03", "--r": "0.005:0.08",
                  "--theta-init": "40:83deg", flag: value}
        argv = ["optimize", SAMPLE, "--grip-budget", "36"]
        for name, text in bounds.items():
            argv += [name, text]
        code, out, _ = invoke(argv)
        assert code == 2
        assert out == ""
        assert "lo <= hi" in capsys.readouterr().err

    def test_oversized_range_refused_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            with pytest.raises(argparse.ArgumentTypeError, match="points"):
                _parse_range("0:1e12:1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        code, _, _ = invoke(["payload-sweep", SAMPLE,
                             "--alpha", "15:75:15deg", "--d", "0:1e12:1"])
        assert code == 2
        assert "points" in capsys.readouterr().err

    def test_range_point_cap_is_inclusive(self):
        assert len(_parse_range(f"0:{MAX_RANGE_POINTS - 1}:1")) == MAX_RANGE_POINTS
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_range(f"0:{MAX_RANGE_POINTS}:1")


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
        from dataclasses import replace
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
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "grippertool.cli"] + GOLDEN_COMMANDS["analyze.txt"],
            capture_output=True, text=True, cwd=str(ROOT),
        )
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN_DIR / "analyze.txt").read_text(encoding="utf-8")
