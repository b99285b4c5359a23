#!/usr/bin/env python3
"""Find the tool angle that places the torque-margin peak at a target
hand-tool angle.

The margin model's demand term vanishes where gamma equals the tool
angle's complement, so the peak tracks alpha. This script searches alpha
numerically (no use of that closed form) and prints the calibrated curve,
demonstrating how to place the peak at a desired working angle such as
23 degrees.

Usage:
    python scripts/pose_calibration.py designs/example_tool.ini --target-deg 23
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from grippertool import gamma_sweep, parse_design, replace


def peak_for_alpha(model, state, alpha, samples):
    curve = gamma_sweep(model, replace(state, alpha=alpha), samples)
    return curve


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("design")
    ap.add_argument("--target-deg", type=float, default=23.0)
    ap.add_argument("--samples", type=int, default=361)
    args = ap.parse_args()

    _, _, model, state = parse_design(Path(args.design).read_text(encoding="utf-8"))
    target = math.radians(args.target_deg)

    # bisect on the peak location, which decreases as alpha grows
    lo, hi = math.radians(1.0), math.radians(89.0)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        curve = peak_for_alpha(model, state, mid, args.samples)
        if curve.peak_gamma > target:
            lo = mid
        else:
            hi = mid
    alpha = (lo + hi) / 2.0
    curve = peak_for_alpha(model, state, alpha, args.samples)

    print(f"# calibrated alpha_deg = {math.degrees(alpha):.6g}")
    print(f"# peak gamma_deg = {math.degrees(curve.peak_gamma):.6g} "
          f"margin_Nm = {curve.peak_margin:.9g}")
    print("gamma_deg,torque_margin_Nm")
    for gamma, margin in curve.samples[::max(1, args.samples // 91)]:
        cell = "INFEASIBLE" if math.isnan(margin) else f"{margin:.9g}"
        print(f"{math.degrees(gamma):.9g},{cell}")


if __name__ == "__main__":
    main()
