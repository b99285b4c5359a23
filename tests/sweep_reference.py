"""Per-cell reference loops for the vectorized sweeps.

Each reference calls the scalar library function once per cell or sample,
the way the sweeps did before they were vectorized, so a test can demand
that the sweeps agree with it bit for bit. The pose peak is not sampled
but exact; certified_peak checks it against a certificate built from
torque_margin alone. payload_csv and pose_csv build the CLI's stdout from
those cells with fmt, one line at a time, and assert_same_text compares
such long texts.
"""

import math
import struct

import pytest

from grippertool import (NoFeasiblePayloadError, ZeroCapacityError, gamma_sweep, max_payload,
                         replace, torque_margin)
from grippertool.cli import DEG, INFEASIBLE, fmt

# points of the scalar scan that no exact peak may fall below
SCAN_POINTS = 20001


def bits(value):
    """Exact bit pattern of a float (None stays None), for == comparisons
    that tell -0.0 from 0.0 and match nan with nan."""
    return None if value is None else struct.pack("<d", value)


def assert_same_text(got, want):
    """got == want, failing with the first line that differs: pytest's
    rewritten assert would diff two long sweep outputs for minutes."""
    if got != want:
        got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
        line = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                    min(len(got), len(want)))
        pytest.fail(f"line {line + 1} of {len(got)} reads {got[line:line + 1]}, "
                    f"not line {line + 1} of {len(want)}, {want[line:line + 1]}")


def payload_rows(model, state, d_obj, alphas, ds):
    """(alpha, d, weight | None) rows from max_payload on each cell."""
    rows = []
    for alpha in alphas:
        for d in ds:
            cell_state = replace(state, alpha=alpha, d=d, d_com=d)
            try:
                weight = max_payload(model, cell_state, d_obj).max_weight
            except NoFeasiblePayloadError:
                weight = None
            rows.append((alpha, d, weight))
    return rows


def gamma_curve(model, state, n_samples):
    """(gamma, margin) rows from torque_margin on each sample, nan where it
    raises ZeroCapacityError."""
    rows = []
    for i in range(n_samples):
        gamma = min(math.pi / 2 * i / (n_samples - 1), math.pi / 2)
        try:
            rows.append((gamma, torque_margin(model, state, gamma)))
        except ZeroCapacityError:
            rows.append((gamma, math.nan))
    return rows


def certified_peak(model, state):
    """gamma_sweep's (peak_gamma, peak_margin), once it passes the
    certificate of an exact peak: its bits are the same for 2, 19, 91 and
    1001 samples, torque_margin attains it at peak_gamma, and no margin of
    a SCAN_POINTS-point scalar scan exceeds it."""
    peaks = {(bits(curve.peak_gamma), bits(curve.peak_margin))
             for curve in (gamma_sweep(model, state, n) for n in (2, 19, 91, 1001))}
    assert len(peaks) == 1, "the peak depends on the sample count"
    curve = gamma_sweep(model, state, 2)
    assert curve.peak_margin == torque_margin(model, state, curve.peak_gamma)
    for gamma, margin in gamma_curve(model, state, SCAN_POINTS):
        assert not margin > curve.peak_margin, f"margin {margin!r} at gamma {gamma!r}"
    return curve.peak_gamma, curve.peak_margin


def payload_csv(model, state, d_obj, alphas, ds):
    """payload-sweep stdout from payload_rows and fmt."""
    lines = ["alpha_deg,d_m,max_weight_N"]
    for alpha, d, weight in payload_rows(model, state, d_obj, alphas, ds):
        cell = INFEASIBLE if weight is None else fmt(weight)
        lines.append(f"{fmt(alpha / DEG)},{fmt(d)},{cell}")
    return "\n".join(lines) + "\n"


def pose_csv(model, state, n_samples):
    """pose-sweep stdout from gamma_curve, certified_peak and fmt."""
    peak_gamma, peak_margin = certified_peak(model, state)
    lines = ["gamma_deg,torque_margin_Nm"]
    for gamma, margin in gamma_curve(model, state, n_samples):
        cell = INFEASIBLE if math.isnan(margin) else fmt(margin)
        lines.append(f"{fmt(gamma / DEG)},{cell}")
    lines.append(f"# peak gamma_deg = {fmt(peak_gamma / DEG)} "
                 f"margin_Nm = {fmt(peak_margin)}")
    return "\n".join(lines) + "\n"
