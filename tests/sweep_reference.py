"""Per-cell reference loops for the vectorized sweeps.

Each reference calls the scalar library function once per cell or sample,
the way the sweeps did before they were vectorized, so a test can demand
that the sweeps agree with it bit for bit. payload_csv and pose_csv build
the CLI's stdout from those cells with fmt, one line at a time.
"""

import math
import struct

from grippertool import (NoFeasiblePayloadError, ZeroCapacityError, max_payload, replace,
                         torque_margin)
from grippertool.cli import DEG, INFEASIBLE, fmt
from grippertool.pose import _interpolated_peak


def bits(value):
    """Exact bit pattern of a float (None stays None), for == comparisons
    that tell -0.0 from 0.0 and match nan with nan."""
    return None if value is None else struct.pack("<d", value)


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
    """(samples, peak_gamma, peak_margin) from torque_margin on each
    sample; raises ZeroCapacityError when every sample does."""
    gammas = [min(math.pi / 2 * i / (n_samples - 1), math.pi / 2)
              for i in range(n_samples)]
    margins = []
    for gamma in gammas:
        try:
            margins.append(torque_margin(model, state, gamma))
        except ZeroCapacityError:
            margins.append(math.nan)
    best_i = None
    for i, margin in enumerate(margins):
        if not math.isnan(margin) and (best_i is None or margin > margins[best_i]):
            best_i = i
    if best_i is None:
        raise ZeroCapacityError("no sample has positive friction capacity")
    if 0 < best_i < n_samples - 1:
        peak = _interpolated_peak(model, state, gammas, margins, best_i)
    else:
        peak = gammas[best_i], margins[best_i]
    return list(zip(gammas, margins)), peak[0], peak[1]


def payload_csv(model, state, d_obj, alphas, ds):
    """payload-sweep stdout from payload_rows and fmt."""
    lines = ["alpha_deg,d_m,max_weight_N"]
    for alpha, d, weight in payload_rows(model, state, d_obj, alphas, ds):
        cell = INFEASIBLE if weight is None else fmt(weight)
        lines.append(f"{fmt(alpha / DEG)},{fmt(d)},{cell}")
    return "\n".join(lines) + "\n"


def pose_csv(model, state, n_samples):
    """pose-sweep stdout from gamma_curve and fmt."""
    samples, peak_gamma, peak_margin = gamma_curve(model, state, n_samples)
    lines = ["gamma_deg,torque_margin_Nm"]
    for gamma, margin in samples:
        cell = INFEASIBLE if math.isnan(margin) else fmt(margin)
        lines.append(f"{fmt(gamma / DEG)},{cell}")
    lines.append(f"# peak gamma_deg = {fmt(peak_gamma / DEG)} "
                 f"margin_Nm = {fmt(peak_margin)}")
    return "\n".join(lines) + "\n"
