"""Working-pose analysis: torque margin over the hand-tool angle gamma.

Grasping the side faces of the parallel linkages leaves one rotational
freedom, the angle gamma between hand and tool. The margin model:

  available(gamma) = 2*e*sqrt((mu*f_n)^2 - ((g_tool/2)*cos(gamma))^2)
  demand(gamma)    = g_tool*d_com*|sin(gamma - (pi/2 - alpha))|
  margin           = available - demand

The tangential load (g_tool/2)*cos(gamma) per pad shrinks as the hand
rotates toward the tool normal, freeing spin-torque capacity. The gravity
moment loads the spin axis only through its projection, which vanishes
where the hand-tool angle equals the tool angle's complement; the finger
pair's normal-force couple carries the rest. For a horizontal tool
(alpha = pi/2) the demand reduces to g_tool*d_com*sin(gamma). With
alpha < pi/2 the margin rises to a peak at gamma = pi/2 - alpha and falls
beyond it.

The margin formula is written once (_headroom, _margin), with operators
that work on floats and numpy arrays alike: torque_margin() calls it for
one gamma and gamma_sweep() once for all samples. The curve keeps the
samples as two float arrays, gammas and margins (nan where the pads
cannot carry the tool); its samples property is the (gamma, margin)
pair view. A sample is bit-identical to torque_margin() at that gamma
wherever numpy's sin and cos round like math's, which the test suite
checks. Only gamma_sweep() builds arrays, so numpy is imported there
and nowhere else in this module: importing it, or computing one
margin, does not load numpy.
"""

import math

from .contact import ContactModel, GraspState
from .errors import DomainError, ZeroCapacityError, value_type


@value_type(eq=False)
class TorqueMarginCurve:
    """Sampled margin curve: gammas ascending and their margins, as
    float arrays of one length.

    Error samples carry nan margins. peak_gamma/peak_margin locate the
    maximum, refined by quadratic interpolation around the best sample.
    """

    gammas: "numpy.ndarray"
    margins: "numpy.ndarray"
    peak_gamma: float
    peak_margin: float

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        """(gamma, margin) pairs, built from gammas and margins."""
        return tuple(zip(self.gammas.tolist(), self.margins.tolist()))


def _headroom(model, state, cos_gamma):
    """((mu*f_n)^2 - tangential^2, tangential, mu*f_n) for the per-pad
    tangential load (g_tool/2)*cos(gamma); negative headroom means the
    pads cannot carry the tool. Raises DomainError when (mu*f_n)^2
    overflows."""
    tangential = (state.g_tool / 2.0) * cos_gamma
    mu_fn = model.mu * state.f_n
    mu_fn2 = mu_fn * mu_fn
    if mu_fn2 == math.inf:
        raise DomainError(f"(mu*f_n)^2 overflows at mu*f_n = {mu_fn:g}")
    return mu_fn2 - tangential * tangential, tangential, mu_fn


def _margin(model, state, sqrt_headroom, sin_offset):
    """Available spin torque minus the gravity moment on the spin axis;
    sin_offset is sin(gamma - (pi/2 - alpha))."""
    available = 2.0 * model.e * sqrt_headroom
    demand = state.g_tool * state.d_com * abs(sin_offset)
    return available - demand


def torque_margin(model: ContactModel, state: GraspState, gamma: float) -> float:
    """Spin-torque margin of the grasp at hand-tool angle gamma.

    Raises ZeroCapacityError when the tangential demand exceeds mu*f_n, and
    DomainError for gamma outside [0, pi/2] or when (mu*f_n)^2 overflows.
    """
    if not 0.0 <= gamma <= math.pi / 2:
        raise DomainError(f"gamma={gamma:g} outside [0, pi/2]")
    headroom, tangential, mu_fn = _headroom(model, state, math.cos(gamma))
    if headroom < 0.0:
        raise ZeroCapacityError(
            f"tangential demand {tangential:g} N exceeds capacity {mu_fn:g} N"
        )
    return _margin(model, state, math.sqrt(headroom),
                   math.sin(gamma - (math.pi / 2 - state.alpha)))


def _interpolated_peak(model, state, gammas, margins, i):
    """Quadratic fit through the best sample and its neighbors."""
    g0, g1, g2 = gammas[i - 1], gammas[i], gammas[i + 1]
    m0, m1, m2 = margins[i - 1], margins[i], margins[i + 1]
    if math.isnan(m0) or math.isnan(m2):
        return g1, m1
    denom = (m0 - 2.0 * m1 + m2)
    if denom >= 0.0 or abs(denom) < 1e-300:
        return g1, m1
    step = (g2 - g0) / 2.0
    vertex = g1 + 0.5 * step * (m0 - m2) / denom
    vertex = min(max(vertex, g0), g2)
    try:
        refined = torque_margin(model, state, vertex)
    except ZeroCapacityError:
        return g1, m1
    if refined >= m1:
        return vertex, refined
    return g1, m1


def gamma_sweep(model: ContactModel, state: GraspState,
                n_samples: int) -> TorqueMarginCurve:
    """Uniform margin samples over [0, pi/2] with the peak located.

    All samples are computed in one vectorized pass. Samples where
    torque_margin() would raise ZeroCapacityError carry nan margins rather
    than aborting the sweep. Ties for the peak break toward smaller gamma.
    """
    if n_samples < 2:
        raise DomainError("n_samples must be >= 2")
    # numpy is imported here, not at module level, so that the scalar
    # margin and the CLI commands without a grid start without it
    import numpy as np

    # the last sample can round one ulp above pi/2; clamp it onto the domain
    gamma_arr = np.minimum(math.pi / 2 * np.arange(n_samples) / (n_samples - 1),
                           math.pi / 2)
    with np.errstate(all="ignore"):
        headroom = _headroom(model, state, np.cos(gamma_arr))[0]
        margin_arr = _margin(model, state, np.sqrt(np.maximum(headroom, 0.0)),
                             np.sin(gamma_arr - (math.pi / 2 - state.alpha)))
    margin_arr[headroom < 0.0] = math.nan
    best = np.fmax.reduce(margin_arr)   # skips nan; nan only if all are
    if math.isnan(best):
        raise ZeroCapacityError("no sample has positive friction capacity")
    best_i = int(np.argmax(margin_arr == best))   # first of any ties

    if 0 < best_i < n_samples - 1:
        around = slice(best_i - 1, best_i + 2)
        peak_gamma, peak_margin = _interpolated_peak(
            model, state, gamma_arr[around].tolist(), margin_arr[around].tolist(), 1
        )
    else:
        peak_gamma, peak_margin = float(gamma_arr[best_i]), float(margin_arr[best_i])
    return TorqueMarginCurve(gamma_arr, margin_arr, peak_gamma, peak_margin)
