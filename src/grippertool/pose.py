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
alpha < pi/2 the margin rises up to its kink at gamma0 = pi/2 - alpha,
and beyond it mostly falls.

The peak is exact, whatever the sample count: _peak takes the best
torque_margin() over candidates that hold the maximum. With c = g_tool/2
and M = mu*f_n, the headroom M^2 - c^2*cos(gamma)^2 rises with gamma, so
the pads hold the tool on [edge, pi/2]. The margin rises on [edge,
gamma0] and, for alpha > pi/2, past pi - alpha, where the demand falls.
Past start = max(edge, gamma0) a maximum has zero slope; squared and
divided by cos(gamma)^4, that is Q(tan(gamma)) = 0 for

  Q(t) = w*(C + S*t)^2*(M^2*t^2 + K) - 4*e^2*c^4*t^2

with w = (g_tool*d_com)^2, K = M^2 - c^2, C = cos(gamma0), S = sin(gamma0).
The candidates are edge, start, pi/2 and each root of Q from tan(start)
to tan(min(pi/2, pi - alpha)); a root that squaring added is one more
candidate, nothing worse. Where Descartes' rule of signs, applied to Q's
own coefficients, rules out roots above 0, the search is skipped.

The margin formula is written once (_headroom, _margin), with operators
that work on floats and numpy arrays alike: torque_margin() calls it for
one gamma and gamma_sweep() once for all samples; each of the two takes
contact._friction_capacity once and hands it down. _margin updates its
terms by augmented assignment, and gamma_sweep() writes its own arrays
with out= and putmask, so each sample-sized value is one array. The
curve keeps the samples as two float arrays, gammas and margins (nan
where the pads cannot carry the tool); its samples property is the
(gamma, margin) pair view. A sample is bit-identical to torque_margin()
at that gamma wherever numpy's sin and cos round like math's, which the
test suite checks. Only gamma_sweep() builds arrays, so numpy is
imported there and nowhere else in this module: importing it, or
computing one margin, does not load numpy.
"""

import math

from .contact import _MIN_NORMAL, ContactModel, GraspState, _friction_capacity
from .errors import DomainError, ZeroCapacityError, _boundary, value_type


@value_type(eq=False)
class TorqueMarginCurve:
    """Sampled margin curve: gammas ascending and their margins, as
    float arrays of one length.

    Error samples carry nan margins. peak_gamma/peak_margin are the exact
    maximum over [0, pi/2], the same for any sample count.
    """

    gammas: "numpy.ndarray"
    margins: "numpy.ndarray"
    peak_gamma: float
    peak_margin: float

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        """(gamma, margin) pairs, built from gammas and margins."""
        return tuple(zip(self.gammas.tolist(), self.margins.tolist()))


def _headroom(mu_fn2, state, cos_gamma):
    """((mu*f_n)^2 - tangential^2, tangential) for the per-pad tangential
    load (g_tool/2)*cos(gamma), from mu_fn2 = (mu*f_n)^2; negative
    headroom means the pads cannot carry the tool."""
    tangential = (state.g_tool / 2.0) * cos_gamma
    return mu_fn2 - tangential * tangential, tangential


def _margin(model, state, sqrt_headroom, sin_offset):
    """Available spin torque minus the gravity moment on the spin axis;
    sin_offset is sin(gamma - (pi/2 - alpha))."""
    available = 2.0 * model.e * sqrt_headroom
    demand = abs(sin_offset)
    demand *= state.g_tool * state.d_com
    available -= demand
    return available


def torque_margin(model: ContactModel, state: GraspState, gamma: float) -> float:
    """Spin-torque margin of the grasp at hand-tool angle gamma.

    Raises ZeroCapacityError when the tangential demand exceeds mu*f_n, and
    DomainError for gamma outside [0, pi/2] or when the square of mu*f_n
    overflows.
    """
    if not 0.0 <= gamma <= math.pi / 2:
        raise DomainError(f"gamma={gamma:g} outside [0, pi/2]")
    return _margin_at(model, state, _capacity(model, state), gamma)


def _capacity(model, state):
    """contact._friction_capacity(), once per request. Raises
    ZeroCapacityError when the pads hold the tool at no gamma, which does
    not depend on e. Otherwise raises DomainError when 2*e*mu*f_n or
    g_tool*d_com, the bounds of the margin's two terms, leaves the float
    range, or at f_n > 0 2*e*mu*f_n leaves the normal range, where it has
    lost digits; within them every margin is finite."""
    capacity = _friction_capacity(model, state.f_n)
    # the headroom rises with gamma: where pi/2 fails, every gamma does
    if _headroom(capacity[1], state, math.cos(math.pi / 2))[0] < 0.0:
        raise ZeroCapacityError("no hand-tool angle has positive friction capacity")
    available = 2.0 * model.e * capacity[0]
    demand = state.g_tool * state.d_com
    if (not (math.isfinite(available) and math.isfinite(demand))
            or available < _MIN_NORMAL and state.f_n > 0.0):
        raise DomainError("torque margin out of floating-point range: "
                          f"2*e*mu*f_n = {available:g}, g_tool*d_com = {demand:g}")
    return capacity


def _margin_at(model, state, capacity, gamma):
    """torque_margin() at gamma, from capacity = _friction_capacity()."""
    mu_fn, mu_fn2 = capacity
    headroom, tangential = _headroom(mu_fn2, state, math.cos(gamma))
    if headroom < 0.0:
        raise ZeroCapacityError(
            f"tangential demand {tangential:g} N exceeds capacity {mu_fn:g} N"
        )
    return _margin(model, state, math.sqrt(headroom),
                   math.sin(gamma - (math.pi / 2 - state.alpha)))


def _one_sign(coeffs, magnitudes):
    """Whether the coefficients share one sign, exact zeros aside, each
    beyond its rounding bound: 2**-44 times its sum over absolute terms,
    in magnitudes. By Descartes' rule of signs the polynomial then has no
    root above 0."""
    signs = set()
    for coeff, bound in zip(coeffs, magnitudes):
        if coeff == 0.0 == bound:
            continue
        if not abs(coeff) > 2.0**-44 * bound:
            return False
        signs.add(coeff > 0.0)
    return len(signs) < 2


def _roots(coeffs, lo, hi):
    """The float next to each sign switch of the polynomial on [lo, hi],
    on pieces cut at its derivative's roots, where it is monotone."""
    if len(coeffs) < 2:
        return []
    cuts = [lo, *_roots([i * coeff for i, coeff in enumerate(coeffs)][1:], lo, hi), hi]
    found = (_boundary(lambda t: sum(coeff * t**i for i, coeff in enumerate(coeffs)), a, b)
             for a, b in zip(cuts, cuts[1:]))
    return [root for root in found if root is not None]


def _quartic(model, state, big_m2, kink):
    """Coefficients of Q, lowest first, and their sums over absolute terms."""
    # products, not **: an overflow gives inf rather than raising
    c = state.g_tool / 2.0
    k, c2, g_d = big_m2 - c * c, c * c, state.g_tool * state.d_com
    w, spin2 = g_d * g_d, (2.0 * model.e * c2) * (2.0 * model.e * c2)
    cos0, sin0 = math.cos(kink), math.sin(kink)

    def terms(k_term, spin_term, cos_sin):
        return [w * cos0 * cos0 * k_term, 2.0 * w * cos_sin * k_term,
                w * (sin0 * sin0 * k_term + cos0 * cos0 * big_m2) + spin_term,
                2.0 * w * cos_sin * big_m2, w * sin0 * sin0 * big_m2]
    return terms(k, -spin2, cos0 * sin0), terms(big_m2 + c2, spin2, abs(cos0 * sin0))


def _peak(model, state, capacity):
    """(gamma, margin) of the largest torque_margin over [0, pi/2], ties to
    the smaller gamma, from the candidates in the module docstring, for a
    capacity from _capacity(), which holds the tool at pi/2."""
    half_pi = math.pi / 2
    mu_fn2 = capacity[1]
    edge = 0.0
    if _headroom(mu_fn2, state, 1.0)[0] < 0.0:   # the first float where the pads hold
        edge = _boundary(lambda g: -_headroom(mu_fn2, state, math.cos(g))[0], 0.0, half_pi)
    kink = math.pi / 2 - state.alpha
    start = max(edge, kink)
    end = min(half_pi, math.pi - state.alpha)
    gammas = {edge, start, half_pi}
    if start < end:
        coeffs, magnitudes = _quartic(model, state, mu_fn2, kink)
        if not _one_sign(coeffs, magnitudes):
            gammas.update(max(math.atan(t), start)
                          for t in _roots(coeffs, math.tan(start), math.tan(end)))
    return max(((gamma, _margin_at(model, state, capacity, gamma)) for gamma in sorted(gammas)),
               key=lambda pair: pair[1])


def gamma_sweep(model: ContactModel, state: GraspState,
                n_samples: int) -> TorqueMarginCurve:
    """Uniform margin samples over [0, pi/2] and the exact peak.

    All samples are computed in one vectorized pass, each sample-sized
    value in one array made in this call and updated in place. Samples
    where torque_margin() would raise ZeroCapacityError carry nan margins
    rather than aborting the sweep; the sweep raises it only when every
    gamma does. Ties for the peak break toward smaller gamma.
    """
    if n_samples < 2:
        raise DomainError("n_samples must be >= 2")
    capacity = _capacity(model, state)
    # numpy is imported here, not at module level, so that the scalar
    # margin and the CLI commands without a grid start without it
    import numpy as np

    # the last sample can round one ulp above pi/2; clamp it onto the domain
    gamma_arr = np.arange(n_samples, dtype=float)
    gamma_arr *= math.pi / 2
    gamma_arr /= n_samples - 1
    np.minimum(gamma_arr, math.pi / 2, out=gamma_arr)
    with np.errstate(all="ignore"):
        headroom = _headroom(capacity[1], state, np.cos(gamma_arr))[0]
        failed = headroom < 0.0
        np.maximum(headroom, 0.0, out=headroom)
        sin_offset = gamma_arr - (math.pi / 2 - state.alpha)
        margin_arr = _margin(model, state, np.sqrt(headroom, out=headroom),
                             np.sin(sin_offset, out=sin_offset))
    np.putmask(margin_arr, failed, math.nan)
    return TorqueMarginCurve(gamma_arr, margin_arr, *_peak(model, state, capacity))
