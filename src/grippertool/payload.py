"""Maximum liftable object weight for the gripped tool.

With the tool held and an object pinched between the tooltips, the free
body of the tool gives two balance equations (per-pad tangential force f,
per-pad spin torque t, object weight w):

    2*f - g_tool - w = 0
    g_tool*d_com*cos(alpha) + 2*t - w*d_obj*sin(alpha) = 0

Substituting the resulting (f, t) into the soft-finger limit surface and
demanding equality yields a quadratic a*w^2 + b*w + c = 0 whose larger
root is the maximum weight. equilibrium_coefficients() builds that
quadratic; max_payload() solves it with a cancellation-safe root formula.

The coefficient, root and residual formulas are written once, with
operators that work on floats and numpy arrays alike. The scalar
functions call them with floats; payload_sweep() calls them once with
the whole (alpha, d) grid, so a sweep cell is bit-identical to
max_payload() on that cell. The sweep returns a PayloadGrid: the
weights as one float array, nan where infeasible, with the cell counts
and the worst root residual.

Only payload_sweep() and its grid helper build arrays, so numpy is
imported inside them: importing this module, or solving one payload,
does not load numpy.
"""

import math
from collections.abc import Sequence
from functools import reduce

from .contact import ContactModel, GraspState, max_capacities
from .errors import DegenerateContactError, NoFeasiblePayloadError, replace, value_type

# Residual of a*x^2 + b*x + c at the returned root, normalized by the
# largest term, must stay below this bound.
ROOT_RESIDUAL_TOL = 1e-9


@value_type
class PayloadResult:
    """Outcome of a max-payload solve.

    coefficients holds the (a, b, c) actually solved. residual is the
    normalized quadratic residual at the capacity root and must meet
    ROOT_RESIDUAL_TOL. zero_clamped marks the case where the capacity
    root is negative and max_weight was clamped to zero; the residual
    then refers to the negative root rather than to max_weight.
    """

    max_weight: float
    coefficients: tuple[float, float, float]
    residual: float
    zero_clamped: bool = False

    def __post_init__(self):
        if self.max_weight < 0.0:
            raise ValueError("PayloadResult.max_weight must be >= 0")
        if self.residual > ROOT_RESIDUAL_TOL:
            raise ValueError(
                f"PayloadResult.residual {self.residual:g} exceeds "
                f"{ROOT_RESIDUAL_TOL:g}"
            )


def _check_tool_held(model: ContactModel, state: GraspState) -> None:
    """Raise NoFeasiblePayloadError when friction cannot carry the tool."""
    mu_fn = model.mu * state.f_n
    if 2.0 * mu_fn < state.g_tool:
        raise NoFeasiblePayloadError(
            f"tool weight {state.g_tool:g} N exceeds friction capacity "
            f"{2.0 * mu_fn:g} N"
        )


def _coefficients(model, f_n, g, d_obj, d_com, sin_a, cos_a):
    """(a, b, c) of the payload quadratic; d_com, sin_a and cos_a may be
    broadcastable arrays."""
    _, max_t = max_capacities(model, f_n)
    if max_t == 0.0:
        raise DegenerateContactError("zero torque capacity: f_n is 0")
    max_t2 = max_t * max_t
    m2f2 = (model.mu * f_n) ** 2
    a = (max_t2 + d_obj * d_obj * sin_a * sin_a * m2f2) / (4.0 * max_t2)
    b = g * (max_t2 - d_obj * d_com * sin_a * cos_a * m2f2) / (2.0 * max_t2)
    c = (g * g * (max_t2 + d_com * d_com * cos_a * cos_a * m2f2)
         / (4.0 * max_t2) - m2f2)
    return a, b, c


def _discriminant(a, b, c):
    return b * b - 4.0 * a * c


def _roots(a, b, c, sq):
    """Both roots (q/a, c/q), unordered, from sq = sqrt(disc) >= 0.

    q = -(b + sign(b)*sq)/2 with sign(0) = +1, so neither root subtracts
    nearly equal quantities. q is 0 only when b = disc = 0, a double root
    at 0 with c = 0; the divisor q + 1 then returns c instead of dividing
    by zero.
    """
    sign_b = (b >= 0.0) * 2.0 - 1.0
    q = -(b + sign_b * sq) / 2.0
    return q / a, c / (q + (q == 0.0))


def _residual(a, b, c, x, maximum=max):
    """|a*x^2 + b*x + c| over its largest term (at least 1)."""
    ax2 = a * x * x
    return abs(ax2 + b * x + c) / maximum(abs(ax2), abs(b * x), abs(c), 1.0)


def equilibrium_coefficients(model: ContactModel, state: GraspState,
                             d_obj: float) -> tuple[float, float, float]:
    """Payload quadratic derived from the force and torque balance.

    a*w^2 + b*w + c equals f(w)^2 + t(w)^2/e^2 - (mu*f_n)^2 with f and t
    eliminated via the two balance equations, so its sign is exactly the
    capacity feasibility of weight w. a > 0 always.
    """
    return _coefficients(model, state.f_n, state.g_tool, d_obj, state.d_com,
                         math.sin(state.alpha), math.cos(state.alpha))


def stable_quadratic_roots(a: float, b: float, c: float) -> tuple[float, float]:
    """Both real roots of a*x^2 + b*x + c, ordered, without cancellation.

    Uses q = -(b + sign(b)*sqrt(disc))/2 so that neither root subtracts
    nearly equal quantities. Requires a != 0 and a nonnegative
    discriminant.
    """
    disc = _discriminant(a, b, c)
    if disc < 0.0:
        raise ValueError("negative discriminant")
    r1, r2 = _roots(a, b, c, math.sqrt(disc))
    return (r1, r2) if r1 <= r2 else (r2, r1)


def max_payload(model: ContactModel, state: GraspState,
                d_obj: float) -> PayloadResult:
    """Largest object weight the held tool can lift quasi-statically.

    Solves the balance-derived quadratic for the weight at which the
    contact wrench reaches the soft-finger boundary. Raises
    NoFeasiblePayloadError when the tool itself cannot be supported
    (2*mu*f_n < g_tool) or when no real weight satisfies the capacity.
    A negative capacity root is clamped to a zero-payload result with
    zero_clamped set.
    """
    _check_tool_held(model, state)
    a, b, c = equilibrium_coefficients(model, state, d_obj)
    disc = _discriminant(a, b, c)
    if disc < 0.0:
        raise NoFeasiblePayloadError(
            "no object weight satisfies the contact capacity"
        )
    r1, r2 = _roots(a, b, c, math.sqrt(disc))
    root_hi = r2 if r1 <= r2 else r1
    residual = _residual(a, b, c, root_hi)
    if root_hi < 0.0:
        return PayloadResult(0.0, (a, b, c), residual, zero_clamped=True)
    return PayloadResult(root_hi, (a, b, c), residual)


class PayloadGrid(Sequence):
    """Max payload over an (alpha, d) grid.

    weights has shape (len(alphas), len(ds)), alpha outer, with nan in
    the cells where no weight is feasible. As a sequence the grid is the
    row-major view (alpha, d, weight), weight None where infeasible.
    The counts and max_residual come from the solve's own masks:
    zero_clamped counts the feasible cells whose capacity root was
    negative and clamped to 0, and max_residual is the largest
    normalized root residual over the feasible cells (0 when there are
    none).

    A plain __slots__ class rather than a value_type: payload_sweep()
    builds it only after every input check, so there is nothing to
    validate, and its weights array could not be compared or hashed by
    field.
    """

    __slots__ = ("alphas", "ds", "weights", "feasible", "zero_clamped",
                 "max_residual")

    def __init__(self, alphas: list[float], ds: list[float], weights,
                 feasible: int, zero_clamped: int, max_residual: float):
        self.alphas = alphas
        self.ds = ds
        self.weights = weights
        self.feasible = feasible
        self.zero_clamped = zero_clamped
        self.max_residual = max_residual

    @property
    def infeasible(self) -> int:
        return self.weights.size - self.feasible

    def __len__(self) -> int:
        return self.weights.size

    def __getitem__(self, index: int) -> tuple[float, float, float | None]:
        i, j = divmod(range(self.weights.size)[index], len(self.ds))
        weight = float(self.weights[i, j])
        return self.alphas[i], self.ds[j], None if math.isnan(weight) else weight

    def __iter__(self):
        for alpha, row in zip(self.alphas, self.weights.tolist()):
            for d, weight in zip(self.ds, row):
                yield alpha, d, None if math.isnan(weight) else weight


def _grid_weights(model, state, d_obj, alphas, ds) -> tuple:
    """PayloadGrid's (weights, feasible, zero_clamped, max_residual) over
    alphas x ds, ds an array. The other grid-sized temporaries live only
    in this call; root_hi becomes the weights in place.
    """
    import numpy as np  # loaded by the first sweep, as in payload_sweep

    def elementwise_max(*arrays):
        return reduce(np.maximum, arrays)

    # one sin and cos per alpha, from math as in the scalar path
    sin_a = np.array([math.sin(a) for a in alphas])[:, None]
    cos_a = np.array([math.cos(a) for a in alphas])[:, None]
    with np.errstate(all="ignore"):
        a, b, c = _coefficients(model, state.f_n, state.g_tool, d_obj,
                                ds, sin_a, cos_a)
        disc = _discriminant(a, b, c)
        feasible = ~(disc < 0.0)
        r1, r2 = _roots(a, b, c, np.sqrt(np.where(feasible, disc, 0.0)))
        root_hi = np.where(r1 <= r2, r2, r1)
        residual = _residual(a, b, c, root_hi, elementwise_max)
    # the residual bound of PayloadResult, raised for the first cell that breaks it
    too_large = feasible & (residual > ROOT_RESIDUAL_TOL)
    if too_large.any():
        i, j = np.unravel_index(np.argmax(too_large), too_large.shape)
        PayloadResult(max(float(root_hi[i, j]), 0.0),
                      (float(a[i, 0]), float(b[i, j]), float(c[i, j])),
                      float(residual[i, j]))
    clamped = root_hi < 0.0
    root_hi[clamped] = 0.0
    root_hi[~feasible] = math.nan
    return (root_hi, int(np.count_nonzero(feasible)),
            int(np.count_nonzero(clamped & feasible)),
            float(np.max(residual, where=feasible, initial=0.0)))


def payload_sweep(model: ContactModel, state: GraspState, d_obj: float,
                  alphas, ds) -> PayloadGrid:
    """Max payload over an (alpha, d) grid, alpha outer.

    The swept d is the grasp point's travel along the tool, so each cell
    is max_payload() on the state with alpha, d and d_com replaced. The
    whole grid is solved in one vectorized pass; every cell of the
    returned weights equals the scalar result bit for bit. Infeasible
    cells hold nan (None in the row view) instead of being dropped so
    downstream plotting can distinguish zero payload from no solution.
    The GraspState range checks and the residual bound apply to every
    cell and raise the same ValueError as the scalar path.
    """
    # numpy is imported here, not at module level, so that the scalar
    # solves and the CLI commands without a grid start without it
    import numpy as np

    alphas = list(alphas)
    ds = list(ds)
    if not alphas or not ds:
        raise ValueError("sweep ranges must be nonempty")
    alpha_arr = np.array(alphas, dtype=float)
    d_arr = np.array(ds, dtype=float)
    # GraspState's checks where the scalar path meets them first: the first
    # row, then the first column. min() and max() keep a nan.
    a0, d0 = alphas[0], ds[0]
    for alpha, d in ((a0, d0), (a0, d_arr.min()), (a0, d_arr.max()),
                     (alpha_arr.min(), d0), (alpha_arr.max(), d0)):
        replace(state, alpha=float(alpha), d=float(d), d_com=float(d))

    try:
        _check_tool_held(model, state)
    except NoFeasiblePayloadError:
        solved = np.full((len(alphas), len(ds)), math.nan), 0, 0, 0.0
    else:
        solved = _grid_weights(model, state, d_obj, alphas, d_arr)
    return PayloadGrid(alphas, ds, *solved)
