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
functions call them with floats. payload_sweep() solves a grid of at
most SCALAR_GRID_CELLS cells with them one float cell at a time, as
max_payload() does, and a larger grid with one call on the whole
(alpha, d) grid of arrays, whose fixed cost only a larger grid repays.
Either way a sweep cell is bit-identical to max_payload() on that cell.
_solve_cell() decides a float cell: its root, residual bound, overflow
error and clamp. max_payload() and the one-cell pass call it on every
cell, the numpy pass only on the first cell whose residual fails the
bound, to raise that cell's error. Before solving, the sweep checks the
GraspState ranges at the three cells where a row-order walk of the grid
would meet a bad value first. The sweep returns a PayloadGrid: the
weights as one row of floats per alpha, nan where infeasible, with the
cell counts and the worst root residual.

Only the large-grid pass builds arrays, so numpy is imported inside it:
importing this module, solving one payload, or sweeping a grid of at
most SCALAR_GRID_CELLS cells does not load numpy.
"""

import math
from functools import reduce

from .contact import ContactModel, GraspState, _friction_capacity, check_grasp
from .errors import DegenerateContactError, DomainError, NoFeasiblePayloadError, value_type

# Residual of a*x^2 + b*x + c at the returned root, normalized by the
# largest term, must stay below this bound.
ROOT_RESIDUAL_TOL = 1e-9

# Largest grid payload_sweep solves one cell at a time; a larger one goes
# through one numpy pass. The two cost the same at about this many cells:
# on a 2-core x86_64 VM with Python 3.11, about 1.6 us a cell against a
# fixed 55 us (CHANGES.md holds the table).
SCALAR_GRID_CELLS = 36


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
        if not self.residual <= ROOT_RESIDUAL_TOL:  # a nan residual fails too
            raise _residual_error(self.residual)


def _residual_error(residual) -> ValueError:
    return ValueError(f"PayloadResult.residual {residual:g} exceeds {ROOT_RESIDUAL_TOL:g}")


def _check_tool_held(model: ContactModel, state: GraspState) -> None:
    """Raise NoFeasiblePayloadError when friction cannot carry the tool."""
    mu_fn = model.mu * state.f_n
    if 2.0 * mu_fn < state.g_tool:
        raise NoFeasiblePayloadError(
            f"tool weight {state.g_tool:g} N exceeds friction capacity "
            f"{2.0 * mu_fn:g} N"
        )


def _capacity_squares(model, f_n) -> tuple[float, float]:
    """max_t^2 and (mu*f_n)^2, the payload quadratic's per-state constants."""
    max_t = model.e * (model.mu * f_n)  # the largest pure spin torque
    max_t2 = max_t * max_t
    if max_t2 == 0.0:  # f_n is 0, or so small that the square underflows
        raise DegenerateContactError(f"zero torque capacity: e*mu*f_n = {max_t:g}")
    return max_t2, _friction_capacity(model, f_n)[1]


def _coefficients(max_t2, m2f2, g, d_obj, d_com, sin_a, cos_a):
    """(a, b, c) of the payload quadratic from _capacity_squares(); d_com,
    sin_a and cos_a may be broadcastable arrays."""
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
    return _coefficients(*_capacity_squares(model, state.f_n), state.g_tool, d_obj,
                         state.d_com, math.sin(state.alpha), math.cos(state.alpha))


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
    solved = _solve_cell(model, d_obj, state.d_com, a, b, c)
    if solved is None:
        raise NoFeasiblePayloadError(
            "no object weight satisfies the contact capacity"
        )
    weight, residual, zero_clamped = solved
    return PayloadResult(weight, (a, b, c), residual, zero_clamped)


def _solve_cell(model, d_obj, d_com, a, b, c) -> tuple[float, float, bool] | None:
    """(weight, residual, zero_clamped) of a float payload quadratic, or
    None with no real root (disc < 0, -inf included). weight is the larger
    root, clamped at 0 when negative. A residual that fails the bound (nan
    included) raises the overflow DomainError, naming d_obj, e and d_com,
    when a coefficient, disc or the residual is not finite, and
    PayloadResult's ValueError when all are finite.
    """
    disc = _discriminant(a, b, c)
    if disc < 0.0:
        return None
    # a >= 1/4 in exact arithmetic, so a = 0 means 4*max_t^2 overflowed:
    # the roots stay nan, and the nan residual raises the overflow error
    r1, r2 = _roots(a, b, c, math.sqrt(disc)) if a else (math.nan, math.nan)
    root_hi = r2 if r1 <= r2 else r1
    residual = _residual(a, b, c, root_hi)
    if not residual <= ROOT_RESIDUAL_TOL:
        if not all(map(math.isfinite, (a, b, c, disc, residual))):
            raise DomainError("payload quadratic out of floating-point range: "
                              f"d_obj = {d_obj:g}, e = {model.e:g}, d_com = {d_com:g}")
        raise _residual_error(residual)
    if root_hi < 0.0:
        return 0.0, residual, True
    return root_hi, residual, False


@value_type(eq=False)
class PayloadGrid:
    """Max payload over an (alpha, d) grid.

    weights holds one row of len(ds) floats per alpha, alpha outer, with
    nan in the cells where no weight is feasible. Iterating the grid
    gives the row-major view (alpha, d, weight), weight None where
    infeasible; len() counts the cells. The counts and max_residual come
    from the solve's own masks: zero_clamped counts the feasible cells
    whose capacity root was negative and clamped to 0, and max_residual
    is the largest normalized root residual over the feasible cells (0
    when there are none).
    """

    alphas: list[float]
    ds: list[float]
    weights: list[list[float]]
    feasible: int
    zero_clamped: int
    max_residual: float

    @property
    def infeasible(self) -> int:
        return len(self) - self.feasible

    def __len__(self) -> int:
        return len(self.alphas) * len(self.ds)

    def __iter__(self):
        for alpha, row in zip(self.alphas, self.weights):
            for d, weight in zip(self.ds, row):
                yield alpha, d, None if math.isnan(weight) else weight


def _cell_weights(model, state, d_obj, alphas, ds) -> tuple:
    """_grid_weights' result, each cell solved by _solve_cell as
    max_payload solves it."""
    max_t2, m2f2 = _capacity_squares(model, state.f_n)
    g = state.g_tool
    rows, feasible, zero_clamped, max_residual = [], 0, 0, 0.0
    for alpha in alphas:
        sin_a, cos_a = math.sin(alpha), math.cos(alpha)
        row = []
        for d in ds:
            a, b, c = _coefficients(max_t2, m2f2, g, d_obj, d, sin_a, cos_a)
            solved = _solve_cell(model, d_obj, d, a, b, c)
            if solved is None:
                row.append(math.nan)
                continue
            weight, residual, clamped = solved
            feasible += 1
            zero_clamped += clamped
            max_residual = max(max_residual, residual)
            row.append(weight)
        rows.append(row)
    return rows, feasible, zero_clamped, max_residual


def _grid_weights(model, state, d_obj, alphas, ds) -> tuple:
    """PayloadGrid's (weights, feasible, zero_clamped, max_residual) over
    alphas x ds in one numpy pass. The grid-sized arrays live only in this
    call; root_hi, set in place, leaves it as the rows of float weights.
    """
    import numpy as np  # loaded by the first sweep, not by importing this module

    def elementwise_max(*arrays):
        return reduce(np.maximum, arrays)

    ds = np.array(ds, dtype=float)
    # one sin and cos per alpha, from math as in the scalar path
    sin_a = np.array([math.sin(a) for a in alphas])[:, None]
    cos_a = np.array([math.cos(a) for a in alphas])[:, None]
    with np.errstate(all="ignore"):
        a, b, c = _coefficients(*_capacity_squares(model, state.f_n), state.g_tool,
                                d_obj, ds, sin_a, cos_a)
        disc = _discriminant(a, b, c)
        feasible = ~(disc < 0.0)
        r1, r2 = _roots(a, b, c, np.sqrt(np.where(feasible, disc, 0.0)))
        root_hi = np.where(r1 <= r2, r2, r1)
        del disc, r1, r2  # _residual's temporaries reuse their memory: a lower peak RSS
        residual = _residual(a, b, c, root_hi, elementwise_max)
    # the first cell in row order whose residual fails the bound (nan
    # included) is solved again alone, by _solve_cell, to raise its error;
    # so is one with a = 0, whose linear root passes the bound but not the
    # quadratic that 4*max_t^2 lost by overflowing
    too_large = (feasible & ~(residual <= ROOT_RESIDUAL_TOL)) | (a == 0.0)
    if too_large.any():
        i, j = np.unravel_index(np.argmax(too_large), too_large.shape)
        _cell_weights(model, state, d_obj, [alphas[i]], [float(ds[j])])
    clamped = root_hi < 0.0
    root_hi[clamped] = 0.0
    root_hi[~feasible] = math.nan
    return (root_hi.tolist(), int(np.count_nonzero(feasible)),
            int(np.count_nonzero(clamped & feasible)),
            float(np.max(residual, where=feasible, initial=0.0)))


def payload_sweep(model: ContactModel, state: GraspState, d_obj: float,
                  alphas, ds) -> PayloadGrid:
    """Max payload over an (alpha, d) grid, alpha outer; the grid keeps
    alphas and ds as lists of floats.

    The swept d is the grasp point's travel along the tool, so each cell
    is max_payload() on the state with alpha, d and d_com replaced. A grid
    of at most SCALAR_GRID_CELLS cells is solved one cell at a time with
    max_payload's float steps, a larger one in one vectorized numpy pass;
    either way every cell of the returned weights equals the scalar
    result bit for bit. Infeasible cells hold nan (None in the row view)
    instead of being dropped so downstream plotting can distinguish zero
    payload from no solution.

    The GraspState range checks and the residual bound apply to every
    cell and raise the same ValueError as the scalar path, which walks
    the grid in row order. The ranges are checked before any cell is
    solved, at the three cells where that walk meets them first: (alpha0,
    d0), then (alpha0, the first d outside [0, inf)), then (the first
    alpha outside [0, pi], d0).
    """
    alphas = list(map(float, alphas))
    ds = list(map(float, ds))
    if not alphas or not ds:
        raise ValueError("sweep ranges must be nonempty")
    a0, d0 = alphas[0], ds[0]
    bad_d = next((d for d in ds if not 0.0 <= d < math.inf), d0)
    bad_alpha = next((alpha for alpha in alphas if not 0.0 <= alpha <= math.pi), a0)
    for alpha, d in ((a0, d0), (a0, bad_d), (bad_alpha, d0)):
        check_grasp(state.f_n, state.g_tool, alpha, state.gamma, d, d, state.theta,
                    state.config)

    try:
        _check_tool_held(model, state)
    except NoFeasiblePayloadError:
        solved = [[math.nan] * len(ds) for _ in alphas], 0, 0, 0.0
    else:
        solve = (_cell_weights if len(alphas) * len(ds) <= SCALAR_GRID_CELLS
                 else _grid_weights)
        solved = solve(model, state, d_obj, alphas, ds)
    return PayloadGrid(alphas, ds, *solved)
