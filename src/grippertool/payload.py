"""Maximum liftable object weight for the gripped tool.

With the tool held and an object pinched between the tooltips, the free
body of the tool gives two balance equations (per-pad tangential force f,
per-pad spin torque t, object weight w):

    2*f - g_tool - w = 0
    g_tool*d_com*cos(alpha) + 2*t - w*d_obj*sin(alpha) = 0

Substituting the resulting (f, t) into the soft-finger limit surface
f^2 + (t/e)^2 = (mu*f_n)^2 gives a quadratic in w. With M = mu*f_n,
D = d_obj*sin(alpha), Q = d_com*cos(alpha), E = e^2 + D^2 and L = Q + D,
its discriminant is e^2*K with

    K = (2*M)^2*E - (g_tool*L)^2
      = (2*M*sqrt(E) - g_tool*|L|) * (2*M*sqrt(E) + g_tool*|L|),

so a weight is feasible exactly when 2*M*sqrt(E) >= g_tool*|L|, a
comparison of two products, and K is taken as that product. With
n = g_tool*(D*Q - e^2), the largest weight is

    w = (n + e*sqrt(K)) / E                                 where n >= 0,
    w = ((g_tool*Q)^2 - e^2*(2*M - g_tool)*(2*M + g_tool))
        / (n - e*sqrt(K))                                   where n < 0,

the second being the first times its conjugate over itself, so n and
e*sqrt(K) are never subtracted. tests/test_acceptance.py proves both
forms with sympy, on what _terms and _root_parts give for symbols.
Nothing divides by e*mu*f_n, so a small e loses no digits to a
quadratic whose terms cancel.

The formulas are written once, with operators that work on floats and
numpy arrays alike. Each builds a value from its first full-sized
operation on in place, by augmented assignment: on floats that rebinds,
and on the numpy pass's grid it allocates each grid-sized value once
rather than once per operation. Only the numpy pass itself writes with
out= and putmask. payload_sweep() solves a grid of at most
SCALAR_GRID_CELLS cells with them one float cell at a time, as
max_payload() does, and a larger grid with one call on the whole
(alpha, d) grid of arrays, whose fixed cost only a larger grid repays.
Either way a sweep cell is bit-identical to max_payload() on that cell.
_solve_cell() decides a float cell: its root, or its overflow error
where the root or its denominator is not finite, the one error rule of
the solve. max_payload() and the one-cell pass call it on every cell,
the numpy pass only on the first cell in row order that isfinite
fails, to raise that cell's error. The limit-surface residual
(_residual) is an observable, not a check: max_payload() reports it
for its one cell, and no sweep computes it. Before solving, the sweep
checks the GraspState ranges at the three cells where a row-order walk
of the grid would meet a bad value first. The sweep returns a
PayloadGrid: the weights, nan where infeasible, with the cell counts.
The numpy pass leaves the weights as its (alphas x ds) float64
array, which the CLI formats without a copy; the one-cell pass, and a
grid whose tool is not held, give one row of floats per alpha.

Only the large-grid pass builds arrays, so numpy is imported inside it:
importing this module, solving one payload, or sweeping a grid of at
most SCALAR_GRID_CELLS cells does not load numpy.
"""

import math

from .contact import ContactModel, GraspState, _friction_capacity, check_grasp
from .errors import DomainError, NoFeasiblePayloadError, value_type

# Largest grid payload_sweep solves one cell at a time; a larger one goes
# through one numpy pass. The two cost the same at about this many cells:
# on a 2-core x86_64 VM with Python 3.11 and numpy 2.4, a payload-sweep
# request costs about 32 us + 1.5 us a cell one cell at a time and
# 72 us + 0.4 us a cell in the numpy pass, so they cross at about 36
# cells (CHANGES.md holds the table).
SCALAR_GRID_CELLS = 36


@value_type
class PayloadResult:
    """Outcome of a max-payload solve.

    residual is the limit-surface residual at the weight solved for (see
    _residual), reported as a measure of the solve's accuracy and not
    checked. zero_clamped marks the case where that weight is negative
    and max_weight was clamped to zero; the residual then refers to the
    negative weight rather than to max_weight.
    """

    max_weight: float
    residual: float
    zero_clamped: bool = False

    def __post_init__(self):
        if self.max_weight < 0.0:
            raise ValueError("PayloadResult.max_weight must be >= 0")


def _check_tool_held(model: ContactModel, state: GraspState) -> None:
    """Raise NoFeasiblePayloadError when friction cannot carry the tool."""
    mu_fn = model.mu * state.f_n
    if 2.0 * mu_fn < state.g_tool:
        raise NoFeasiblePayloadError(
            f"tool weight {state.g_tool:g} N exceeds friction capacity "
            f"{2.0 * mu_fn:g} N"
        )


def _pick(cond, x, y):
    """x if cond holds, else y: the branch choice on floats; the numpy
    pass hands its own in place."""
    return x if cond else y


def _terms(mu_fn, e, g, d_obj, d_com, sin_a, cos_a, sqrt):
    """(D, Q, E, 2*M*sqrt(E), slack) of the module docstring, where
    slack = 2*M*sqrt(E) - g*|L| is >= 0 exactly where a weight is
    feasible. d_com may be a row array, and sin_a and cos_a columns."""
    d = d_obj * sin_a
    big_e = d * d + e * e
    reach = 2.0 * mu_fn * sqrt(big_e)
    q = d_com * cos_a
    slack = abs(q + d)
    slack *= -g
    slack += reach
    return d, q, big_e, reach, slack


def _root_parts(mu_fn, e, g, d, q, big_e, reach, slack, sqrt, where=_pick):
    """(numerator, denominator) of a feasible cell's larger root from
    _terms(), each chosen by n >= 0 with where(cond, x, y), x where cond
    holds, else y. sqrt may work in place, and an array slack is spent on
    e*sqrt(K). The denominator is 0 only where E underflows."""
    total = sqrt(reach - slack + reach)       # sqrt(2*M*sqrt(E) + g*|L|)
    e_root_k = sqrt(slack)
    e_root_k *= total
    del total
    e_root_k *= e
    n = d * q
    n -= e * e
    n *= g
    nonneg = n >= 0.0
    conjugate = g * q
    conjugate *= conjugate
    conjugate -= e * e * ((2.0 * mu_fn - g) * (2.0 * mu_fn + g))
    numerator = where(nonneg, n + e_root_k, conjugate)
    n -= e_root_k
    return numerator, where(nonneg, big_e, n)


def _residual(w, mu_fn, e, g, d, q):
    """|f^2 + (t/e)^2 - M^2| / s^2 at float weight w, with f = (g + w)/2
    and t = (w*D - g*Q)/2 from the balance and s the larger of M and
    |w*D|/(2*e): unit-free, and near the rounding error of w even where
    a small e makes t/e steep in w, which a residual over M^2 alone is
    not. Each term is taken times e and divided by e*s before it is
    squared, so a subnormal e leaves them finite."""
    spin = w * d * 0.5                              # e*|w*D|/(2*e)
    scale = max(abs(spin), mu_fn * e)               # e*s
    torque = (g * q * 0.5 - spin) / scale           # -t/e / s
    force = (w + g) * 0.5 * e / scale
    capacity = mu_fn * e / scale
    return abs(torque * torque + force * force - capacity * capacity)


def max_payload(model: ContactModel, state: GraspState,
                d_obj: float) -> PayloadResult:
    """Largest object weight the held tool can lift quasi-statically.

    The closed form of the module docstring: the weight at which the
    contact wrench reaches the soft-finger limit surface. Raises
    NoFeasiblePayloadError when the tool itself cannot be supported
    (2*mu*f_n < g_tool) or when no weight satisfies the capacity, and
    DomainError when a term leaves the float range. A negative weight is
    clamped to a zero-payload result with zero_clamped set.
    """
    _check_tool_held(model, state)
    mu_fn, g = _friction_capacity(model, state.f_n)[0], state.g_tool
    sin_a, cos_a = math.sin(state.alpha), math.cos(state.alpha)
    root = _solve_cell(model, mu_fn, g, d_obj, state.d_com, sin_a, cos_a)
    if root is None:
        raise NoFeasiblePayloadError("no object weight satisfies the contact capacity")
    residual = _residual(root, mu_fn, model.e, g, d_obj * sin_a, state.d_com * cos_a)
    return PayloadResult(max(root, 0.0), residual, root < 0.0)


def _solve_cell(model, mu_fn, g, d_obj, d_com, sin_a, cos_a) -> float | None:
    """The larger root of one float cell, negative ones included, or None
    where no weight is feasible. Raises the overflow DomainError, naming
    d_obj, e and d_com, when the root or its denominator is not finite.
    """
    e = model.e
    d, q, big_e, reach, slack = _terms(mu_fn, e, g, d_obj, d_com, sin_a, cos_a, math.sqrt)
    if slack < 0.0:   # a nan slack goes on, to the overflow error
        return None
    numerator, denominator = _root_parts(mu_fn, e, g, d, q, big_e, reach, slack, math.sqrt)
    root = numerator / denominator if denominator else math.nan
    if not (math.isfinite(root) and math.isfinite(denominator)):
        raise DomainError("payload quadratic out of floating-point range: "
                          f"d_obj = {d_obj:g}, e = {e:g}, d_com = {d_com:g}")
    return root


@value_type(eq=False)
class PayloadGrid:
    """Max payload over an (alpha, d) grid.

    weights holds one row of len(ds) weights per alpha, alpha outer, with
    nan in the cells where no weight is feasible: the numpy pass's
    (len(alphas), len(ds)) float64 array, or else lists of floats.
    Iterating the grid gives the row-major view (alpha, d, weight) in
    Python floats, weight None where infeasible; len() counts the cells.
    The counts come from the solve's own masks: zero_clamped counts the
    feasible cells whose weight was negative and clamped to 0. No
    residual is kept; max_payload() reports one cell's.
    """

    alphas: list[float]
    ds: list[float]
    weights: "list[list[float]] | numpy.ndarray"
    feasible: int
    zero_clamped: int

    @property
    def infeasible(self) -> int:
        return len(self) - self.feasible

    def __len__(self) -> int:
        return len(self.alphas) * len(self.ds)

    def __iter__(self):
        rows = self.weights
        if not isinstance(rows, list):   # the numpy pass's array
            rows = rows.tolist()
        for alpha, row in zip(self.alphas, rows):
            for d, weight in zip(self.ds, row):
                yield alpha, d, None if math.isnan(weight) else weight


def _cell_weights(model, state, d_obj, alphas, ds) -> tuple:
    """_grid_weights' result, each cell solved by _solve_cell as
    max_payload solves it."""
    mu_fn = _friction_capacity(model, state.f_n)[0]
    g = state.g_tool
    rows, feasible, zero_clamped = [], 0, 0
    for alpha in alphas:
        sin_a, cos_a = math.sin(alpha), math.cos(alpha)
        row = []
        for d in ds:
            root = _solve_cell(model, mu_fn, g, d_obj, d, sin_a, cos_a)
            if root is None:
                row.append(math.nan)
                continue
            feasible += 1
            zero_clamped += root < 0.0
            row.append(max(root, 0.0))
        rows.append(row)
    return rows, feasible, zero_clamped


def _grid_weights(model, state, d_obj, alphas, ds) -> tuple:
    """PayloadGrid's (weights, feasible, zero_clamped) over alphas x ds in
    one numpy pass. Each grid-sized value is one array, made once and
    then updated in place, and every array is made in this call, so
    concurrent sweeps share none; the root's numerator, divided in place,
    becomes the weights array.
    """
    import numpy as np  # loaded by the first sweep, not by importing this module

    def sqrt_in_place(array):
        return np.sqrt(array, out=array)

    def where(cond, x, y):
        # x where cond holds, written into y
        np.copyto(y, x, where=cond)
        return y

    mu_fn = _friction_capacity(model, state.f_n)[0]
    e, g = model.e, state.g_tool
    # one sin and cos per alpha, from math as in the scalar path
    sin_a = np.array([math.sin(a) for a in alphas])[:, None]
    cos_a = np.array([math.cos(a) for a in alphas])[:, None]
    with np.errstate(all="ignore"):
        d, q, big_e, reach, slack = _terms(mu_fn, e, g, d_obj, np.array(ds), sin_a, cos_a,
                                           np.sqrt)
        feasible = ~(slack < 0.0)
        root, denominator = _root_parts(mu_fn, e, g, d, q, big_e, reach, slack,
                                        sqrt_in_place, where)
        del slack
        root /= denominator
    # the first feasible cell in row order whose root or denominator is
    # not finite is solved again alone, by _solve_cell, to raise its error
    overflow = feasible & ~(np.isfinite(root) & np.isfinite(denominator))
    if overflow.any():
        i, j = np.unravel_index(np.argmax(overflow), overflow.shape)
        _cell_weights(model, state, d_obj, [alphas[i]], [ds[j]])
    clamped = root < 0.0
    np.putmask(root, clamped, 0.0)
    np.putmask(root, ~feasible, math.nan)
    return root, int(np.count_nonzero(feasible)), int(np.count_nonzero(clamped & feasible))


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

    The GraspState range checks and the overflow error apply to every
    cell and raise the same error as the scalar path, which walks the
    grid in row order. The ranges are checked before any cell is
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
        solved = [[math.nan] * len(ds) for _ in alphas], 0, 0
    else:
        solve = (_cell_weights if len(alphas) * len(ds) <= SCALAR_GRID_CELLS
                 else _grid_weights)
        solved = solve(model, state, d_obj, alphas, ds)
    return PayloadGrid(alphas, ds, *solved)
