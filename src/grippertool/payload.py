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
"""

import math
from dataclasses import dataclass, replace

from .contact import ContactModel, GraspState, max_capacities
from .errors import DegenerateContactError, NoFeasiblePayloadError

# Residual of a*x^2 + b*x + c at the returned root, normalized by the
# largest term, must stay below this bound.
ROOT_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
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


def equilibrium_coefficients(model: ContactModel, state: GraspState,
                             d_obj: float) -> tuple[float, float, float]:
    """Payload quadratic derived from the force and torque balance.

    a*w^2 + b*w + c equals f(w)^2 + t(w)^2/e^2 - (mu*f_n)^2 with f and t
    eliminated via the two balance equations, so its sign is exactly the
    capacity feasibility of weight w. a > 0 always.
    """
    _, max_t = max_capacities(model, state.f_n)
    if max_t == 0.0:
        raise DegenerateContactError("zero torque capacity: f_n is 0")
    max_t2 = max_t * max_t
    m2f2 = (model.mu * state.f_n) ** 2
    sin_a = math.sin(state.alpha)
    cos_a = math.cos(state.alpha)
    g = state.g_tool
    a = (max_t2 + d_obj * d_obj * sin_a * sin_a * m2f2) / (4.0 * max_t2)
    b = g * (max_t2 - d_obj * state.d_com * sin_a * cos_a * m2f2) / (2.0 * max_t2)
    c = (g * g * (max_t2 + state.d_com * state.d_com * cos_a * cos_a * m2f2)
         / (4.0 * max_t2) - m2f2)
    return a, b, c


def stable_quadratic_roots(a: float, b: float, c: float) -> tuple[float, float]:
    """Both real roots of a*x^2 + b*x + c, ordered, without cancellation.

    Uses q = -(b + sign(b)*sqrt(disc))/2 so that neither root subtracts
    nearly equal quantities. Requires a != 0 and a nonnegative
    discriminant.
    """
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise ValueError("negative discriminant")
    sq = math.sqrt(disc)
    if b >= 0.0:
        q = -(b + sq) / 2.0
    else:
        q = -(b - sq) / 2.0
    r1 = q / a
    r2 = c / q if q != 0.0 else -b / (2.0 * a)
    return (r1, r2) if r1 <= r2 else (r2, r1)


def _residual(a: float, b: float, c: float, x: float) -> float:
    value = a * x * x + b * x + c
    scale = max(abs(a * x * x), abs(b * x), abs(c), 1.0)
    return abs(value) / scale


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
    mu_fn = model.mu * state.f_n
    if 2.0 * mu_fn < state.g_tool:
        raise NoFeasiblePayloadError(
            f"tool weight {state.g_tool:g} N exceeds friction capacity "
            f"{2.0 * mu_fn:g} N"
        )
    a, b, c = equilibrium_coefficients(model, state, d_obj)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NoFeasiblePayloadError(
            "no object weight satisfies the contact capacity"
        )
    _, root_hi = stable_quadratic_roots(a, b, c)
    if root_hi < 0.0:
        return PayloadResult(0.0, (a, b, c), _residual(a, b, c, root_hi),
                             zero_clamped=True)
    return PayloadResult(root_hi, (a, b, c), _residual(a, b, c, root_hi))


def _sweep_cell(model: ContactModel, state: GraspState, d_obj: float,
                alpha: float, d: float) -> tuple[float, float, float | None]:
    # The swept d is the grasp point's travel along the tool, which moves
    # both the holding offset and the weight moment arm together.
    cell_state = replace(state, alpha=alpha, d=d, d_com=d)
    try:
        result = max_payload(model, cell_state, d_obj)
    except NoFeasiblePayloadError:
        return alpha, d, None
    return alpha, d, result.max_weight


def payload_sweep(model: ContactModel, state: GraspState, d_obj: float,
                  alphas, ds) -> list[tuple[float, float, float | None]]:
    """Max payload over an (alpha, d) grid, row-major with alpha outer.

    Infeasible cells carry None instead of being dropped so downstream
    plotting can distinguish zero payload from no solution.
    """
    alphas = list(alphas)
    ds = list(ds)
    if not alphas or not ds:
        raise ValueError("sweep ranges must be nonempty")
    return [_sweep_cell(model, state, d_obj, alpha, d)
            for alpha in alphas for d in ds]
