"""Quasi-static design model of a spring-return double-parallelogram jaw
tool driven by a 2-finger parallel gripper."""

from .contact import (
    ContactModel,
    GraspState,
    GripConfig,
    capacity_check,
    holding_max_offset,
    max_capacities,
    required_grip_force,
)
from .designfile import parse_design, serialize_design
from .errors import (
    DegenerateContactError,
    DesignFileError,
    DomainError,
    GeometryError,
    GripperToolError,
    InfeasibleHoldError,
    InfeasibleProblemError,
    NoFeasiblePayloadError,
    SingularTransmissionError,
    ZeroCapacityError,
)
from .mechanism import (
    SpringSpec,
    ToolDimensions,
    jaw_width,
    spring_torque,
    stroke,
    stroke_fixed_width,
)
from .payload import (
    PayloadGrid,
    PayloadResult,
    equilibrium_coefficients,
    max_payload,
    payload_sweep,
    stable_quadratic_roots,
)
from .pose import TorqueMarginCurve, gamma_sweep, torque_margin
from .sizing import (
    SizingProblem,
    SizingResult,
    Violation,
    check_feasible,
    clearance_span,
    grip_demand,
    maximize_stroke,
    theta_end_min,
)

__version__ = "0.1.0"

__all__ = [
    "ContactModel",
    "DegenerateContactError",
    "DesignFileError",
    "DomainError",
    "GeometryError",
    "GraspState",
    "GripConfig",
    "GripperToolError",
    "InfeasibleHoldError",
    "InfeasibleProblemError",
    "NoFeasiblePayloadError",
    "PayloadGrid",
    "PayloadResult",
    "SingularTransmissionError",
    "SizingProblem",
    "SizingResult",
    "SpringSpec",
    "TorqueMarginCurve",
    "ToolDimensions",
    "Violation",
    "ZeroCapacityError",
    "capacity_check",
    "check_feasible",
    "clearance_span",
    "equilibrium_coefficients",
    "gamma_sweep",
    "grip_demand",
    "holding_max_offset",
    "jaw_width",
    "max_capacities",
    "max_payload",
    "maximize_stroke",
    "parse_design",
    "payload_sweep",
    "required_grip_force",
    "serialize_design",
    "spring_torque",
    "stable_quadratic_roots",
    "stroke",
    "stroke_fixed_width",
    "theta_end_min",
    "torque_margin",
]
