"""Quasi-static design model of a spring-return double-parallelogram jaw
tool driven by a 2-finger parallel gripper."""

from .contact import (ContactModel, GraspState, GripConfig, capacity_check,
                      holding_max_offset, required_grip_force)
from .designfile import parse_design
from .errors import (DegenerateContactError, DesignFileError, DomainError, GripperToolError,
                     InfeasibleHoldError, InfeasibleProblemError, NoFeasiblePayloadError,
                     SingularTransmissionError, ZeroCapacityError, replace)
from .mechanism import SpringSpec, ToolDimensions, spring_torque, stroke, stroke_fixed_width
from .payload import (PayloadGrid, PayloadResult, equilibrium_coefficients, max_payload,
                      payload_sweep)
from .pose import TorqueMarginCurve, gamma_sweep, torque_margin
from .sizing import (SizingProblem, SizingResult, Violation, check_feasible, clearance_span,
                     grip_demand, maximize_stroke)

__version__ = "0.1.0"

# every class and function imported above; the submodules are not callable
__all__ = sorted(name for name, value in globals().items()
                 if callable(value) and not name.startswith("_"))
