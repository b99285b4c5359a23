"""Quasi-static design model of a spring-return double-parallelogram jaw
tool driven by a 2-finger parallel gripper.

Importing the package loads no submodule: each public name is imported
from the submodule that defines it on first access (PEP 562)."""

__version__ = "0.1.0"

_SUBMODULES = {name: module for module, names in (
    ("contact", "ContactModel GraspState GripConfig capacity_check holding_max_offset"
                " required_grip_force"),
    ("designfile", "parse_design"),
    ("errors", "DesignFileError DomainError GripperToolError InfeasibleHoldError"
               " InfeasibleProblemError NoFeasiblePayloadError SingularTransmissionError"
               " ZeroCapacityError replace"),
    ("mechanism", "SpringSpec ToolDimensions Violation check_feasible clearance_span"
                  " spring_torque stroke stroke_fixed_width"),
    ("payload", "PayloadGrid PayloadResult max_payload payload_sweep"),
    ("pose", "TorqueMarginCurve gamma_sweep torque_margin"),
    ("sizing", "SizingProblem SizingResult grip_demand maximize_stroke"),
) for name in names.split()}

__all__ = sorted(_SUBMODULES)


def __getattr__(name):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # what `from .submodule import name` runs, so -X importtime logs it
    return getattr(__import__(f"{__name__}.{_SUBMODULES[name]}", fromlist=[name]), name)


def __dir__():
    return sorted({*globals(), *__all__})
