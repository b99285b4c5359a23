import grippertool

PUBLIC_NAMES = {
    "ContactModel", "DesignFileError", "DomainError",
    "GraspState", "GripConfig", "GripperToolError",
    "InfeasibleHoldError", "InfeasibleProblemError", "NoFeasiblePayloadError",
    "PayloadGrid", "PayloadResult", "SingularTransmissionError", "SizingProblem",
    "SizingResult", "SpringSpec", "TorqueMarginCurve", "ToolDimensions", "Violation",
    "ZeroCapacityError", "capacity_check", "check_feasible", "clearance_span",
    "gamma_sweep", "grip_demand", "holding_max_offset",
    "max_payload", "maximize_stroke", "parse_design",
    "payload_sweep", "replace", "required_grip_force", "spring_torque", "stroke",
    "torque_margin",
}


def test_all_names_the_public_api():
    assert len(PUBLIC_NAMES) == 34
    assert sorted(grippertool.__all__) == sorted(PUBLIC_NAMES)
    namespace = {}
    exec("from grippertool import *", namespace)
    assert PUBLIC_NAMES <= namespace.keys()


def test_sizing_keeps_the_feasibility_names_of_mechanism():
    # the benchmark imports check_feasible from sizing and traces it there
    from grippertool import mechanism, sizing
    assert sizing.check_feasible is mechanism.check_feasible
    assert sizing.Violation is mechanism.Violation
