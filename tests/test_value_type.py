"""The value-type contract of errors.value_type and replace: frozen
fields, field-wise equality and hashing, a repr naming every field,
argument checks, defaults, and validation again on replace."""

import math

import numpy as np
import pytest

from grippertool import (
    ContactModel,
    GraspState,
    GripConfig,
    GripperToolError,
    PayloadResult,
    SizingProblem,
    SizingResult,
    SpringSpec,
    ToolDimensions,
    TorqueMarginCurve,
    Violation,
    max_payload,
    replace,
)
from grippertool.errors import FrozenInstanceError


@pytest.fixture
def values(nominal_dims, nominal_spring, nominal_model, nominal_state):
    """One instance of each of the nine value types."""
    problem = SizingProblem(
        d_axis=0.004, r_edge=0.001, k=0.05, w_init=0.08,
        m_bounds=(0.008, 0.03), r_bounds=(0.005, 0.08),
        theta_init_bounds=(0.6, 1.4), grip_budget=40.0,
        spring=nominal_spring, grasp=nominal_state)
    return [nominal_dims, nominal_spring, nominal_model, nominal_state, problem,
            max_payload(nominal_model, nominal_state, 0.05),
            Violation("h_bar_overlap", -0.001),
            SizingResult(nominal_dims, 0.04, ["m_lower_bound"]),
            TorqueMarginCurve(np.array([0.0, 1.0]), np.array([0.3, 0.2]), 0.0, 0.3)]


def field_values(value):
    return {name: getattr(value, name) for name in type(value)._fields}


def test_nine_types(values):
    assert len({type(value) for value in values}) == 9


def test_assignment_raises(values):
    for value in values:
        before = field_values(value)
        for name in before:
            with pytest.raises(AttributeError):
                setattr(value, name, before[name])
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1.0
        assert all(getattr(value, name) is field for name, field in before.items())


def test_frozen_error_is_a_library_error(nominal_spring):
    with pytest.raises(FrozenInstanceError, match="'kappa'") as raised:
        nominal_spring.kappa = 1.0
    assert isinstance(raised.value, GripperToolError)
    assert isinstance(raised.value, AttributeError)


def test_equality_and_hash_go_by_fields(values):
    for value in values[:-1]:
        copy = replace(value)
        assert copy is not value
        assert copy == value and not copy != value
        if type(value) is not SizingResult:   # holds a list, as a dataclass would
            assert hash(copy) == hash(value)
    with pytest.raises(TypeError, match="unhashable"):
        hash(values[-2])
    assert SpringSpec(0.5, 0.3) != SpringSpec(0.5, 0.4)
    assert len({SpringSpec(0.5, 0.3), SpringSpec(kappa=0.5, beta=0.3)}) == 1
    # same field values, other class: not equal
    assert ContactModel(mu=0.5, e=0.3) != SpringSpec(kappa=0.5, beta=0.3)
    assert SpringSpec(0.5, 0.3) != (0.5, 0.3)


def test_equality_is_identity_first():
    # a field that is not equal to itself still leaves the value equal to itself
    violation = Violation("bounds", math.nan)
    assert violation == violation


def test_torque_margin_curve_keeps_identity(values):
    curve = values[-1]
    copy = replace(curve)
    assert curve == curve
    assert copy != curve
    assert hash(curve) == object.__hash__(curve)
    assert len({curve, copy}) == 2


def test_repr_names_every_field(values):
    for value in values:
        text = repr(value)
        assert text.startswith(type(value).__name__ + "(")
        for name, field in field_values(value).items():
            if not isinstance(field, np.ndarray):
                assert f"{name}={field!r}" in text
            assert f"{name}=" in text
    spring = SpringSpec(kappa=0.5, beta=0.25)
    assert repr(spring) == "SpringSpec(kappa=0.5, beta=0.25)"
    assert eval(repr(spring)) == spring


@pytest.mark.parametrize("args, kwargs", [
    ((0.5,), {}),                           # missing, by position
    ((), {"kappa": 0.5}),                   # missing, by keyword
    ((0.5, 0.3), {"gamma": 1.0}),           # unknown
    ((), {"kappa": 0.5, "gamma": 1.0}),     # unknown in place of a missing one
    ((0.5, 0.3), {"kappa": 0.5}),           # duplicate
    ((0.5,), {"kappa": 0.5}),               # duplicate, the other one missing
    ((0.5, 0.3, 0.1), {}),                  # extra positional
])
def test_argument_errors(args, kwargs):
    with pytest.raises(TypeError, match=r"SpringSpec\(\)"):
        SpringSpec(*args, **kwargs)


def test_positional_and_keyword_agree(nominal_dims):
    fields = field_values(nominal_dims)
    names = ToolDimensions._fields
    assert ToolDimensions(*fields.values()) == nominal_dims
    assert ToolDimensions(*[fields[n] for n in names[:5]],
                          **{n: fields[n] for n in names[5:]}) == nominal_dims


def test_defaults_apply(nominal_dims, nominal_state):
    fields = field_values(nominal_state)
    del fields["config"]
    assert GraspState(**fields).config is GripConfig.BACKWARD_BASE
    forward = GraspState(*fields.values(), GripConfig.FORWARD_BASE)
    assert forward.config is GripConfig.FORWARD_BASE
    problem = SizingProblem(
        d_axis=0.004, r_edge=0.001, k=0.05, w_init=0.08,
        m_bounds=(0.008, 0.03), r_bounds=(0.005, 0.08),
        theta_init_bounds=(0.6, 1.4), grip_budget=40.0,
        spring=SpringSpec(kappa=0.5, beta=0.3), grasp=nominal_state)
    assert problem.v == 1.0
    assert PayloadResult(1.0, (1.0, 2.0, 3.0), 0.0).zero_clamped is False
    result = SizingResult(nominal_dims, 0.04, [])
    assert result.demand_end is None
    assert result.candidates == 0
    assert replace(result, candidates=3).candidates == 3


def test_replace_validates_again(nominal_state):
    with pytest.raises(ValueError) as built:
        GraspState(**{**field_values(nominal_state), "alpha": math.nan})
    with pytest.raises(ValueError) as replaced:
        replace(nominal_state, alpha=math.nan)
    assert str(replaced.value) == str(built.value)
    assert "GraspState.alpha must be finite" in str(replaced.value)
    with pytest.raises(ValueError, match="alpha must be in"):
        replace(nominal_state, alpha=4.0)
    with pytest.raises(TypeError):
        replace(nominal_state, beta=0.1)


def test_replace_leaves_the_original(nominal_state):
    moved = replace(nominal_state, theta=0.2, config=GripConfig.FORWARD_BASE)
    assert (moved.theta, moved.config) == (0.2, GripConfig.FORWARD_BASE)
    assert nominal_state.theta == math.radians(30)
    assert nominal_state.config is GripConfig.BACKWARD_BASE
    assert replace(moved, theta=nominal_state.theta,
                   config=GripConfig.BACKWARD_BASE) == nominal_state
