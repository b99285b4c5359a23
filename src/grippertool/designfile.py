"""Design file parsing.

INI-style text with '#' comments and key = value pairs in four sections.
SECTIONS gives each section's value type, whose fields (cls._fields) are
the section's keys, in order. Canonical units are meters, newtons,
radians and N*m/rad. Angle keys accept a 'deg' suffix (converted via
pi/180) and weight keys accept 'kg' (converted with standard gravity).
Unknown or missing keys are errors, and so is a number that is nan or
infinite, or that overflows when parsed or converted.

Of several faults, the one reported comes first in this order: layout
faults, by line; missing sections and keys; bad values, by section and
then field, so values are converted in a second pass over the stored
(raw, line_no) pairs; violated invariants, by section.
"""

import functools
import math

from .contact import ContactModel, GraspState, GripConfig
from .errors import DesignFileError
from .mechanism import SpringSpec, ToolDimensions

STANDARD_GRAVITY = 9.80665  # m/s^2, for 'kg' mass inputs
DEG = math.pi / 180.0  # radians per degree, for the 'deg' suffix

SECTIONS = {
    "tool": ToolDimensions,
    "spring": SpringSpec,
    "contact": ContactModel,
    "grasp": GraspState,
}

ANGLE_KEYS = {"theta_init", "theta_end", "alpha", "gamma", "theta", "beta"}
WEIGHT_KEYS = {"g_tool"}
CONFIGS = {config.value: config for config in GripConfig}


def _parse_value(key: str, entry: tuple[str, int]) -> float | GripConfig:
    raw, line_no = entry
    text = raw.strip()
    if key == "config":
        if text in CONFIGS:
            return CONFIGS[text]
        raise DesignFileError(f"config must be one of: {', '.join(CONFIGS)}", line_no, key)
    factor = 1.0
    if text.endswith("deg"):
        if key not in ANGLE_KEYS:
            raise DesignFileError("'deg' suffix only valid on angle keys",
                                  line_no, key)
        text = text[:-3].strip()
        factor = DEG
    elif text.endswith("kg"):
        if key not in WEIGHT_KEYS:
            raise DesignFileError("'kg' suffix only valid on weight keys",
                                  line_no, key)
        text = text[:-2].strip()
        factor = STANDARD_GRAVITY
    try:
        value = float(text) * factor
    except ValueError:
        raise DesignFileError(f"non-numeric value {raw.strip()!r}", line_no, key) from None
    # nan, inf, and values that overflow on parsing or unit conversion
    if not math.isfinite(value):
        raise DesignFileError(f"non-finite value {raw.strip()!r}", line_no, key)
    return value


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SECTIONS:
                raise DesignFileError(f"unknown section [{name}]", line_no)
            if name in sections:
                raise DesignFileError(f"duplicate section [{name}]", line_no)
            current = sections[name] = {}
            continue
        if "=" not in line:
            raise DesignFileError("expected 'key = value'", line_no)
        if current is None:
            raise DesignFileError("key outside any section", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SECTIONS[name]._fields:
            raise DesignFileError(f"unknown key in [{name}]", line_no, key)
        if key in current:
            raise DesignFileError("duplicate key", line_no, key)
        current[key] = (value, line_no)
    for name, cls in SECTIONS.items():
        if name not in sections:
            raise DesignFileError(f"missing section [{name}]")
        for key in cls._fields:
            if key not in sections[name]:
                raise DesignFileError(f"missing key in [{name}]", key=key)
    return sections


@functools.lru_cache
def parse_design(text: str) -> tuple[ToolDimensions, SpringSpec, ContactModel, GraspState]:
    """Parse design text into the four validated value objects.

    Memoized on the exact text: a repeated text returns the same tuple of
    frozen values. Errors are not cached. A fresh process gains nothing.
    """
    sections = _parse_sections(text)
    values = [{key: _parse_value(key, sections[name][key]) for key in cls._fields}
              for name, cls in SECTIONS.items()]
    built = []
    for (name, cls), kwargs in zip(SECTIONS.items(), values):
        try:
            built.append(cls(**kwargs))
        except ValueError as exc:
            raise DesignFileError(f"invariant violated in [{name}]: {exc}") from None
    return tuple(built)

