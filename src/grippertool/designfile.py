"""Design file parsing and serialization.

INI-style text with exactly four sections, '#' comments, key = value
pairs. Canonical units are meters, newtons, radians and N*m/rad. Angle
keys accept a 'deg' suffix (converted via pi/180) and weight keys accept
'kg' (converted with standard gravity). Unknown or missing keys are
errors, and so is a number that is nan or infinite, or that overflows
when parsed or converted; every parse error names the offending line and
key.
"""

import math

from .contact import ContactModel, GraspState, GripConfig
from .errors import DesignFileError
from .mechanism import SpringSpec, ToolDimensions

STANDARD_GRAVITY = 9.80665  # m/s^2, for 'kg' mass inputs

TOOL_KEYS = ("m", "r", "theta_init", "theta_end", "h", "p", "q", "k",
             "d_axis", "r_edge", "v", "w_init")
SPRING_KEYS = ("kappa", "beta")
CONTACT_KEYS = ("mu", "e")
GRASP_KEYS = ("f_n", "g_tool", "alpha", "gamma", "d", "d_com", "theta", "config")

SECTIONS = {
    "tool": TOOL_KEYS,
    "spring": SPRING_KEYS,
    "contact": CONTACT_KEYS,
    "grasp": GRASP_KEYS,
}

ANGLE_KEYS = {"theta_init", "theta_end", "alpha", "gamma", "theta", "beta"}
WEIGHT_KEYS = {"g_tool"}


def _parse_number(raw: str, key: str, line_no: int) -> float:
    text = raw.strip()
    factor = 1.0
    if text.endswith("deg"):
        if key not in ANGLE_KEYS:
            raise DesignFileError("'deg' suffix only valid on angle keys",
                                  line_no, key)
        text = text[:-3].strip()
        factor = math.pi / 180.0
    elif text.endswith("kg"):
        if key not in WEIGHT_KEYS:
            raise DesignFileError("'kg' suffix only valid on weight keys",
                                  line_no, key)
        text = text[:-2].strip()
        factor = STANDARD_GRAVITY
    try:
        value = float(text) * factor
    except ValueError:
        raise DesignFileError(f"non-numeric value {raw.strip()!r}",
                              line_no, key) from None
    # nan, inf, and values that overflow on parsing or unit conversion
    if not math.isfinite(value):
        raise DesignFileError(f"non-finite value {raw.strip()!r}",
                              line_no, key)
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
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise DesignFileError("expected 'key = value'", line_no)
        if current is None:
            raise DesignFileError("key outside any section", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SECTIONS[current]:
            raise DesignFileError(f"unknown key in [{current}]", line_no, key)
        if key in sections[current]:
            raise DesignFileError("duplicate key", line_no, key)
        sections[current][key] = (value, line_no)
    for name, keys in SECTIONS.items():
        if name not in sections:
            raise DesignFileError(f"missing section [{name}]")
        for key in keys:
            if key not in sections[name]:
                raise DesignFileError(f"missing key in [{name}]", key=key)
    return sections


def parse_design(text: str) -> tuple[ToolDimensions, SpringSpec, ContactModel, GraspState]:
    """Parse design text into the four validated value objects."""
    sections = _parse_sections(text)

    tool_vals = {k: _parse_number(sections["tool"][k][0], k, sections["tool"][k][1])
                 for k in TOOL_KEYS}
    spring_vals = {k: _parse_number(sections["spring"][k][0], k, sections["spring"][k][1])
                   for k in SPRING_KEYS}
    contact_vals = {k: _parse_number(sections["contact"][k][0], k, sections["contact"][k][1])
                    for k in CONTACT_KEYS}
    grasp_vals = {}
    for k in GRASP_KEYS:
        raw, line_no = sections["grasp"][k]
        if k == "config":
            try:
                grasp_vals[k] = GripConfig(raw.strip())
            except ValueError:
                choices = ", ".join(c.value for c in GripConfig)
                raise DesignFileError(
                    f"config must be one of: {choices}", line_no, k
                ) from None
        else:
            grasp_vals[k] = _parse_number(raw, k, line_no)

    def build(factory, values, section):
        try:
            return factory(**values)
        except ValueError as exc:
            raise DesignFileError(f"invariant violated in [{section}]: {exc}") from None

    dims = build(ToolDimensions, tool_vals, "tool")
    spring = build(SpringSpec, spring_vals, "spring")
    model = build(ContactModel, contact_vals, "contact")
    state = build(GraspState, grasp_vals, "grasp")
    return dims, spring, model, state


def serialize_design(dims: ToolDimensions, spring: SpringSpec,
                     model: ContactModel, state: GraspState) -> str:
    """Canonical design text (radians, newtons); parse-stable round trip."""
    lines = []
    lines.append("[tool]")
    for key in TOOL_KEYS:
        lines.append(f"{key} = {getattr(dims, key)!r}")
    lines.append("")
    lines.append("[spring]")
    for key in SPRING_KEYS:
        lines.append(f"{key} = {getattr(spring, key)!r}")
    lines.append("")
    lines.append("[contact]")
    for key in CONTACT_KEYS:
        lines.append(f"{key} = {getattr(model, key)!r}")
    lines.append("")
    lines.append("[grasp]")
    for key in GRASP_KEYS:
        value = getattr(state, key)
        if key == "config":
            lines.append(f"{key} = {value.value}")
        else:
            lines.append(f"{key} = {value!r}")
    lines.append("")
    return "\n".join(lines)
