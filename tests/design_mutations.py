"""Hypothesis strategy for damaged copies of designs/example_tool.ini,
shared by the parser property and the CLI property."""

from pathlib import Path

from hypothesis import strategies as st

SAMPLE = Path(__file__).resolve().parent.parent / "designs" / "example_tool.ini"


def sample_text():
    return SAMPLE.read_text(encoding="utf-8")


# values near where a square, a product or a quotient of design values
# leaves the float range
THRESHOLDS = ["5e152", "1e154", "1e200", "1e307", "1e308", "1e-200", "1e-320"]
BAD_VALUES = ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "nandeg",
              "infkg", "1e308kg", "1e-400", "0", "-0", "", "deg", "kg",
              "0x10", "1_000", "1e", "--1", "1deg2", "\u0661\u0662", "1e160",
              *THRESHOLDS]
UNITS = ["deg", "kg", "m", "N", "rad", "%", " deg", "degdeg", "kgdeg", "degkg"]
GARBLE = st.text(alphabet=st.sampled_from(list("=[]#.-+e019 \tdegkgnaif")) | st.characters(),
                 max_size=6)


@st.composite
def mutated_designs(draw):
    """designs/example_tool.ini with one to four lines deleted, duplicated
    or garbled, or values given a bad unit or a non-finite number."""
    lines = sample_text().splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "garble", "unit", "value"]))
        key, eq, value = lines[i].partition("=")
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "garble":
            start = draw(st.integers(0, len(lines[i])))
            stop = draw(st.integers(start, len(lines[i])))
            lines[i] = lines[i][:start] + draw(GARBLE) + lines[i][stop:]
        elif eq and kind == "unit":
            lines[i] = f"{key}= {value.strip()}{draw(st.sampled_from(UNITS))}"
        elif eq:
            lines[i] = f"{key}= {draw(st.sampled_from(BAD_VALUES))}"
    return "\n".join(lines)
