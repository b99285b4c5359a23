import math

import pytest
from hypothesis import given, settings

from grippertool import DesignFileError, GripConfig, parse_design

from design_mutations import mutated_designs, sample_text

class TestParse:
    def test_sample_file_parses(self):
        dims, spring, model, state = parse_design(sample_text())
        assert dims.m == 0.012
        assert dims.theta_init == pytest.approx(math.radians(60))
        assert spring.beta == pytest.approx(math.radians(20))
        assert model.mu == 0.5
        assert state.config is GripConfig.BACKWARD_BASE

    def test_degree_suffix_exact_conversion(self):
        dims, _, _, _ = parse_design(sample_text())
        assert dims.theta_init == 60.0 * math.pi / 180.0

    def test_kg_suffix_on_weight(self):
        text = sample_text().replace("g_tool = 10", "g_tool = 2kg")
        _, _, _, state = parse_design(text)
        assert state.g_tool == pytest.approx(2.0 * 9.80665)

    def test_unknown_key_rejected(self):
        text = sample_text().replace("mu = 0.5", "mu = 0.5\nbogus = 1")
        with pytest.raises(DesignFileError, match="bogus"):
            parse_design(text)

    def test_missing_key_rejected(self):
        text = sample_text().replace("kappa = 0.5\n", "")
        with pytest.raises(DesignFileError, match="kappa"):
            parse_design(text)

    def test_non_numeric_value_names_line_and_key(self):
        text = sample_text().replace("mu = 0.5", "mu = fast")
        with pytest.raises(DesignFileError) as exc_info:
            parse_design(text)
        assert exc_info.value.key == "mu"
        assert exc_info.value.line_no is not None
        assert "line" in str(exc_info.value)

    def test_width_tie_mismatch_names_both_values(self):
        text = sample_text().replace("w_init = 0.063961524", "w_init = 0.07")
        with pytest.raises(DesignFileError, match="0.07.*0.0639|0.0639.*0.07"):
            parse_design(text)

    def test_negative_stiffness_cites_invariant(self):
        text = sample_text().replace("kappa = 0.5", "kappa = -0.5")
        with pytest.raises(DesignFileError, match="kappa"):
            parse_design(text)

    @pytest.mark.parametrize("line, key, value", [
        ("mu = 0.5", "mu", "nan"),
        ("f_n = 40", "f_n", "inf"),
        ("kappa = 0.5", "kappa", "-inf"),
        ("m = 0.012", "m", "1e400"),
        ("alpha = 67deg", "alpha", "nandeg"),
        ("g_tool = 10", "g_tool", "1e308kg"),
    ])
    def test_non_finite_value_names_line_and_key(self, line, key, value):
        lines = sample_text().splitlines()
        line_no = lines.index(line) + 1
        text = sample_text().replace(line, f"{key} = {value}")
        with pytest.raises(DesignFileError, match="non-finite") as exc_info:
            parse_design(text)
        assert (exc_info.value.line_no, exc_info.value.key) == (line_no, key)

    def test_bad_config_value(self):
        text = sample_text().replace("config = backward_base", "config = sideways")
        with pytest.raises(DesignFileError, match="config"):
            parse_design(text)

    def test_deg_suffix_restricted_to_angles(self):
        text = sample_text().replace("mu = 0.5", "mu = 0.5deg")
        with pytest.raises(DesignFileError, match="deg"):
            parse_design(text)

    def test_duplicate_key_rejected(self):
        text = sample_text().replace("mu = 0.5", "mu = 0.5\nmu = 0.6")
        with pytest.raises(DesignFileError, match="duplicate"):
            parse_design(text)

    def test_missing_section_rejected(self):
        text = sample_text().replace("[contact]", "[grasp]")
        with pytest.raises(DesignFileError):
            parse_design(text)


def line_of(text, line):
    return text.splitlines().index(line) + 1


def reported(text):
    """(line_no, key, message) of the DesignFileError text raises."""
    with pytest.raises(DesignFileError) as exc_info:
        parse_design(text)
    return exc_info.value.line_no, exc_info.value.key, str(exc_info.value)


class TestErrorPrecedence:
    """Layout faults, in line order, come before missing sections and
    keys; those come before value faults, in section then field order;
    invariant faults come last."""

    def test_layout_fault_beats_earlier_value_fault(self):
        text = (sample_text().replace("m = 0.012", "m = fast")
                .replace("theta = 30deg", "theta = 30deg\nbogus = 1"))
        line_no, key, message = reported(text)
        assert (line_no, key) == (line_of(text, "bogus = 1"), "bogus")
        assert "unknown key in [grasp]" in message

    def test_layout_faults_reported_in_line_order(self):
        text = (sample_text().replace("m = 0.012", "m = 0.012\nm = 0.013")
                .replace("mu = 0.5", "mu = 0.5\nbogus = 1"))
        line_no, key, message = reported(text)
        assert (line_no, key) == (line_of(text, "m = 0.013"), "m")
        assert "duplicate key" in message

    def test_missing_key_beats_value_fault(self):
        text = (sample_text().replace("m = 0.012", "m = fast")
                .replace("config = backward_base", ""))
        assert reported(text) == (
            None, "config", "key 'config': missing key in [grasp]")

    def test_missing_section_beats_value_fault(self):
        text = (sample_text().replace("m = 0.012", "m = fast")
                .replace("[spring]\nkappa = 0.5\nbeta = 20deg\n", ""))
        assert reported(text) == (None, None, "missing section [spring]")

    def test_value_fault_beats_earlier_invariant_fault(self):
        text = (sample_text().replace("w_init = 0.063961524", "w_init = 0.07")
                .replace("f_n = 40", "f_n = strong"))
        line_no, key, message = reported(text)
        assert (line_no, key) == (line_of(text, "f_n = strong"), "f_n")
        assert "non-numeric value 'strong'" in message

    def test_value_faults_in_one_section_reported_in_field_order(self):
        # r's line comes first in the file, but m is the first field
        text = (sample_text().replace("m = 0.012\nr = 0.03", "r = slow\nm = fast"))
        line_no, key, _ = reported(text)
        assert (line_no, key) == (line_of(text, "m = fast"), "m")

    def test_value_faults_reported_in_section_order(self):
        # [grasp] moved ahead of [tool]: the [tool] fault is still first
        text = sample_text()
        head, grasp = text.split("[grasp]")
        text = ("[grasp]" + grasp.replace("f_n = 40", "f_n = strong") + "\n"
                + head.replace("m = 0.012", "m = fast"))
        line_no, key, _ = reported(text)
        assert (line_no, key) == (line_of(text, "m = fast"), "m")

    def test_bad_config_reported_after_earlier_fields_of_its_section(self):
        text = (sample_text().replace("config = backward_base", "config = sideways")
                .replace("theta = 30deg", "theta = 30kg"))
        line_no, key, _ = reported(text)
        assert (line_no, key) == (line_of(text, "theta = 30kg"), "theta")

    def test_invariant_faults_reported_in_section_order(self):
        text = (sample_text().replace("kappa = 0.5", "kappa = -0.5")
                .replace("mu = 0.5", "mu = -0.5"))
        line_no, key, message = reported(text)
        assert (line_no, key) == (None, None)
        assert message.startswith("invariant violated in [spring]: ")


class TestMutatedFiles:
    @settings(max_examples=400)
    @given(mutated_designs())
    def test_only_design_file_error_escapes(self, text):
        try:
            parsed = parse_design(text)
        except DesignFileError:
            return
        assert len(parsed) == 4


class TestMemo:
    """parse_design is memoized on the exact text; errors are not cached."""

    def test_same_text_returns_same_tuple(self):
        assert parse_design(sample_text()) is parse_design(sample_text())

    def test_one_changed_value_parses_anew(self):
        first = parse_design(sample_text())
        changed = parse_design(sample_text().replace("mu = 0.5", "mu = 0.6"))
        assert changed[2].mu == 0.6
        assert changed[:2] == first[:2] and changed[3] == first[3]
        assert parse_design(sample_text())[2].mu == 0.5

    def test_failing_text_raises_equal_error_every_call(self):
        text = sample_text().replace("mu = 0.5", "mu = fast")
        parse_design.cache_clear()
        raised = []
        for _ in range(3):
            with pytest.raises(DesignFileError) as exc_info:
                parse_design(text)
            raised.append(exc_info.value)
        assert len({id(exc) for exc in raised}) == 3   # raised anew, not stored
        assert {(str(exc), exc.line_no, exc.key) for exc in raised} == {
            (str(raised[0]), line_of(text, "mu = fast"), "mu")}
        assert parse_design.cache_info().currsize == 0

    def test_cache_is_bounded(self):
        assert parse_design.cache_info().maxsize is not None
