import math

import pytest
from hypothesis import given, settings

from grippertool import (
    DesignFileError,
    GripConfig,
    parse_design,
    serialize_design,
)

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


class TestMutatedFiles:
    @settings(max_examples=400)
    @given(mutated_designs())
    def test_only_design_file_error_escapes(self, text):
        try:
            parsed = parse_design(text)
        except DesignFileError:
            return
        assert len(parsed) == 4


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        first = parse_design(sample_text())
        text = serialize_design(*first)
        second = parse_design(text)
        assert first == second

    def test_round_trip_is_stable(self):
        once = serialize_design(*parse_design(sample_text()))
        twice = serialize_design(*parse_design(once))
        assert once == twice
