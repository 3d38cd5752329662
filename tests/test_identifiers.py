"""Tests for typed identifier helpers."""

import pytest

from repro.errors import ValidationError
from repro.model import identifiers as ids


class TestFactories:
    def test_safety_goal_id_pads_to_two_digits(self):
        assert ids.safety_goal_id(1) == "SG01"
        assert ids.safety_goal_id(42) == "SG42"

    def test_safety_goal_id_grows_beyond_two_digits(self):
        assert ids.safety_goal_id(123) == "SG123"

    def test_attack_id(self):
        assert ids.attack_id(20) == "AD20"
        assert ids.attack_id(8) == "AD08"

    def test_function_id(self):
        assert ids.function_id(1) == "Rat01"

    def test_threat_scenario_id(self):
        assert ids.threat_scenario_id(3, 1, 4) == "3.1.4"
        assert ids.threat_scenario_id(2, 1) == "2.1"

    def test_rejects_non_positive_numbers(self):
        with pytest.raises(ValidationError):
            ids.safety_goal_id(0)
        with pytest.raises(ValidationError):
            ids.attack_id(-1)
        with pytest.raises(ValidationError):
            ids.function_id(0)

    def test_threat_scenario_needs_two_parts(self):
        with pytest.raises(ValidationError):
            ids.threat_scenario_id(3)


class TestPredicates:
    @pytest.mark.parametrize("value", ["SG01", "SG99", "SG100"])
    def test_valid_safety_goal_ids(self, value):
        assert ids.is_safety_goal_id(value)

    @pytest.mark.parametrize("value", ["SG1", "sg01", "AD01", "", "SG"])
    def test_invalid_safety_goal_ids(self, value):
        assert not ids.is_safety_goal_id(value)

    @pytest.mark.parametrize("value", ["2.1.4", "3.1.4", "10.2"])
    def test_valid_threat_ids(self, value):
        assert ids.is_threat_scenario_id(value)

    @pytest.mark.parametrize("value", ["2", "2.", ".1", "a.b", ""])
    def test_invalid_threat_ids(self, value):
        assert not ids.is_threat_scenario_id(value)

    def test_function_id_shape(self):
        assert ids.is_function_id("Rat01")
        assert not ids.is_function_id("RAT01")
        assert not ids.is_function_id("Rat1")


class TestRequire:
    def test_require_returns_value(self):
        assert ids.require_attack_id("AD20") == "AD20"
        assert ids.require_safety_goal_id("SG05") == "SG05"
        assert ids.require_threat_scenario_id("2.1.4") == "2.1.4"
        assert ids.require_function_id("Rat02") == "Rat02"

    def test_require_raises_with_offending_value(self):
        with pytest.raises(ValidationError, match="AD-x"):
            ids.require_attack_id("AD-x")
        with pytest.raises(ValidationError):
            ids.require_safety_goal_id("goal1")
        with pytest.raises(ValidationError):
            ids.require_threat_scenario_id("x.y")
        with pytest.raises(ValidationError):
            ids.require_function_id("F01")


class TestNextId:
    def test_next_id_from_empty(self):
        assert ids.next_id(set(), "AD") == "AD01"

    def test_next_id_moves_past_maximum(self):
        assert ids.next_id({"AD01", "AD03"}, "AD") == "AD04"

    def test_next_id_ignores_other_kinds(self):
        assert ids.next_id({"SG05", "AD02"}, "AD") == "AD03"

    def test_next_id_unknown_kind(self):
        with pytest.raises(ValidationError):
            ids.next_id(set(), "XX")
