"""Tests for the STRIDE mapping (Table IV) and the keyword classifier."""

import pytest

from repro.errors import CatalogError
from repro.model.threat import StrideType
from repro.stride import classify, suggest_stride
from repro.stride.mapping import (
    STRIDE_ATTACK_TABLE,
    all_attack_types,
    attack_types_for,
    resolve_attack_type,
    stride_types_for,
    validate_pair,
)
from repro.threatlib.catalog import table3_rows


class TestTableIv:
    """Table IV of the paper, row by row."""

    @pytest.mark.parametrize(
        "stride, expected",
        [
            (StrideType.SPOOFING, ("Fake messages", "Spoofing")),
            (
                StrideType.TAMPERING,
                (
                    "Corrupt data or code", "Deliver malware", "Alter",
                    "Inject", "Corrupt messages", "Manipulate",
                    "Config. change",
                ),
            ),
            (
                StrideType.REPUDIATION,
                ("Replay", "Repudiation of message transmission", "Delay"),
            ),
            (
                StrideType.INFORMATION_DISCLOSURE,
                (
                    "Listen", "Intercept", "Eavesdropping",
                    "Illegal acquisition", "Covert channel", "Config. change",
                ),
            ),
            (
                StrideType.DENIAL_OF_SERVICE,
                ("Disable", "Denial of service", "Jamming"),
            ),
            (
                StrideType.ELEVATION_OF_PRIVILEGE,
                ("Illegal acquisition", "Gain elevated access"),
            ),
        ],
    )
    def test_rows_verbatim(self, stride, expected):
        assert STRIDE_ATTACK_TABLE[stride] == expected

    def test_attack_types_for_builds_pairs(self):
        pairs = attack_types_for(StrideType.DENIAL_OF_SERVICE)
        assert all(p.stride is StrideType.DENIAL_OF_SERVICE for p in pairs)
        assert [p.name for p in pairs] == [
            "Disable", "Denial of service", "Jamming",
        ]

    def test_all_attack_types_counts(self):
        # 2 + 7 + 3 + 6 + 3 + 2 = 23 (name, stride) pairs
        assert len(all_attack_types()) == 23


class TestReverseLookup:
    def test_unique_name(self):
        assert stride_types_for("Disable") == (StrideType.DENIAL_OF_SERVICE,)

    def test_shared_names(self):
        assert set(stride_types_for("Config. change")) == {
            StrideType.TAMPERING, StrideType.INFORMATION_DISCLOSURE,
        }
        assert set(stride_types_for("Illegal acquisition")) == {
            StrideType.INFORMATION_DISCLOSURE,
            StrideType.ELEVATION_OF_PRIVILEGE,
        }

    def test_case_insensitive(self):
        assert stride_types_for("jamming") == (StrideType.DENIAL_OF_SERVICE,)

    def test_unknown_name(self):
        with pytest.raises(CatalogError):
            stride_types_for("Teleportation")


class TestResolve:
    def test_unambiguous_name_resolves_alone(self):
        attack_type = resolve_attack_type("Replay")
        assert attack_type.stride is StrideType.REPUDIATION

    def test_canonical_spelling_restored(self):
        assert resolve_attack_type("replay").name == "Replay"

    def test_ambiguous_name_needs_hint(self):
        with pytest.raises(CatalogError, match="ambiguous"):
            resolve_attack_type("Illegal acquisition")

    def test_ambiguous_name_with_hint(self):
        attack_type = resolve_attack_type(
            "Illegal acquisition", StrideType.ELEVATION_OF_PRIVILEGE
        )
        assert attack_type.stride is StrideType.ELEVATION_OF_PRIVILEGE

    def test_wrong_hint_rejected(self):
        with pytest.raises(CatalogError):
            resolve_attack_type("Disable", StrideType.SPOOFING)

    def test_validate_pair(self):
        from repro.model.threat import AttackType

        validate_pair(AttackType("Disable", StrideType.DENIAL_OF_SERVICE))
        with pytest.raises(CatalogError):
            validate_pair(AttackType("Disable", StrideType.SPOOFING))


class TestClassifier:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Spoofing of messages by impersonation", StrideType.SPOOFING),
            (
                "External interfaces such as USB may be used as a point of "
                "attack, for example through code injection",
                StrideType.ELEVATION_OF_PRIVILEGE,
            ),
            (
                "Manipulation of functions to operate systems remotely",
                StrideType.TAMPERING,
            ),
            (
                "An attacker alters the functioning of the gateway so that "
                "it crashes, halts, stops or runs slowly, in order to "
                "disrupt the service",
                StrideType.DENIAL_OF_SERVICE,
            ),
            ("Replaying of the opening command", StrideType.REPUDIATION),
            (
                "Eavesdropping the communication to create profiles",
                StrideType.INFORMATION_DISCLOSURE,
            ),
        ]
        # Table III's statements, verbatim.
        + [(text, StrideType(stride)) for text, stride in table3_rows()],
    )
    def test_paper_threat_statements(self, text, expected):
        assert suggest_stride(text) is expected

    def test_no_evidence_returns_none(self):
        assert suggest_stride("The sky is blue today") is None

    def test_classification_is_explainable(self):
        result = classify("Spoofing of messages by impersonation")
        fired = {phrase for phrase, __, __ in result.matched}
        assert "spoof" in fired
        assert "impersonat" in fired

    def test_ranked_orders_by_score(self):
        result = classify(
            "code injection to tamper and then disable the service"
        )
        ranked = result.ranked()
        assert ranked[0] in (StrideType.TAMPERING, StrideType.DENIAL_OF_SERVICE)
        assert result.scores[ranked[0]] >= result.scores[ranked[-1]]

    def test_suggestions_filter_weak_evidence(self):
        # A lone weak cue ("crash", weight 3) passes min_score=3 but is
        # filtered by a stricter threshold.
        result = classify("crash")
        assert result.suggestions(min_score=3) == (
            StrideType.DENIAL_OF_SERVICE,
        )
        assert result.suggestions(min_score=4) == ()

    def test_word_boundary_matching(self):
        # "chalter" must not fire the "alter" evidence.
        assert classify("chalter").scores == {}
