"""Tests for the threat library: container, builder, catalog, persistence."""

import pytest

from repro.errors import CatalogError, ValidationError
from repro.model.asset import Asset, AssetGroup, AssetRelevance
from repro.model.scenario import Scenario
from repro.model.threat import AttackType, StrideType, ThreatScenario
from repro.stride.mapping import stride_types_for
from repro.threatlib.builder import ThreatLibraryBuilder
from repro.threatlib.catalog import (
    SCENARIO_KEEP_CAR_SECURE,
    TS_GATEWAY_DOS,
    TS_V2X_SPOOFING,
    build_catalog,
    table1_rows,
    table2_rows,
    table3_rows,
    table5_rows,
)
from repro.threatlib.library import ThreatLibrary
from repro.threatlib.persistence import (
    library_from_dict,
    library_to_dict,
    load_library,
    save_library,
)


def small_library():
    library = ThreatLibrary(name="small")
    library.add_scenario(Scenario(name="S1"))
    library.add_asset(Asset.of("Gateway", AssetGroup.HARDWARE))
    library.add_threat(
        ThreatScenario(
            identifier="1.1.1",
            text="DoS on the gateway",
            scenario="S1",
            asset="Gateway",
            stride=(StrideType.DENIAL_OF_SERVICE,),
        )
    )
    return library


class TestLibrary:
    def test_referential_integrity_scenario(self):
        library = ThreatLibrary()
        library.add_asset(Asset.of("A", AssetGroup.HARDWARE))
        with pytest.raises(ValidationError, match="unknown scenario"):
            library.add_threat(
                ThreatScenario(
                    identifier="1.1.1", text="x", scenario="missing",
                    asset="A", stride=(StrideType.SPOOFING,),
                )
            )

    def test_referential_integrity_asset(self):
        library = ThreatLibrary()
        library.add_scenario(Scenario(name="S1"))
        with pytest.raises(ValidationError, match="unknown asset"):
            library.add_threat(
                ThreatScenario(
                    identifier="1.1.1", text="x", scenario="S1",
                    asset="missing", stride=(StrideType.SPOOFING,),
                )
            )

    def test_duplicate_threat_id(self):
        library = small_library()
        with pytest.raises(ValidationError, match="exists"):
            library.add_threat(library.threat("1.1.1"))

    def test_queries(self):
        library = small_library()
        assert len(library.threats_for_scenario("S1")) == 1
        assert len(library.threats_for_asset("Gateway")) == 1
        assert len(library.threats_of_type(StrideType.DENIAL_OF_SERVICE)) == 1
        assert library.threats_of_type(StrideType.SPOOFING) == ()

    def test_unknown_lookups_raise_catalog_error(self):
        library = small_library()
        with pytest.raises(CatalogError):
            library.threat("9.9.9")
        with pytest.raises(CatalogError):
            library.asset("nothing")
        with pytest.raises(CatalogError):
            library.scenario("nothing")

    def test_attack_types_for_threat_follow_table4(self):
        library = small_library()
        names = [
            at.name for at in library.attack_types_for_threat("1.1.1")
        ]
        assert names == ["Disable", "Denial of service", "Jamming"]

    def test_threats_for_attack_type(self):
        library = small_library()
        attack_type = AttackType("Jamming", StrideType.DENIAL_OF_SERVICE)
        assert len(library.threats_for_attack_type(attack_type)) == 1

    def test_scoping_drops_threats_of_dropped_assets(self):
        library = small_library()
        scoped = library.scoped({AssetRelevance.GENERIC_CURRENT_VEHICLE})
        assert len(scoped.assets) == 0
        assert len(scoped.threats) == 0
        full_copy = library.scoped(None)
        assert len(full_copy.threats) == 1

    def test_assets_by_priority(self):
        library = ThreatLibrary()
        library.add_asset(
            Asset.of("low", AssetGroup.PERSON,
                     relevance=AssetRelevance.USE_CASE)
        )
        library.add_asset(
            Asset.of("high", AssetGroup.HARDWARE,
                     relevance=AssetRelevance.GENERIC_CURRENT_VEHICLE)
        )
        assert [a.name for a in library.assets_by_priority()] == [
            "high", "low",
        ]


class TestBuilder:
    def test_dotted_identifier_scheme(self):
        builder = ThreatLibraryBuilder("b")
        builder.identify_scenario(Scenario(name="S1"))
        builder.identify_scenario(Scenario(name="S2"))
        a1 = Asset.of("A1", AssetGroup.HARDWARE)
        builder.identify_asset("S2", a1)
        first = builder.identify_threat(
            "S2", "A1", "spoofing by impersonation",
            stride=(StrideType.SPOOFING,),
        )
        second = builder.identify_threat(
            "S2", "A1", "another threat", stride=(StrideType.TAMPERING,),
        )
        assert first.identifier == "2.1.1"
        assert second.identifier == "2.1.2"

    def test_classifier_fills_missing_stride(self):
        builder = ThreatLibraryBuilder("b")
        builder.identify_scenario(Scenario(name="S1"))
        builder.identify_asset("S1", Asset.of("A", AssetGroup.HARDWARE))
        threat = builder.identify_threat(
            "S1", "A", "Spoofing of messages by impersonation"
        )
        assert threat.stride == (StrideType.SPOOFING,)

    def test_inconclusive_classification_demands_explicit_stride(self):
        builder = ThreatLibraryBuilder("b")
        builder.identify_scenario(Scenario(name="S1"))
        builder.identify_asset("S1", Asset.of("A", AssetGroup.HARDWARE))
        with pytest.raises(ValidationError, match="Step 1.3"):
            builder.identify_threat("S1", "A", "something vague happens")

    def test_generic_asset_shared_across_scenarios(self):
        builder = ThreatLibraryBuilder("b")
        builder.identify_scenario(Scenario(name="S1"))
        builder.identify_scenario(Scenario(name="S2"))
        gateway = Asset.of("Gateway", AssetGroup.HARDWARE)
        builder.identify_asset("S1", gateway)
        builder.identify_asset("S2", gateway)
        t1 = builder.identify_threat(
            "S1", "Gateway", "flooding attack", stride=(StrideType.DENIAL_OF_SERVICE,)
        )
        t2 = builder.identify_threat(
            "S2", "Gateway", "spoofing by impersonation",
            stride=(StrideType.SPOOFING,),
        )
        assert t1.identifier == "1.1.1"
        assert t2.identifier == "2.1.1"

    def test_conflicting_asset_definition_rejected(self):
        builder = ThreatLibraryBuilder("b")
        builder.identify_scenario(Scenario(name="S1"))
        builder.identify_scenario(Scenario(name="S2"))
        builder.identify_asset("S1", Asset.of("X", AssetGroup.HARDWARE))
        with pytest.raises(ValidationError, match="different definition"):
            builder.identify_asset("S2", Asset.of("X", AssetGroup.SOFTWARE))

    def test_empty_build_rejected(self):
        builder = ThreatLibraryBuilder("b")
        builder.identify_scenario(Scenario(name="S1"))
        with pytest.raises(ValidationError, match="no threat scenarios"):
            builder.build()

    def test_asset_before_scenario_rejected(self):
        builder = ThreatLibraryBuilder("b")
        with pytest.raises(ValidationError):
            builder.identify_asset("S1", Asset.of("A", AssetGroup.HARDWARE))


class TestCatalog:
    def test_paper_threat_links_resolve(self):
        library = build_catalog()
        gateway_dos = library.threat(TS_GATEWAY_DOS)
        assert "crashes, halts, stops or runs slowly" in gateway_dos.text
        assert gateway_dos.primary_stride is StrideType.DENIAL_OF_SERVICE
        v2x_spoof = library.threat(TS_V2X_SPOOFING)
        assert "802.11p" in v2x_spoof.text
        assert v2x_spoof.primary_stride is StrideType.SPOOFING

    def test_asset_scoping_reduces_the_catalog(self):
        library = build_catalog()
        full = library.stats()
        scoped = library.scoped(
            {AssetRelevance.GENERIC_CURRENT_VEHICLE}
        ).stats()
        assert scoped["assets"] < full["assets"]
        assert scoped["threat_scenarios"] < full["threat_scenarios"]

    def test_three_scenarios(self):
        library = build_catalog()
        assert {scenario.name for scenario in library.scenarios} == {
            "Road intersection",
            "Keep car secure for the whole vehicle lifetime",
            "Advanced access to vehicle",
        }
        assert library.stats()["sub_scenarios"] == 5

    def test_table1_has_five_sub_scenarios(self):
        rows = table1_rows()
        assert len(rows) == 5
        expected = (
            ("Road", "hijacked automated vehicle"),
            ("Road", "road-side system providing information"),
            ("Road", "Emergency vehicle approaches"),
            ("Keep", "Vehicle updates are changes made"),
            ("Advanced", "orders a car in the target destination"),
        )
        for (first_word, excerpt), (scenario, description) in zip(
            expected, rows
        ):
            assert scenario.startswith(first_word)
            assert excerpt.lower() in description.lower()

    def test_table2_matches_paper(self):
        assert table2_rows() == (
            ("Gateway", "Hardware"),
            ("Driver and Maintenance personal", "Person"),
            ("ECU", "Hardware/ Software"),
            ("V2X communications", "Hardware/ Information"),
        )

    def test_table2_assets_registered_in_catalog(self):
        library = build_catalog()
        names = [name for name, __ in table2_rows()]
        assert [library.asset(name).name for name in names] == names

    def test_table3_stride_mappings(self):
        assert table3_rows() == (
            ("Spoofing of messages by impersonation", "Spoofing"),
            (
                "External interfaces (such as USB) may be used as a point "
                "of attack, for example through code injection",
                "Elevation of privilege",
            ),
            (
                "Manipulation of functions to operate systems remotely, "
                "such as remote key, immobiliser, and charging pile",
                "Tampering",
            ),
        )

    def test_table5_has_four_rows_with_examples(self):
        rows = table5_rows()
        assert len(rows) == 4
        assert all(len(row) == 5 for row in rows)
        assert any("USB memories infected" in row[4] for row in rows)
        assert rows[0][0] == "Gateway"
        assert [row[3] for row in rows][:2] == ["Gain elevated access", "Inject"]
        assert rows[3][3] == "Fake messages"

    @pytest.mark.parametrize("row", table5_rows(), ids=lambda row: row[3])
    def test_table5_rows_consistent_with_catalog(self, row):
        asset, __, stride_label, attack_type, __ = row
        # The attack type manifests the row's STRIDE type (Table IV) ...
        assert stride_label in {s.value for s in stride_types_for(attack_type)}
        # ... and the asset has a threat of that type in the scenario.
        assert any(
            threat.scenario == SCENARIO_KEEP_CAR_SECURE
            and stride_label in {s.value for s in threat.stride}
            for threat in build_catalog().threats_for_asset(asset)
        )

    def test_catalog_threats_all_classifier_consistent(self):
        # The keyword classifier should agree with at least half of the
        # hand-mapped catalog (sanity: mappings aren't arbitrary).
        from repro.stride import classify

        library = build_catalog()
        agreements = 0
        for threat in library.threats:
            best = classify(threat.text).best
            if best is not None and threat.describes(best):
                agreements += 1
        assert agreements >= len(library.threats) // 2


class TestLibraryScaling:
    def test_type_queries_cover_a_large_library(self):
        library = ThreatLibrary(name="x50")
        library.add_scenario(Scenario(name="S"))
        strides = list(StrideType)
        for index in range(50):
            asset = Asset.of(f"asset-{index}", AssetGroup.HARDWARE)
            library.add_asset(asset)
            for threat_index in range(5):
                library.add_threat(
                    ThreatScenario(
                        identifier=f"1.{index + 1}.{threat_index + 1}",
                        text=f"threat {threat_index} against asset {index}",
                        scenario="S",
                        asset=asset.name,
                        stride=(strides[(index + threat_index) % 6],),
                    )
                )
        assert sum(
            len(library.threats_of_type(stride)) for stride in StrideType
        ) == 250


class TestPersistence:
    def test_dict_round_trip(self):
        library = build_catalog()
        restored = library_from_dict(library_to_dict(library))
        assert restored.stats() == library.stats()
        assert restored.threat("2.1.4").text == library.threat("2.1.4").text

    def test_file_round_trip(self, tmp_path):
        library = small_library()
        path = tmp_path / "library.json"
        save_library(library, path)
        restored = load_library(path)
        assert restored.stats() == library.stats()

    def test_invalid_json(self, tmp_path):
        from repro.errors import SerializationError

        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SerializationError):
            load_library(path)

    def test_top_level_must_be_object(self, tmp_path):
        from repro.errors import SerializationError

        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(SerializationError):
            load_library(path)
