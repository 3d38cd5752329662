"""Static registry/DSL validation: live surfaces clean, broken ones caught.

The live checks are the release gate itself: every registered variant of
the stock registry and both use cases' DSL documents must validate
without executing a single scenario.  The synthetic registries then
demonstrate each ``SPCnnn`` code on a minimal broken spec.
"""

import pytest

from repro.analysis import MAX_FLEET_SIZE, check_all, check_dsl, check_registry
from repro.engine.registry import ScenarioRegistry
from repro.engine.spec import ScenarioSpec, VariantSpec, freeze_params

#: A real, resolvable factory that accepts the parameters the synthetic
#: variants sweep.
FACTORY = "repro.sim.scenarios:ConstructionSiteScenario"


def make_registry(spec=None, variants=(), family="fam"):
    registry = ScenarioRegistry()
    if spec is None:
        spec = ScenarioSpec(
            name="synthetic", use_case="uc1", factory=FACTORY
        )
    registry.register(spec)
    if variants:
        registry.register_family(
            spec.name, family, lambda _spec: iter(variants)
        )
    return registry


def variant(variant_id, **kwargs):
    kwargs.setdefault("scenario", "synthetic")
    kwargs.setdefault("family", "fam")
    if "params" in kwargs:
        kwargs["params"] = freeze_params(kwargs["params"])
    if "attack_params" in kwargs:
        kwargs["attack_params"] = freeze_params(kwargs["attack_params"])
    return VariantSpec(variant_id=variant_id, **kwargs)


def codes(findings):
    return [finding.code for finding in findings]


class TestLiveSurfaces:
    def test_stock_registry_is_clean(self):
        assert check_registry() == ()

    def test_dsl_round_trip_is_clean(self):
        assert check_dsl() == ()

    def test_check_all_merges_both(self):
        assert check_all() == ()

    def test_registry_checks_never_execute_a_variant(self, monkeypatch):
        import repro.sim.scenarios as scenarios

        def explode(self, *args, **kwargs):
            raise AssertionError("speccheck must not build scenarios")

        monkeypatch.setattr(
            scenarios.ConstructionSiteScenario, "__init__", explode
        )
        monkeypatch.setattr(
            scenarios.KeylessEntryScenario, "__init__", explode
        )
        assert check_registry() == ()


class TestSyntheticRegistries:
    def test_spc001_duplicate_variant_ids(self):
        twins = [
            variant("uc1/fam/same", params={"vehicle_speed_mps": 20.0}),
            variant("uc1/fam/same", params={"vehicle_speed_mps": 30.0}),
        ]
        findings = check_registry(make_registry(variants=twins))
        assert "SPC001" in codes(findings)
        assert any("duplicate" in f.message for f in findings)

    def test_spc002_unresolvable_factory(self):
        spec = ScenarioSpec(
            name="synthetic",
            use_case="uc1",
            factory="repro.engine.nowhere:Missing",
        )
        findings = check_registry(make_registry(spec=spec))
        assert codes(findings) == ["SPC002"]

    def test_spc003_unknown_parameter_keys(self):
        findings = check_registry(
            make_registry(
                variants=[variant("uc1/fam/warp", params={"warp_factor": 9})]
            )
        )
        assert codes(findings) == ["SPC003"]
        assert "warp_factor" in findings[0].message

    def test_spc003_covers_spec_defaults_too(self):
        spec = ScenarioSpec(
            name="synthetic",
            use_case="uc1",
            factory=FACTORY,
            defaults=freeze_params({"warp_factor": 9}),
        )
        findings = check_registry(make_registry(spec=spec))
        assert codes(findings) == ["SPC003"]

    @pytest.mark.parametrize("size", [0, MAX_FLEET_SIZE + 1, True, 2.5])
    def test_spc004_fleet_size_bounds(self, size):
        findings = check_registry(
            make_registry(
                variants=[variant("uc1/fam/fleet", params={"fleet_size": size})]
            )
        )
        assert "SPC004" in codes(findings)

    def test_spc006_unbound_attack_id(self):
        findings = check_registry(
            make_registry(variants=[variant("uc1/fam/atk", attack="AD99")])
        )
        assert codes(findings) == ["SPC006"]
        assert "AD99" in findings[0].message

    def test_spc006_unknown_catalog_attack(self):
        findings = check_registry(
            make_registry(
                variants=[variant("uc1/fam/atk", attack="no-such-attack")]
            )
        )
        assert codes(findings) == ["SPC006"]

    def test_spc006_unknown_attack_params(self):
        findings = check_registry(
            make_registry(
                variants=[
                    variant(
                        "uc1/fam/atk",
                        attack="jam",
                        attack_params={"volume": 11},
                    )
                ]
            )
        )
        assert codes(findings) == ["SPC006"]
        assert "volume" in findings[0].message

    def test_spc007_non_diverging_family(self):
        twins = [
            variant("uc1/fam/a", params={"vehicle_speed_mps": 20.0}),
            variant("uc1/fam/b", params={"vehicle_speed_mps": 20.0}),
        ]
        findings = check_registry(make_registry(variants=twins))
        assert codes(findings) == ["SPC007"]
        assert "uc1/fam/a" in findings[0].message

    def test_diverging_family_is_clean(self):
        spread = [
            variant("uc1/fam/a", params={"vehicle_speed_mps": 20.0}),
            variant("uc1/fam/b", params={"vehicle_speed_mps": 30.0}),
        ]
        assert check_registry(make_registry(variants=spread)) == ()

    def test_findings_carry_virtual_registry_path(self):
        findings = check_registry(
            make_registry(
                variants=[variant("uc1/fam/warp", params={"warp_factor": 9})]
            )
        )
        assert findings[0].path == "registry"
        assert findings[0].symbol == "uc1/fam/warp"
