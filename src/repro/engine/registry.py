"""The declarative scenario registry and its parametric variant families.

The registry replaces the seed's two hard-coded SUT classes as the entry
point for execution: UC1 and UC2 are registered as
:class:`~repro.engine.spec.ScenarioSpec` data, and *variant families*
expand each spec into a deterministic design-space sweep:

* ``baseline``          -- the stock configuration, unattacked;
* ``parity``            -- every Step-4 bound attack (AD20, AD08, ...)
  executed with default parameters: the anchor that must reproduce the
  seed verdicts bit-identically;
* ``control-ablation``  -- deployed-control subsets (all, none,
  leave-one-out) under a representative attack, the design space the
  ablation tests walk;
* ``attacker-timing``   -- launch-time / rate / strategy sweeps of the
  catalog attacks;
* ``traffic-density``   -- legitimate-load sweeps (RSU beacon period,
  BLE/CAN service parameters, ECU queue depths);
* ``zone-geometry``     -- construction-zone position/length sweeps (UC1)
  and opening-deadline sweeps (UC2);
* ``fleet``             -- AD20-style floods and AD14-style jams replayed
  against 2-8-vehicle convoys on the spatial fleet scenario, with
  verdict-per-vehicle in every outcome;
* ``coverage``          -- RSU transmit-range sweeps reproducing the
  field-testing range/reception curve;
* ``attacker-position`` -- attacker-timing sweeps crossed with attacker
  *placement*: the same flood succeeds in radio range and dies outside
  it.

Families are generator functions so new ones can be registered by future
workloads; the stock registry (``default_registry()``) yields well over a
hundred variants, every one of them pure data a worker process can
rebuild from scratch.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Callable, Iterable, Iterator

from repro.errors import ValidationError
from repro.engine.spec import ScenarioSpec, VariantSpec, freeze_params
from repro.sim.scenarios import UC1_ALL_CONTROLS, UC2_ALL_CONTROLS

#: A family generator: yields the family's variants for one spec.
FamilyGenerator = Callable[[ScenarioSpec], Iterable[VariantSpec]]

UC1_SCENARIO = "uc1-construction-site"
UC2_SCENARIO = "uc2-keyless-entry"
UC1_FLEET_SCENARIO = "uc1-fleet-convoy"

#: Control universes, in deterministic order.  Imported from the scenario
#: module so a control added there automatically joins the ablation sweep.
_UC1_CONTROLS = tuple(sorted(UC1_ALL_CONTROLS))
_UC2_CONTROLS = tuple(sorted(UC2_ALL_CONTROLS))

#: The Step-4 bound attack ids per use case (seed parity anchors).
BOUND_ATTACKS = {
    "uc1": ("AD05", "AD07", "AD12", "AD14", "AD20"),
    "uc2": ("AD02", "AD03", "AD04", "AD08", "AD28"),
}


class ScenarioRegistry:
    """Scenario specs plus their registered variant families."""

    def __init__(self) -> None:
        self._specs: dict[str, ScenarioSpec] = {}
        self._families: dict[str, dict[str, FamilyGenerator]] = {}

    # -- specs ---------------------------------------------------------------

    def register(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Register a scenario spec under its name."""
        if spec.name in self._specs:
            raise ValidationError(f"scenario {spec.name!r} already registered")
        self._specs[spec.name] = spec
        self._families[spec.name] = {}
        return spec

    def get(self, name: str) -> ScenarioSpec:
        """Look up a spec by name."""
        if name not in self._specs:
            raise ValidationError(
                f"unknown scenario {name!r} (known: {sorted(self._specs)})"
            )
        return self._specs[name]

    def names(self) -> tuple[str, ...]:
        """All registered scenario names, in registration order."""
        return tuple(self._specs)

    # -- families ------------------------------------------------------------

    def register_family(
        self, scenario: str, family: str, generator: FamilyGenerator
    ) -> None:
        """Attach a variant family to a registered scenario."""
        spec_families = self._families[self.get(scenario).name]
        if family in spec_families:
            raise ValidationError(
                f"family {family!r} already registered for {scenario!r}"
            )
        spec_families[family] = generator

    def families(self, scenario: str | None = None) -> tuple[str, ...]:
        """Family names, for one scenario or overall (sorted, distinct)."""
        if scenario is not None:
            return tuple(self._families[self.get(scenario).name])
        return tuple(
            sorted({f for families in self._families.values() for f in families})
        )

    # -- variants ------------------------------------------------------------

    def variants(
        self,
        scenario: str | None = None,
        family: str | None = None,
        attack: str | None = None,
        limit: int | None = None,
        use_case: str | None = None,
    ) -> tuple[VariantSpec, ...]:
        """Generate the (filtered) variant list, deterministically ordered."""
        if scenario is not None:
            self.get(scenario)  # unknown names fail loudly, not emptily
        if use_case is not None and use_case not in {
            spec.use_case for spec in self._specs.values()
        }:
            raise ValidationError(
                f"unknown use case {use_case!r} (known: "
                f"{sorted({s.use_case for s in self._specs.values()})})"
            )
        if limit is not None and limit < 1:
            raise ValidationError(f"limit must be >= 1, got {limit}")
        selected: list[VariantSpec] = []
        seen: set[str] = set()
        for spec_name, families in self._families.items():
            if scenario is not None and spec_name != scenario:
                continue
            if (
                use_case is not None
                and self._specs[spec_name].use_case != use_case
            ):
                continue
            for family_name, generator in families.items():
                if family is not None and family_name != family:
                    continue
                for variant in generator(self._specs[spec_name]):
                    if attack is not None and variant.attack != attack:
                        continue
                    if variant.variant_id in seen:
                        raise ValidationError(
                            f"duplicate variant id {variant.variant_id!r}"
                        )
                    seen.add(variant.variant_id)
                    selected.append(variant)
                    if limit is not None and len(selected) >= limit:
                        return tuple(selected)
        return tuple(selected)

    def variant(self, variant_id: str) -> VariantSpec:
        """Look up one variant by id."""
        for candidate in self.variants():
            if candidate.variant_id == variant_id:
                return candidate
        raise ValidationError(f"unknown variant {variant_id!r}")

    def build(self, variant: VariantSpec):
        """Instantiate the scenario a variant describes (without attack)."""
        return self.get(variant.scenario).build(variant.params)


# -- stock variant families --------------------------------------------------

def _control_sets(universe: tuple[str, ...]) -> Iterator[tuple[str, tuple[str, ...]]]:
    """(label, controls) pairs: all, none, and each leave-one-out set."""
    yield "all", universe
    yield "none", ()
    for removed in universe:
        remaining = tuple(c for c in universe if c != removed)
        yield f"no-{removed}", remaining


def _uc1_baseline(spec: ScenarioSpec) -> Iterator[VariantSpec]:
    yield VariantSpec(
        variant_id="uc1/baseline/stock",
        scenario=spec.name,
        family="baseline",
        description="stock construction-site approach, no attacker",
    )


def _uc2_baseline(spec: ScenarioSpec) -> Iterator[VariantSpec]:
    yield VariantSpec(
        variant_id="uc2/baseline/stock",
        scenario=spec.name,
        family="baseline",
        attack="owner-cycle",
        attack_params=freeze_params({"cycles": 1}),
        description="stock keyless opener, one legitimate open/close cycle",
    )


def _parity(use_case: str) -> FamilyGenerator:
    def generate(spec: ScenarioSpec) -> Iterator[VariantSpec]:
        for attack_id in BOUND_ATTACKS[use_case]:
            yield VariantSpec(
                variant_id=f"{use_case}/parity/{attack_id.lower()}",
                scenario=spec.name,
                family="parity",
                attack=attack_id,
                description=(
                    f"{attack_id} through its Step-4 binding with stock "
                    "parameters (seed-verdict anchor)"
                ),
            )

    return generate


def _uc1_control_ablation(spec: ScenarioSpec) -> Iterator[VariantSpec]:
    # A short, close-in flood: the zone is moved to 400 m so the approach
    # (and therefore the run) is 4x shorter than AD20's while keeping the
    # published flip.  The 0.25 ms interval saturates the channel's
    # 4 msg/ms budget, so without the flooding detector the OBU exhausts
    # its 500-overload allowance (~380 ms) before the first RSU beacon at
    # 500 ms is processed -- no handover, and SG01 falls at zone entry.
    for label, controls in _control_sets(_UC1_CONTROLS):
        yield VariantSpec(
            variant_id=f"uc1/control-ablation/flood-{label}",
            scenario=spec.name,
            family="control-ablation",
            params=freeze_params(
                {
                    "controls": controls,
                    "zone_start_m": 400.0,
                    "zone_end_m": 500.0,
                }
            ),
            attack="flood",
            attack_params=freeze_params(
                {"interval_ms": 0.25, "duration_ms": 3000.0, "launch_ms": 100.0}
            ),
            duration_ms=22000.0,
            description=f"authenticated flood with controls={label}",
        )


def _uc2_control_ablation(spec: ScenarioSpec) -> Iterator[VariantSpec]:
    for attack_id in ("AD08", "AD02"):
        for label, controls in _control_sets(_UC2_CONTROLS):
            yield VariantSpec(
                variant_id=(
                    f"uc2/control-ablation/{attack_id.lower()}-{label}"
                ),
                scenario=spec.name,
                family="control-ablation",
                params=freeze_params({"controls": controls}),
                attack=attack_id,
                description=f"{attack_id} with controls={label}",
            )
    # Replay freshness is doubly covered (replay guard + message counter);
    # the published flip only shows when both are removed together.
    yield VariantSpec(
        variant_id="uc2/control-ablation/ad02-no-freshness",
        scenario=spec.name,
        family="control-ablation",
        params=freeze_params(
            {
                "controls": tuple(
                    c
                    for c in _UC2_CONTROLS
                    if c not in ("replay-guard", "message-counter")
                )
            }
        ),
        attack="AD02",
        description="AD02 with both freshness controls removed",
    )
    # AD03's CAN-flood flip pivots on the flooding detector alone.
    for label, controls in (
        ("with-flooding-detector", _UC2_CONTROLS),
        (
            "no-flooding-detector",
            tuple(c for c in _UC2_CONTROLS if c != "flooding-detector"),
        ),
    ):
        yield VariantSpec(
            variant_id=f"uc2/control-ablation/ad03-{label}",
            scenario=spec.name,
            family="control-ablation",
            params=freeze_params({"controls": controls}),
            attack="AD03",
            description=f"AD03 CAN flood via BLE, {label}",
        )


def _uc1_attacker_timing(spec: ScenarioSpec) -> Iterator[VariantSpec]:
    for start_ms, duration_ms in itertools.product(
        (100.0, 5000.0, 15000.0, 30000.0), (5000.0, 20000.0, 60000.0)
    ):
        yield VariantSpec(
            variant_id=(
                "uc1/attacker-timing/"
                f"jam-s{start_ms:.0f}-d{duration_ms:.0f}"
            ),
            scenario=spec.name,
            family="attacker-timing",
            attack="jam",
            attack_params=freeze_params(
                {"launch_ms": start_ms, "duration_ms": duration_ms}
            ),
            description=(
                f"V2X jamming [{start_ms:.0f}, "
                f"{start_ms + duration_ms:.0f}] ms"
            ),
        )
    for launch_ms in (2000.0, 6000.0, 10000.0, 14000.0):
        yield VariantSpec(
            variant_id=f"uc1/attacker-timing/spoof-s{launch_ms:.0f}",
            scenario=spec.name,
            family="attacker-timing",
            attack="spoof-speed-limit",
            attack_params=freeze_params({"launch_ms": launch_ms}),
            duration_ms=20000.0,
            description=f"fake signage burst at {launch_ms:.0f} ms",
        )


def _uc2_attacker_timing(spec: ScenarioSpec) -> Iterator[VariantSpec]:
    for replay_at in range(4000, 12000, 1000):
        yield VariantSpec(
            variant_id=f"uc2/attacker-timing/replay-t{replay_at}",
            scenario=spec.name,
            family="attacker-timing",
            attack="replay-open",
            attack_params=freeze_params({"replay_at_ms": float(replay_at)}),
            duration_ms=15000.0,
            description=f"open-command replay at {replay_at} ms",
        )
    for strategy, attempts in itertools.product(
        ("random", "incrementing"), (5, 15, 30)
    ):
        yield VariantSpec(
            variant_id=(
                f"uc2/attacker-timing/forge-{strategy}-n{attempts}"
            ),
            scenario=spec.name,
            family="attacker-timing",
            attack="forge-keys",
            attack_params=freeze_params(
                {"strategy": strategy, "attempts": attempts}
            ),
            duration_ms=12000.0,
            description=f"{strategy} key sweep, {attempts} attempts",
        )


def _uc1_traffic_density(spec: ScenarioSpec) -> Iterator[VariantSpec]:
    for period_ms in range(200, 1200, 100):
        yield VariantSpec(
            variant_id=f"uc1/traffic-density/rsu-p{period_ms}",
            scenario=spec.name,
            family="traffic-density",
            params=freeze_params({"rsu_period_ms": float(period_ms)}),
            description=f"RSU beacon period {period_ms} ms",
        )
    for capacity in (16, 32, 64, 128):
        yield VariantSpec(
            variant_id=f"uc1/traffic-density/obu-q{capacity}",
            scenario=spec.name,
            family="traffic-density",
            params=freeze_params({"obu_queue_capacity": capacity}),
            description=f"OBU queue capacity {capacity}",
        )


def _uc2_traffic_density(spec: ScenarioSpec) -> Iterator[VariantSpec]:
    for ble_latency, frame_time in itertools.product(
        (2.0, 5.0, 10.0), (0.5, 1.0, 2.0)
    ):
        yield VariantSpec(
            variant_id=(
                "uc2/traffic-density/"
                f"ble{ble_latency:.0f}-can{frame_time:.1f}"
            ),
            scenario=spec.name,
            family="traffic-density",
            params=freeze_params(
                {
                    "ble_latency_ms": ble_latency,
                    "can_frame_time_ms": frame_time,
                }
            ),
            attack="owner-cycle",
            attack_params=freeze_params({"cycles": 2}),
            duration_ms=15000.0,
            description=(
                f"BLE latency {ble_latency:.0f} ms, "
                f"CAN frame time {frame_time:.1f} ms"
            ),
        )


def _uc1_zone_geometry(spec: ScenarioSpec) -> Iterator[VariantSpec]:
    for start_m, length_m in itertools.product(
        (800.0, 1100.0, 1400.0, 1700.0, 2000.0, 2300.0),
        (50.0, 150.0, 300.0),
    ):
        yield VariantSpec(
            variant_id=(
                f"uc1/zone-geometry/z{start_m:.0f}-l{length_m:.0f}"
            ),
            scenario=spec.name,
            family="zone-geometry",
            params=freeze_params(
                {"zone_start_m": start_m, "zone_end_m": start_m + length_m}
            ),
            description=(
                f"construction zone [{start_m:.0f}, "
                f"{start_m + length_m:.0f}) m"
            ),
        )


# -- spatial families (fleet / coverage / attacker placement) -----------------

#: Close-in geometry shared by the spatial families: the zone sits at
#: 600 m so every convoy member reaches it inside a 30 s horizon, and
#: the RSU's default 500 m range covers the launch area.  The RSU sits
#: *off* the 2.5 m kinematics grid (399, not 400) so a zero-range sweep
#: point cannot connect through an exact-position coincidence.
_FLEET_GEOMETRY = {
    "zone_start_m": 600.0,
    "zone_end_m": 700.0,
    "rsu_position_m": 399.0,
    "rsu_range_m": 500.0,
    "headway_m": 40.0,
}
_FLEET_DURATION_MS = 30000.0

#: The AD20-style authenticated flood the fleet/attacker families replay
#: (interval saturates the channel's 4 msg/ms budget, as in AD20).
_FLEET_FLOOD = {"interval_ms": 0.25, "duration_ms": 3000.0, "launch_ms": 100.0}

_UC1_NO_FLOOD_DETECTOR = tuple(
    c for c in _UC1_CONTROLS if c != "flooding-detector"
)


def _fleet(spec: ScenarioSpec) -> Iterator[VariantSpec]:
    """AD20/AD14-style attacks replayed against 2-8-vehicle convoys."""
    for size in range(2, 9):
        yield VariantSpec(
            variant_id=f"uc1/fleet/convoy-n{size}-baseline",
            scenario=spec.name,
            family="fleet",
            params=freeze_params({"fleet_size": size, **_FLEET_GEOMETRY}),
            duration_ms=_FLEET_DURATION_MS,
            description=f"{size}-vehicle convoy, no attacker",
        )
        yield VariantSpec(
            variant_id=f"uc1/fleet/convoy-n{size}-ad20-flood-exposed",
            scenario=spec.name,
            family="fleet",
            params=freeze_params(
                {
                    "fleet_size": size,
                    "controls": _UC1_NO_FLOOD_DETECTOR,
                    **_FLEET_GEOMETRY,
                }
            ),
            attack="flood",
            attack_params=freeze_params(_FLEET_FLOOD),
            duration_ms=_FLEET_DURATION_MS,
            description=(
                f"AD20-style flood vs {size}-vehicle convoy, flooding "
                "detector removed"
            ),
        )
        yield VariantSpec(
            variant_id=f"uc1/fleet/convoy-n{size}-ad20-flood-protected",
            scenario=spec.name,
            family="fleet",
            params=freeze_params({"fleet_size": size, **_FLEET_GEOMETRY}),
            attack="flood",
            attack_params=freeze_params(_FLEET_FLOOD),
            duration_ms=_FLEET_DURATION_MS,
            description=(
                f"AD20-style flood vs {size}-vehicle convoy, full control "
                "stack"
            ),
        )
        yield VariantSpec(
            variant_id=f"uc1/fleet/convoy-n{size}-ad14-jam",
            scenario=spec.name,
            family="fleet",
            params=freeze_params({"fleet_size": size, **_FLEET_GEOMETRY}),
            attack="jam",
            attack_params=freeze_params(
                {"launch_ms": 100.0, "duration_ms": 29800.0}
            ),
            duration_ms=_FLEET_DURATION_MS,
            description=(
                f"AD14-style whole-approach jam vs {size}-vehicle convoy"
            ),
        )


def _coverage(spec: ScenarioSpec) -> Iterator[VariantSpec]:
    """RSU range sweep: the field-testing range/reception curve."""
    for range_m in (0.0, 50.0, 100.0, 200.0, 400.0, 800.0):
        for size in (1, 4):
            yield VariantSpec(
                variant_id=(
                    f"uc1/coverage/range{range_m:.0f}-n{size}"
                ),
                scenario=spec.name,
                family="coverage",
                params=freeze_params(
                    {
                        "fleet_size": size,
                        "v2v_enabled": False,  # raw RSU reception only
                        **_FLEET_GEOMETRY,
                        "rsu_range_m": range_m,
                    }
                ),
                duration_ms=_FLEET_DURATION_MS,
                description=(
                    f"RSU transmit range {range_m:.0f} m, "
                    f"{size}-vehicle convoy, V2V off"
                ),
            )


def _attacker_position(spec: ScenarioSpec) -> Iterator[VariantSpec]:
    """Attacker-timing sweeps crossed with attacker placement."""
    placements = (
        ("near", 150.0),   # covers the convoy from launch onwards
        ("far", 2900.0),   # beyond the zone: never reached in-horizon
    )
    for (label, position), range_m, launch_ms in itertools.product(
        placements, (250.0, 600.0), (100.0, 2000.0, 6000.0)
    ):
        yield VariantSpec(
            variant_id=(
                "uc1/attacker-position/"
                f"flood-{label}-r{range_m:.0f}-s{launch_ms:.0f}"
            ),
            scenario=spec.name,
            family="attacker-position",
            params=freeze_params(
                {
                    "fleet_size": 2,
                    "controls": _UC1_NO_FLOOD_DETECTOR,
                    **_FLEET_GEOMETRY,
                    "attacker_position_m": position,
                    "attacker_range_m": range_m,
                }
            ),
            attack="flood",
            attack_params=freeze_params(
                {**_FLEET_FLOOD, "launch_ms": launch_ms}
            ),
            duration_ms=_FLEET_DURATION_MS,
            description=(
                f"flood from {position:.0f} m (range {range_m:.0f} m) "
                f"at t={launch_ms:.0f} ms, 2-vehicle convoy"
            ),
        )


def _uc2_zone_geometry(spec: ScenarioSpec) -> Iterator[VariantSpec]:
    # UC2 has no road geometry; its "geometry" is the reaction envelope.
    for deadline_ms in (300.0, 500.0, 800.0):
        yield VariantSpec(
            variant_id=f"uc2/zone-geometry/deadline-{deadline_ms:.0f}",
            scenario=spec.name,
            family="zone-geometry",
            params=freeze_params({"open_deadline_ms": deadline_ms}),
            attack="owner-cycle",
            attack_params=freeze_params({"cycles": 1}),
            description=f"opening deadline {deadline_ms:.0f} ms",
        )


@functools.lru_cache(maxsize=1)
def default_registry() -> ScenarioRegistry:
    """The stock registry: UC1 + UC2 with all stock variant families."""
    registry = ScenarioRegistry()
    registry.register(
        ScenarioSpec(
            name=UC1_SCENARIO,
            use_case="uc1",
            factory="repro.sim.scenarios:ConstructionSiteScenario",
            description=(
                "Use Case I: autonomous vehicle approaching a construction "
                "site (Fig. 2)"
            ),
        )
    )
    registry.register(
        ScenarioSpec(
            name=UC2_SCENARIO,
            use_case="uc2",
            factory="repro.sim.scenarios:KeylessEntryScenario",
            description=(
                "Use Case II: keyless car opener via smartphone over BLE"
            ),
        )
    )
    registry.register(
        ScenarioSpec(
            name=UC1_FLEET_SCENARIO,
            use_case="uc1",
            factory="repro.sim.scenarios:FleetConstructionSiteScenario",
            description=(
                "Use Case I over a convoy: placed RSU with transmit range, "
                "V2V hazard relaying, per-vehicle verdicts"
            ),
            topology=freeze_params(
                {
                    "fleet_size": 4,
                    "rsu_range_m": 600.0,
                    "v2v_range_m": 150.0,
                }
            ),
        )
    )

    registry.register_family(UC1_SCENARIO, "baseline", _uc1_baseline)
    registry.register_family(UC1_SCENARIO, "parity", _parity("uc1"))
    registry.register_family(
        UC1_SCENARIO, "control-ablation", _uc1_control_ablation
    )
    registry.register_family(
        UC1_SCENARIO, "attacker-timing", _uc1_attacker_timing
    )
    registry.register_family(
        UC1_SCENARIO, "traffic-density", _uc1_traffic_density
    )
    registry.register_family(UC1_SCENARIO, "zone-geometry", _uc1_zone_geometry)

    registry.register_family(UC2_SCENARIO, "baseline", _uc2_baseline)
    registry.register_family(UC2_SCENARIO, "parity", _parity("uc2"))
    registry.register_family(
        UC2_SCENARIO, "control-ablation", _uc2_control_ablation
    )
    registry.register_family(
        UC2_SCENARIO, "attacker-timing", _uc2_attacker_timing
    )
    registry.register_family(
        UC2_SCENARIO, "traffic-density", _uc2_traffic_density
    )
    registry.register_family(UC2_SCENARIO, "zone-geometry", _uc2_zone_geometry)

    registry.register_family(UC1_FLEET_SCENARIO, "fleet", _fleet)
    registry.register_family(UC1_FLEET_SCENARIO, "coverage", _coverage)
    registry.register_family(
        UC1_FLEET_SCENARIO, "attacker-position", _attacker_position
    )
    return registry


def apply_topology_overrides(
    variants: Iterable[VariantSpec],
    registry: ScenarioRegistry,
    fleet_size: int | None = None,
    rsu_range_m: float | None = None,
) -> tuple[VariantSpec, ...]:
    """Apply campaign-level fleet/range knobs to a variant selection.

    Each override lands only on variants whose scenario spec declares
    the matching topology key (see
    :attr:`~repro.engine.spec.ScenarioSpec.topology_keys`); everything
    else passes through untouched, so ``--fleet 4`` over a mixed
    selection reshapes the convoys without corrupting UC2 runs.

    Raises:
        ValidationError: on non-positive overrides, or when *no*
            selected variant understands an override (a silent no-op
            would mislabel the campaign).
    """
    if fleet_size is not None and fleet_size < 1:
        raise ValidationError(f"fleet size must be >= 1, got {fleet_size}")
    if rsu_range_m is not None and rsu_range_m < 0:
        raise ValidationError(f"RSU range must be >= 0, got {rsu_range_m}")
    overrides = {}
    if fleet_size is not None:
        overrides["fleet_size"] = fleet_size
    if rsu_range_m is not None:
        overrides["rsu_range_m"] = rsu_range_m
    variant_list = tuple(variants)
    if not overrides:
        return variant_list
    applied: list[VariantSpec] = []
    touched = 0
    for variant in variant_list:
        keys = registry.get(variant.scenario).topology_keys
        effective = {
            key: value for key, value in overrides.items() if key in keys
        }
        if not effective:
            applied.append(variant)
            continue
        touched += 1
        params = variant.params_dict()
        params.update(effective)
        applied.append(
            dataclasses.replace(variant, params=freeze_params(params))
        )
    if not touched:
        raise ValidationError(
            f"no selected variant accepts the overrides {sorted(overrides)}; "
            "fleet/range knobs only apply to topology-capable scenarios "
            f"(e.g. {UC1_FLEET_SCENARIO!r})"
        )
    return tuple(applied)


__all__ = [
    "BOUND_ATTACKS",
    "FamilyGenerator",
    "ScenarioRegistry",
    "UC1_FLEET_SCENARIO",
    "UC1_SCENARIO",
    "UC2_SCENARIO",
    "apply_topology_overrides",
    "default_registry",
]
