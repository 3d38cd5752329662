#!/usr/bin/env python3
"""TARA attack trees, risk rating and attack-path-guided fuzzing (§II-B).

Builds the TARA artifacts around the keyless opener: damage scenarios
with S/F/O/P impact, an AND/OR attack tree for "open vehicle without
owner key", feasibility and risk/CAL rating per attack path, the
TARA-HARA cross-check against the UC II HARA, and finally the
protocol-guided fuzz campaign the attack paths designate -- with the
coverage percent the paper calls for.

Run:  python examples/attack_trees_and_fuzzing.py
"""

from repro.sim.clock import SimClock
from repro.sim.controls import (
    ControlPipeline,
    IdWhitelist,
    MessageCounterCheck,
    ReplayGuard,
    SenderAuthentication,
)
from repro.sim.crypto import KeyStore
from repro.sim.events import EventBus
from repro.sim.network import Message
from repro.tara import (
    AttackPotential,
    AttackStep,
    AttackTree,
    DamageScenario,
    ElapsedTime,
    Equipment,
    Expertise,
    FuzzCampaign,
    FuzzPlan,
    ImpactCategory,
    Knowledge,
    RiskAssessment,
    and_node,
    cross_check,
    or_node,
)
from repro.model.ratings import ImpactRating
from repro.usecases import uc2


def build_tree() -> AttackTree:
    return AttackTree(
        goal="open vehicle without owner key",
        root=or_node(
            "gain access",
            AttackStep(
                "forge electronic key id",
                interface="BLE",
                potential=AttackPotential(expertise=Expertise.PROFICIENT),
            ),
            and_node(
                "relay attack",
                AttackStep(
                    "capture owner's BLE session",
                    interface="BLE",
                    potential=AttackPotential(
                        equipment=Equipment.SPECIALIZED
                    ),
                ),
                AttackStep(
                    "relay to vehicle in real time",
                    interface="BLE",
                    potential=AttackPotential(
                        equipment=Equipment.SPECIALIZED,
                        elapsed_time=ElapsedTime.ONE_WEEK,
                    ),
                ),
            ),
            and_node(
                "internal injection",
                AttackStep(
                    "gain physical bus access",
                    interface="CAN",
                    potential=AttackPotential(
                        knowledge=Knowledge.RESTRICTED,
                        elapsed_time=ElapsedTime.ONE_WEEK,
                    ),
                ),
                AttackStep("inject door frame", interface="CAN"),
            ),
        ),
    )


def main():
    tree = build_tree()
    print("=" * 72)
    print(f"Attack tree: {tree.goal}")
    damage = DamageScenario(
        identifier="DS-01",
        description="Vehicle opened by an attacker; theft and unsupervised "
                    "access to a vehicle that may then be driven",
        asset="Gateway",
        impacts=(
            (ImpactCategory.SAFETY, ImpactRating.MAJOR),
            (ImpactCategory.FINANCIAL, ImpactRating.SEVERE),
        ),
    )
    for path in tree.paths():
        assessment = RiskAssessment(damage=damage, potential=path.potential)
        print(f"  path: {path.describe()}")
        print(
            f"        feasibility={assessment.feasibility.name} "
            f"risk=R{int(assessment.risk)} CAL{int(assessment.cal)}"
        )

    print("=" * 72)
    print("TARA-HARA cross-check against the UC II HARA")
    hara = uc2.build_hara()
    report = cross_check([damage], list(hara.ratings))
    for entry in report.entries:
        print(f"  {entry.damage.identifier}: {entry.outcome.value}")
        for evidence in entry.evidence[:2]:
            print(f"    - {evidence}")

    print("=" * 72)
    print("Attack-path-guided fuzzing (coverage in percent)")
    plan = FuzzPlan.from_tree(tree)
    print(f"  designated interfaces: {', '.join(plan.interfaces)}")
    keystore = KeyStore()
    keystore.provision("phone")
    seed = Message(
        kind="open_command", sender="phone",
        payload={"key_id": "KEY-1000"}, counter=1,
    ).with_timestamp(100.0).signed(keystore)
    clock, bus = SimClock(), EventBus()
    clock.run_until(150.0)
    pipeline = ControlPipeline("ECU_GW", clock, bus)
    pipeline.add(SenderAuthentication(keystore))
    pipeline.add(ReplayGuard(max_age_ms=500.0))
    pipeline.add(MessageCounterCheck())
    pipeline.add(IdWhitelist({"KEY-1000"}, kinds={"open_command"}))
    campaign = FuzzCampaign(pipeline, plan)
    for interface in plan.interfaces:
        outcomes = campaign.fuzz_interface(interface, seed)
        print(f"  fuzzed {interface}: {len(outcomes)} mutants")
    fuzz_report = campaign.report()
    print(f"  protocol coverage : {fuzz_report.interface_coverage:.0%}")
    print(f"  mutants rejected  : {fuzz_report.rejection_rate:.0%}")
    for operator, (rejected, accepted) in sorted(
        fuzz_report.by_operator().items()
    ):
        marker = "ok" if accepted == 0 else "!! accepted"
        print(f"    {operator:18s} rejected={rejected} {marker}")


if __name__ == "__main__":
    main()
