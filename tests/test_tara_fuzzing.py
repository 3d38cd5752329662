"""Tests for attack-path-guided fuzz testing (§II-B.2)."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.controls import (
    ControlPipeline,
    IdWhitelist,
    MessageCounterCheck,
    ReplayGuard,
    SenderAuthentication,
    ValueRangeCheck,
)
from repro.sim.crypto import KeyStore
from repro.sim.events import EventBus
from repro.sim.network import Message
from repro.tara.attack_tree import AttackStep, AttackTree, or_node
from repro.tara.fuzzing import (
    MUTATION_OPERATORS,
    FuzzCampaign,
    FuzzPlan,
    MessageFuzzer,
)


def make_tree():
    return AttackTree(
        goal="open vehicle",
        root=or_node(
            "access paths",
            AttackStep("forge key", interface="BLE"),
            AttackStep("inject frame", interface="CAN"),
        ),
    )


def seed_message(keystore):
    keystore.provision("phone")
    return Message(
        kind="open_command", sender="phone",
        payload={"key_id": "KEY-1", "strength": 5},
        counter=3,
    ).with_timestamp(100.0).signed(keystore)


class TestFuzzPlan:
    def test_plan_from_tree(self):
        plan = FuzzPlan.from_tree(make_tree())
        assert plan.tree_goal == "open vehicle"
        assert set(plan.interfaces) == {"BLE", "CAN"}


class TestMessageFuzzer:
    def test_one_mutant_per_applicable_operator(self):
        keystore = KeyStore()
        mutants = MessageFuzzer(seed=1).mutate(seed_message(keystore))
        operators = {case.operator for case in mutants}
        assert operators == set(MUTATION_OPERATORS)

    def test_mac_operators_skipped_for_unauthenticated_seed(self):
        seed = Message(kind="k", sender="s", payload={"x": 1}, timestamp=1.0)
        mutants = MessageFuzzer().mutate(seed)
        operators = {case.operator for case in mutants}
        assert "corrupt_mac" not in operators
        assert "strip_mac" not in operators

    def test_payload_operators_skipped_for_empty_payload(self):
        seed = Message(kind="k", sender="s", payload={}, timestamp=1.0)
        mutants = MessageFuzzer().mutate(seed)
        operators = {case.operator for case in mutants}
        assert "drop_field" not in operators
        assert "boundary_low" not in operators
        assert "counter_jump" in operators

    def test_deterministic(self):
        keystore = KeyStore()
        seed = seed_message(keystore)

        def fingerprint(cases):
            # unique_id is per-object; compare the protocol-visible parts.
            return [
                (c.operator, c.message.payload, c.message.counter,
                 c.message.timestamp, c.message.auth_tag)
                for c in cases
            ]

        first = MessageFuzzer(seed=9).mutate(seed)
        second = MessageFuzzer(seed=9).mutate(seed)
        assert fingerprint(first) == fingerprint(second)

    def test_mutants_differ_from_seed(self):
        keystore = KeyStore()
        seed = seed_message(keystore)
        for case in MessageFuzzer().mutate(seed):
            assert case.message != seed, case.operator


class TestFuzzCampaign:
    def make_pipeline(self, keystore):
        clock, bus = SimClock(), EventBus()
        clock.run_until(150.0)  # give the replay guard a 'now' past the seed
        pipeline = ControlPipeline("ECU_GW", clock, bus)
        pipeline.add(SenderAuthentication(keystore))
        pipeline.add(ReplayGuard(max_age_ms=500.0))
        pipeline.add(MessageCounterCheck())
        pipeline.add(IdWhitelist({"KEY-1"}, kinds={"open_command"}))
        pipeline.add(ValueRangeCheck("strength", 0, 10))
        return pipeline

    def test_hardened_pipeline_rejects_everything(self):
        keystore = KeyStore()
        seed = seed_message(keystore)
        pipeline = self.make_pipeline(keystore)
        campaign = FuzzCampaign(pipeline, FuzzPlan.from_tree(make_tree()))
        outcomes = campaign.fuzz_interface("BLE", seed)
        assert outcomes
        report = campaign.report()
        # Every mutation breaks the MAC, freshness, whitelist or range.
        assert report.rejection_rate == 1.0
        assert not report.accepted

    def test_auth_freshness_and_whitelist_alone_reject_every_mutant(self):
        """The §II-B.2 hardened stack without the range check still
        rejects every mutant on both planned interfaces."""
        keystore = KeyStore()
        seed = seed_message(keystore)
        clock, bus = SimClock(), EventBus()
        clock.run_until(150.0)
        pipeline = ControlPipeline("ECU_GW", clock, bus)
        pipeline.add(SenderAuthentication(keystore))
        pipeline.add(ReplayGuard(max_age_ms=500.0))
        pipeline.add(MessageCounterCheck())
        pipeline.add(IdWhitelist({"KEY-1"}, kinds={"open_command"}))
        campaign = FuzzCampaign(pipeline, FuzzPlan.from_tree(make_tree()))
        campaign.fuzz_interface("BLE", seed)
        campaign.fuzz_interface("CAN", seed)
        report = campaign.report()
        assert report.rejection_rate == 1.0
        assert report.interface_coverage == 1.0

    def test_weak_pipeline_accepts_mutants(self):
        keystore = KeyStore()
        seed = seed_message(keystore)
        clock, bus = SimClock(), EventBus()
        pipeline = ControlPipeline("ECU_GW", clock, bus)  # no controls
        campaign = FuzzCampaign(pipeline, FuzzPlan.from_tree(make_tree()))
        campaign.fuzz_interface("BLE", seed)
        report = campaign.report()
        assert report.rejection_rate == 0.0
        assert len(report.accepted) == len(MUTATION_OPERATORS)

    def test_interface_coverage_percent(self):
        keystore = KeyStore()
        seed = seed_message(keystore)
        pipeline = self.make_pipeline(keystore)
        campaign = FuzzCampaign(pipeline, FuzzPlan.from_tree(make_tree()))
        report = campaign.report()
        assert report.interface_coverage == 0.0
        campaign.fuzz_interface("BLE", seed)
        assert campaign.report().interface_coverage == pytest.approx(0.5)
        campaign.fuzz_interface("CAN", seed)
        assert campaign.report().interface_coverage == 1.0

    def test_fuzzing_outside_plan_rejected(self):
        keystore = KeyStore()
        pipeline = self.make_pipeline(keystore)
        campaign = FuzzCampaign(pipeline, FuzzPlan.from_tree(make_tree()))
        with pytest.raises(SimulationError, match="not designated"):
            campaign.fuzz_interface("USB", seed_message(keystore))

    def test_by_operator_breakdown(self):
        keystore = KeyStore()
        seed = seed_message(keystore)
        pipeline = self.make_pipeline(keystore)
        campaign = FuzzCampaign(pipeline, FuzzPlan.from_tree(make_tree()))
        campaign.fuzz_interface("BLE", seed)
        breakdown = campaign.report().by_operator()
        assert breakdown["corrupt_mac"] == (1, 0)
        assert sum(r for r, __ in breakdown.values()) == len(breakdown)

    def test_partial_pipeline_exposes_specific_gaps(self):
        """With only sender auth, the counter/timestamp abuse mutants
        that keep the payload intact are still rejected (the MAC covers
        counter and timestamp), but dropping the MAC check exposes them.
        """
        keystore = KeyStore()
        seed = seed_message(keystore)
        clock, bus = SimClock(), EventBus()
        pipeline = ControlPipeline("ECU_GW", clock, bus)
        pipeline.add(IdWhitelist({"KEY-1"}, kinds={"open_command"}))
        campaign = FuzzCampaign(pipeline, FuzzPlan.from_tree(make_tree()))
        campaign.fuzz_interface("BLE", seed)
        report = campaign.report()
        accepted_ops = {o.case.operator for o in report.accepted}
        # Counter/timestamp abuse sails past a whitelist-only pipeline.
        assert "counter_replay" in accepted_ops
        assert "stale_timestamp" in accepted_ops
        # But dropping the key id still gets caught.
        rejected_ops = {o.case.operator for o in report.rejected}
        assert "drop_field" in rejected_ops or "null_field" in rejected_ops
