"""Tests for the privacy extension: pseudonym rotation vs. profiling."""

import pytest

from repro.errors import SimulationError
from repro.sim.attacks import EavesdropAttack
from repro.sim.clock import SimClock
from repro.sim.controls import PseudonymProvider, linkability
from repro.sim.controls.authentication import SenderAuthentication
from repro.sim.crypto import KeyStore
from repro.sim.events import EventBus
from repro.sim.network import Channel, Message


class TestPseudonymProvider:
    def test_rotation_by_epoch(self):
        clock = SimClock()
        provider = PseudonymProvider(
            "vehicle-1", clock, KeyStore(), rotation_period_ms=1000.0
        )
        first = provider.current_pseudonym()
        clock.run_until(500.0)
        assert provider.current_pseudonym() == first  # same epoch
        clock.run_until(1500.0)
        second = provider.current_pseudonym()
        assert second != first

    def test_pseudonyms_are_provisioned(self):
        clock = SimClock()
        keystore = KeyStore()
        provider = PseudonymProvider("vehicle-1", clock, keystore)
        pseudonym = provider.current_pseudonym()
        assert keystore.is_provisioned(pseudonym)

    def test_deterministic_across_runs(self):
        def issue():
            clock = SimClock()
            provider = PseudonymProvider(
                "vehicle-1", clock, KeyStore(), rotation_period_ms=1000.0
            )
            names = [provider.current_pseudonym()]
            for time in (1500.0, 2500.0):
                clock.run_until(time)
                names.append(provider.current_pseudonym())
            return names

        assert issue() == issue()

    def test_different_identities_never_collide(self):
        clock = SimClock()
        keystore = KeyStore()
        a = PseudonymProvider("vehicle-a", clock, keystore)
        b = PseudonymProvider("vehicle-b", clock, keystore)
        assert a.current_pseudonym() != b.current_pseudonym()

    def test_invalid_period(self):
        with pytest.raises(SimulationError):
            PseudonymProvider("v", SimClock(), KeyStore(), rotation_period_ms=0)


class TestLinkability:
    def test_single_identity_is_fully_linkable(self):
        assert linkability(["a"] * 10) == 1.0

    def test_rotation_reduces_linkability(self):
        assert linkability(["a"] * 5 + ["b"] * 5) == 0.5

    def test_empty_is_unlinkable(self):
        assert linkability([]) == 0.0


class TestProfilingAblation:
    """SG06/AD12-style evaluation: an eavesdropper profiles broadcast
    traffic; pseudonym rotation collapses the profile while honest
    receivers still authenticate every message."""

    def run_broadcasts(
        self, rotate: bool, messages: int = 10, rotation_ms: float = 1000.0
    ):
        clock = SimClock()
        bus = EventBus()
        keystore = KeyStore()
        channel = Channel("v2x", clock, bus, latency_ms=1.0)
        spy = EavesdropAttack("spy", clock, channel)
        auth = SenderAuthentication(keystore)
        provider = PseudonymProvider(
            "vehicle-1", clock, keystore, rotation_period_ms=rotation_ms
        )
        keystore.provision("vehicle-1")
        accepted = []

        def broadcast(counter: int) -> None:
            sender = (
                provider.current_pseudonym() if rotate else "vehicle-1"
            )
            message = Message(
                kind="hazard_warning", sender=sender,
                payload={"seq": counter}, counter=counter,
            ).with_timestamp(clock.now).signed(keystore)
            accepted.append(
                auth.inspect(message, clock.now).allowed
            )
            channel.send(message)

        for index in range(messages):
            clock.schedule_at(index * 500.0, lambda i=index: broadcast(i))
        clock.run()
        senders = [sender for __, __, sender in spy.observations]
        return linkability(senders), accepted

    def test_without_rotation_profile_is_complete(self):
        score, accepted = self.run_broadcasts(rotate=False)
        assert score == 1.0
        assert all(accepted)

    def test_with_rotation_profile_collapses(self):
        score, accepted = self.run_broadcasts(rotate=True)
        assert score <= 0.5  # 10 messages over 5 epochs of 2
        assert all(accepted)  # receivers still authenticate every epoch

    def test_forty_messages_over_two_second_epochs(self):
        score, accepted = self.run_broadcasts(
            rotate=True, messages=40, rotation_ms=2000.0
        )
        assert score <= 4 / 40 + 1e-9  # 4 messages per pseudonym
        assert all(accepted)

    def test_linkability_grows_with_the_rotation_period(self):
        scores = [
            self.run_broadcasts(rotate=True, messages=40, rotation_ms=period)[0]
            for period in (1000.0, 2000.0, 5000.0, 10000.0)
        ]
        assert scores == sorted(scores)
