"""Refactor-parity contract: substrate rewrites must not move a verdict.

``tests/data/golden_verdicts.json`` holds the verdict and violated-goal
set of every variant the registry generates, captured from the
pre-optimisation tree: the 110 legacy UC1/UC2 variants were captured
before the spatial-topology refactor (PR 4), and the 52 fleet-scenario
variants (``fleet`` / ``coverage`` / ``attacker-position`` families)
before the hot-path overhaul of the clock/bus/crypto core (PR 5).

The campaign below runs with the runner's defaults -- including the lean
``counts`` trace mode -- on the one campaign execution path (one variant
per task), so this test simultaneously gates (a) the substrate rewrite
(tuple-heap clock, indexed bus, per-message MAC memoisation) and (b) the
claim that trace retention is verdict-neutral.  Backend parity of the
same path is gated on cheaper subsets in
``tests/test_runtime_campaign.py``.

``tests/data/golden_outcomes.json`` is the finer gate over the same run:
one sha256 per variant of ``json.dumps(asdict(outcome) minus
wall_time_s, sort_keys=True)`` -- every detection count, violation time
and component statistic, not just the verdict.  Like the verdict file it
is captured from the parent tree only (the tree before the change it
gates, never the changed tree), with :func:`outcome_digest` over a
serial ``run_campaign`` of every registry variant.

``tests/data/golden_large_convoys.json`` holds the same digests for the
n=8 fleet baseline and jam variants rescaled to 64 and 256 vehicles
(``_large_convoys`` in ``tests/test_runtime_campaign.py``): the
registry's convoys stop at n=8, so only this file pins per-vehicle
violation times and details at scale.
"""

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.engine.campaign import VariantOutcome, run_campaign
from repro.engine.registry import default_registry
from repro.engine.spec import VariantSpec
from repro.service.memo import variant_key
from test_runtime_campaign import _large_convoys

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_verdicts.json"
OUTCOMES_PATH = pathlib.Path(__file__).parent / "data" / "golden_outcomes.json"
LARGE_CONVOYS_PATH = (
    pathlib.Path(__file__).parent / "data" / "golden_large_convoys.json"
)

#: ``variant_key(v, fingerprint="0" * 64)`` captured from the tree that
#: still marshalled variants through ``dataclasses.asdict``: one UC2
#: variant, one fleet variant, one catalog attack with attack params.
PINNED_KEYS = {
    "uc2/parity/ad02":
        "1a55c145fd87bdbb078e903e991fc544a49b457ce5292483bec6ec5964397941",
    "uc1/fleet/convoy-n2-baseline":
        "5baa55de08d1a7e86499c8392d409bb6f3cc2666da3fab154ede54b92dfa7f98",
    "uc1/control-ablation/flood-no-flooding-detector":
        "fd50cea535750f764cbcd7e015633c5ef5076bf3a6654ff81c4778443b1eabe3",
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def campaign():
    """The one full serial campaign both slow gates read."""
    return run_campaign(all_variants(), backend="serial")


def outcome_digest(outcome) -> str:
    """sha256 of an outcome's fields, wall time excluded."""
    fields = dataclasses.asdict(outcome)
    del fields["wall_time_s"]
    return hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode()
    ).hexdigest()


def all_variants():
    return default_registry().variants()


class TestGoldenParity:
    def test_every_golden_variant_still_exists(self, golden):
        ids = {variant.variant_id for variant in all_variants()}
        missing = set(golden) - ids
        assert not missing, (
            "variants present in the golden capture disappeared: "
            f"{sorted(missing)}"
        )

    def test_no_uncaptured_variants(self, golden):
        # Every registry variant is under golden protection; a new family
        # must extend the capture (from the pre-change tree) to land.
        extra = {v.variant_id for v in all_variants()} - set(golden)
        assert not extra, f"variants without golden coverage: {sorted(extra)}"

    @pytest.mark.slow
    def test_all_verdicts_identical(self, golden, campaign):
        """Every variant reproduces its captured verdict and
        violated-goal set exactly (the optimisation's hard gate)."""
        result = campaign
        mismatches = {}
        for outcome in result.outcomes:
            expected_verdict, expected_goals = golden[outcome.variant_id]
            actual = (outcome.verdict, list(outcome.violated_goals))
            if actual != (expected_verdict, expected_goals):
                mismatches[outcome.variant_id] = {
                    "expected": (expected_verdict, expected_goals),
                    "actual": actual,
                }
        assert not mismatches, (
            f"{len(mismatches)} variant(s) changed behaviour: {mismatches}"
        )
        assert result.total == len(golden)

    @pytest.mark.slow
    def test_all_outcomes_identical(self, campaign):
        """Every outcome field but wall time matches the parent tree's."""
        expected = json.loads(OUTCOMES_PATH.read_text(encoding="utf-8"))
        actual = {
            outcome.variant_id: outcome_digest(outcome)
            for outcome in campaign.outcomes
        }
        changed = sorted(
            variant_id
            for variant_id in expected
            if actual.get(variant_id) != expected[variant_id]
        )
        assert not changed, f"{len(changed)} outcome(s) changed: {changed}"
        assert actual.keys() == expected.keys()


class TestLargeConvoyGolden:
    def test_large_convoy_outcomes_identical(self):
        """The n=64 and n=256 convoys match the parent tree's outcomes,
        per-vehicle violation times and details included."""
        expected = json.loads(LARGE_CONVOYS_PATH.read_text(encoding="utf-8"))
        actual = {
            outcome.variant_id: outcome_digest(outcome)
            for size in (64, 256)
            for outcome in run_campaign(
                _large_convoys(size), backend="serial"
            ).outcomes
        }
        assert actual == expected


def _asdict_json(value) -> str:
    return json.dumps(dataclasses.asdict(value), sort_keys=True)


class TestPayloadCodecs:
    """The shallow ``to_payload`` codecs write the same JSON as the
    ``dataclasses.asdict`` deep copy they replaced, and round-trip."""

    @pytest.mark.slow
    def test_every_outcome_matches_asdict_and_round_trips(self, campaign):
        assert len(campaign.outcomes) == len(all_variants())
        for outcome in campaign.outcomes:
            payload = outcome.to_payload()
            assert json.dumps(payload, sort_keys=True) == _asdict_json(outcome)
            decoded = VariantOutcome.from_payload(
                json.loads(json.dumps(payload))
            )
            assert decoded == outcome, outcome.variant_id

    def test_every_variant_matches_asdict_and_round_trips(self):
        for variant in all_variants():
            payload = variant.to_payload()
            assert json.dumps(payload, sort_keys=True) == _asdict_json(variant)
            decoded = VariantSpec.from_payload(json.loads(json.dumps(payload)))
            assert decoded == variant, variant.variant_id

    @pytest.mark.parametrize("variant_id", sorted(PINNED_KEYS))
    def test_memo_keys_are_pinned(self, variant_id):
        variant = default_registry().variant(variant_id)
        assert variant_key(variant, fingerprint="0" * 64) == PINNED_KEYS[
            variant_id
        ]
