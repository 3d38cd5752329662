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
"""

import json
import pathlib

import pytest

from repro.engine.campaign import run_campaign
from repro.engine.registry import default_registry

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_verdicts.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


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
    def test_all_verdicts_identical(self, golden):
        """Every variant reproduces its captured verdict and
        violated-goal set exactly (the optimisation's hard gate)."""
        result = run_campaign(all_variants(), backend="serial")
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
