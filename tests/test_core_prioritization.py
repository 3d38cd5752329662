"""Tests for RQ2: ASIL-driven ranking, filtering and budget allocation."""

import pytest

from repro.core.derivation import AttackDeriver
from repro.core.prioritization import ASIL_WEIGHTS, Prioritizer, attack_asil
from repro.errors import ValidationError
from repro.model.attack import AttackCategory
from repro.model.ratings import Asil, CalLevel
from repro.model.safety import SafetyGoal
from repro.threatlib.catalog import build_catalog


@pytest.fixture()
def goals():
    return [
        SafetyGoal("SG01", "high", Asil.D),
        SafetyGoal("SG02", "mid", Asil.B),
        SafetyGoal("SG03", "low", Asil.A),
    ]


@pytest.fixture()
def attacks(goals):
    deriver = AttackDeriver.create(build_catalog(), goals)

    def derive(goal_ids, attack_type="Disable", category=AttackCategory.SAFETY):
        deriver.derive(
            description="a", safety_goal_ids=goal_ids, threat_id="2.1.4",
            attack_type_name=attack_type, interface="X", precondition="p",
            expected_measures="m", attack_success="s", attack_fails="f",
            category=category,
        )

    derive(("SG03",))                      # AD01: A
    derive(("SG01",), "Denial of service")  # AD02: D
    derive(("SG02", "SG03"), "Jamming")     # AD03: B (highest of B, A)
    deriver.derive(
        description="profiling", safety_goal_ids=(), threat_id="3.1.3",
        attack_type_name="Eavesdropping", interface="X", precondition="p",
        expected_measures="m", attack_success="s", attack_fails="f",
        category=AttackCategory.PRIVACY,
    )                                       # AD04: privacy -> QM
    return deriver.results


class TestAttackAsil:
    def test_highest_goal_asil_wins(self, goals, attacks):
        goal_map = {g.identifier: g for g in goals}
        assert attack_asil(attacks.get("AD03"), goal_map) is Asil.B

    def test_privacy_attack_rates_qm(self, goals, attacks):
        goal_map = {g.identifier: g for g in goals}
        assert attack_asil(attacks.get("AD04"), goal_map) is Asil.QM

    def test_missing_goal_is_error(self, attacks):
        with pytest.raises(ValidationError):
            attack_asil(attacks.get("AD02"), {})


class TestRanking:
    def test_rank_descending_by_asil(self, goals, attacks):
        ranked = Prioritizer(goals).rank(attacks)
        assert [e.attack.identifier for e in ranked] == [
            "AD02", "AD03", "AD01", "AD04",
        ]

    def test_filter_by_asil_floor(self, goals, attacks):
        reduced = Prioritizer(goals).filter(attacks, Asil.B)
        assert [a.identifier for a in reduced] == ["AD02", "AD03"]

    def test_reduction_ratio(self, goals, attacks):
        plan = Prioritizer(goals).plan(attacks, budget=0, minimum=Asil.B)
        assert plan.reduction_ratio(len(attacks)) == pytest.approx(0.5)


class TestBudget:
    def test_budget_spent_exactly(self, goals, attacks):
        plan = Prioritizer(goals).plan(attacks, budget=100)
        assert plan.total_allocated == 100

    def test_allocation_proportional_to_asil_weight(self, goals, attacks):
        plan = Prioritizer(goals).plan(attacks, budget=230)
        allocation = plan.allocation()
        # weights: D=16, B=4, A=2, QM=1 -> total 23 -> 10 tests per unit
        assert allocation["AD02"] == 160
        assert allocation["AD03"] == 40
        assert allocation["AD01"] == 20
        assert allocation["AD04"] == 10

    def test_cal_multiplier(self, goals, attacks):
        prioritizer = Prioritizer(
            goals, cal_levels={"AD01": CalLevel.CAL4}
        )
        plan = prioritizer.plan(attacks, budget=290)
        allocation = plan.allocation()
        # AD01 weight becomes 2*4=8; total = 16+4+8+1 = 29
        assert allocation["AD01"] == 80

    def test_negative_budget_rejected(self, goals, attacks):
        with pytest.raises(ValidationError):
            Prioritizer(goals).plan(attacks, budget=-1)

    def test_zero_budget_keeps_ranking(self, goals, attacks):
        plan = Prioritizer(goals).plan(attacks, budget=0)
        assert plan.total_allocated == 0
        assert len(plan.entries) == 4

    def test_weights_strictly_increase_with_asil(self):
        assert (
            ASIL_WEIGHTS[Asil.QM]
            < ASIL_WEIGHTS[Asil.A]
            < ASIL_WEIGHTS[Asil.B]
            < ASIL_WEIGHTS[Asil.C]
            < ASIL_WEIGHTS[Asil.D]
        )

    def test_rounding_preserves_budget(self, goals, attacks):
        for budget in (1, 7, 13, 101):
            plan = Prioritizer(goals).plan(attacks, budget=budget)
            assert plan.total_allocated == budget


class TestUseCaseIReduction:
    """RQ2 on the published UC I attack set."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        from repro.usecases import uc1

        return uc1.pipeline_builder().build()

    def test_survivors_shrink_as_the_floor_rises(self, pipeline):
        prioritizer = Prioritizer(list(pipeline.goals))
        counts = [
            len(prioritizer.filter(pipeline.attacks, floor))
            for floor in (Asil.QM, Asil.A, Asil.B, Asil.C, Asil.D)
        ]
        assert counts[0] == 23  # no reduction at the QM floor
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] >= 1  # the ASIL D signage attacks remain

    def test_mean_budget_share_rises_with_the_asil(self, pipeline):
        plan = Prioritizer(list(pipeline.goals)).plan(
            pipeline.attacks, budget=1000
        )
        assert plan.total_allocated == 1000

        def mean(asil):
            shares = [
                entry.allocated_tests
                for entry in plan.entries
                if entry.asil is asil
            ]
            return sum(shares) / len(shares)

        assert mean(Asil.D) > mean(Asil.C) > mean(Asil.B) > mean(Asil.A)
