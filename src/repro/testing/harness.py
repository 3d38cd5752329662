"""The test harness: executes compiled test cases and derives verdicts.

Verdict derivation from the two oracle observations:

=================  =================  ============================
success criterion  fails criterion    verdict
=================  =================  ============================
holds              does not hold      ATTACK_SUCCEEDED (SUT fails)
does not hold      holds              ATTACK_FAILED (SUT passes)
holds              holds              INCONCLUSIVE (contradictory)
does not hold      does not hold      INCONCLUSIVE (nothing observed)
=================  =================  ============================

Inconclusive outcomes are first-class: §III-C demands that a failed attack
be *detectable*, so a run where neither criterion fires means the test
case's criteria are underspecified -- the harness surfaces that instead of
guessing.
"""

from __future__ import annotations

import dataclasses

from repro.errors import HarnessError
from repro.results import ResultSet
from repro.testing.testcase import TestCase, TestExecution, Verdict


class TestHarness:
    """Executes test cases against fresh scenario instances."""

    def execute(self, test: TestCase) -> TestExecution:
        """Run one test case end to end and derive the verdict."""
        scenario = test.build_scenario()
        if scenario is None:
            raise HarnessError(
                f"{test.attack_id}: scenario factory returned None"
            )
        test.arm_attack(scenario)
        result = scenario.run(test.duration_ms)
        success = test.success_oracle.evaluate(scenario, result)
        failure = test.failure_oracle.evaluate(scenario, result)
        verdict, notes = self._derive(test, success, failure)
        return TestExecution(
            test=test,
            verdict=verdict,
            success_observed=success,
            failure_observed=failure,
            scenario_result=result,
            notes=notes,
        )

    def execute_all(self, tests: list[TestCase]) -> "CampaignReport":
        """Run a list of test cases and aggregate a campaign report."""
        executions = tuple(self.execute(test) for test in tests)
        return CampaignReport(executions=executions)

    @staticmethod
    def _derive(
        test: TestCase, success: bool, failure: bool
    ) -> tuple[Verdict, str]:
        if success and not failure:
            return (
                Verdict.ATTACK_SUCCEEDED,
                f"success criterion held ({test.success_oracle.description})",
            )
        if failure and not success:
            return (
                Verdict.ATTACK_FAILED,
                f"fails criterion held ({test.failure_oracle.description})",
            )
        if success and failure:
            return (
                Verdict.INCONCLUSIVE,
                "both criteria held -- criteria are contradictory",
            )
        return (
            Verdict.INCONCLUSIVE,
            "neither criterion held -- criteria are underspecified",
        )


@dataclasses.dataclass(frozen=True)
class CampaignReport:
    """Aggregated result of a test campaign."""

    executions: tuple[TestExecution, ...]

    @property
    def total(self) -> int:
        """Number of executed test cases."""
        return len(self.executions)

    @property
    def sut_passed(self) -> tuple[TestExecution, ...]:
        """Executions where the SUT withstood the attack."""
        return tuple(
            execution for execution in self.executions if execution.sut_passed
        )

    @property
    def sut_failed(self) -> tuple[TestExecution, ...]:
        """Executions where the attack succeeded."""
        return tuple(
            execution
            for execution in self.executions
            if execution.verdict is Verdict.ATTACK_SUCCEEDED
        )

    @property
    def inconclusive(self) -> tuple[TestExecution, ...]:
        """Executions with no clear verdict."""
        return tuple(
            execution
            for execution in self.executions
            if execution.verdict is Verdict.INCONCLUSIVE
        )

    def by_goal(self, goal_id: str) -> tuple[TestExecution, ...]:
        """Executions of tests targeting one safety goal."""
        return tuple(
            execution
            for execution in self.executions
            if goal_id in execution.test.safety_goal_ids
        )

    def summary(self) -> dict[str, int]:
        """Counts for reporting."""
        return {
            "total": self.total,
            "sut_passed": len(self.sut_passed),
            "attack_succeeded": len(self.sut_failed),
            "inconclusive": len(self.inconclusive),
        }

    def to_result_set(self, use_case: str = "") -> ResultSet:
        """Every execution as a :class:`~repro.results.RunRecord` set."""
        return ResultSet.of(
            execution.to_record(use_case=use_case)
            for execution in self.executions
        )

    def to_text(self) -> str:
        """Render the campaign as a plain-text report."""
        lines = ["Security test campaign"]
        counts = self.summary()
        lines.append(
            f"  {counts['total']} tests: "
            f"{counts['sut_passed']} withstood, "
            f"{counts['attack_succeeded']} vulnerable, "
            f"{counts['inconclusive']} inconclusive"
        )
        for execution in self.executions:
            marker = {
                Verdict.ATTACK_FAILED: "PASS",
                Verdict.ATTACK_SUCCEEDED: "FAIL",
                Verdict.INCONCLUSIVE: "????",
            }[execution.verdict]
            lines.append(f"  [{marker}] {execution.summary()}")
            if execution.notes:
                lines.append(f"         {execution.notes}")
        return "\n".join(lines)


__all__ = [
    "CampaignReport",
    "TestHarness",
]
