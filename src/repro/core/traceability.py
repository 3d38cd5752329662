"""Traceability matrix: safety goals <-> attacks <-> threats.

"[SaSeVAL] traces safety goals to threats and to attacks explicitly.
Hence, the coverage of safety concerns by security testing is assured."
(abstract)

The :class:`TraceMatrix` materialises those links from an attack set and
answers both directions:

* forward -- from a safety goal to the attacks targeting it and the
  threats those attacks exploit,
* backward -- from a threat to the attacks using it and the goals they
  endanger.

It also renders the matrix as Markdown for review documents.
"""

from __future__ import annotations

import dataclasses

from repro.core.derivation import AttackDescriptionSet
from repro.errors import ValidationError
from repro.model.safety import SafetyGoal
from repro.threatlib.library import ThreatLibrary


@dataclasses.dataclass(frozen=True)
class GoalTrace:
    """Forward trace for one safety goal."""

    goal_id: str
    attack_ids: tuple[str, ...]
    threat_ids: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class ThreatTrace:
    """Backward trace for one threat scenario."""

    threat_id: str
    attack_ids: tuple[str, ...]
    goal_ids: tuple[str, ...]


class TraceMatrix:
    """Bidirectional goal/attack/threat traceability."""

    def __init__(
        self,
        goals: list[SafetyGoal],
        attacks: AttackDescriptionSet,
        library: ThreatLibrary,
    ) -> None:
        """Build the matrix; threat references are validated against
        ``library`` (broken traces raise eagerly).
        """
        self._goals = {goal.identifier: goal for goal in goals}
        self._attacks = attacks
        self._threat_ids = {threat.identifier for threat in library.threats}
        for attack in attacks:
            library.threat(attack.threat_link.threat_scenario_id)
        for attack in attacks:
            for goal_id in attack.safety_goal_ids:
                if goal_id not in self._goals:
                    raise ValidationError(
                        f"attack {attack.identifier} references unknown "
                        f"safety goal {goal_id}"
                    )

    def trace_goal(self, goal_id: str) -> GoalTrace:
        """Attacks targeting a goal, and the threats they exploit."""
        if goal_id not in self._goals:
            raise ValidationError(f"unknown safety goal {goal_id}")
        attacks = self._attacks.by_goal(goal_id)
        threat_ids = tuple(
            dict.fromkeys(
                attack.threat_link.threat_scenario_id for attack in attacks
            )
        )
        return GoalTrace(
            goal_id=goal_id,
            attack_ids=tuple(attack.identifier for attack in attacks),
            threat_ids=threat_ids,
        )

    def trace_threat(self, threat_id: str) -> ThreatTrace:
        """Attacks exploiting a threat, and the goals they endanger."""
        if threat_id not in self._threat_ids:
            raise ValidationError(f"unknown threat scenario {threat_id}")
        attacks = self._attacks.by_threat(threat_id)
        goal_ids = tuple(
            dict.fromkeys(
                goal_id
                for attack in attacks
                for goal_id in attack.safety_goal_ids
            )
        )
        return ThreatTrace(
            threat_id=threat_id,
            attack_ids=tuple(attack.identifier for attack in attacks),
            goal_ids=goal_ids,
        )

    def goal_traces(self) -> tuple[GoalTrace, ...]:
        """Forward traces for every goal, in goal order."""
        return tuple(self.trace_goal(goal_id) for goal_id in self._goals)

    def to_markdown(self) -> str:
        """Render the goal x attack matrix as a Markdown table.

        Cells carry ``x`` where the attack targets the goal; the last
        column lists the threats reached from the goal.
        """
        attack_ids = self._attacks.identifiers
        header = (
            "| Safety goal | "
            + " | ".join(attack_ids)
            + " | Threats |"
        )
        separator = "|" + "---|" * (len(attack_ids) + 2)
        lines = [header, separator]
        for goal_id, goal in self._goals.items():
            trace = self.trace_goal(goal_id)
            cells = [
                "x" if attack_id in trace.attack_ids else ""
                for attack_id in attack_ids
            ]
            threats = ", ".join(trace.threat_ids) or "-"
            lines.append(
                f"| {goal_id} ({goal.asil.value}) | "
                + " | ".join(cells)
                + f" | {threats} |"
            )
        return "\n".join(lines)


__all__ = [
    "GoalTrace",
    "ThreatTrace",
    "TraceMatrix",
]
