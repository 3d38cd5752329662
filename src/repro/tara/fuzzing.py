"""Protocol-guided fuzz testing from TARA attack paths (paper §II-B.2).

"The attack trees are used to create TARA attack paths, which define the
interfaces for protocol-guided automated or semi-automated fuzz testing.
The coverage of tested protocol can then be measured with percent."

This module closes that loop against the simulator substrate:

* :class:`FuzzPlan` derives the fuzz targets (interfaces) from an attack
  tree's paths,
* :class:`MessageFuzzer` deterministically mutates a valid seed message
  along protocol dimensions (field deletion, type confusion, boundary
  values, counter/timestamp abuse, MAC corruption),
* :class:`FuzzCampaign` fires the mutants at a channel/ECU and collects a
  :class:`FuzzReport`: which mutants were rejected by which control,
  which were silently accepted (potential robustness gaps), and the
  protocol coverage percentage.

Everything is deterministic (seeded) so fuzz findings are reproducible --
the same RQ3 requirement the attack descriptions answer.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any

from repro.errors import SimulationError
from repro.results import SOURCE_FUZZ, ResultSet, RunRecord, freeze_items
from repro.sim.controls.base import ControlPipeline
from repro.sim.network import Message
from repro.tara.attack_tree import AttackTree

#: The mutation operators, in application order.  Each operator takes the
#: seed payload and returns (mutant name, mutated Message kwargs).
MUTATION_OPERATORS = (
    "drop_field",
    "null_field",
    "type_confusion",
    "boundary_low",
    "boundary_high",
    "counter_replay",
    "counter_jump",
    "stale_timestamp",
    "future_timestamp",
    "corrupt_mac",
    "strip_mac",
    "oversized_payload",
)


@dataclasses.dataclass(frozen=True)
class FuzzCase:
    """One generated mutant."""

    name: str
    operator: str
    message: Message


@dataclasses.dataclass(frozen=True)
class FuzzOutcome:
    """The SUT's reaction to one mutant."""

    case: FuzzCase
    rejected: bool
    rejecting_control: str = ""
    reason: str = ""

    def to_record(self) -> RunRecord:
        """This outcome as a uniform :class:`~repro.results.RunRecord`."""
        attrs = {"kind": self.case.message.kind}
        if self.rejecting_control:
            attrs["control"] = self.rejecting_control
        return RunRecord(
            source=SOURCE_FUZZ,
            subject=self.case.name,
            verdict="rejected" if self.rejected else "accepted",
            passed=self.rejected,
            family=self.case.operator,
            attrs=freeze_items(attrs),
            notes=self.reason,
        )


@dataclasses.dataclass(frozen=True)
class FuzzReport:
    """Aggregated campaign result."""

    outcomes: tuple[FuzzOutcome, ...]
    interfaces_planned: tuple[str, ...]
    interfaces_fuzzed: tuple[str, ...]

    @property
    def rejected(self) -> tuple[FuzzOutcome, ...]:
        """Mutants stopped by a control (the healthy outcome)."""
        return tuple(o for o in self.outcomes if o.rejected)

    @property
    def accepted(self) -> tuple[FuzzOutcome, ...]:
        """Mutants the SUT accepted -- robustness findings to triage."""
        return tuple(o for o in self.outcomes if not o.rejected)

    @property
    def rejection_rate(self) -> float:
        """Fraction of mutants rejected."""
        if not self.outcomes:
            return 1.0
        return len(self.rejected) / len(self.outcomes)

    @property
    def interface_coverage(self) -> float:
        """'The coverage of tested protocol ... measured with percent'."""
        if not self.interfaces_planned:
            return 1.0
        fuzzed = set(self.interfaces_fuzzed)
        return len(
            [i for i in self.interfaces_planned if i in fuzzed]
        ) / len(self.interfaces_planned)

    def to_result_set(self) -> ResultSet:
        """Every mutant outcome as a :class:`~repro.results.RunRecord` set."""
        return ResultSet.of(outcome.to_record() for outcome in self.outcomes)

    def by_operator(self) -> dict[str, tuple[int, int]]:
        """Operator -> (rejected, accepted) counts."""
        stats: dict[str, list[int]] = {}
        for outcome in self.outcomes:
            entry = stats.setdefault(outcome.case.operator, [0, 0])
            entry[0 if outcome.rejected else 1] += 1
        return {key: (value[0], value[1]) for key, value in stats.items()}


class MessageFuzzer:
    """Deterministic protocol-dimension mutation of a seed message."""

    def __init__(self, seed: int = 1) -> None:
        self._rng = random.Random(seed)

    def mutate(self, message: Message) -> tuple[FuzzCase, ...]:
        """Generate one mutant per applicable operator."""
        cases: list[FuzzCase] = []
        for operator in MUTATION_OPERATORS:
            mutant = self._apply(operator, message)
            if mutant is not None:
                cases.append(
                    FuzzCase(
                        name=f"{message.kind}/{operator}",
                        operator=operator,
                        message=mutant,
                    )
                )
        return tuple(cases)

    def _apply(self, operator: str, message: Message) -> Message | None:
        payload = dict(message.payload)
        fields = sorted(payload)

        def rebuild(**overrides: Any) -> Message:
            kwargs: dict[str, Any] = dict(
                kind=message.kind,
                sender=message.sender,
                payload=payload,
                counter=message.counter,
                timestamp=message.timestamp,
                auth_tag=message.auth_tag,
                location=message.location,
            )
            kwargs.update(overrides)
            return Message(**kwargs)

        if operator == "drop_field":
            if not fields:
                return None
            del payload[self._rng.choice(fields)]
            return rebuild()
        if operator == "null_field":
            if not fields:
                return None
            payload[self._rng.choice(fields)] = None
            return rebuild()
        if operator == "type_confusion":
            if not fields:
                return None
            field = self._rng.choice(fields)
            payload[field] = str(payload[field]) + "-confused"
            return rebuild()
        if operator == "boundary_low":
            numeric = [f for f in fields if isinstance(payload[f], (int, float))]
            if not numeric:
                return None
            payload[self._rng.choice(numeric)] = -(2 ** 31)
            return rebuild()
        if operator == "boundary_high":
            numeric = [f for f in fields if isinstance(payload[f], (int, float))]
            if not numeric:
                return None
            payload[self._rng.choice(numeric)] = 2 ** 31 - 1
            return rebuild()
        if operator == "counter_replay":
            return rebuild(counter=max(0, message.counter - 1))
        if operator == "counter_jump":
            return rebuild(counter=message.counter + 10_000)
        if operator == "stale_timestamp":
            return rebuild(timestamp=max(0.0, message.timestamp - 60_000.0))
        if operator == "future_timestamp":
            return rebuild(timestamp=message.timestamp + 60_000.0)
        if operator == "corrupt_mac":
            if not message.auth_tag:
                return None
            flipped = ("0" if message.auth_tag[0] != "0" else "1")
            return rebuild(auth_tag=flipped + message.auth_tag[1:])
        if operator == "strip_mac":
            if not message.auth_tag:
                return None
            return rebuild(auth_tag="")
        if operator == "oversized_payload":
            payload["padding"] = "X" * 4096
            return rebuild()
        raise SimulationError(f"unknown mutation operator {operator!r}")


@dataclasses.dataclass(frozen=True)
class FuzzPlan:
    """The interfaces an attack tree designates for fuzzing."""

    tree_goal: str
    interfaces: tuple[str, ...]

    @classmethod
    def from_tree(cls, tree: AttackTree) -> "FuzzPlan":
        """Derive the fuzz-target interfaces from the tree's paths."""
        return cls(tree_goal=tree.goal, interfaces=tree.interfaces())


class FuzzCampaign:
    """Runs mutants through an ECU's control pipeline and reports.

    The campaign drives the pipeline directly (admission is where
    protocol robustness lives); channel latency is irrelevant to the
    verdicts and skipping it keeps campaigns fast and exact.

    :meth:`fuzz_interface` walks one interface at a time with the
    campaign's one seeded fuzzer, so the mutants depend on the order the
    interfaces are fuzzed in.
    """

    def __init__(
        self,
        pipeline: ControlPipeline,
        plan: FuzzPlan,
        seed: int = 1,
    ) -> None:
        self._pipeline = pipeline
        self._plan = plan
        self._fuzzer = MessageFuzzer(seed=seed)
        self._outcomes: list[FuzzOutcome] = []
        self._fuzzed_interfaces: list[str] = []

    def fuzz_interface(
        self, interface: str, seed_message: Message
    ) -> tuple[FuzzOutcome, ...]:
        """Fuzz one interface with mutants of ``seed_message``.

        Raises:
            SimulationError: when the interface is not part of the plan
                (fuzzing outside the TARA-designated surface is a process
                error, not a convenience).
        """
        if interface not in self._plan.interfaces:
            raise SimulationError(
                f"interface {interface!r} is not designated by the attack "
                f"paths of {self._plan.tree_goal!r}"
            )
        self._fuzzed_interfaces.append(interface)
        outcomes: list[FuzzOutcome] = []
        for case in self._fuzzer.mutate(seed_message):
            decision = self._pipeline.admit(case.message)
            outcome = FuzzOutcome(
                case=case,
                rejected=not decision.allowed,
                rejecting_control=decision.control,
                reason=decision.reason,
            )
            outcomes.append(outcome)
            self._outcomes.append(outcome)
        return tuple(outcomes)

    def report(self) -> FuzzReport:
        """The campaign report with protocol-coverage percent."""
        return FuzzReport(
            outcomes=tuple(self._outcomes),
            interfaces_planned=self._plan.interfaces,
            interfaces_fuzzed=tuple(dict.fromkeys(self._fuzzed_interfaces)),
        )


__all__ = [
    "FuzzCampaign",
    "FuzzCase",
    "FuzzOutcome",
    "FuzzPlan",
    "FuzzReport",
    "MUTATION_OPERATORS",
    "MessageFuzzer",
]
