"""Family batching: ship groups of variants that share their setup.

A campaign over the stock registry re-resolves the same scenario factory,
re-derives the same HMAC keys and re-signs the same canonical payloads
hundreds of times -- once per variant.  :class:`BatchPlan` groups a
variant list by ``(scenario, family)`` (the axis along which setup is
actually shared: one spec, one factory, one attack template pool, one
vocabulary of signed messages) and chunks each group to the backend's
batch size; without a batch size it plans one one-variant batch per
variant, in input order -- the plan of an unbatched campaign.

:func:`execute_batch` is the one job function every campaign backend
runs.  It executes a whole :class:`VariantBatch` inside one worker task
and, for a batch of two or more variants, builds the shared, immutable
setup **once**:

* the scenario factory and its ``trace_mode`` introspection are resolved
  and cached before the first variant runs;
* bound-attack test templates (``AD20``, ``AD08``, ...) are compiled once
  per distinct attack id in the batch;
* key material is served from :func:`repro.sim.crypto.derive_key`'s
  process-wide cache, and a batch-scoped
  :func:`~repro.sim.crypto.shared_mac_memo` lets every variant in the
  batch reuse each distinct HMAC digest.

A one-variant batch opens none of these scopes, so an unbatched run
costs exactly what its variants cost alone.

Per-variant behaviour is untouched: each variant still executes through
:func:`repro.engine.campaign.execute_variant` with the seed the runtime
derived from its position in the *original, unbatched* variant list, so
verdicts are bit-identical to serial execution (the golden-parity suite
gates this).  Campaign internals are imported lazily inside functions --
:mod:`repro.engine.campaign` imports this module, not the other way
around at import time.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Iterator, Sequence

from repro.engine.registry import ScenarioRegistry, default_registry
from repro.engine.spec import VariantSpec, factory_accepts, resolve_factory
from repro.errors import ValidationError
from repro.runtime import JobError
from repro.sim.crypto import shared_mac_memo
from repro.sim.network import shared_message_memo

#: The batch context shipped to workers: plain data, always picklable.
BatchContext = dict[str, str]


@dataclasses.dataclass(frozen=True)
class VariantBatch:
    """One shipped unit of work: same-family variants plus their
    positions in the original variant list.

    Attributes:
        scenario: The shared scenario spec name.
        family: The shared variant family.
        indices: Each member's position in the *unbatched* variant list
            (seed derivation and result ordering key off these).
        variants: The member variants, in original order.
    """

    scenario: str
    family: str
    indices: tuple[int, ...]
    variants: tuple[VariantSpec, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.variants):
            raise ValidationError(
                f"batch {self.scenario}/{self.family}: {len(self.indices)} "
                f"indices for {len(self.variants)} variants"
            )
        if not self.variants:
            raise ValidationError(
                f"batch {self.scenario}/{self.family} is empty"
            )

    def __len__(self) -> int:
        return len(self.variants)

    def context(self) -> BatchContext:
        """The shared-setup descriptor shipped alongside the members."""
        return {"scenario": self.scenario, "family": self.family}

    def jobs(self) -> tuple[tuple[int, VariantSpec], ...]:
        """``(original_index, variant)`` pairs for the runtime batch API."""
        return tuple(zip(self.indices, self.variants))


@dataclasses.dataclass(frozen=True)
class BatchPlan:
    """A variant list grouped into same-family batches.

    The plan covers every input variant exactly once; batches preserve
    the original relative order within each ``(scenario, family)`` group
    and never mix groups, so a batch's shared setup is valid for all its
    members.
    """

    batches: tuple[VariantBatch, ...]
    total: int

    @classmethod
    def plan(
        cls, variants: Sequence[VariantSpec], batch_size: int | None
    ) -> "BatchPlan":
        """Group ``variants`` by ``(scenario, family)``, chunked to
        ``batch_size`` members per batch.

        ``batch_size=None`` plans one one-variant batch per variant, in
        input order: the plan of an unbatched campaign.
        """
        if batch_size is None:
            return cls(
                batches=tuple(
                    VariantBatch(
                        scenario=variant.scenario,
                        family=variant.family,
                        indices=(index,),
                        variants=(variant,),
                    )
                    for index, variant in enumerate(variants)
                ),
                total=len(variants),
            )
        if batch_size < 1:
            raise ValidationError(
                f"batch size must be >= 1, got {batch_size}"
            )
        groups: dict[tuple[str, str], list[tuple[int, VariantSpec]]] = {}
        for index, variant in enumerate(variants):
            key = (variant.scenario, variant.family)
            groups.setdefault(key, []).append((index, variant))
        batches = []
        for (scenario, family), members in groups.items():
            for start in range(0, len(members), batch_size):
                chunk = members[start : start + batch_size]
                batches.append(
                    VariantBatch(
                        scenario=scenario,
                        family=family,
                        indices=tuple(index for index, _variant in chunk),
                        variants=tuple(variant for _index, variant in chunk),
                    )
                )
        return cls(batches=tuple(batches), total=len(variants))

    def __len__(self) -> int:
        return len(self.batches)

    def __iter__(self) -> Iterator[VariantBatch]:
        return iter(self.batches)

    def summary(self) -> dict[str, Any]:
        """Plain-data description (batch count, sizes, families)."""
        sizes = [len(batch) for batch in self.batches]
        return {
            "batches": len(self.batches),
            "variants": self.total,
            "max_batch": max(sizes, default=0),
            "families": sorted(
                {f"{b.scenario}/{b.family}" for b in self.batches}
            ),
        }


def _warm_batch(
    context: BatchContext,
    variants: Sequence[VariantSpec],
    registry: ScenarioRegistry,
) -> None:
    """Build the batch's shared setup once, before the first variant."""
    from repro.engine.campaign import _bound_test

    spec = registry.get(context["scenario"])
    resolve_factory(spec.factory)
    factory_accepts(spec.factory, "trace_mode")
    for attack in sorted(
        {v.attack for v in variants if v.uses_bound_attack}
    ):
        _bound_test(spec.use_case, attack)


def execute_batch(
    context: BatchContext,
    jobs: Sequence[tuple[int, int, VariantSpec]],
    registry: ScenarioRegistry | None = None,
    trace_mode: str | None = None,
    default_deadline_s: float | None = None,
) -> list[dict[str, Any]]:
    """The campaign job function: execute one batch on this worker.

    ``jobs`` is the runtime's ``(original_index, seed, variant)`` shape,
    and the result is the runtime's payload list: per variant its
    ``index``, ``seed``, ``wall_time_s`` and either the
    :class:`~repro.engine.campaign.VariantOutcome` as ``value`` or the
    captured ``error``.  Failures are captured per variant (the rest of
    the batch still runs, so one bad variant never poisons its batch);
    ``default_deadline_s`` is the campaign-level deadline applied to
    variants without their own.  In a process worker the first job also
    claims the worker's identifier block.
    """
    from repro.engine.campaign import (
        CAMPAIGN_TRACE_MODE,
        _ensure_worker_identity,
    )

    _ensure_worker_identity()
    registry = registry if registry is not None else default_registry()
    if trace_mode is None:
        trace_mode = CAMPAIGN_TRACE_MODE
    if len(jobs) == 1:
        return _execute_jobs(jobs, registry, trace_mode, default_deadline_s)
    # One memo scope per batch: HMAC digests and honestly signed message
    # instances are shared across the family's variants, so their
    # deterministic traffic is signed once.
    with shared_mac_memo(), shared_message_memo():
        try:
            _warm_batch(context, [variant for _i, _s, variant in jobs], registry)
        except Exception:  # noqa: BLE001 - warming is an optimisation
            # A variant that cannot even warm (unknown scenario or
            # attack) must fail *individually* below, exactly as it
            # would unbatched -- never take the whole batch down.
            pass
        return _execute_jobs(jobs, registry, trace_mode, default_deadline_s)


def _execute_jobs(
    jobs: Sequence[tuple[int, int, VariantSpec]],
    registry: ScenarioRegistry,
    trace_mode: str,
    default_deadline_s: float | None,
) -> list[dict[str, Any]]:
    """Each job through the checked executor, failures captured."""
    from repro.engine.campaign import _execute_checked

    results: list[dict[str, Any]] = []
    for index, seed, variant in jobs:
        started = time.perf_counter()
        try:
            outcome = _execute_checked(
                variant,
                registry,
                trace_mode=trace_mode,
                default_deadline_s=default_deadline_s,
            )
        except Exception as exc:  # noqa: BLE001 - captured, reported
            result: dict[str, Any] = {
                "error": dataclasses.asdict(JobError.from_exception(exc))
            }
        else:
            result = {"value": outcome}
        result.update(
            index=index, seed=seed, wall_time_s=time.perf_counter() - started
        )
        results.append(result)
    return results


__all__ = [
    "BatchContext",
    "BatchPlan",
    "VariantBatch",
    "execute_batch",
]
