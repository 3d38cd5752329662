"""The three benchmark workloads: inputs from a seed, timed passes, checks.

Each workload is a closed loop driven from one process by one caller.
A *pass* is a fixed amount of work, so traced counters repeat exactly.
An untraced run makes a fixed number of passes, sized from
``--seconds`` and the workload's nominal pass time on a 2-CPU host
(``PASS_SECONDS``): a host that runs faster or slower does the same
work, so every run's statistics cover the same samples.  An untraced
pass runs the :mod:`calibration` sampler, and every time it reports is
in reference-host seconds, with the sampler's own time left out.

* ``registry`` -- all 162 registry variants through ``iter_campaign`` on
  the serial backend (the default ``repro campaign`` path), in a
  seed-shuffled order.  One pass is the whole registry.
* ``fleet-n256`` -- the n=8 ``fleet`` baseline and jam variants with
  their geometry translated to a 256-vehicle convoy, serial backend.
  One pass is the pair, in a seed-shuffled order.
* ``service-mixed`` -- an in-process ``CampaignDaemon`` (2 shards, 2
  workers, journal-backed memo) driven by one ``ServiceClient``.  One
  pass submits the 88 light variants cold, one per submission in a
  seed-shuffled order; once 8 are recorded, each cold submission is
  followed by 13 warm submissions of seed-chosen 8-variant subsets of
  what is already recorded (1053 per pass).  Each pass tags its variant
  ids with ``@p<pass>`` so its cold submissions miss the memo; execution
  never reads the id, and the checks strip the tag.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from pathlib import Path

from calibration import Uncalibrated
from common import FLEET_REFERENCE_PATH, GOLDEN_PATH

#: Registry families whose variants make up the daemon's cold traffic:
#: every family except the flood-heavy ones (parity, fleet,
#: attacker-position, control-ablation).  88 variants.
LIGHT_FAMILIES = (
    "baseline",
    "attacker-timing",
    "traffic-density",
    "zone-geometry",
    "coverage",
)
LIGHT_VARIANTS = 88
WARM_SUBSET = 8
WARM_PER_COLD = 13

FLEET_SIZE = 256


@dataclasses.dataclass
class PassResult:
    """What one pass did and how long the caller waited for it.

    Times are in reference-host units (see :mod:`calibration`) except
    ``raw_wall_s``, the pass's measured work in plain seconds.
    """

    wall_s: float
    raw_wall_s: float
    cpu_s: float
    executed: int
    attempted: int
    failed: int
    #: Gap before each outcome the caller received, in ms.
    gaps_ms: list[float]
    #: Latency of each submission the caller made, in ms.
    submits_ms: list[float]
    journal_bytes: int = 0


def cpu_seconds() -> float:
    """User + system CPU time of this process and its reaped children."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _golden_matches(golden: dict, variant_id: str, outcome) -> bool:
    expected = golden.get(variant_id)
    return (
        expected is not None
        and not outcome.is_error
        and [outcome.verdict, list(outcome.violated_goals)] == expected
    )


def build_analysis() -> None:
    """The analysis pipelines of both use cases (Steps 1-3 + audits)."""
    from repro.api import default_workspace

    workspace = default_workspace()
    for use_case in workspace.use_cases():
        workspace.pipeline(use_case)


class _Span:
    """Wall and CPU span of a pass, taken inside the sampler's run."""

    def __enter__(self):
        self.cpu = -cpu_seconds()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.cpu += cpu_seconds()


def _scaled_pass(calibrator, span: _Span, work: list, **fields) -> PassResult:
    """A pass whose timed work is the intervals ``work``.

    CPU time is the pass's less the sampler's, scaled like the wall time.
    """
    raw_wall = sum(end - start for start, end in work)
    raw_wall -= sum(calibrator.kernel_s(start, end) for start, end in work)
    wall = sum(calibrator.scale(start, end) for start, end in work)
    cpu = span.cpu - calibrator.kernel_s(span.start, span.end)
    return PassResult(
        wall_s=wall, raw_wall_s=raw_wall, cpu_s=cpu * wall / raw_wall, **fields
    )


def _campaign_pass(variants, check, calibrator) -> PassResult:
    """Stream ``variants`` through the serial campaign path, timed."""
    from repro.engine.campaign import iter_campaign

    outcomes = []
    intervals = []
    with calibrator.running(), _Span() as span:
        last = span.start
        for outcome in iter_campaign(
            variants, backend="serial", on_error="record"
        ):
            now = time.perf_counter()
            intervals.append((last, now))
            last = now
            outcomes.append(outcome)
    failed = sum(1 for outcome in outcomes if not check(outcome))
    failed += len(variants) - len(outcomes)
    result = _scaled_pass(
        calibrator,
        span,
        intervals,
        executed=len(outcomes),
        attempted=len(variants),
        failed=failed,
        gaps_ms=[calibrator.scale(a, b) * 1e3 for a, b in intervals],
        submits_ms=[],
    )
    result.submits_ms.append(result.wall_s * 1e3)
    return result


class Registry:
    """All registry variants, serial backend, seed-shuffled order."""

    PASS_SECONDS = 22.0

    def __init__(self, seed: int, work_dir: Path) -> None:
        from repro.engine.registry import default_registry

        self.variants = list(default_registry().variants())
        self.golden = _load_golden()
        self.rng = random.Random(seed)
        build_analysis()

    def run_pass(self, index: int, calibrator=None) -> PassResult:
        order = list(self.variants)
        self.rng.shuffle(order)
        return _campaign_pass(
            order,
            lambda outcome: _golden_matches(
                self.golden, outcome.variant_id, outcome
            ),
            calibrator or Uncalibrated(),
        )

    def close(self) -> None:
        pass


def fleet_variants(size: int = FLEET_SIZE) -> list[tuple[str, object]]:
    """``(n=8 source id, rescaled variant)`` for the baseline and jam.

    The n=8 geometry is translated so the lead vehicle keeps its n=8
    distances to the RSU and the zone; only the convoy tail grows
    backwards (the same translation the fleet bench suite uses).
    """
    from repro.engine.registry import default_registry
    from repro.engine.spec import freeze_params

    lead_m = (size - 1) * 40.0
    geometry = {
        "fleet_size": size,
        "headway_m": 40.0,
        "zone_start_m": lead_m + 600.0,
        "zone_end_m": lead_m + 700.0,
        "rsu_position_m": lead_m + 399.0,
        "rsu_range_m": 500.0,
        "road_length_m": lead_m + 3000.0,
    }
    return [
        (
            variant.variant_id,
            dataclasses.replace(
                variant,
                variant_id=f"{variant.variant_id}@n{size}",
                params=freeze_params({**variant.params_dict(), **geometry}),
            ),
        )
        for variant in default_registry().variants(family="fleet")
        if variant.params_dict().get("fleet_size") == 8
        and variant.attack in (None, "jam")
    ]


class FleetN256:
    """The n=8 baseline + jam pair rescaled to 256 vehicles."""

    PASS_SECONDS = 2.0

    def __init__(self, seed: int, work_dir: Path) -> None:
        pairs = fleet_variants()
        self.sources = {variant.variant_id: source for source, variant in pairs}
        self.variants = [variant for _source, variant in pairs]
        self.golden = _load_golden()
        self.reference = json.loads(
            FLEET_REFERENCE_PATH.read_text(encoding="utf-8")
        )
        self.rng = random.Random(seed)
        build_analysis()

    def check(self, outcome) -> bool:
        source = self.sources.get(outcome.variant_id)
        expected = self.golden.get(source)
        return (
            expected is not None
            and not outcome.is_error
            and outcome.verdict == expected[0]
            and outcome.stats.get("per_vehicle_verdicts")
            == self.reference.get(outcome.variant_id)
        )

    def run_pass(self, index: int, calibrator=None) -> PassResult:
        order = list(self.variants)
        self.rng.shuffle(order)
        return _campaign_pass(order, self.check, calibrator or Uncalibrated())

    def close(self) -> None:
        pass


class ServiceMixed:
    """Cold light-variant submissions interleaved with warm memo reads."""

    PASS_SECONDS = 7.0

    def __init__(self, seed: int, work_dir: Path) -> None:
        from repro.engine.registry import default_registry
        from repro.service import CampaignDaemon, ServiceClient

        self.light = [
            variant
            for variant in default_registry().variants()
            if variant.family in LIGHT_FAMILIES
        ]
        if len(self.light) != LIGHT_VARIANTS:
            raise RuntimeError(
                f"expected {LIGHT_VARIANTS} light variants, "
                f"found {len(self.light)}"
            )
        self.golden = _load_golden()
        self.rng = random.Random(seed)
        build_analysis()
        self.daemon = CampaignDaemon(
            memo_dir=work_dir / "memo", shards=2, workers=2
        ).start()
        self.client = ServiceClient(self.daemon.port)
        self.client.ping()

    def journal_size(self) -> int:
        path = self.daemon.memo.journal_path
        return path.stat().st_size if path is not None and path.exists() else 0

    def _matches(self, outcome) -> bool:
        return _golden_matches(
            self.golden, outcome.variant_id.rsplit("@", 1)[0], outcome
        )

    def run_pass(self, index: int, calibrator=None) -> PassResult:
        calibrator = calibrator or Uncalibrated()
        tagged = [
            dataclasses.replace(v, variant_id=f"{v.variant_id}@p{index}")
            for v in self.light
        ]
        self.rng.shuffle(tagged)
        journal_start = self.journal_size()
        with calibrator.running(), _Span() as span:
            colds, warms, counts = self._submit(tagged)
        return _scaled_pass(
            calibrator,
            span,
            colds + warms,
            gaps_ms=[calibrator.scale(a, b) * 1e3 for a, b in colds],
            submits_ms=[calibrator.scale(a, b) * 1e3 for a, b in warms],
            journal_bytes=self.journal_size() - journal_start,
            **counts,
        )

    def _submit(self, tagged: list) -> tuple[list, list, dict]:
        """Cold and warm submissions of one pass: their intervals, counts."""
        from repro.service import ServiceError

        recorded: list = []
        colds: list[tuple[float, float]] = []
        warms: list[tuple[float, float]] = []
        attempted = failed = executed = 0
        for variant in tagged:
            attempted += 1
            sent = time.perf_counter()
            try:
                outcomes, _summary = self.client.submit([variant])
            except ServiceError:
                failed += 1
                continue
            colds.append((sent, time.perf_counter()))
            executed += sum(1 for o in outcomes if not o.from_cache)
            if not (
                len(outcomes) == 1
                and not outcomes[0].from_cache
                and self._matches(outcomes[0])
            ):
                failed += 1
            recorded.append(variant)
            if len(recorded) < WARM_SUBSET:
                continue
            for _ in range(WARM_PER_COLD):
                subset = self.rng.sample(recorded, WARM_SUBSET)
                attempted += 1
                sent = time.perf_counter()
                try:
                    outcomes, summary = self.client.submit(subset)
                except ServiceError:
                    failed += 1
                    continue
                warms.append((sent, time.perf_counter()))
                if not (
                    len(outcomes) == WARM_SUBSET
                    and summary.get("cached") == WARM_SUBSET
                    and all(o.from_cache and self._matches(o) for o in outcomes)
                ):
                    failed += 1
        counts = {"executed": executed, "attempted": attempted, "failed": failed}
        return colds, warms, counts

    def close(self) -> None:
        # Join the scheduler's workers before the daemon drops them.
        self.daemon.scheduler.shutdown(wait=True)
        self.daemon.stop()


WORKLOADS = {
    "registry": Registry,
    "fleet-n256": FleetN256,
    "service-mixed": ServiceMixed,
}


def create(name: str, seed: int, work_dir: Path):
    """Set the workload up: imports, registry, analysis, daemon."""
    return WORKLOADS[name](seed, work_dir)
