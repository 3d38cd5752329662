"""Machine-readable benchmark records and the built-in bench suites.

The perf trajectory of this repository is tracked through
``BENCH_<suite>.json`` files: schema-stable documents a CI job (or a
human) can diff across commits.  Historically the 18 ``benchmarks/``
scripts printed free-form text and the trajectory stayed empty; this
module gives every producer one record shape:

* :class:`BenchRecord` -- one named measurement of one suite, with
  numeric ``metrics`` and string ``meta``;
* :func:`validate_record` / :func:`validate_bench_payload` -- the schema
  contract, enforced in tests and importable by CI gates;
* :func:`write_bench_file` -- the canonical ``BENCH_<suite>.json``
  writer;
* :func:`records_from_pytest_benchmark` -- adapter used by
  ``benchmarks/_harness.py`` so the pytest-benchmark scripts emit the
  same records;
* the built-in suites behind ``repro bench`` (:data:`BENCH_SUITES`):
  RQ1 completeness, RQ2 reduction, campaign scalability, the
  execution-backend comparison (``backends``: serial vs thread vs
  process on the scalability campaign) and the fleet campaign
  throughput suite (``fleet``: variants/sec vs convoy size per
  backend), implemented on the :class:`~repro.api.Workspace` facade and
  the :mod:`repro.runtime` layer.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ValidationError
from repro.results import Items, freeze_items

#: Schema tag embedded in every record and bench file; bump on breaking
#: change so the trajectory tooling can detect format drift.
BENCH_SCHEMA = "repro.bench/v1"

#: Valid record statuses.
STATUSES = ("ok", "failed")


@dataclasses.dataclass(frozen=True)
class BenchRecord:
    """One named measurement of one bench suite.

    Attributes:
        suite: The suite the record belongs to (``"rq1"``,
            ``"scalability"``, a script stem, ...).
        name: Measurement name, unique within the suite.
        status: ``"ok"`` or ``"failed"`` (shape expectation violated).
        metrics: Numeric measures (seconds, counts, ratios) as frozen
            sorted key/value tuples.
        meta: Non-numeric context as frozen sorted key/value tuples.
    """

    suite: str
    name: str
    status: str = "ok"
    metrics: Items = ()
    meta: Items = ()

    def __post_init__(self) -> None:
        if not self.suite or not self.name:
            raise ValidationError("bench record needs a suite and a name")
        if self.status not in STATUSES:
            raise ValidationError(
                f"bench record {self.suite}/{self.name}: status must be one "
                f"of {STATUSES}, got {self.status!r}"
            )
        for key, value in self.metrics:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationError(
                    f"bench record {self.suite}/{self.name}: metric "
                    f"{key!r} must be numeric, got {value!r}"
                )

    @property
    def ok(self) -> bool:
        """True when the measurement met its shape expectations."""
        return self.status == "ok"

    def metrics_dict(self) -> dict[str, float]:
        """The numeric measures as a plain dict."""
        return {key: value for key, value in self.metrics}

    def to_payload(self) -> dict[str, Any]:
        """Plain-dict (JSON-ready, schema-tagged) form."""
        return {
            "schema": BENCH_SCHEMA,
            "suite": self.suite,
            "name": self.name,
            "status": self.status,
            "metrics": {key: value for key, value in self.metrics},
            "meta": {key: str(value) for key, value in self.meta},
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "BenchRecord":
        """Rebuild a record from :meth:`to_payload` output."""
        validate_record(payload)
        return cls(
            suite=payload["suite"],
            name=payload["name"],
            status=payload["status"],
            metrics=freeze_items(payload.get("metrics")),
            meta=freeze_items(payload.get("meta")),
        )


def validate_record(payload: Mapping[str, Any]) -> None:
    """Assert one record payload obeys the ``repro.bench/v1`` schema.

    Raises:
        ValidationError: naming the first violated constraint.
    """
    if not isinstance(payload, Mapping):
        raise ValidationError(f"bench record must be a mapping: {payload!r}")
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValidationError(
            f"bench record schema mismatch: got {payload.get('schema')!r}, "
            f"expected {BENCH_SCHEMA!r}"
        )
    for key in ("suite", "name", "status"):
        if not isinstance(payload.get(key), str) or not payload[key]:
            raise ValidationError(
                f"bench record needs a non-empty string {key!r}"
            )
    if payload["status"] not in STATUSES:
        raise ValidationError(
            f"bench record status must be one of {STATUSES}, "
            f"got {payload['status']!r}"
        )
    metrics = payload.get("metrics", {})
    if not isinstance(metrics, Mapping):
        raise ValidationError("bench record metrics must be a mapping")
    for key, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(
                f"bench metric {key!r} must be numeric, got {value!r}"
            )
    meta = payload.get("meta", {})
    if not isinstance(meta, Mapping):
        raise ValidationError("bench record meta must be a mapping")
    for key, value in meta.items():
        if not isinstance(value, str):
            raise ValidationError(
                f"bench meta {key!r} must be a string, got {value!r}"
            )


def validate_bench_payload(payload: Mapping[str, Any]) -> None:
    """Assert a whole ``BENCH_<suite>.json`` document is schema-valid."""
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValidationError(
            f"bench file schema mismatch: got {payload.get('schema')!r}, "
            f"expected {BENCH_SCHEMA!r}"
        )
    if not isinstance(payload.get("suite"), str) or not payload["suite"]:
        raise ValidationError("bench file needs a non-empty suite name")
    records = payload.get("records")
    if not isinstance(records, list):
        raise ValidationError("bench file needs a list of records")
    for record in records:
        validate_record(record)
        if record["suite"] != payload["suite"]:
            raise ValidationError(
                f"bench file for suite {payload['suite']!r} contains a "
                f"record of suite {record['suite']!r}"
            )


def bench_file_payload(
    suite: str, records: Iterable[BenchRecord]
) -> dict[str, Any]:
    """The canonical ``BENCH_<suite>.json`` document for a record list."""
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "records": [record.to_payload() for record in records],
    }


def write_bench_file(
    suite: str, records: Iterable[BenchRecord], out_dir: str | Path = "."
) -> Path:
    """Write (validated) ``BENCH_<suite>.json`` and return its path."""
    payload = bench_file_payload(suite, records)
    validate_bench_payload(payload)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{suite}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def records_from_pytest_benchmark(
    suite: str, payload: Mapping[str, Any], status: str = "ok"
) -> tuple[BenchRecord, ...]:
    """Convert a ``pytest-benchmark`` JSON document into bench records.

    Keeps the stable subset of the stats (mean/min/max/stddev/rounds)
    and flattens each benchmark's ``extra_info`` into string meta.  The
    pytest-benchmark report does not carry per-test outcomes, so the
    caller passes ``status="failed"`` when the pytest run itself failed
    -- a failed shape assertion must not enter the trajectory as ok.
    """
    records = []
    for entry in payload.get("benchmarks", ()):
        stats = entry.get("stats", {})
        metrics = {
            f"{key}_s" if key != "rounds" else key: float(stats[key])
            for key in ("mean", "min", "max", "stddev", "rounds")
            if isinstance(stats.get(key), (int, float))
        }
        meta = {
            key: value if isinstance(value, str) else json.dumps(value)
            for key, value in entry.get("extra_info", {}).items()
        }
        records.append(
            BenchRecord(
                suite=suite,
                name=entry.get("name", "unnamed"),
                status=status,
                metrics=freeze_items(metrics),
                meta=freeze_items(meta),
            )
        )
    return tuple(records)


# -- append-only bench history (`repro bench --history`) ----------------------

#: Schema tag of every ``BENCH_HISTORY.jsonl`` line.
HISTORY_SCHEMA = "repro.bench-history/v1"


def history_entry_payload(
    results: Mapping[str, Iterable[BenchRecord]],
    meta: Mapping[str, str] | None = None,
) -> dict[str, Any]:
    """One (validated) history line for a multi-suite bench run."""
    payload = {
        "schema": HISTORY_SCHEMA,
        "suites": {
            name: [record.to_payload() for record in records]
            for name, records in results.items()
        },
        "meta": {key: str(value) for key, value in (meta or {}).items()},
    }
    for records in payload["suites"].values():
        for record in records:
            validate_record(record)
    return payload


def append_history(
    path: str | Path,
    results: Mapping[str, Iterable[BenchRecord]],
    meta: Mapping[str, str] | None = None,
) -> Path:
    """Append one run's records to an append-only JSONL history file.

    One line per bench run (all suites of that run together), flushed on
    write -- the file only ever grows, so the perf trajectory is visible
    commit over commit with plain ``git log -p`` or a one-line reader.
    """
    path = Path(path)
    entry = history_entry_payload(results, meta)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=False) + "\n")
        handle.flush()
    return path


def load_history(path: str | Path) -> list[dict[str, Any]]:
    """Every entry of a history file, oldest first.

    A torn final line (writer killed mid-append) is tolerated; any other
    malformed line raises.

    Raises:
        ValidationError: for malformed or schema-mismatched entries.
    """
    path = Path(path)
    if not path.exists():
        return []
    entries: list[dict[str, Any]] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                continue
            raise ValidationError(
                f"{path}:{lineno}: undecodable history line: {exc}"
            ) from exc
        if entry.get("schema") != HISTORY_SCHEMA:
            raise ValidationError(
                f"{path}:{lineno}: history schema mismatch: got "
                f"{entry.get('schema')!r}, expected {HISTORY_SCHEMA!r}"
            )
        entries.append(entry)
    return entries


def latest_history_records(
    path: str | Path,
) -> dict[str, list[BenchRecord]]:
    """The most recent history entry's records, by suite.

    Raises:
        ValidationError: for an empty or missing history file.
    """
    entries = load_history(path)
    if not entries:
        raise ValidationError(f"bench history {path} has no entries yet")
    return {
        name: [BenchRecord.from_payload(record) for record in records]
        for name, records in entries[-1].get("suites", {}).items()
    }


# -- baseline comparison (`repro bench --compare`) ----------------------------

#: Throughput regressions below ``1 - threshold/100`` of baseline fail.
DEFAULT_REGRESSION_THRESHOLD_PCT = 20.0


def is_throughput_metric(key: str) -> bool:
    """True for metrics where *lower is a regression* (rates, speedups)."""
    return "_per_s" in key or key.endswith("speedup")


def load_bench_file(path: str | Path) -> tuple[str, list[BenchRecord]]:
    """Read + validate a ``BENCH_<suite>.json``; return (suite, records)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    validate_bench_payload(payload)
    return payload["suite"], [
        BenchRecord.from_payload(record) for record in payload["records"]
    ]


@dataclasses.dataclass(frozen=True)
class MetricDelta:
    """One throughput metric compared against its stored baseline."""

    suite: str
    name: str
    metric: str
    baseline: float
    current: float
    threshold_pct: float

    @property
    def ratio(self) -> float:
        """current / baseline (> 1 means faster than the baseline)."""
        return self.current / max(self.baseline, 1e-12)

    @property
    def regressed(self) -> bool:
        """True when current fell more than the threshold below baseline."""
        floor = self.baseline * (1.0 - self.threshold_pct / 100.0)
        return self.current < floor

    def render(self) -> str:
        marker = "REGRESSION" if self.regressed else "ok"
        return (
            f"[{marker:10s}] {self.suite}/{self.name} {self.metric}: "
            f"{self.baseline:.4g} -> {self.current:.4g} "
            f"({self.ratio:.2f}x)"
        )


def compare_records(
    baseline: Iterable[BenchRecord],
    current: Iterable[BenchRecord],
    threshold_pct: float = DEFAULT_REGRESSION_THRESHOLD_PCT,
) -> list[MetricDelta]:
    """Diff a fresh suite run against its stored baseline records.

    Every baseline record -- and every throughput metric it carries --
    must still exist in the fresh run: a renamed or dropped measurement
    fails loudly instead of silently shrinking the perf gate.  Only
    throughput metrics (rates and speedups, where lower means slower)
    participate; absolute wall times vary with machine load and are
    reported by the records themselves.

    Raises:
        ValidationError: on a non-positive threshold, a baseline record
            missing from the fresh run, or a missing throughput metric.
    """
    if threshold_pct <= 0:
        raise ValidationError(
            f"regression threshold must be > 0 %, got {threshold_pct}"
        )
    current_by_name: dict[str, BenchRecord] = {}
    for record in current:
        current_by_name[record.name] = record
    deltas: list[MetricDelta] = []
    for base in baseline:
        fresh = current_by_name.get(base.name)
        if fresh is None:
            raise ValidationError(
                f"baseline record {base.suite}/{base.name} is missing from "
                "the fresh run (renamed or dropped measurements must "
                "refresh the baseline)"
            )
        fresh_metrics = fresh.metrics_dict()
        for key, value in base.metrics:
            if not is_throughput_metric(key) or value <= 0:
                continue
            if key not in fresh_metrics:
                raise ValidationError(
                    f"baseline metric {base.name}.{key} is missing from "
                    "the fresh run"
                )
            deltas.append(
                MetricDelta(
                    suite=base.suite,
                    name=base.name,
                    metric=key,
                    baseline=float(value),
                    current=float(fresh_metrics[key]),
                    threshold_pct=threshold_pct,
                )
            )
    return deltas


def load_baseline(path: str | Path) -> dict[str, list[BenchRecord]]:
    """Baseline records by suite, from either baseline format.

    A ``.jsonl`` path is read as an append-only history file
    (:func:`load_history`) and yields the **latest** entry's suites; any
    other path is a single-suite ``BENCH_<suite>.json`` document.
    """
    if str(path).endswith(".jsonl"):
        return latest_history_records(path)
    suite, records = load_bench_file(path)
    return {suite: records}


def compare_against_baseline(
    baseline_path: str | Path,
    threshold_pct: float = DEFAULT_REGRESSION_THRESHOLD_PCT,
    out_dir: str | Path | None = None,
) -> tuple[list[MetricDelta], list[BenchRecord]]:
    """Run a baseline's suite(s) fresh and diff the throughputs.

    The baseline is a ``BENCH_<suite>.json`` file or a
    ``BENCH_HISTORY.jsonl`` history (whose latest entry -- possibly
    spanning several suites -- is the baseline).  Returns ``(deltas,
    fresh_records)``; the caller decides how to report (the CLI prints
    each delta and exits non-zero when any ``regressed``).
    """
    baseline = load_baseline(baseline_path)
    results, _paths = run_suites(sorted(baseline), out_dir=out_dir)
    deltas: list[MetricDelta] = []
    fresh_all: list[BenchRecord] = []
    for suite in sorted(baseline):
        fresh = results[suite]
        deltas.extend(compare_records(baseline[suite], fresh, threshold_pct))
        fresh_all.extend(fresh)
    return deltas, fresh_all


# -- built-in suites (the `repro bench` command) ------------------------------


def _timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def bench_rq1() -> list[BenchRecord]:
    """RQ1: Steps 1-3 + completeness audits per use case, timed."""
    from repro.api import Workspace

    workspace = Workspace()
    records = []
    for use_case in workspace.use_cases():
        pipeline, build_s = _timed(lambda: workspace.builder(use_case).build())
        summary = pipeline.report.summary()
        records.append(
            BenchRecord(
                suite="rq1",
                name=f"{use_case}_pipeline_complete",
                status="ok" if pipeline.report.complete else "failed",
                metrics=freeze_items(
                    {
                        "build_s": build_s,
                        "goals": summary["goals"],
                        "goals_covered": summary["goals_covered"],
                        "threats": summary["threats"],
                        "threats_uncovered": summary["threats_uncovered"],
                        "attacks": len(pipeline.attacks),
                    }
                ),
                meta=freeze_items({"title": pipeline.name}),
            )
        )
    return records


def bench_rq2() -> list[BenchRecord]:
    """RQ2: asset scoping + ASIL filtering/budgeting reduction, timed."""
    from repro.api import Workspace
    from repro.core.prioritization import Prioritizer
    from repro.model.asset import AssetRelevance
    from repro.model.ratings import Asil

    workspace = Workspace()
    pipeline = workspace.pipeline("uc1")
    records = []

    def scope():
        scoped = pipeline.library.scoped(
            {AssetRelevance.GENERIC_CURRENT_VEHICLE}
        )
        return pipeline.library.stats(), scoped.stats()

    (full, scoped), scope_s = _timed(scope)
    records.append(
        BenchRecord(
            suite="rq2",
            name="asset_scoping",
            status=(
                "ok"
                if scoped["threat_scenarios"] < full["threat_scenarios"]
                else "failed"
            ),
            metrics=freeze_items(
                {
                    "scope_s": scope_s,
                    "full_assets": full["assets"],
                    "scoped_assets": scoped["assets"],
                    "full_threats": full["threat_scenarios"],
                    "scoped_threats": scoped["threat_scenarios"],
                }
            ),
        )
    )

    prioritizer = Prioritizer(list(pipeline.goals))
    floors = (Asil.QM, Asil.A, Asil.B, Asil.C, Asil.D)
    survivors, filter_s = _timed(
        lambda: [
            len(prioritizer.filter(pipeline.attacks, floor))
            for floor in floors
        ]
    )
    records.append(
        BenchRecord(
            suite="rq2",
            name="asil_filtering",
            status=(
                "ok"
                if survivors == sorted(survivors, reverse=True)
                else "failed"
            ),
            metrics=freeze_items(
                {
                    "filter_s": filter_s,
                    **{
                        f"survivors_{floor.name.lower()}": count
                        for floor, count in zip(floors, survivors)
                    },
                }
            ),
        )
    )

    plan, plan_s = _timed(
        lambda: prioritizer.plan(pipeline.attacks, budget=1000)
    )
    records.append(
        BenchRecord(
            suite="rq2",
            name="asil_budget",
            status="ok" if plan.total_allocated == 1000 else "failed",
            metrics=freeze_items(
                {
                    "plan_s": plan_s,
                    "budget": 1000,
                    "allocated": plan.total_allocated,
                    "entries": len(plan.entries),
                }
            ),
        )
    )
    return records


def _scalability_variants():
    """The quick scalability campaign (small, latency-dominated runs)."""
    from repro.engine.registry import default_registry

    return default_registry().variants(
        scenario="uc2-keyless-entry", family="zone-geometry"
    ) + default_registry().variants(
        scenario="uc2-keyless-entry", family="attacker-timing", limit=6
    )


def _backend_bench_variants():
    """The backend-comparison campaign: heavy enough that per-variant
    compute (hundreds of ms each) dominates pool startup, so backend
    differences measure execution, not process-spawn latency."""
    from repro.engine.registry import default_registry

    return default_registry().variants(
        scenario="uc1-construction-site", family="control-ablation"
    ) + default_registry().variants(
        scenario="uc1-construction-site", family="traffic-density"
    )


def bench_scalability(workers: int = 2) -> list[BenchRecord]:
    """Campaign fan-out: serial vs process verdict-identical runs."""
    from repro.api import Workspace
    from repro.engine.campaign import run_campaign
    from repro.runtime import ProcessBackend

    variants = _scalability_variants()
    serial = run_campaign(variants, backend="serial")
    with ProcessBackend(jobs=workers) as pool:
        parallel = run_campaign(variants, backend=pool)
    agree = [o.verdict for o in serial.outcomes] == [
        o.verdict for o in parallel.outcomes
    ]
    workspace = Workspace()
    facade = workspace.campaign(
        scenario="uc2-keyless-entry", family="zone-geometry"
    )
    facade_agree = [o.verdict for o in facade.outcomes] == [
        o.verdict for o in serial.outcomes[: facade.total]
    ]
    return [
        BenchRecord(
            suite="scalability",
            name="campaign_fanout",
            status="ok" if agree else "failed",
            metrics=freeze_items(
                {
                    "variants": serial.total,
                    "workers": workers,
                    "serial_s": serial.wall_time_s,
                    "parallel_s": parallel.wall_time_s,
                    "speedup": serial.wall_time_s
                    / max(parallel.wall_time_s, 1e-9),
                }
            ),
        ),
        BenchRecord(
            suite="scalability",
            name="workspace_facade_parity",
            status="ok" if facade_agree else "failed",
            metrics=freeze_items(
                {
                    "variants": facade.total,
                    "records": len(workspace.results()),
                }
            ),
        ),
    ]


def bench_backends(jobs: int | None = None) -> list[BenchRecord]:
    """Serial vs thread vs process wall-clock on the scalability campaign.

    One record per backend plus a ``speedup`` record capturing the
    serial/process and serial/thread ratios and the verdict-parity bit.
    The process-speedup gate is CPU-aware: multi-core hosts must show a
    real win, a single-CPU host (where a CPU-bound pool cannot beat
    serial) only has to keep the overhead bounded -- the same graded
    contract ``benchmarks/bench_scalability.py`` applies.
    """
    from repro.engine.campaign import run_campaign
    from repro.runtime import (
        ProcessBackend,
        SerialBackend,
        ThreadBackend,
        usable_cpus,
    )

    cpus = usable_cpus()
    jobs = jobs if jobs is not None else max(2, min(4, cpus))
    variants = _backend_bench_variants()
    records: list[BenchRecord] = []
    runs = {}
    for backend in (
        SerialBackend(),
        ThreadBackend(jobs=jobs),
        ProcessBackend(jobs=jobs),
    ):
        with backend:  # each comparison leg releases its workers
            result = run_campaign(variants, backend=backend)
        runs[backend.name] = result
        records.append(
            BenchRecord(
                suite="backends",
                name=f"campaign_{backend.name}",
                metrics=freeze_items(
                    {
                        "variants": result.total,
                        "jobs": result.workers,
                        "wall_s": result.wall_time_s,
                    }
                ),
                meta=freeze_items({"backend": backend.name}),
            )
        )
    serial_s = runs["serial"].wall_time_s
    process_s = max(runs["process"].wall_time_s, 1e-9)
    thread_s = max(runs["thread"].wall_time_s, 1e-9)
    parity = all(
        [o.verdict for o in runs[name].outcomes]
        == [o.verdict for o in runs["serial"].outcomes]
        for name in ("thread", "process")
    )
    process_speedup = serial_s / process_s
    # Multi-core: the process pool must genuinely beat serial.  A lone
    # CPU cannot parallelise CPU-bound work, so the gate degrades to an
    # overhead bound instead of silently passing or always failing.
    if cpus >= 4:
        fast_enough = process_speedup >= 1.2
    elif cpus >= 2:
        fast_enough = process_speedup > 1.0
    else:
        fast_enough = process_speedup >= 0.3
    records.append(
        BenchRecord(
            suite="backends",
            name="speedup",
            status="ok" if (parity and fast_enough) else "failed",
            metrics=freeze_items(
                {
                    "cpus": cpus,
                    "jobs": jobs,
                    "serial_s": serial_s,
                    "thread_s": thread_s,
                    "process_s": process_s,
                    "thread_speedup": serial_s / thread_s,
                    "process_speedup": process_speedup,
                    "verdict_parity": 1 if parity else 0,
                }
            ),
        )
    )
    return records


def fleet_variants_of_size(size: int):
    """The ``fleet`` family's variants of one convoy size.

    Selected on the variant's actual ``fleet_size`` parameter (not on
    id substrings), so renamed variant ids cannot silently empty a
    bench sweep.  Shared by the built-in ``fleet`` suite and
    ``benchmarks/bench_fleet_campaign.py``.
    """
    from repro.engine.registry import default_registry

    return tuple(
        variant
        for variant in default_registry().variants(family="fleet")
        if variant.params_dict().get("fleet_size") == size
    )


def bench_fleet(jobs: int | None = None) -> list[BenchRecord]:
    """Fleet campaign throughput: variants/sec vs convoy size per backend.

    Each backend (serial, thread, process) runs the ``fleet`` family's
    variants at convoy sizes 2/4/8; one record per ``(backend, size)``
    cell carries the wall time and throughput, and a final ``parity``
    record asserts that all backends produced identical verdict
    sequences (including the per-vehicle verdicts inside each outcome's
    stats) -- the fleet layer must not cost determinism.
    """
    from repro.engine.campaign import run_campaign
    from repro.runtime import (
        BatchedBackend,
        ProcessBackend,
        SerialBackend,
        ThreadBackend,
        usable_cpus,
    )

    cpus = usable_cpus()
    jobs = jobs if jobs is not None else max(2, min(4, cpus))
    sizes = (2, 4, 8)
    records: list[BenchRecord] = []
    verdicts: dict[str, list[tuple]] = {}
    for backend in (
        SerialBackend(),
        ThreadBackend(jobs=jobs),
        ProcessBackend(jobs=jobs),
        BatchedBackend(SerialBackend(), batch_size=4),
    ):
        backend_verdicts: list[tuple] = []
        with backend:
            for size in sizes:
                variants = fleet_variants_of_size(size)
                result = run_campaign(variants, backend=backend)
                backend_verdicts.extend(
                    (
                        outcome.variant_id,
                        outcome.verdict,
                        tuple(
                            sorted(
                                outcome.stats.get(
                                    "per_vehicle_verdicts", {}
                                ).items()
                            )
                        ),
                    )
                    for outcome in result.outcomes
                )
                records.append(
                    BenchRecord(
                        suite="fleet",
                        name=f"campaign_{backend.name}_n{size}",
                        metrics=freeze_items(
                            {
                                "fleet_size": size,
                                "variants": result.total,
                                "jobs": result.workers,
                                "wall_s": result.wall_time_s,
                                "variants_per_s": result.total
                                / max(result.wall_time_s, 1e-9),
                            }
                        ),
                        meta=freeze_items({"backend": backend.name}),
                    )
                )
        verdicts[backend.name] = backend_verdicts
    parity = all(
        verdicts[name] == verdicts["serial"]
        for name in ("thread", "process", "batched-serial")
    )
    records.append(
        BenchRecord(
            suite="fleet",
            name="parity",
            status="ok" if parity else "failed",
            metrics=freeze_items(
                {
                    "cpus": cpus,
                    "jobs": jobs,
                    "outcomes_per_backend": len(verdicts["serial"]),
                    "verdict_parity": 1 if parity else 0,
                }
            ),
        )
    )
    records.extend(_bench_fleet_large(run_campaign))
    records.append(_tick_scaling_record())
    return records


def _large_fleet_variants(size: int):
    """Baseline + jam variants rescaled to a ``size``-vehicle convoy.

    The n=8 geometry is translated so the lead vehicle keeps its n=8
    distances to the RSU and the zone (only the tail grows backwards),
    keeping the scenario semantics comparable across sizes.  Flood
    variants are deliberately excluded: their cost is O(packets * n)
    receiver fan-out, which belongs in a soak run, not a smoke suite.
    """
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
    return tuple(
        dataclasses.replace(
            variant,
            variant_id=f"{variant.variant_id}@n{size}",
            params=freeze_params({**variant.params_dict(), **geometry}),
        )
        for variant in fleet_variants_of_size(8)
        if variant.attack in (None, "jam")
    )


def _bench_fleet_large(run_campaign) -> list[BenchRecord]:
    """n=64 / n=256 variants/sec legs (serial + batched-serial).

    Tracks how campaign throughput scales with convoy size.
    Parity between the two backends is part of each record's gate.
    """
    from repro.runtime import BatchedBackend, SerialBackend

    records: list[BenchRecord] = []
    for size in (64, 256):
        variants = _large_fleet_variants(size)
        verdicts: dict[str, list[tuple]] = {}
        for make_backend in (
            lambda: SerialBackend(),
            lambda: BatchedBackend(SerialBackend(), batch_size=4),
        ):
            backend = make_backend()
            with backend:
                result = run_campaign(variants, backend=backend)
            verdicts[backend.name] = [
                (o.variant_id, o.verdict, o.violated_goals)
                for o in result.outcomes
            ]
            records.append(
                BenchRecord(
                    suite="fleet",
                    name=f"campaign_{backend.name}_n{size}",
                    metrics=freeze_items(
                        {
                            "fleet_size": size,
                            "variants": result.total,
                            "wall_s": result.wall_time_s,
                            "variants_per_s": result.total
                            / max(result.wall_time_s, 1e-9),
                        }
                    ),
                    meta=freeze_items(
                        {"backend": backend.name, "family": "fleet-large"}
                    ),
                )
            )
        if verdicts["serial"] != verdicts["batched-serial"]:
            records[-1] = dataclasses.replace(records[-1], status="failed")
    return records


def _tick_scaling_record() -> BenchRecord:
    """``Topology.step`` cost at n=8/64/256.

    Builds a mixed convoy (constant-speed lead third, follow-leader
    rest) per size and times the per-tick step, best of three runs of
    ``ticks`` steps each.  Informational: the step is a plain loop over
    the mobile actors, so it grows roughly linearly with fleet size.
    """
    from repro.sim.clock import SimClock
    from repro.sim.topology import (
        ConstantSpeedMobility,
        FollowLeaderMobility,
        Topology,
    )
    from repro.sim.world import World

    ticks = 300

    def step_seconds(size: int) -> float:
        clock = SimClock()
        world = World((size + 2) * 50.0 + 20000.0)
        topology = Topology(world, clock=clock, tick_ms=100.0)
        for index in range(size):
            if index % 3 == 0:
                mobility = ConstantSpeedMobility(25.0)
            else:
                mobility = FollowLeaderMobility(f"car-{index - 1}", gap_m=30.0)
            topology.add_mobile(
                f"car-{index}", size * 50.0 - index * 50.0, mobility
            )
        best = float("inf")
        for _repeat in range(3):
            started = time.perf_counter()
            for _tick in range(ticks):
                topology.step()
            best = min(best, time.perf_counter() - started)
        return best / ticks

    metrics: dict[str, Any] = {"ticks": ticks}
    for size in (8, 64, 256):
        metrics[f"scalar_step_us_n{size}"] = step_seconds(size) * 1e6
    return BenchRecord(
        suite="fleet",
        name="tick_scaling",
        metrics=freeze_items(metrics),
    )


def bench_kernel() -> list[BenchRecord]:
    """Substrate hot-path throughput: the perf trajectory of the core.

    Four records, each a kernel-level rate the campaign machinery sits
    on top of:

    * ``clock_events`` -- discrete events executed per second through
      :class:`~repro.sim.clock.SimClock` (tuple heap + periodic path);
    * ``bus_publish`` -- :class:`~repro.sim.events.EventBus` publishes
      per second, measured in both trace modes (``full`` retains the
      trace, ``counts`` is the lean campaign mode);
    * ``mac_verify`` -- per-receiver HMAC verification rate over
      broadcast messages (the instance memo makes one broadcast verify
      once, not once per receiver);
    * ``fleet_serial`` -- end-to-end fleet-campaign throughput
      (``fleet`` family, convoy size 8, serial backend): the
      acceptance-criterion number of the hot-path overhaul, and the
      figure to watch across commits in ``BENCH_kernel.json``.
    """
    from repro.engine.campaign import run_campaign
    from repro.sim.clock import SimClock
    from repro.sim.crypto import KeyStore
    from repro.sim.events import EventBus
    from repro.sim.network import Message

    records: list[BenchRecord] = []

    # -- clock: periodic-heavy event execution ---------------------------
    clock = SimClock()
    ticks = 0

    def tick() -> None:
        nonlocal ticks
        ticks += 1

    for _ in range(32):
        clock.schedule_periodic(1.0, tick, until=2000.0)
    executed, clock_s = _timed(clock.run)
    records.append(
        BenchRecord(
            suite="kernel",
            name="clock_events",
            status="ok" if executed == ticks and executed > 0 else "failed",
            metrics=freeze_items(
                {
                    "events": executed,
                    "wall_s": clock_s,
                    "events_per_s": executed / max(clock_s, 1e-9),
                }
            ),
        )
    )

    # -- bus: publish throughput per trace mode --------------------------
    def publish_storm(bus: EventBus, publishes: int) -> None:
        seen = []
        bus.subscribe("hot.topic", seen.append)
        bus.retain("hot.topic")
        topics = ("hot.topic", "cold.one", "cold.two", "cold.three")
        for index in range(publishes):
            bus.publish(float(index), topics[index & 3], "bench", n=index)

    publishes = 40000
    mode_rates = {}
    for mode in ("full", "counts"):
        bus = EventBus(mode=mode)
        _, publish_s = _timed(lambda b=bus: publish_storm(b, publishes))
        mode_rates[mode] = publishes / max(publish_s, 1e-9)
    records.append(
        BenchRecord(
            suite="kernel",
            name="bus_publish",
            metrics=freeze_items(
                {
                    "publishes": publishes,
                    "publishes_per_s_full": mode_rates["full"],
                    "publishes_per_s_counts": mode_rates["counts"],
                }
            ),
        )
    )

    # -- crypto: broadcast MAC verification ------------------------------
    keystore = KeyStore()
    key = keystore.provision("RSU-bench")
    messages = [
        Message(
            kind="road_works_warning",
            sender="RSU-bench",
            payload={"zone_start_m": 1500.0, "n": n},
            counter=n,
            timestamp=float(n),
        ).signed(keystore)
        for n in range(500)
    ]
    receivers = 8

    def verify_all() -> int:
        verified = 0
        for message in messages:
            for _ in range(receivers):  # each convoy member re-checks
                if message.mac_verified(key):
                    verified += 1
        return verified

    verified, verify_s = _timed(verify_all)
    records.append(
        BenchRecord(
            suite="kernel",
            name="mac_verify",
            status=(
                "ok" if verified == len(messages) * receivers else "failed"
            ),
            metrics=freeze_items(
                {
                    "verifies": verified,
                    "wall_s": verify_s,
                    "mac_verifies_per_s": verified / max(verify_s, 1e-9),
                }
            ),
        )
    )

    # -- spatial kernel: range and nearest-neighbour queries ------------
    from repro.sim.topology import SpatialIndex

    entries = [
        (float((index * 37) % 3000), f"veh-{index:03d}")
        for index in range(512)
    ]
    centers = [float(center) for center in range(0, 3000, 60)]

    def query_storm(index: SpatialIndex) -> int:
        hits = 0
        for center in centers:
            hits += len(index.within(center, 250.0))
            hits += len(index.nearest(center, 8))
        return hits

    spatial_index = SpatialIndex(entries)
    spatial_hits, spatial_s = _timed(lambda: query_storm(spatial_index))
    queries = 2 * len(centers)
    spatial_metrics = {
        "entries": len(entries),
        "queries": queries,
        "python_queries_per_s": queries / max(spatial_s, 1e-9),
    }
    spatial_ok = spatial_hits > 0
    records.append(
        BenchRecord(
            suite="kernel",
            name="spatial_queries",
            status="ok" if spatial_ok else "failed",
            metrics=freeze_items(spatial_metrics),
        )
    )

    # -- end to end: the fleet campaign, serially ------------------------
    # Best of two (here and on each batched leg below): one noisy run on
    # a loaded container must not skew the speedup ratio either way.
    variants = fleet_variants_of_size(8)
    result, campaign_s = _timed(
        lambda: run_campaign(variants, backend="serial")
    )
    serial_retry, serial_retry_s = _timed(
        lambda: run_campaign(variants, backend="serial")
    )
    if serial_retry_s < campaign_s:
        result, campaign_s = serial_retry, serial_retry_s
    serial_rate = result.total / max(campaign_s, 1e-9)
    records.append(
        BenchRecord(
            suite="kernel",
            name="fleet_serial",
            status="ok" if result.total and not result.errors() else "failed",
            metrics=freeze_items(
                {
                    "fleet_size": 8,
                    "variants": result.total,
                    "wall_s": campaign_s,
                    "variants_per_s": serial_rate,
                }
            ),
            meta=freeze_items({"backend": "serial", "family": "fleet"}),
        )
    )

    # -- end to end: the same campaign through the batched tier ----------
    from repro.runtime import (
        BatchedBackend,
        ProcessBackend,
        SerialBackend,
        usable_cpus,
    )

    cpus = usable_cpus()
    jobs = max(2, min(4, cpus))
    serial_verdicts = [
        (o.variant_id, o.verdict, o.violated_goals) for o in result.outcomes
    ]
    for name, make_backend_fn in (
        (
            "fleet_batched_serial",
            lambda: BatchedBackend(SerialBackend(), batch_size=8),
        ),
        (
            "fleet_batched_process",
            lambda: BatchedBackend(
                ProcessBackend(jobs=jobs), batch_size=2
            ),
        ),
    ):
        backend = make_backend_fn()
        with backend:
            batched, batched_s = _timed(
                lambda b=backend: run_campaign(variants, backend=b)
            )
            retry, retry_s = _timed(
                lambda b=backend: run_campaign(variants, backend=b)
            )
            if retry_s < batched_s:
                batched, batched_s = retry, retry_s
        batched_rate = batched.total / max(batched_s, 1e-9)
        parity = serial_verdicts == [
            (o.variant_id, o.verdict, o.violated_goals)
            for o in batched.outcomes
        ]
        speedup = batched_rate / max(serial_rate, 1e-9)
        # CPU-graded contract (same shape as the backends suite): the
        # ISSUE's >= 2x batched-throughput target is a multi-core number
        # -- a lone CPU cannot parallelise CPU-bound batches, and its
        # wall-clock ratio on a ~1 s campaign is noise-dominated, so
        # there the serial-batched gate is parity-only (the measured
        # ratio still lands in the trajectory for human eyes).
        if name == "fleet_batched_serial":
            fast_enough = speedup >= 0.75 if cpus >= 2 else True
        elif cpus >= 4:
            fast_enough = speedup >= 2.0
        elif cpus >= 2:
            fast_enough = speedup > 1.0
        else:
            fast_enough = speedup >= 0.3
        records.append(
            BenchRecord(
                suite="kernel",
                name=name,
                status="ok" if (parity and fast_enough) else "failed",
                metrics=freeze_items(
                    {
                        "fleet_size": 8,
                        "variants": batched.total,
                        "cpus": cpus,
                        "batch_size": backend.batch_size,
                        "wall_s": batched_s,
                        "variants_per_s": batched_rate,
                        "speedup_vs_serial": speedup,
                        "verdict_parity": 1 if parity else 0,
                    }
                ),
                meta=freeze_items(
                    {"backend": backend.name, "family": "fleet"}
                ),
            )
        )
    return records


def bench_service() -> list[BenchRecord]:
    """The campaign service plane: wire latency, cold vs warm campaigns.

    Spins up a real :class:`~repro.service.CampaignDaemon` (loopback
    socket, journal-backed memo store in a temp dir) and measures:

    * ``wire_roundtrip`` -- ping requests per second (connection +
      JSON-line round trip, no campaign work);
    * ``campaign_cold`` -- a heavyweight uc1 control-ablation campaign
      submitted to an empty memo store, verdict-checked against an
      in-process serial run of the same variants;
    * ``campaign_warm`` -- the identical resubmission: every variant
      must be a memo hit, verdicts must not move, and the acceptance
      gate requires ``warm_speedup >= 10`` (resubmission at least 10x
      faster than the cold run);
    * ``submissions_per_s`` -- small warm submissions accepted and
      completed per second (scheduler + memo, no execution).
    """
    import tempfile

    from repro.engine.campaign import run_campaign
    from repro.engine.registry import default_registry
    from repro.service import CampaignDaemon, ServiceClient

    records: list[BenchRecord] = []
    variants = default_registry().variants(
        scenario="uc1-construction-site", family="control-ablation"
    )
    reference = run_campaign(variants, backend="serial")
    ref_verdicts = [outcome.verdict for outcome in reference.outcomes]
    with tempfile.TemporaryDirectory() as tmp:
        with CampaignDaemon(memo_dir=tmp, shards=2, workers=2).start() as daemon:
            client = ServiceClient(daemon.port)

            pings = 50
            _, ping_s = _timed(
                lambda: [client.ping() for _ in range(pings)]
            )
            records.append(
                BenchRecord(
                    suite="service",
                    name="wire_roundtrip",
                    metrics=freeze_items(
                        {
                            "requests": pings,
                            "wall_s": ping_s,
                            "requests_per_s": pings / max(ping_s, 1e-9),
                        }
                    ),
                )
            )

            (cold_outcomes, cold_summary), cold_s = _timed(
                lambda: client.submit(variants)
            )
            cold_parity = [
                outcome.verdict for outcome in cold_outcomes
            ] == ref_verdicts
            records.append(
                BenchRecord(
                    suite="service",
                    name="campaign_cold",
                    status=(
                        "ok"
                        if cold_parity and cold_summary["cached"] == 0
                        else "failed"
                    ),
                    metrics=freeze_items(
                        {
                            "variants": len(variants),
                            "wall_s": cold_s,
                            "memo_hits": cold_summary["cached"],
                            "verdict_parity": 1 if cold_parity else 0,
                        }
                    ),
                )
            )

            (warm_outcomes, warm_summary), warm_s = _timed(
                lambda: client.submit(variants)
            )
            warm_parity = [
                outcome.verdict for outcome in warm_outcomes
            ] == ref_verdicts
            hits = warm_summary["cached"]
            warm_speedup = cold_s / max(warm_s, 1e-9)
            hit_rate = hits / max(len(variants), 1)
            all_hit = hits == len(variants)
            records.append(
                BenchRecord(
                    suite="service",
                    name="campaign_warm",
                    # The acceptance gate: a warm resubmission must be
                    # >= 10x faster than cold, fully memo-served, and
                    # verdict-identical.
                    status=(
                        "ok"
                        if warm_parity and all_hit and warm_speedup >= 10.0
                        else "failed"
                    ),
                    metrics=freeze_items(
                        {
                            "variants": len(variants),
                            "wall_s": warm_s,
                            "memo_hits": hits,
                            "memo_hit_rate": hit_rate,
                            "warm_speedup": warm_speedup,
                            "verdict_parity": 1 if warm_parity else 0,
                        }
                    ),
                )
            )

            small = variants[:2]
            submissions = 20
            _, subs_s = _timed(
                lambda: [client.submit(small) for _ in range(submissions)]
            )
            records.append(
                BenchRecord(
                    suite="service",
                    name="submission_throughput",
                    metrics=freeze_items(
                        {
                            "submissions": submissions,
                            "variants_each": len(small),
                            "wall_s": subs_s,
                            "submissions_per_s": submissions
                            / max(subs_s, 1e-9),
                        }
                    ),
                )
            )
    return records


def bench_faults() -> list[BenchRecord]:
    """The fault-tolerant execution plane: overhead and recovery cost.

    * ``no_fault_overhead`` -- the same serial campaign with and without
      the fault-plane plumbing armed (retry policy + campaign deadline,
      no fault plan): the plumbing must cost <= 5% (each side takes the
      best of two runs, and sub-0.25s absolute deltas never fail the
      gate -- wall-clock noise on a short campaign is not a regression);
    * ``transient_recovery`` -- two injected transient failures under a
      retry policy: verdict parity plus the wall-clock cost of the
      retries;
    * ``respawn_recovery`` -- an injected worker kill on the process
      backend: verdict parity plus the cost of the pool respawn and the
      re-enqueued jobs.
    """
    import os
    import tempfile

    from repro.engine.campaign import run_campaign
    from repro.engine.registry import default_registry
    from repro.faults import FAULT_PLAN_ENV, compile_plan, reset_fault_state
    from repro.runtime import ProcessBackend, RetryPolicy

    records: list[BenchRecord] = []
    variants = default_registry().variants(family="coverage")
    retry = RetryPolicy(base_delay_s=0.01)

    os.environ.pop(FAULT_PLAN_ENV, None)
    reset_fault_state()

    def serial_plain():
        return run_campaign(variants, backend="serial")

    def serial_armed():
        return run_campaign(
            variants,
            backend="serial",
            retry=retry,
            deadline_s=600.0,
            on_error="record",
        )

    (clean, plain_s), (_, plain_s2) = _timed(serial_plain), _timed(serial_plain)
    (armed, armed_s), (_, armed_s2) = _timed(serial_armed), _timed(serial_armed)
    plain_best = min(plain_s, plain_s2)
    armed_best = min(armed_s, armed_s2)
    ref_verdicts = [outcome.verdict for outcome in clean.outcomes]
    overhead_pct = 100.0 * (armed_best - plain_best) / max(plain_best, 1e-9)
    overhead_ok = overhead_pct <= 5.0 or (armed_best - plain_best) < 0.25
    records.append(
        BenchRecord(
            suite="faults",
            name="no_fault_overhead",
            status="ok" if overhead_ok else "failed",
            metrics=freeze_items(
                {
                    "variants": len(variants),
                    "plain_s": plain_best,
                    "armed_s": armed_best,
                    "overhead_pct": overhead_pct,
                }
            ),
        )
    )

    with tempfile.TemporaryDirectory() as tmp:
        plan = compile_plan(
            1,
            ("raise-transient", "raise-transient"),
            total_jobs=len(variants),
            state_dir=os.path.join(tmp, "transient"),
        )
        os.environ[FAULT_PLAN_ENV] = plan.to_json()
        reset_fault_state()
        try:
            faulted, faulted_s = _timed(
                lambda: run_campaign(
                    variants,
                    backend="serial",
                    retry=retry,
                    on_error="record",
                )
            )
        finally:
            os.environ.pop(FAULT_PLAN_ENV, None)
            reset_fault_state()
        parity = [o.verdict for o in faulted.outcomes] == ref_verdicts
        retried = sum(
            1
            for o in faulted.outcomes
            if int(o.stats.get("attempts", 1)) > 1
        )
        records.append(
            BenchRecord(
                suite="faults",
                name="transient_recovery",
                status="ok" if parity and retried == 2 else "failed",
                metrics=freeze_items(
                    {
                        "variants": len(variants),
                        "wall_s": faulted_s,
                        "recovery_overhead_s": max(0.0, faulted_s - plain_best),
                        "retried": retried,
                        "verdict_parity": 1 if parity else 0,
                    }
                ),
            )
        )

        plan = compile_plan(
            2,
            ("kill-worker",),
            total_jobs=len(variants),
            state_dir=os.path.join(tmp, "kill"),
        )
        os.environ[FAULT_PLAN_ENV] = plan.to_json()
        reset_fault_state()
        backend = ProcessBackend(jobs=2)
        try:
            killed, killed_s = _timed(
                lambda: run_campaign(
                    variants,
                    backend=backend,
                    retry=retry,
                    on_error="record",
                )
            )
            respawns = backend.respawns
        finally:
            backend.shutdown()
            os.environ.pop(FAULT_PLAN_ENV, None)
            reset_fault_state()
        parity = [o.verdict for o in killed.outcomes] == ref_verdicts
        records.append(
            BenchRecord(
                suite="faults",
                name="respawn_recovery",
                status="ok" if parity and respawns == 1 else "failed",
                metrics=freeze_items(
                    {
                        "variants": len(variants),
                        "wall_s": killed_s,
                        "respawns": respawns,
                        "verdict_parity": 1 if parity else 0,
                    }
                ),
            )
        )
    return records


#: The built-in suites ``repro bench`` runs, in execution order.
BENCH_SUITES: dict[str, Callable[[], list[BenchRecord]]] = {
    "rq1": bench_rq1,
    "rq2": bench_rq2,
    "scalability": bench_scalability,
    "backends": bench_backends,
    "fleet": bench_fleet,
    "kernel": bench_kernel,
    "service": bench_service,
    "faults": bench_faults,
}


#: ``--profile`` dumps this many cProfile rows per suite.
PROFILE_TOP_ROWS = 20


def profile_suite(
    name: str, sink: Callable[[str], None] = print
) -> list[BenchRecord]:
    """Run one suite under cProfile; dump the top cumulative rows.

    The profile goes to ``sink`` line by line (top
    :data:`PROFILE_TOP_ROWS` rows by cumulative time), the records are
    returned unchanged -- wall-clock metrics measured *under* the
    profiler are inflated and must not be written as trajectory
    snapshots, which is why the CLI never combines ``--profile`` output
    with ``--out``/``--history``.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        records = BENCH_SUITES[name]()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(PROFILE_TOP_ROWS)
    sink(f"== profile: suite {name!r} (top {PROFILE_TOP_ROWS} cumulative) ==")
    for line in buffer.getvalue().splitlines():
        sink(line)
    return records


def run_suites(
    names: Iterable[str] | None = None,
    out_dir: str | Path | None = ".",
    profile: bool = False,
) -> tuple[dict[str, list[BenchRecord]], list[Path]]:
    """Run built-in suites; write one ``BENCH_<suite>.json`` per suite.

    Args:
        names: Suites to run (default: all of :data:`BENCH_SUITES`).
        out_dir: Where the bench files go; ``None`` skips writing.
        profile: Run each suite under cProfile and print its top
            cumulative rows (see :func:`profile_suite`).  Profiled
            wall-clock numbers are inflated, so no bench files are
            written in this mode regardless of ``out_dir``.

    Returns:
        ``(records_by_suite, written_paths)``.
    """
    selected = tuple(names) if names is not None else tuple(BENCH_SUITES)
    for name in selected:
        if name not in BENCH_SUITES:
            raise ValidationError(
                f"unknown bench suite {name!r} "
                f"(known: {sorted(BENCH_SUITES)})"
            )
    results: dict[str, list[BenchRecord]] = {}
    paths: list[Path] = []
    for name in selected:
        if profile:
            results[name] = profile_suite(name)
            continue
        results[name] = BENCH_SUITES[name]()
        if out_dir is not None:
            paths.append(write_bench_file(name, results[name], out_dir))
    return results, paths


__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SUITES",
    "BenchRecord",
    "DEFAULT_REGRESSION_THRESHOLD_PCT",
    "HISTORY_SCHEMA",
    "MetricDelta",
    "PROFILE_TOP_ROWS",
    "STATUSES",
    "append_history",
    "bench_backends",
    "bench_faults",
    "bench_file_payload",
    "bench_fleet",
    "bench_kernel",
    "bench_rq1",
    "bench_rq2",
    "bench_scalability",
    "bench_service",
    "compare_against_baseline",
    "compare_records",
    "fleet_variants_of_size",
    "history_entry_payload",
    "is_throughput_metric",
    "latest_history_records",
    "load_baseline",
    "load_bench_file",
    "load_history",
    "profile_suite",
    "records_from_pytest_benchmark",
    "run_suites",
    "validate_bench_payload",
    "validate_record",
    "write_bench_file",
]
