"""Command-line interface to the SaSeVAL reproduction.

Usage (also via ``python -m repro``)::

    repro report uc1              # HARA summary + goals + attack counts
    repro report uc2
    repro attack AD20 --usecase uc1   # render one attack (Table VI style)
    repro export uc2 attacks.dsl      # write all attacks as DSL
    repro validate attacks.dsl --usecase uc2   # parse + semantic check
    repro run AD08 --usecase uc2      # execute a bound attack, print verdict
    repro trace uc1                   # goal/attack/threat matrix (Markdown)
    repro campaign --backend process --jobs 4   # parallel fan-out
    repro campaign --family control-ablation --verbose
    repro campaign --usecase uc1 --family fleet --fleet 4   # convoy runs
    repro campaign --family coverage --rsu-range 200        # range sweep
    repro campaign --list             # enumerate variants without running
    repro campaign --list-families    # enumerate the variant families
    repro campaign --export out.csv   # export outcomes (json/csv/md)
    repro serve --port-file daemon.port --memo-dir .memo  # campaign daemon
    repro submit --port-file daemon.port --family coverage  # stream verdicts
    repro status --port-file daemon.port        # scheduler + memo state
    repro lint                        # static verification plane (src + registry + DSL)
    repro lint --json --out lint-out  # schema-stable LINT.json for CI
    repro lint --list-rules           # the codified invariant catalog
    repro lint --diff LINT.json       # gate on *new* findings only
    repro chaos --family coverage     # fault-injection parity gate
    repro chaos --kinds kill-worker,drop-connection --out chaos-out

The CLI is a thin shell over the :mod:`repro.api` facade; every command
returns a proper exit code (0 ok, 1 user error, 2 validation/semantic
failure) so it can gate CI pipelines on completeness or verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.reporting import (
    render_asil_distribution,
    render_attack_description,
)
from repro.dsl import analyze, format_attacks, parse
from repro.errors import ReproError, ValidationError
from repro.results import SCHEMA as RESULTS_SCHEMA, ResultSet
from repro.runtime import BACKEND_NAMES
from repro.threatlib.catalog import build_catalog
from repro.usecases import uc1, uc2

_USE_CASES = {"uc1": uc1, "uc2": uc2}


def _module_for(name: str):
    if name not in _USE_CASES:
        raise SystemExit(f"unknown use case {name!r} (choose uc1 or uc2)")
    return _USE_CASES[name]


def cmd_report(args: argparse.Namespace) -> int:
    """Print the use case's analysis summary."""
    module = _module_for(args.usecase)
    hara = module.build_hara()
    attacks = module.build_attacks()
    print(module.USE_CASE_NAME)
    print(f"  functions : {len(hara.functions)}")
    print(f"  ratings   : {len(hara.ratings)}")
    print(
        "  asil      : "
        + render_asil_distribution(hara.asil_distribution())
    )
    print(f"  goals     : {len(hara.safety_goals)}")
    for goal in hara.safety_goals:
        print(f"    - {goal}")
    safety = len(attacks.safety_attacks())
    privacy = len(attacks.privacy_attacks())
    print(f"  attacks   : {safety} safety + {privacy} privacy")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    """Render one attack description in the paper's table layout."""
    module = _module_for(args.usecase)
    attacks = module.build_attacks()
    if args.attack_id not in attacks:
        print(
            f"no attack {args.attack_id} in {module.USE_CASE_NAME}",
            file=sys.stderr,
        )
        return 1
    print(render_attack_description(attacks.get(args.attack_id)))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Write a use case's attack descriptions as a DSL document."""
    module = _module_for(args.usecase)
    document = format_attacks(list(module.build_attacks()))
    Path(args.output).write_text(document, encoding="utf-8")
    print(f"wrote {len(document.splitlines())} lines to {args.output}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Parse + semantically validate a DSL document."""
    module = _module_for(args.usecase)
    source = Path(args.file).read_text(encoding="utf-8")
    try:
        attacks = analyze(
            parse(source),
            build_catalog(),
            list(module.build_hara().safety_goals),
        )
    except ReproError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 2
    print(f"OK: {len(attacks)} attack description(s) validated")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Execute one bound attack against the simulator."""
    from repro.api import Workspace

    try:
        execution = Workspace().run(args.attack_id, args.usecase)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(execution.summary())
    print(f"  {execution.notes}")
    return 0 if execution.sut_passed else 2


def _export_records(records: ResultSet, target: str) -> None:
    """Write a result set to ``target`` (format from the extension)."""
    path = Path(target)
    suffix = path.suffix.lower()
    if suffix == ".json":
        document = records.to_json()
    elif suffix == ".csv":
        document = records.to_csv()
    elif suffix in (".md", ".markdown"):
        document = records.to_markdown()
    else:
        raise ReproError(
            f"cannot infer export format from {target!r} "
            "(use .json, .csv or .md)"
        )
    path.write_text(document, encoding="utf-8")


def _print_families(registry, args: argparse.Namespace) -> int:
    """Enumerate the variant families, honouring the selection filters."""
    rows = []
    for scenario in registry.names():
        if args.scenario is not None and scenario != args.scenario:
            continue
        if (
            args.usecase is not None
            and registry.get(scenario).use_case != args.usecase
        ):
            continue
        for family in registry.families(scenario):
            if args.family is not None and family != args.family:
                continue
            rows.append(
                {
                    "scenario": scenario,
                    "family": family,
                    "variants": len(
                        registry.variants(scenario=scenario, family=family)
                    ),
                }
            )
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    if not rows:
        print("no families match the given filters", file=sys.stderr)
        return 1
    for row in rows:
        print(
            f"{row['scenario']:25s} {row['family']:20s} "
            f"{row['variants']:4d} variant(s)"
        )
    print(f"{len(rows)} famil{'y' if len(rows) == 1 else 'ies'}")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run (or list) the scenario registry's variant families."""
    # Imported here so the light report/export commands keep their fast
    # startup; the engine pulls in the whole simulator stack.
    from repro.api import Workspace
    from repro.engine.registry import apply_topology_overrides, default_registry

    try:
        # Selection needs only the registry; --backend/--jobs are
        # resolved once, inside Workspace.campaign below.
        registry = default_registry()
        if args.list_families:
            return _print_families(registry, args)
        variants = registry.variants(
            scenario=args.scenario,
            family=args.family,
            attack=args.attack,
            limit=args.limit,
            use_case=args.usecase,
        )
        if args.fleet is not None or args.rsu_range is not None:
            variants = apply_topology_overrides(
                variants,
                registry,
                fleet_size=args.fleet,
                rsu_range_m=args.rsu_range,
            )
    except ReproError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    if not variants:
        print("no variants match the given filters", file=sys.stderr)
        return 1
    if args.list:
        if args.json:
            print(json.dumps(
                [
                    {
                        "variant_id": variant.variant_id,
                        "scenario": variant.scenario,
                        "family": variant.family,
                        "attack": variant.attack,
                        "description": variant.description,
                    }
                    for variant in variants
                ],
                indent=2,
            ))
            return 0
        for variant in variants:
            attack = variant.attack or "-"
            print(f"{variant.variant_id:50s} {attack:10s} {variant.description}")
        print(f"{len(variants)} variant(s)")
        return 0
    workspace = Workspace()
    try:
        retry = None
        if args.retries is not None:
            from repro.runtime import RetryPolicy

            retry = RetryPolicy(max_attempts=args.retries)
        result = workspace.campaign(
            variants=variants,
            backend=args.backend,
            jobs=args.jobs,
            retry=retry,
            deadline_s=args.deadline_s,
            # Fault-tolerant runs record failures as tagged outcomes
            # (quarantine) instead of failing the whole campaign.
            on_error="record" if (retry or args.deadline_s) else "raise",
        )
    except ReproError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    records = workspace.results()
    if args.export:
        try:
            _export_records(records, args.export)
        except (ReproError, OSError) as exc:
            print(f"ERROR: {exc}", file=sys.stderr)
            return 1
        print(f"exported {len(records)} record(s) to {args.export}")
    if args.json:
        print(json.dumps(
            {
                "schema": RESULTS_SCHEMA,
                "summary": result.summary(),
                "outcomes": [record.to_payload() for record in records],
            },
            indent=2,
        ))
    elif not args.export:
        print(result.to_text(verbose=args.verbose))
    inconclusive = result.counts().get("INCONCLUSIVE", 0)
    return 2 if inconclusive or result.errors() else 0


def _lint_findings(args: argparse.Namespace):
    """Collect lint + spec findings; returns (findings, checked_files)."""
    from repro.analysis import check_all, lint_paths, rules_by_code

    codes = (
        [code.strip() for code in args.rules.split(",") if code.strip()]
        if args.rules
        else None
    )
    if args.paths:
        paths = list(args.paths)
    else:
        import repro

        paths = [Path(repro.__file__).parent]
    findings, checked = lint_paths(
        paths, rules=rules_by_code(codes), root=Path.cwd()
    )
    if not args.no_spec:
        findings = findings + check_all()
    return findings, checked


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static verification plane (AST rules + registry/DSL)."""
    from repro.analysis import (
        build_report,
        diff_findings,
        load_report,
        render_report,
        rule_catalog,
        sort_findings,
        write_report,
    )

    if args.list_rules:
        for rule in rule_catalog():
            print(f"{rule['code']}  {rule['name']:28s} {rule['summary']}")
        return 0
    try:
        findings, checked = _lint_findings(args)
        if args.diff is not None:
            findings = diff_findings(findings, load_report(args.diff))
        payload = build_report(
            sort_findings(findings),
            checked_files=checked,
            rules=rule_catalog(),
        )
        if args.out is not None:
            path = write_report(payload, args.out)
    except (ReproError, OSError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        if args.diff is not None and not findings:
            print(f"no new findings relative to {args.diff}")
        else:
            print(render_report(payload))
        if args.out is not None:
            print(f"wrote {path}")
    return 2 if findings else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the persistent campaign daemon (blocks until stopped)."""
    import logging

    from repro.service import CampaignDaemon

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        daemon = CampaignDaemon(
            host=args.host,
            port=args.port,
            memo_dir=args.memo_dir,
            shards=args.shards,
            workers=args.workers,
            port_file=args.port_file,
            deadline_s=args.deadline_s,
        )
    except (ReproError, OSError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    print(f"serving on {daemon.host}:{daemon.port} (ctrl-c to stop)")
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.stop()
    return 0


def _service_client(args: argparse.Namespace):
    """A ``ServiceClient`` from ``--port``/``--port-file`` arguments."""
    from repro.service import ServiceClient

    if args.port_file is not None:
        return ServiceClient.from_port_file(args.port_file, args.host)
    if args.port is not None:
        return ServiceClient(args.port, args.host)
    raise SystemExit("pass --port or --port-file to find the daemon")


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a variant selection to a running daemon; stream verdicts."""
    from repro.service import ServiceError

    select = {
        key: value
        for key, value in {
            "scenario": args.scenario,
            "family": args.family,
            "attack": args.attack,
            "limit": args.limit,
            "use_case": args.usecase,
        }.items()
        if value is not None
    }
    outcomes = []
    summary = {}
    try:
        client = _service_client(args)
        for kind, key, payload in client.submit_stream(select=select):
            if kind == "accepted":
                print(f"accepted {key}: {payload} variant(s)")
            elif kind == "outcome":
                outcomes.append(payload)
                marker = (
                    "ERR!" if payload.is_error
                    else "PASS" if payload.sut_passed
                    else "FAIL"
                )
                cached = " (cached)" if payload.from_cache else ""
                print(f"  [{marker}] {payload.variant_id}{cached}")
            else:
                summary = payload
    except ServiceError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(
            {
                "summary": summary,
                "outcomes": [o.to_payload() for o in outcomes],
            },
            indent=2,
        ))
    else:
        print(
            f"done: {summary.get('completed', 0)}/{summary.get('total', 0)} "
            f"completed, {summary.get('cached', 0)} cached, "
            f"{summary.get('errors', 0)} error(s)"
        )
    return 2 if summary.get("errors") else 0


def cmd_status(args: argparse.Namespace) -> int:
    """Query a running daemon's scheduler + memo store state."""
    from repro.service import ServiceError

    try:
        status = _service_client(args).status()
    except ServiceError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(status, indent=2))
        return 0
    scheduler = status.get("scheduler", {})
    memo = status.get("memo", {})
    print(
        f"daemon pid {status.get('pid')}, up {status.get('uptime_s', 0):.0f}s"
    )
    print(
        f"  scheduler: {scheduler.get('workers')} worker(s) over "
        f"{scheduler.get('shards')} shard(s), "
        f"{scheduler.get('queued_units')} unit(s) queued, "
        f"{scheduler.get('executed')} executed, "
        f"{scheduler.get('stolen_units')} stolen"
    )
    print(
        f"  submissions: {scheduler.get('active_submissions')} active / "
        f"{scheduler.get('total_submissions')} total"
    )
    print(
        f"  memo: {memo.get('entries')} entries, {memo.get('hits')} hits / "
        f"{memo.get('misses')} misses ({memo.get('path') or 'in-memory'})"
    )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Deterministic chaos gate: faulted runs must reproduce clean verdicts.

    Two phases, each against the same variant selection:

    * **engine** -- job-site faults (``kill-worker``, ``delay-job``,
      ``raise-transient``) on a process backend with a retry policy;
    * **service** -- wire/journal faults (``drop-connection``,
      ``torn-journal``) through an in-process daemon and a resuming
      client.

    A phase passes when its verdicts (and violated-goal sets) are
    bit-identical to the clean serial run -- and to ``--golden`` when
    given -- with zero quarantined variants.  Exit 0 on full parity,
    2 on any divergence.
    """
    import dataclasses
    import os
    import tempfile

    from repro.engine.campaign import run_campaign
    from repro.engine.registry import default_registry
    from repro.faults import (
        FAULT_PLAN_ENV,
        SITE_BY_KIND,
        compile_plan,
        reset_fault_state,
    )
    from repro.runtime import ProcessBackend, RetryPolicy

    registry = default_registry()
    select = {
        key: value
        for key, value in {
            "scenario": args.scenario,
            "family": args.family,
            "limit": args.limit,
        }.items()
        if value is not None
    }
    golden = None
    try:
        variants = registry.variants(**select)
        if args.golden:
            golden = json.loads(Path(args.golden).read_text(encoding="utf-8"))
            if not isinstance(golden, dict):
                raise ValidationError(
                    f"{args.golden}: a golden capture must be a JSON object "
                    "mapping variant ids to [verdict, goals]"
                )
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    if not variants:
        print("ERROR: selection matched no variants", file=sys.stderr)
        return 1
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    unknown = [k for k in kinds if k not in SITE_BY_KIND]
    if unknown:
        print(
            f"ERROR: unknown fault kind(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(SITE_BY_KIND))})",
            file=sys.stderr,
        )
        return 1
    engine_kinds = tuple(k for k in kinds if SITE_BY_KIND[k] == "job-start")
    service_kinds = tuple(k for k in kinds if SITE_BY_KIND[k] != "job-start")

    def signature(outcomes):
        return [
            (o.variant_id, o.verdict, list(o.violated_goals))
            for o in outcomes
        ]

    print(
        f"chaos: {len(variants)} variant(s), seed {args.seed}, "
        f"kinds: {', '.join(kinds) or '(none)'}"
    )
    os.environ.pop(FAULT_PLAN_ENV, None)
    reset_fault_state()
    clean = run_campaign(variants, registry=registry, backend="serial")
    reference = signature(clean.outcomes)
    report: dict = {
        "variants": len(variants),
        "seed": args.seed,
        "kinds": list(kinds),
        "phases": [],
    }
    failures = 0
    if golden is not None:
        mismatched = [
            vid
            for vid, verdict, goals in reference
            if vid not in golden or golden[vid] != [verdict, goals]
        ]
        ok = not mismatched
        report["golden"] = {"path": str(args.golden), "parity": ok}
        print(f"  [{'ok' if ok else 'FAIL'}] clean run vs golden capture")
        if not ok:
            print(f"    diverged: {', '.join(mismatched[:5])}", file=sys.stderr)
            failures += 1

    retry = RetryPolicy(seed=args.seed)
    state_root = tempfile.mkdtemp(prefix="repro-chaos-")

    def run_phase(phase, plan, execute):
        os.environ[FAULT_PLAN_ENV] = plan.to_json()
        reset_fault_state()
        try:
            outcomes, extra = execute()
        finally:
            os.environ.pop(FAULT_PLAN_ENV, None)
            reset_fault_state()
        quarantined = sum(1 for o in outcomes if o.stats.get("quarantined"))
        parity = signature(outcomes) == reference
        entry = {
            "phase": phase,
            "parity": parity,
            "quarantined": quarantined,
            "errors": sum(1 for o in outcomes if o.is_error),
            "faults": [dataclasses.asdict(f) for f in plan.faults],
            **extra,
        }
        report["phases"].append(entry)
        ok = parity and quarantined == 0
        print(
            f"  [{'ok' if ok else 'FAIL'}] {phase} phase: parity={parity}, "
            f"quarantined={quarantined}, "
            f"faults={[(f.kind, f.at) for f in plan.faults]}"
        )
        return ok

    if engine_kinds:
        plan = compile_plan(
            args.seed,
            engine_kinds,
            total_jobs=len(variants),
            state_dir=os.path.join(state_root, "engine"),
        )

        def execute_engine():
            backend = ProcessBackend(jobs=args.jobs)
            try:
                result = run_campaign(
                    variants,
                    backend=backend,
                    on_error="record",
                    retry=retry,
                )
            finally:
                respawns = backend.respawns
                backend.shutdown()
            return result.outcomes, {"backend": "process", "respawns": respawns}

        if not run_phase("engine", plan, execute_engine):
            failures += 1

    if service_kinds:
        from repro.service import CampaignDaemon, ServiceClient

        plan = compile_plan(
            args.seed,
            service_kinds,
            total_jobs=len(variants),
            state_dir=os.path.join(state_root, "service"),
        )

        def execute_service():
            with CampaignDaemon(
                memo_dir=os.path.join(state_root, "memo"), shards=2
            ).start() as daemon:
                client = ServiceClient(daemon.port, retry=retry)
                outcomes, summary = client.submit(variants)
            return outcomes, {
                "backend": "service",
                "cached": summary.get("cached", 0),
            }

        if not run_phase("service", plan, execute_service):
            failures += 1

    report["parity"] = failures == 0
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "CHAOS.json"
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    if args.json:
        print(json.dumps(report, indent=2))
    if failures:
        print(
            f"CHAOS FAILED: {failures} phase(s)/gate(s) diverged",
            file=sys.stderr,
        )
        return 2
    print("chaos parity holds: every faulted run matched the clean verdicts")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Print the goal/attack/threat traceability matrix."""
    from repro.api import Workspace

    pipeline = Workspace().pipeline(args.usecase)
    print(pipeline.trace_matrix().to_markdown())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SaSeVAL safety/security validation tooling",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser("report", help="use-case analysis summary")
    report.add_argument("usecase", choices=sorted(_USE_CASES))
    report.set_defaults(handler=cmd_report)

    attack = commands.add_parser("attack", help="render one attack")
    attack.add_argument("attack_id")
    attack.add_argument("--usecase", default="uc1", choices=sorted(_USE_CASES))
    attack.set_defaults(handler=cmd_attack)

    export = commands.add_parser("export", help="export attacks as DSL")
    export.add_argument("usecase", choices=sorted(_USE_CASES))
    export.add_argument("output")
    export.set_defaults(handler=cmd_export)

    validate = commands.add_parser("validate", help="validate a DSL file")
    validate.add_argument("file")
    validate.add_argument(
        "--usecase", default="uc1", choices=sorted(_USE_CASES)
    )
    validate.set_defaults(handler=cmd_validate)

    run = commands.add_parser("run", help="execute a bound attack")
    run.add_argument("attack_id")
    run.add_argument("--usecase", default="uc1", choices=sorted(_USE_CASES))
    run.set_defaults(handler=cmd_run)

    trace = commands.add_parser("trace", help="traceability matrix")
    trace.add_argument("usecase", choices=sorted(_USE_CASES))
    trace.set_defaults(handler=cmd_trace)

    campaign = commands.add_parser(
        "campaign",
        help="run the scenario registry's variant families",
    )
    campaign.add_argument(
        "--scenario",
        help="only this scenario (e.g. uc1-construction-site)",
    )
    campaign.add_argument(
        "--usecase", choices=("uc1", "uc2"), default=None,
        help="only scenarios of this use case",
    )
    campaign.add_argument(
        "--family",
        help="only this variant family (e.g. control-ablation, fleet)",
    )
    campaign.add_argument(
        "--attack",
        help="only variants of this attack (AD id or catalog key)",
    )
    campaign.add_argument(
        "--fleet", type=int, default=None, metavar="N",
        help="convoy size override for fleet-capable variants",
    )
    campaign.add_argument(
        "--rsu-range", type=float, default=None, metavar="METERS",
        help="RSU transmit-range override for topology-capable variants",
    )
    campaign.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="execution backend (default: serial, or process when "
        "--jobs > 1)",
    )
    campaign.add_argument(
        "--jobs", type=int, default=None,
        help="concurrent jobs on the chosen backend (default: 1 on "
        "serial, every usable CPU on process)",
    )
    campaign.add_argument(
        "--limit", type=int, default=None,
        help="cap the number of variants run",
    )
    campaign.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry transiently-failing variants up to N total attempts "
        "(deterministic seeded backoff; exhaustion quarantines the "
        "variant instead of failing the campaign)",
    )
    campaign.add_argument(
        "--deadline-s", type=float, default=None, metavar="SECONDS",
        help="per-variant wall-clock budget (a variant's own deadline_s "
        "takes precedence); a breach records a DeadlineExceededError "
        "outcome",
    )
    campaign.add_argument(
        "--list", action="store_true",
        help="enumerate matching variants without running them",
    )
    campaign.add_argument(
        "--list-families", action="store_true",
        help="enumerate the registered variant families and exit",
    )
    campaign.add_argument(
        "--verbose", action="store_true",
        help="per-variant outcome lines in the report",
    )
    campaign.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    campaign.add_argument(
        "--export", metavar="PATH",
        help="write outcome records to PATH (.json, .csv or .md)",
    )
    campaign.set_defaults(handler=cmd_campaign)

    serve = commands.add_parser(
        "serve",
        help="run the persistent campaign daemon (memoised, sharded)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (loopback only by design; default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick an ephemeral port; publish it "
        "with --port-file)",
    )
    serve.add_argument(
        "--port-file", metavar="PATH", default=None,
        help="write the bound port here so clients can find the daemon",
    )
    serve.add_argument(
        "--memo-dir", metavar="DIR", default=None,
        help="journal directory for the content-addressed memo store "
        "(enables crash recovery; default: in-memory only)",
    )
    serve.add_argument(
        "--shards", type=int, default=2,
        help="scheduler work shards: submissions are cut into units of "
        "4 variants dealt round-robin over them, and an idle worker "
        "steals from the fullest (default 2)",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="worker threads (default: one per shard)",
    )
    serve.add_argument(
        "--deadline-s", type=float, default=None, metavar="SECONDS",
        help="per-variant wall-clock budget for scheduled work (a "
        "variant's own deadline_s takes precedence)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="debug-level daemon logs"
    )
    serve.set_defaults(handler=cmd_serve)

    submit = commands.add_parser(
        "submit",
        help="submit a variant selection to a running daemon",
    )
    submit.add_argument(
        "--port", type=int, default=None, help="the daemon's TCP port"
    )
    submit.add_argument(
        "--port-file", metavar="PATH", default=None,
        help="read the daemon's port from this file (see serve)",
    )
    submit.add_argument(
        "--host", default="127.0.0.1", help="the daemon's host"
    )
    submit.add_argument(
        "--scenario", help="only this scenario (e.g. uc1-construction-site)"
    )
    submit.add_argument(
        "--usecase", choices=("uc1", "uc2"), default=None,
        help="only scenarios of this use case",
    )
    submit.add_argument(
        "--family", help="only this variant family (e.g. coverage)"
    )
    submit.add_argument(
        "--attack", help="only variants of this attack"
    )
    submit.add_argument(
        "--limit", type=int, default=None,
        help="cap the number of variants submitted",
    )
    submit.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    submit.set_defaults(handler=cmd_submit)

    status = commands.add_parser(
        "status",
        help="query a running daemon's scheduler + memo state",
    )
    status.add_argument(
        "--port", type=int, default=None, help="the daemon's TCP port"
    )
    status.add_argument(
        "--port-file", metavar="PATH", default=None,
        help="read the daemon's port from this file (see serve)",
    )
    status.add_argument(
        "--host", default="127.0.0.1", help="the daemon's host"
    )
    status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    status.set_defaults(handler=cmd_status)

    lint = commands.add_parser(
        "lint",
        help="static verification plane: AST invariant rules + "
        "registry/DSL spec checks (LINT.json records)",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: the installed repro "
        "package)",
    )
    lint.add_argument(
        "--rules", metavar="CODES", default=None,
        help="comma-separated rule codes to run (default: all; see "
        "--list-rules)",
    )
    lint.add_argument(
        "--no-spec", action="store_true",
        help="skip the registry/DSL spec checks (AST rules only)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="enumerate the codified invariant rules and exit",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="print the schema-stable lint document",
    )
    lint.add_argument(
        "--out", metavar="DIR", default=None,
        help="write LINT.json under DIR (the CI artifact)",
    )
    lint.add_argument(
        "--diff", metavar="BASELINE.json", default=None,
        help="report only findings absent from the baseline document",
    )
    lint.set_defaults(handler=cmd_lint)

    chaos = commands.add_parser(
        "chaos",
        help="fault-injection parity gate (faulted runs must reproduce "
        "clean verdicts)",
    )
    chaos.add_argument(
        "--scenario", help="only this scenario (e.g. uc1-fleet-convoy)"
    )
    chaos.add_argument(
        "--family", default="coverage",
        help="variant family to run under faults (default: coverage)",
    )
    chaos.add_argument(
        "--limit", type=int, default=None,
        help="cap the number of variants run",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="fault-plan seed (same seed, same faults, same positions; "
        "default 0)",
    )
    chaos.add_argument(
        "--kinds", default="kill-worker,raise-transient,delay-job",
        help="comma-separated fault kinds to inject (job-site kinds run "
        "the engine phase, wire/journal kinds the service phase; "
        "default: kill-worker,raise-transient,delay-job)",
    )
    chaos.add_argument(
        "--jobs", type=int, default=2,
        help="process-backend workers for the engine phase (default 2)",
    )
    chaos.add_argument(
        "--golden", metavar="GOLDEN.json", default=None,
        help="also gate the clean run against a golden-verdict capture "
        "(tests/data/golden_verdicts.json format)",
    )
    chaos.add_argument(
        "--out", metavar="DIR", default=None,
        help="write the CHAOS.json report under DIR (the CI artifact)",
    )
    chaos.add_argument(
        "--json", action="store_true",
        help="print the machine-readable chaos report",
    )
    chaos.set_defaults(handler=cmd_chaos)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


__all__ = [
    "build_parser",
    "cmd_attack",
    "cmd_campaign",
    "cmd_chaos",
    "cmd_export",
    "cmd_lint",
    "cmd_report",
    "cmd_run",
    "cmd_serve",
    "cmd_status",
    "cmd_submit",
    "cmd_trace",
    "cmd_validate",
    "main",
]


if __name__ == "__main__":
    raise SystemExit(main())
