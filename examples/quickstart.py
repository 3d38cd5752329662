#!/usr/bin/env python3
"""Quickstart: the four SaSeVAL steps on the unified repro.api facade.

Part 1 drives the stock :class:`~repro.api.Workspace`: build the paper's
use-case pipelines, execute a bound attack, run a small campaign family,
and query/export everything from the single typed result set.

Part 2 builds a miniature pipeline from scratch with the immutable
:class:`~repro.api.Pipeline` builder, which runs the four steps in
Fig. 1 order.

Run:  python examples/quickstart.py
"""

from repro import Pipeline, Workspace
from repro.core.reporting import (
    render_attack_description,
    render_completeness,
    render_hara_summary,
)
from repro.hara import Controllability, Exposure, FailureMode, Hara, Severity
from repro.model.asset import Asset, AssetGroup
from repro.model.scenario import Scenario, SubScenario
from repro.model.threat import StrideType
from repro.threatlib import ThreatLibraryBuilder


def tour_the_workspace() -> None:
    """Part 1: the facade over the paper's two published use cases."""
    ws = Workspace()
    print("=" * 72)
    print(f"Use cases: {', '.join(ws.use_cases())}")

    for key in ws.use_cases():
        pipeline = ws.pipeline(key)  # Steps 1-3 + RQ1 audits, cached
        print(
            f"  {key}: {len(pipeline.goals)} goals, "
            f"{len(pipeline.attacks)} attacks, "
            f"complete={pipeline.report.complete}, "
            f"bound={', '.join(pipeline.bound_attack_ids())}"
        )

    # Step 4: execute a bound attack; the verdict joins the result set.
    print("=" * 72)
    execution = ws.run("AD08", "uc2")
    print(execution.summary())
    print(f"  {execution.notes}")

    # Campaign execution feeds the same result set.
    result = ws.campaign(scenario="uc2-keyless-entry", family="zone-geometry")
    print(result.to_text())

    # One typed ResultSet across pipeline verdicts and campaign variants:
    results = ws.results()
    print("=" * 72)
    print(f"Accumulated records: {results.summary()}")
    print(results.to_markdown(columns=("source", "subject", "verdict")))


def build_threat_library():
    """Step 1: scenarios -> assets -> threat scenarios -> STRIDE types."""
    builder = ThreatLibraryBuilder("quickstart library")
    scenario = Scenario(
        name="Highway pilot",
        sub_scenarios=(
            SubScenario(
                "construction site",
                "An automated vehicle approaches a construction site "
                "announced by a road-side unit.",
            ),
        ),
    )
    builder.identify_scenario(scenario)
    obu = Asset.of(
        "On-board unit",
        AssetGroup.HARDWARE,
        AssetGroup.SOFTWARE,
        interfaces=("V2X",),
    )
    builder.identify_asset(scenario.name, obu)
    # Step 1.3's STRIDE mapping can be supplied or inferred by the
    # keyword classifier ("flooding" -> Denial of service):
    builder.identify_threat(
        scenario.name,
        obu.name,
        "An attacker overloads the on-board unit by flooding the V2X "
        "channel, disrupting the warning service",
    )
    builder.identify_threat(
        scenario.name,
        obu.name,
        "Spoofing of warning messages by impersonation",
        stride=(StrideType.SPOOFING,),
    )
    return builder.build()


def run_hara():
    """Step 2: guideword-driven HARA with derived ASILs and safety goals."""
    hara = Hara(name="quickstart")
    hara.add_function("Rat01", "Road works warning")
    hara.rate(
        "Rat01",
        FailureMode.NO,
        hazard="The driver can not be warned and the automated control is "
               "not returned.",
        hazardous_event="Crash into road works",
        severity=Severity.S3,
        exposure=Exposure.E3,
        controllability=Controllability.C3,
    )
    for mode in FailureMode:
        if mode is not FailureMode.NO:
            hara.rate_not_applicable(
                "Rat01", mode, f"not hazardous for a quickstart ({mode.value})"
            )
    hara.derive_goal(
        "Avoid ineffective location notification without returning driving "
        "control to the human",
        from_functions=["Rat01"],
        safe_state="control handed to the driver",
        ftti_ms=500,
    )
    return hara


def derive_flooding_attack(deriver) -> None:
    """Step 3 stage: one attack per (safety goal x attack type)."""
    deriver.derive(
        description="Attacker tries to overload the on-board unit by "
                    "packet flooding.",
        safety_goal_ids=("SG01",),
        threat_id="1.1.1",
        attack_type_name="Disable",
        interface="V2X",
        precondition="Vehicle is approaching the construction site",
        expected_measures="Flooding detection with sender blocking",
        attack_success="Shutdown of the warning service",
        attack_fails="Unwanted sender identified and blocked",
        implementation_comments="Create an authenticated sender and send "
                                "extra messages at high frequency",
    )


def build_a_pipeline() -> None:
    """Part 2: the immutable builder on a miniature example."""
    pipeline = (
        Pipeline.builder("quickstart")
        .with_threat_library(build_threat_library())     # Step 1
        .with_hara(run_hara())                           # Step 2
        .derive_attacks(derive_flooding_attack)          # Step 3
        # The spoofing threat is justified rather than attacked here:
        .justify(
            "1.1.2",
            "spoofing is covered by the project's message authentication "
            "concept; validated elsewhere",
        )
        .build()                                         # RQ1 audits run now
    )

    print("=" * 72)
    print(render_hara_summary(pipeline.hara))
    print("=" * 72)
    for attack in pipeline.attacks:
        print(render_attack_description(attack))
    print("=" * 72)
    print(render_completeness(pipeline.report))
    print("=" * 72)
    print("Traceability matrix:")
    print(pipeline.trace_matrix().to_markdown())


def main():
    tour_the_workspace()
    build_a_pipeline()


if __name__ == "__main__":
    main()
