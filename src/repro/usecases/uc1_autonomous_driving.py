"""Use Case I -- Autonomous Driving (paper §IV-A).

An autonomous vehicle approaches a construction site; the RSU informs the
vehicle via the OBU so control is transferred back to the driver (Fig. 2).
This module encodes the complete published analysis:

* the HARA over the three functions ("Hazardous location notifications
  (Road works warning)", "Signage applications (In-vehicle speed
  limits)", "Warning of other traffic participants about hazardous
  vehicle state") with **29 ratings** whose derived ASIL distribution is
  exactly the paper's: 5 N/A, 5 "No ASIL", 7 ASIL A, 3 ASIL B, 7 ASIL C,
  2 ASIL D;
* the six safety goals SG01..SG06 with the published ASILs;
* the **23 attack descriptions** the SaSeVAL application yielded,
  including AD20 (Table VI) verbatim;
* the justifications making the inductive completeness audit pass;
* executable bindings for the attacks the paper details (flooding,
  jamming, signage spoofing, warning replay, profiling).

Only the S/E/C inputs are encoded -- every ASIL is *derived* by the HARA
engine, so the distribution is a reproduction, not an assertion.
"""

from __future__ import annotations

from repro.api import PipelineBuilder, UseCaseDefinition
from repro.core.derivation import AttackDeriver, AttackDescriptionSet
from repro.dsl.compiler import BindingRegistry
from repro.hara.analysis import Hara
from repro.model.ratings import (
    Asil,
    Controllability as C,
    Exposure as E,
    FailureMode as FM,
    Severity as S,
)
from repro.model.safety import SafetyGoal
from repro.sim.attacks import (
    EavesdropAttack,
    FloodingAttack,
    JammingAttack,
    ReplayAttack,
    SpoofingAttack,
)
from repro.sim.scenarios import ConstructionSiteScenario
from repro.sim.v2x import KIND_HAZARD_WARNING, KIND_SPEED_LIMIT
from repro.testing import oracles
from repro.testing.testcase import TestCase
from repro.threatlib.catalog import build_catalog
from repro.threatlib.library import ThreatLibrary

USE_CASE_NAME = "Use Case I - Autonomous Driving"

#: Threats of the shared catalog that UC I does not attack, with the
#: justification recorded for the inductive completeness audit (RQ1).
JUSTIFICATIONS: dict[str, str] = {
    "2.1.1": "Insider access to the gateway is organisational; outside the "
             "RSU-OBU validation scope of this use case.",
    "2.2.1": "No USB/physical port is reachable in the driving scenario "
             "under test.",
    "2.2.2": "Social engineering of the owner cannot influence the "
             "RSU-OBU interface during automated driving.",
    "2.2.3": "Remote key / immobiliser functions are not part of the "
             "autonomous-driving item definition.",
    "2.3.1": "Workshop diagnostic sessions are out of scope for on-road "
             "validation.",
    "3.1.1": "Bluetooth-to-CAN forwarding does not exist in this item; "
             "covered by Use Case II.",
    "3.1.2": "Opening-command replay concerns the keyless opener (Use "
             "Case II).",
    "3.1.3": "Access-usage profiling concerns the keyless opener (Use "
             "Case II).",
    "3.1.4": "Impersonation of V2X messages towards this SUT is covered "
             "via the equivalent in-vehicle signage threat 1.2.1 "
             "(AD05/AD06).",
    "3.3.1": "The BLE stack is absent from the autonomous-driving item.",
}


def build_hara() -> Hara:
    """The UC I HARA: 3 functions, 29 ratings, 6 safety goals."""
    hara = Hara(name=USE_CASE_NAME)
    rat01 = hara.add_function(
        "Rat01",
        "Hazardous location notifications (Road works warning)",
        "Notify the driver of hazardous locations ahead and return control.",
    )
    rat02 = hara.add_function(
        "Rat02",
        "Signage applications (In-vehicle speed limits)",
        "Present and apply speed limits received from the infrastructure.",
    )
    rat03 = hara.add_function(
        "Rat03",
        "Warning of other traffic participants about hazardous vehicle state",
        "Broadcast warnings about this vehicle's hazardous state to others.",
    )

    # -- Rat01: road works warning (9 ratings, 1 N/A) --------------------
    hara.rate(
        rat01, FM.NO,
        hazard="The driver can not be warned and the automated control is "
               "not returned.",
        hazardous_event="Crash into road works",
        severity=S.S3, exposure=E.E3, controllability=C.C3,
        rationale="see Statistics Road Works; the driver is not supposed "
                  "to monitor the road while automated driving mode is "
                  "active",
    )  # ASIL C (the paper's §III-B example row)
    hara.rate(
        rat01, FM.NO,
        hazard="Warning is displayed but automated control is never "
               "returned to the driver.",
        hazardous_event="Automation drives through the work zone",
        severity=S.S3, exposure=E.E3, controllability=C.C3,
    )  # ASIL C
    hara.rate(
        rat01, FM.UNINTENDED,
        hazard="Warning and handover without any road works present.",
        hazardous_event="Unnecessary manual takeover in flowing traffic",
        severity=S.S1, exposure=E.E4, controllability=C.C2,
    )  # ASIL A
    hara.rate(
        rat01, FM.TOO_EARLY,
        hazard="Control returned far ahead of the site; long manual "
               "stretch without need.",
        hazardous_event="Driver fatigue on extended manual segment",
        severity=S.S1, exposure=E.E3, controllability=C.C2,
    )  # QM
    hara.rate(
        rat01, FM.TOO_LATE,
        hazard="Warning arrives too late for a safe handover before the "
               "site.",
        hazardous_event="Entry into the work zone during handover",
        severity=S.S3, exposure=E.E3, controllability=C.C3,
    )  # ASIL C
    hara.rate(
        rat01, FM.LESS,
        hazard="Notification shown without location details; driver "
               "cannot localise the hazard.",
        hazardous_event="Late braking at the actual site",
        severity=S.S3, exposure=E.E2, controllability=C.C3,
    )  # ASIL B
    hara.rate(
        rat01, FM.MORE,
        hazard="Repeated notifications distract the driver.",
        hazardous_event="Attention drawn from the road",
        severity=S.S2, exposure=E.E4, controllability=C.C1,
    )  # ASIL A
    hara.rate_not_applicable(
        rat01, FM.INVERTED,
        reason="A location notification has no meaningful inversion.",
    )
    hara.rate(
        rat01, FM.INTERMITTENT,
        hazard="Control switches back and forth between automation and "
               "driver.",
        hazardous_event="Mode confusion near the work zone",
        severity=S.S3, exposure=E.E3, controllability=C.C3,
    )  # ASIL C

    # -- Rat02: in-vehicle speed limits (9 ratings, 0 N/A) ---------------
    hara.rate(
        rat02, FM.NO,
        hazard="No speed limit is shown; the vehicle keeps an "
               "inappropriate speed.",
        hazardous_event="Speeding past the gantry",
        severity=S.S2, exposure=E.E3, controllability=C.C2,
    )  # ASIL A
    hara.rate(
        rat02, FM.UNINTENDED,
        hazard="A speed limit is applied where none exists; abrupt "
               "slowdown.",
        hazardous_event="Rear-end collision risk",
        severity=S.S2, exposure=E.E4, controllability=C.C2,
    )  # ASIL B
    hara.rate(
        rat02, FM.TOO_EARLY,
        hazard="The limit is applied well before the zone.",
        hazardous_event="Unexpected early deceleration",
        severity=S.S1, exposure=E.E3, controllability=C.C2,
    )  # QM
    hara.rate(
        rat02, FM.TOO_LATE,
        hazard="The limit is applied after zone entry; the vehicle speeds "
               "inside the zone.",
        hazardous_event="Collision with workers in the zone",
        severity=S.S3, exposure=E.E4, controllability=C.C3,
    )  # ASIL D
    hara.rate(
        rat02, FM.TOO_LATE,
        hazard="The limit engages so late that hard braking is required.",
        hazardous_event="Loss of stability under braking",
        severity=S.S2, exposure=E.E3, controllability=C.C2,
    )  # ASIL A
    hara.rate(
        rat02, FM.LESS,
        hazard="A higher limit than the actual one is communicated.",
        hazardous_event="Systematic speeding through the restriction",
        severity=S.S3, exposure=E.E4, controllability=C.C3,
    )  # ASIL D
    hara.rate(
        rat02, FM.MORE,
        hazard="A far lower limit than the actual one is communicated.",
        hazardous_event="Obstruction of following traffic",
        severity=S.S2, exposure=E.E4, controllability=C.C1,
    )  # ASIL A
    hara.rate(
        rat02, FM.INVERTED,
        hazard="A limit is lifted instead of imposed.",
        hazardous_event="Acceleration into the restricted zone",
        severity=S.S3, exposure=E.E2, controllability=C.C3,
    )  # ASIL B
    hara.rate(
        rat02, FM.INTERMITTENT,
        hazard="The displayed limit flickers on and off.",
        hazardous_event="Driver uncertainty about the valid limit",
        severity=S.S1, exposure=E.E3, controllability=C.C2,
    )  # QM

    # -- Rat03: warning other participants (11 ratings, 4 N/A) -----------
    hara.rate(
        rat03, FM.NO,
        hazard="Other participants are not warned about this vehicle's "
               "hazardous state.",
        hazardous_event="Collision with the disabled vehicle",
        severity=S.S3, exposure=E.E2, controllability=C.C2,
    )  # ASIL A
    hara.rate(
        rat03, FM.NO,
        hazard="Warnings are suppressed for some message types only.",
        hazardous_event="Partial awareness of the hazard",
        severity=S.S2, exposure=E.E2, controllability=C.C2,
    )  # QM
    hara.rate(
        rat03, FM.UNINTENDED,
        hazard="Unintended warnings flood other participants.",
        hazardous_event="Alert fatigue in surrounding traffic",
        severity=S.S1, exposure=E.E4, controllability=C.C2,
    )  # ASIL A
    hara.rate(
        rat03, FM.UNINTENDED,
        hazard="A single spurious warning is emitted.",
        hazardous_event="Brief unnecessary caution of one follower",
        severity=S.S1, exposure=E.E2, controllability=C.C3,
    )  # QM
    hara.rate_not_applicable(
        rat03, FM.TOO_EARLY,
        reason="A warning ahead of an actual hazard has no adverse effect.",
    )
    hara.rate(
        rat03, FM.TOO_LATE,
        hazard="The warning is sent too late to be useful.",
        hazardous_event="Collision before the warning arrives",
        severity=S.S3, exposure=E.E3, controllability=C.C3,
    )  # ASIL C
    hara.rate(
        rat03, FM.TOO_LATE,
        hazard="The warning is delayed beyond usefulness in dense traffic.",
        hazardous_event="Chain collision behind the hazard",
        severity=S.S3, exposure=E.E3, controllability=C.C3,
    )  # ASIL C
    hara.rate(
        rat03, FM.LESS,
        hazard="The warning reaches too few participants.",
        hazardous_event="Unwarned vehicle hits the hazard",
        severity=S.S3, exposure=E.E3, controllability=C.C3,
    )  # ASIL C
    hara.rate_not_applicable(
        rat03, FM.MORE,
        reason="A wider warning distribution has no distinct hazard; "
               "excess frequency is rated under Unintended.",
    )
    hara.rate_not_applicable(
        rat03, FM.INVERTED,
        reason="There is no meaningful inverse of a hazard warning.",
    )
    hara.rate_not_applicable(
        rat03, FM.INTERMITTENT,
        reason="Intermittent emission is captured by the Too-Late and "
               "Less ratings.",
    )

    # -- Safety goals (published ASILs, §IV-A) ----------------------------
    hara.add_goal(SafetyGoal(
        "SG01",
        "Avoid ineffective location notification without returning "
        "driving to the human",
        Asil.C,
        safe_state="Control handed to the driver before the hazard zone",
        ftti_ms=500,
        hazard_refs=("Rat01",),
    ))
    hara.add_goal(SafetyGoal(
        "SG02", "Avoid intermittent control switches", Asil.C,
        safe_state="One stable handover per hazard",
        hazard_refs=("Rat01",),
    ))
    hara.add_goal(SafetyGoal(
        "SG03", "Communicate Speed Limits safely", Asil.D,
        safe_state="Only plausible, authentic limits are applied",
        hazard_refs=("Rat02",),
    ))
    hara.add_goal(SafetyGoal(
        "SG04", "Avoid missing take-over warnings", Asil.C,
        safe_state="Take-over warning presented within the FTTI",
        ftti_ms=500,
        hazard_refs=("Rat01",),
    ))
    hara.add_goal(SafetyGoal(
        "SG05",
        "Avoid too many unintended warnings about hazardous vehicle states",
        Asil.B,
        safe_state="Warning rate bounded",
        hazard_refs=("Rat03",),
    ))
    hara.add_goal(SafetyGoal(
        "SG06", "Avoid profile building with warnings", Asil.A,
        safe_state="Warnings carry no linkable identity",
        hazard_refs=("Rat03",),
    ))
    return hara


def build_attacks(library: ThreatLibrary | None = None) -> AttackDescriptionSet:
    """Derive the 23 UC I attack descriptions (AD01..AD23).

    AD20 reproduces Table VI verbatim; the remaining 22 cover every
    safety goal and the applicable threats of the shared catalog.
    """
    library = library or build_catalog()
    deriver = AttackDeriver.create(
        library, list(build_hara().safety_goals), name=f"{USE_CASE_NAME} attacks"
    )

    def derive(goal_ids, threat, attack_type, description, precondition,
               measures, success, fails, impl="", interface="OBU RSU",
               stride=None):
        deriver.derive(
            description=description,
            safety_goal_ids=tuple(goal_ids),
            threat_id=threat,
            attack_type_name=attack_type,
            interface=interface,
            precondition=precondition,
            expected_measures=measures,
            attack_success=success,
            attack_fails=fails,
            implementation_comments=impl,
            stride=stride,
        )

    derive(  # AD01
        ["SG01"], "1.1.2", "Jamming",
        "Attacker jams the RSU broadcast channel near the construction "
        "site so no notification reaches approaching vehicles.",
        "Vehicle is approaching the construction site in automated mode",
        "Channel supervision detects loss of periodic beacons and "
        "triggers a degraded-mode handover",
        "Vehicle enters the work zone without returning control",
        "Handover is triggered by the beacon-loss watchdog",
        impl="Jam the 802.11p channel for the approach window",
    )
    derive(  # AD02
        ["SG01"], "1.1.2", "Denial of service",
        "Attacker exhausts the RSU with bogus service requests so it "
        "stops broadcasting warnings.",
        "Vehicle is approaching the construction site",
        "RSU-side rate limiting; vehicle-side beacon-loss watchdog",
        "No warning is broadcast; the vehicle keeps automated mode",
        "RSU rate limiter sheds the bogus load and keeps broadcasting",
    )
    derive(  # AD03
        ["SG01", "SG04"], "1.1.1", "Corrupt data or code",
        "Attacker corrupts the road-works records in the RSU database so "
        "notifications are missing.",
        "Road-works record is provisioned in the RSU",
        "Database integrity protection (signatures over records)",
        "The warning is never generated",
        "Record signature check fails and operators are alerted",
    )
    derive(  # AD04
        ["SG01"], "1.1.1", "Alter",
        "Attacker alters the position field of the road-works record so "
        "the warning points elsewhere.",
        "Vehicle is approaching the construction site",
        "Plausibility check of record location against map data",
        "Handover happens at the wrong location; work zone entered in "
        "automated mode",
        "Location plausibility check rejects the altered record",
    )
    derive(  # AD05
        ["SG03"], "1.2.1", "Fake messages",
        "Attacker broadcasts fake signage messages announcing a lifted "
        "speed limit.",
        "Vehicle is inside a speed-restricted zone in automated mode",
        "Sender authentication of signage messages; value-range "
        "plausibility",
        "The automation accelerates beyond the legal limit",
        "Unauthenticated signage is discarded and logged",
        impl="Broadcast speed_limit messages with an implausibly high "
             "value from an unprovisioned sender",
    )
    derive(  # AD06
        ["SG03"], "1.2.1", "Spoofing",
        "Attacker impersonates the RSU and serves wrong speed limits.",
        "Vehicle is approaching a signage gantry",
        "Sender authentication (shared infrastructure credentials)",
        "A wrong limit is accepted and applied",
        "MAC verification fails; message discarded and logged",
    )
    derive(  # AD07
        ["SG05"], "1.2.2", "Replay",
        "Attacker records hazard warnings at another location and "
        "replays them to passing vehicles.",
        "Vehicle drives in normal traffic, no hazard present",
        "Location consistency check on warning origin",
        "Drivers receive a stream of irrelevant warnings",
        "Replayed warnings are rejected for implausible origin",
        impl="Capture hazard warnings at site B and replay them on the "
             "ego vehicle's channel at site A",
    )
    derive(  # AD08
        ["SG05"], "1.2.2", "Delay",
        "Attacker delays legitimate warnings so they arrive out of "
        "context.",
        "Hazard warnings are being broadcast",
        "Freshness window on warning timestamps",
        "Out-of-context warnings confuse the driver",
        "Stale warnings are rejected by the freshness check",
    )
    derive(  # AD09
        ["SG02"], "2.1.3", "Fake messages",
        "Attacker alternates fake 'hazard ahead' and 'all clear' "
        "messages to toggle the control mode.",
        "Vehicle is in automated mode on an open road",
        "Sender authentication; handover hysteresis",
        "Control switches intermittently between driver and automation",
        "Fake messages are discarded; at most one handover occurs",
    )
    derive(  # AD10
        ["SG02"], "2.1.2", "Inject",
        "Attacker injects alternating control-relevant messages into the "
        "communication stream.",
        "Vehicle is in automated mode",
        "Message authentication on the in-vehicle link",
        "Repeated mode oscillation",
        "Injected frames fail authentication and are dropped",
    )
    derive(  # AD11
        ["SG03"], "2.1.2", "Corrupt messages",
        "Attacker corrupts speed-limit payloads in transit.",
        "A signage message is in flight",
        "Message authentication; value-range plausibility",
        "A corrupted (higher) limit is applied",
        "Tampered messages fail MAC verification",
        impl="Flip the speed_limit_mps field in observed messages and "
             "re-inject them",
    )
    derive(  # AD12
        ["SG06"], "3.4.2", "Eavesdropping",
        "Attacker passively collects warnings to build a movement "
        "profile of the vehicle.",
        "Vehicle participates in V2X communication",
        "Pseudonym rotation in broadcast identifiers",
        "A usage/movement profile can be constructed",
        "Observed identifiers cannot be linked across sites",
        impl="Tap the channel, bucket observations by sender and time",
    )
    derive(  # AD13
        ["SG06"], "3.4.2", "Listen",
        "Attacker listens to hazard warnings to infer when and where the "
        "vehicle drives.",
        "Vehicle broadcasts hazard warnings",
        "Minimal identifying payload in warnings",
        "Driving times and routes are inferable",
        "Warnings carry no linkable identity",
    )
    derive(  # AD14
        ["SG01", "SG04"], "3.4.1", "Jamming",
        "Attacker jams the V2X channel exactly during the construction "
        "site approach.",
        "Vehicle is approaching the construction site",
        "Beacon-loss watchdog with degraded-mode handover",
        "No warning is received; work zone entered in automated mode",
        "Watchdog detects silence and hands over preventively",
    )
    derive(  # AD15
        ["SG05"], "1.2.1", "Fake messages",
        "Attacker floods the driver with fake hazard warnings.",
        "Vehicle is in normal traffic",
        "Sender authentication; warning-rate limit in the HMI",
        "The driver is flooded with warnings and starts ignoring them",
        "Fake warnings are rejected; warning rate stays bounded",
        impl="Send hazard_warning messages at high rate from an "
             "unprovisioned sender",
    )
    derive(  # AD16
        ["SG04"], "2.1.4", "Denial of service",
        "Attacker crashes the OBU with malformed messages so take-over "
        "warnings are missed.",
        "Vehicle is approaching the construction site",
        "Robust input validation; watchdog restart of the OBU",
        "OBU stops processing; the take-over warning is missed",
        "Malformed input is rejected; the OBU stays available",
    )
    derive(  # AD17
        ["SG02"], "2.1.4", "Denial of service",
        "Attacker pulses flooding on and off so the notification service "
        "is only intermittently available.",
        "Vehicle is in automated mode with V2X reception",
        "Flooding detection with sender blocking",
        "Service availability oscillates; control switches repeatedly",
        "Flooding source is identified and blocked persistently",
    )
    derive(  # AD18
        ["SG03"], "2.1.2", "Config. change",
        "Attacker changes the OBU unit configuration so limits are "
        "mis-scaled (km/h vs m/s).",
        "Attacker has a foothold on the in-vehicle network",
        "Configuration integrity protection; plausibility of applied "
        "limits",
        "Mis-scaled limits are applied",
        "Config checksum mismatch is detected at startup",
        stride=None,
    )
    derive(  # AD19
        ["SG01"], "2.1.2", "Manipulate",
        "Attacker manipulates notification payloads so they are "
        "unparseable by the OBU.",
        "Road-works warnings are being broadcast",
        "Message authentication; parse-failure logging",
        "Warnings are silently dropped; no handover",
        "Tampered messages fail MAC verification and are logged",
    )
    derive(  # AD20 -- Table VI, verbatim
        ["SG01", "SG02", "SG03"], "2.1.4", "Disable",
        "Attacker tries to overload the ECU by packet flooding.",
        "Vehicle is approaching the construction side",
        "Message counter for broken messages",
        "Shutdown of service",
        "Security control identifies unwanted sender enforce change of "
        "frequency",
        impl="Create an authenticated sender as attacker beside the "
             "original sender, additionally the attacker sender should "
             "send extra messages (with high frequency or in chaotic way)",
        interface="OBU RSU",
    )
    derive(  # AD21
        ["SG04"], "1.2.2", "Replay",
        "Attacker replays a stale 'no hazards' state after a real "
        "warning was issued.",
        "A road-works warning has just been broadcast",
        "Monotonic message counters; freshness window",
        "The warning is superseded; the driver is never alerted",
        "Stale replay is rejected by counter/freshness checks",
    )
    derive(  # AD22
        ["SG06"], "3.4.2", "Covert channel",
        "Attacker encodes identifying information in warning timing to "
        "exfiltrate vehicle identity.",
        "Compromised component participates in warning emission",
        "Traffic shaping normalises emission timing",
        "Identity bits leak through inter-message timing",
        "Timing normalisation destroys the covert channel",
    )
    derive(  # AD23
        ["SG05"], "1.2.2", "Delay",
        "Attacker buffers warnings and releases them in bursts to "
        "overwhelm the driver.",
        "Warnings are being broadcast in normal operation",
        "Freshness window; HMI warning-rate limiting",
        "Warning bursts distract the driver",
        "Buffered (stale) warnings are rejected; rate stays bounded",
    )

    attacks = deriver.results
    assert len(attacks) == 23, f"UC1 must yield 23 attacks, got {len(attacks)}"
    return attacks


def pipeline_builder() -> PipelineBuilder:
    """An immutable builder staged with the complete UC I analysis.

    ``pipeline_builder().build()`` is the supported way to obtain the
    UC I pipeline; fork the builder (e.g. ``.require_complete(False)``)
    for experiments.
    """
    return DEFINITION.builder()


# -- executable bindings (Step 4) ------------------------------------------

def _bind_ad20(attack) -> TestCase:
    """AD20: authenticated packet flooding against the OBU."""

    def arm(scenario: ConstructionSiteScenario):
        injector = FloodingAttack(
            "attacker", scenario.clock, scenario.v2x, kind="cam_message",
            interval_ms=0.2, duration_ms=70000.0,
            keystore=scenario.keystore, authenticated=True,
            location=scenario.RSU_LOCATION,
        )
        injector.launch(100.0)
        return injector

    return TestCase(
        attack_id=attack.identifier,
        title=attack.description,
        build_scenario=lambda: ConstructionSiteScenario(),
        arm_attack=arm,
        duration_ms=80000.0,
        success_oracle=oracles.any_of(
            oracles.service_shut_down("obu"),
            oracles.any_goal_violated("SG01", "SG02", "SG03"),
        ),
        failure_oracle=oracles.all_of(
            oracles.no_goal_violated("SG01", "SG02", "SG03"),
            oracles.detection_logged("OBU", "flooding-detector"),
        ),
        safety_goal_ids=attack.safety_goal_ids,
    )


def _bind_ad14(attack) -> TestCase:
    """AD14: V2X jamming during the approach."""

    def arm(scenario: ConstructionSiteScenario):
        injector = JammingAttack(
            "jammer", scenario.clock, scenario.v2x, duration_ms=70000.0
        )
        injector.launch(100.0)
        return injector

    return TestCase(
        attack_id=attack.identifier,
        title=attack.description,
        build_scenario=lambda: ConstructionSiteScenario(),
        arm_attack=arm,
        duration_ms=80000.0,
        success_oracle=oracles.goal_violated("SG01"),
        failure_oracle=oracles.all_of(
            oracles.no_goal_violated("SG01"),
            oracles.event_occurred("vehicle.handover_requested"),
        ),
        safety_goal_ids=attack.safety_goal_ids,
    )


def _bind_ad05(attack) -> TestCase:
    """AD05: fake 'limit lifted' signage from an unprovisioned sender."""

    def arm(scenario: ConstructionSiteScenario):
        injector = SpoofingAttack(
            "ghost-rsu", scenario.clock, scenario.v2x,
            kind=KIND_SPEED_LIMIT, claimed_sender="ghost-rsu",
            payload={"speed_limit_mps": 60.0},
            location=scenario.RSU_LOCATION,
        )
        injector.launch(3000.0, count=5, gap_ms=200.0)
        return injector

    return TestCase(
        attack_id=attack.identifier,
        title=attack.description,
        build_scenario=lambda: ConstructionSiteScenario(),
        arm_attack=arm,
        duration_ms=20000.0,
        success_oracle=oracles.goal_violated("SG03"),
        failure_oracle=oracles.all_of(
            oracles.no_goal_violated("SG03"),
            oracles.detection_logged("OBU"),
        ),
        safety_goal_ids=attack.safety_goal_ids,
    )


def _bind_ad07(attack) -> TestCase:
    """AD07: hazard warnings replayed from another location."""

    def arm(scenario: ConstructionSiteScenario):
        injector = ReplayAttack(
            "replayer", scenario.clock, scenario.remote_channel,
            capture_kinds={KIND_HAZARD_WARNING},
        )
        # The remote RSU emits warnings at site B...
        for index in range(10):
            scenario.clock.schedule_at(
                500.0 + index * 300.0,
                lambda: scenario.remote_rsu.send_hazard_warning(
                    "vehicle breakdown at site B"
                ),
            )
        # ...which the attacker replays on the ego vehicle's channel.
        injector.replay(
            at_ms=5000.0, index=0, count=10, gap_ms=100.0, via=scenario.v2x
        )
        return injector

    return TestCase(
        attack_id=attack.identifier,
        title=attack.description,
        build_scenario=lambda: ConstructionSiteScenario(),
        arm_attack=arm,
        duration_ms=20000.0,
        success_oracle=oracles.goal_violated("SG05"),
        failure_oracle=oracles.all_of(
            oracles.no_goal_violated("SG05"),
            oracles.detection_logged("OBU", "location-consistency"),
        ),
        safety_goal_ids=attack.safety_goal_ids,
    )


def _bind_ad12(attack) -> TestCase:
    """AD12: passive profiling of V2X traffic."""

    def arm(scenario: ConstructionSiteScenario):
        return EavesdropAttack("profiler", scenario.clock, scenario.v2x)

    def profile_built(scenario, result) -> bool:
        injector = scenario._profiler  # set below
        profile = injector.profile()
        return sum(profile["by_kind"].values()) >= 10

    def arm_and_remember(scenario):
        injector = arm(scenario)
        scenario._profiler = injector
        return injector

    return TestCase(
        attack_id=attack.identifier,
        title=attack.description,
        build_scenario=lambda: ConstructionSiteScenario(),
        arm_attack=arm_and_remember,
        duration_ms=30000.0,
        success_oracle=oracles.predicate(
            "usage profile constructed from >= 10 observations",
            profile_built,
        ),
        failure_oracle=oracles.predicate(
            "fewer than 10 observations collected",
            lambda scenario, result: not profile_built(scenario, result),
        ),
        safety_goal_ids=attack.safety_goal_ids,
    )


def build_bindings() -> BindingRegistry:
    """Executable bindings for the UC I attacks the paper details."""
    registry = BindingRegistry()
    registry.bind_id("AD20", _bind_ad20)
    registry.bind_id("AD14", _bind_ad14)
    registry.bind_id("AD05", _bind_ad05)
    registry.bind_id("AD07", _bind_ad07)
    registry.bind_id("AD12", _bind_ad12)
    return registry


#: UC I as declarative stage registrations: the factories for each
#: process step, consumed by the :mod:`repro.api` builder/Workspace.
DEFINITION = UseCaseDefinition(
    key="uc1",
    title=USE_CASE_NAME,
    threat_library=build_catalog,
    hara=build_hara,
    attacks=build_attacks,
    justifications=tuple(JUSTIFICATIONS.items()),
    bindings=build_bindings,
    author="UC1 analysis",
)


__all__ = [
    "DEFINITION",
    "JUSTIFICATIONS",
    "USE_CASE_NAME",
    "build_attacks",
    "build_bindings",
    "build_hara",
    "pipeline_builder",
]
