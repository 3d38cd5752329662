"""Use Case II -- Keyless Car Opener (paper §IV-B).

"The use cases are opening and closing a vehicle via smartphone, which
communicates via Bluetooth low energy with the car."  This module encodes
the complete published analysis:

* the HARA over the two functions (open / close via smartphone) with
  **20 ratings** whose derived distribution is exactly the paper's:
  7 N/A, 5 No-ASIL, 2 ASIL A, 4 ASIL B, 1 ASIL C, 1 ASIL D;
* the four safety goals SG01..SG04 with the published ASILs;
* the **27 safety attacks plus 2 privacy attacks** the application
  yielded, including AD08 (Table VII) verbatim, the CAN-bus flooding via
  forwarded Bluetooth requests, and the opening-command replay;
* justifications for the catalog threats outside this item;
* executable bindings for the detailed attacks (key forgery, replay,
  CAN flooding, jamming, usage profiling).
"""

from __future__ import annotations

from repro.api import PipelineBuilder, UseCaseDefinition
from repro.core.derivation import AttackDeriver, AttackDescriptionSet
from repro.dsl.compiler import BindingRegistry
from repro.hara.analysis import Hara
from repro.model.attack import AttackCategory
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
    KeyForgeryAttack,
    ReplayAttack,
)
from repro.sim.ble import KIND_OPEN
from repro.sim.scenarios import KeylessEntryScenario
from repro.testing import oracles
from repro.testing.testcase import TestCase
from repro.threatlib.catalog import build_catalog
from repro.threatlib.library import ThreatLibrary

USE_CASE_NAME = "Use Case II - Keyless Car Opener"

#: Catalog threats not applicable to the keyless opener, with the
#: justification for the inductive audit.
JUSTIFICATIONS: dict[str, str] = {
    "1.1.1": "Road-side infrastructure is not part of the keyless-opener "
             "item.",
    "1.1.2": "Road-side infrastructure is not part of the keyless-opener "
             "item.",
    "1.2.1": "In-vehicle signage is not part of the keyless-opener item.",
    "1.2.2": "In-vehicle signage is not part of the keyless-opener item.",
    "2.3.1": "Workshop diagnostic access is organisationally controlled "
             "and outside the opener's validation scope.",
}


def build_hara() -> Hara:
    """The UC II HARA: 2 functions, 20 ratings, 4 safety goals."""
    hara = Hara(name=USE_CASE_NAME)
    rat01 = hara.add_function(
        "Rat01",
        "Open vehicle via smartphone",
        "Unlock the vehicle on an authenticated smartphone command over "
        "Bluetooth low energy.",
    )
    rat02 = hara.add_function(
        "Rat02",
        "Close vehicle via smartphone",
        "Lock the vehicle on an authenticated smartphone command over "
        "Bluetooth low energy.",
    )

    # -- Rat01: open (10 ratings, 2 N/A) ----------------------------------
    hara.rate(
        rat01, FM.NO,
        hazard="The owner cannot open the vehicle.",
        hazardous_event="Owner stranded; emergency access blocked",
        severity=S.S1, exposure=E.E4, controllability=C.C2,
    )  # ASIL A
    hara.rate(
        rat01, FM.NO,
        hazard="Opening unavailable in an emergency (person locked out in "
               "the cold).",
        hazardous_event="Exposure of a vulnerable person",
        severity=S.S2, exposure=E.E1, controllability=C.C3,
    )  # QM
    hara.rate(
        rat01, FM.UNINTENDED,
        hazard="The vehicle opens without any command.",
        hazardous_event="Theft; unsupervised child access to the vehicle",
        severity=S.S3, exposure=E.E4, controllability=C.C3,
    )  # ASIL D
    hara.rate(
        rat01, FM.UNINTENDED,
        hazard="The vehicle opens spontaneously in a supervised parking "
               "garage.",
        hazardous_event="Contents theft under supervision",
        severity=S.S2, exposure=E.E2, controllability=C.C2,
    )  # QM
    hara.rate_not_applicable(
        rat01, FM.TOO_EARLY,
        reason="Opening before a command is the Unintended case.",
    )
    hara.rate(
        rat01, FM.TOO_LATE,
        hazard="The vehicle opens long after the command; the owner "
               "assumes failure and walks away.",
        hazardous_event="Vehicle left open unattended",
        severity=S.S1, exposure=E.E3, controllability=C.C2,
    )  # QM
    hara.rate(
        rat01, FM.LESS,
        hazard="Only some doors open.",
        hazardous_event="Passenger uses the roadway-side door instead",
        severity=S.S1, exposure=E.E3, controllability=C.C1,
    )  # QM
    hara.rate_not_applicable(
        rat01, FM.MORE,
        reason="Opening 'more' (all doors and trunk) has no distinct "
               "hazard beyond Unintended.",
    )
    hara.rate(
        rat01, FM.INVERTED,
        hazard="An open command closes the vehicle instead.",
        hazardous_event="Person caught by the closing mechanism",
        severity=S.S3, exposure=E.E2, controllability=C.C3,
    )  # ASIL B
    hara.rate(
        rat01, FM.INTERMITTENT,
        hazard="The lock oscillates between open and closed.",
        hazardous_event="Hand or finger trapped during oscillation",
        severity=S.S3, exposure=E.E2, controllability=C.C3,
    )  # ASIL B

    # -- Rat02: close (10 ratings, 5 N/A) ---------------------------------
    hara.rate(
        rat02, FM.NO,
        hazard="The vehicle cannot be closed.",
        hazardous_event="Vehicle or contents theft",
        severity=S.S1, exposure=E.E4, controllability=C.C3,
    )  # ASIL B
    hara.rate(
        rat02, FM.NO,
        hazard="Closing is unavailable in a rarely visited long-term "
               "parking area.",
        hazardous_event="Prolonged exposure of the open vehicle",
        severity=S.S2, exposure=E.E1, controllability=C.C3,
    )  # QM
    hara.rate(
        rat02, FM.UNINTENDED,
        hazard="The vehicle closes unexpectedly while a person is "
               "entering or reaching inside.",
        hazardous_event="Person trapped by the closing mechanism",
        severity=S.S3, exposure=E.E3, controllability=C.C3,
    )  # ASIL C
    hara.rate(
        rat02, FM.UNINTENDED,
        hazard="The vehicle closes unexpectedly with the key inside.",
        hazardous_event="Owner locked out",
        severity=S.S1, exposure=E.E3, controllability=C.C3,
    )  # ASIL A
    hara.rate_not_applicable(
        rat02, FM.TOO_EARLY,
        reason="Closing before a command is the Unintended case.",
    )
    hara.rate(
        rat02, FM.TOO_LATE,
        hazard="The vehicle closes long after the command; the owner has "
               "already left.",
        hazardous_event="Vehicle open and unattended in the meantime",
        severity=S.S1, exposure=E.E4, controllability=C.C3,
    )  # ASIL B
    hara.rate_not_applicable(
        rat02, FM.LESS,
        reason="Partial closing is captured by the No-closing rating.",
    )
    hara.rate_not_applicable(
        rat02, FM.MORE,
        reason="There is no 'more' of a lock actuation.",
    )
    hara.rate_not_applicable(
        rat02, FM.INVERTED,
        reason="A close command opening the vehicle is rated under the "
               "opening function's Inverted case.",
    )
    hara.rate_not_applicable(
        rat02, FM.INTERMITTENT,
        reason="Oscillation is rated under the opening function.",
    )

    # -- Safety goals (published ASILs, §IV-B) ----------------------------
    hara.add_goal(SafetyGoal(
        "SG01", "Keep vehicle closed", Asil.D,
        safe_state="Locked unless an authorized open command was received",
        hazard_refs=("Rat01",),
    ))
    hara.add_goal(SafetyGoal(
        "SG02", "Avoid intermittent open/close", Asil.B,
        safe_state="Stable lock state between commands",
        hazard_refs=("Rat01",),
    ))
    hara.add_goal(SafetyGoal(
        "SG03", "Prevent non-availability of opening", Asil.A,
        safe_state="Open command served within the availability deadline",
        ftti_ms=500,
        hazard_refs=("Rat01",),
    ))
    hara.add_goal(SafetyGoal(
        "SG04", "Prevent unintended closing", Asil.A,
        safe_state="Lock closes only on an authorized command",
        hazard_refs=("Rat02",),
    ))
    return hara


def build_attacks(library: ThreatLibrary | None = None) -> AttackDescriptionSet:
    """Derive the UC II attacks: 27 safety-critical plus 2 privacy.

    AD08 reproduces Table VII verbatim; the CAN-flooding-via-Bluetooth
    and opening-command-replay attacks the paper lists explicitly are
    AD03 and AD02.
    """
    library = library or build_catalog()
    deriver = AttackDeriver.create(
        library, list(build_hara().safety_goals),
        name=f"{USE_CASE_NAME} attacks",
    )

    def derive(goal_ids, threat, attack_type, description, precondition,
               measures, success, fails, impl="", interface="ECU_GW",
               category=AttackCategory.SAFETY, stride=None):
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
            category=category,
            stride=stride,
        )

    derive(  # AD01
        ["SG01"], "3.1.4", "Fake messages",
        "Attacker sends fabricated open commands without any credentials.",
        "Vehicle is closed; attacker is in BLE range",
        "End-to-end authentication of commands",
        "Open the vehicle",
        "Unauthenticated commands are rejected and logged",
    )
    derive(  # AD02 -- explicit in §IV-B
        ["SG01"], "3.1.2", "Replay",
        "Attacker records a legitimate opening command and replays it "
        "later.",
        "Owner has opened the vehicle at least once in the attacker's "
        "presence; vehicle is closed again",
        "Timestamps resp. challenge-response patterns within the "
        "communication",
        "Open the vehicle",
        "Replayed command is rejected as stale or already consumed",
        impl="Tap the BLE channel, store the open command verbatim, "
             "re-send it after the owner leaves",
    )
    derive(  # AD03 -- explicit in §IV-B
        ["SG03"], "3.1.1", "Denial of service",
        "Attacker floods the CAN bus by forwarded Bluetooth requests, "
        "reducing availability of the function.",
        "Attacker has an authenticated communication link; owner will "
        "attempt to open",
        "Flooding detection at the gateway before forwarding",
        "Owner's open command is not served within the deadline",
        "Flooding source is identified and blocked; opening stays "
        "available",
        impl="Send diagnostics requests at high rate so forwarded frames "
             "saturate the body CAN (low CAN id wins arbitration)",
    )
    derive(  # AD04
        ["SG03"], "3.4.1", "Jamming",
        "Attacker jams the BLE channel while the owner tries to open.",
        "Owner is at the vehicle attempting to open",
        "Jamming detection; fallback access path (physical key)",
        "Opening is unavailable for the jam duration",
        "Fallback path keeps access available; jamming is reported",
    )
    derive(  # AD05
        ["SG01"], "3.3.1", "Gain elevated access",
        "Attacker exploits a Bluetooth stack vulnerability to execute "
        "code on the access ECU and unlock.",
        "Vehicle is closed; vulnerable stack version deployed",
        "Hardened/updated BLE stack; privilege separation on the ECU",
        "Open the vehicle without any credential",
        "Exploit fails against the patched stack; attempt is logged",
    )
    derive(  # AD06
        ["SG02"], "3.1.1", "Disable",
        "Attacker pulses request floods so the access function drops in "
        "and out.",
        "Vehicle in normal keyless operation",
        "Flooding detection with persistent sender blocking",
        "Lock state oscillates with service availability",
        "Attacker is blocked after the first burst; state stays stable",
    )
    derive(  # AD07
        ["SG04"], "3.1.4", "Fake messages",
        "Attacker sends a fabricated close command while a person is "
        "entering the vehicle.",
        "Vehicle is open; person at the door",
        "End-to-end authentication of commands",
        "Vehicle closes on the fabricated command",
        "Unauthenticated close command is rejected",
    )
    derive(  # AD08 -- Table VII, verbatim
        ["SG01"], "3.1.4", "Spoofing",
        "The attacker uses modified keys to gain access to the vehicle.",
        "Vehicle is closed. Attacker has an authenticated communication "
        "link",
        "Check received vehicles electronic ID with list of allowed IDs",
        "Open the vehicle",
        "Opening is rejected",
        impl="a) Randomly replace IDs of keys and b) test against "
             "increasing IDs (if a valid ID is known)",
    )
    derive(  # AD09
        ["SG03"], "3.1.1", "Disable",
        "Attacker sustains the flood until the access ECU shuts down.",
        "Attacker has an authenticated communication link",
        "Flooding detection; ECU overload protection",
        "Access ECU shuts down; opening unavailable",
        "Flood is shed at admission; the ECU stays up",
    )
    derive(  # AD10
        ["SG01"], "2.1.2", "Inject",
        "Attacker injects an open frame directly on the CAN "
        "communication link.",
        "Attacker has physical access to the body CAN",
        "CAN message authentication between gateway and door ECU",
        "Open the vehicle",
        "Injected frame fails authentication at the door ECU",
    )
    derive(  # AD11
        ["SG04"], "2.1.2", "Inject",
        "Attacker injects a close frame on the CAN link while loading "
        "cargo.",
        "Vehicle is open; attacker on the bus",
        "CAN message authentication",
        "Vehicle closes unexpectedly",
        "Injected frame fails authentication",
    )
    derive(  # AD12
        ["SG02"], "2.1.2", "Corrupt messages",
        "Attacker corrupts door-command payloads so open and close "
        "alternate.",
        "Commands are being exchanged",
        "Message authentication; command sequence validation",
        "Lock state oscillates",
        "Corrupted commands are dropped; state stays stable",
    )
    derive(  # AD13
        ["SG01"], "2.2.2", "Fake messages",
        "Attacker tricks the owner into installing a rogue key app that "
        "opens for the attacker.",
        "Owner installs apps from untrusted sources",
        "Key provisioning bound to a verified enrolment ceremony",
        "Open the vehicle via the rogue app's credentials",
        "Rogue app cannot complete enrolment; no valid key issued",
    )
    derive(  # AD14
        ["SG01"], "2.1.1", "Gain elevated access",
        "Insider with provisioning access enrols an additional key for "
        "the attacker.",
        "Insider holds provisioning privileges",
        "Dual control / audit on key provisioning",
        "Attacker's key opens the vehicle",
        "Provisioning audit flags the unauthorized enrolment",
    )
    derive(  # AD15
        ["SG01"], "2.2.1", "Gain elevated access",
        "Attacker uses the USB/diagnostic port to pair an attacker key.",
        "Attacker has brief physical access to the cabin port",
        "Pairing requires owner presence proof",
        "Attacker key accepted; vehicle opens later",
        "Pairing without presence proof is refused",
    )
    derive(  # AD16
        ["SG01"], "2.2.3", "Manipulate",
        "Attacker manipulates the remote-key function to treat any key "
        "as valid.",
        "Attacker reached the remote-function configuration",
        "Configuration integrity protection",
        "Any key opens the vehicle",
        "Config tamper detected at startup; function disabled safely",
    )
    derive(  # AD17
        ["SG04"], "2.2.3", "Manipulate",
        "Attacker manipulates the remote function to force closing while "
        "in use.",
        "Vehicle is open and in use",
        "Configuration integrity protection; closing interlock sensors",
        "Vehicle closes while a person is in the door",
        "Interlock blocks closing on detected presence",
    )
    derive(  # AD18
        ["SG03"], "2.2.3", "Config. change",
        "Attacker reconfigures the remote-open function off.",
        "Attacker reached the remote-function configuration",
        "Configuration integrity protection",
        "Opening via smartphone permanently unavailable",
        "Config tamper detected; last good configuration restored",
        stride=None,
    )
    derive(  # AD19
        ["SG01"], "3.1.2", "Delay",
        "Attacker captures an open command, suppresses it, and releases "
        "it when the owner is gone.",
        "Owner sends an open command in the attacker's presence",
        "Freshness window on command timestamps",
        "Vehicle opens with nobody present",
        "Stale command rejected by the freshness check",
    )
    derive(  # AD20
        ["SG02"], "3.1.2", "Replay",
        "Attacker replays captured open and close commands alternately.",
        "Attacker captured both command types",
        "Replay protection (counters, single-use challenges)",
        "Lock state oscillates under replayed commands",
        "Replays are rejected; at most the original transitions occur",
    )
    derive(  # AD21
        ["SG03"], "3.4.1", "Denial of service",
        "Attacker saturates the radio spectrum around the vehicle.",
        "Owner is at the vehicle attempting to open",
        "Spectrum monitoring; fallback access path",
        "Opening is unavailable while the interference lasts",
        "Fallback path keeps access available",
    )
    derive(  # AD22
        ["SG01"], "2.1.3", "Spoofing",
        "Attacker impersonates the gateway towards the door ECU.",
        "Attacker bridged onto the internal network",
        "Mutual authentication between gateway and door ECU",
        "Door ECU accepts attacker frames; vehicle opens",
        "Impersonation fails mutual authentication",
    )
    derive(  # AD23
        ["SG04"], "2.1.3", "Fake messages",
        "Attacker fakes 'vehicle closed' status so the owner walks away "
        "from an open car, then closes it on their return reach-in.",
        "Owner relies on the app's status display",
        "Authenticated status reporting",
        "Unexpected closing while reaching inside",
        "Status messages are authenticated; fake status rejected",
    )
    derive(  # AD24
        ["SG03"], "2.1.4", "Denial of service",
        "Attacker overloads the gateway ECU with packets so commands are "
        "not served.",
        "Attacker has an authenticated communication link",
        "Message counter for broken messages; flooding detection",
        "Shutdown of service",
        "Security control identifies unwanted sender and enforces a "
        "change of frequency",
    )
    derive(  # AD25
        ["SG02"], "2.1.4", "Disable",
        "Attacker crash-restarts the gateway repeatedly so the function "
        "is intermittently available.",
        "Vehicle in normal keyless operation",
        "Watchdog with crash-loop detection and safe degradation",
        "Availability oscillates with each crash cycle",
        "Crash-loop detection latches a safe degraded mode",
    )
    derive(  # AD26
        ["SG01"], "2.1.2", "Deliver malware",
        "Attacker delivers malware to the gateway that opens the vehicle "
        "on a trigger.",
        "Malware delivery path onto the gateway exists",
        "Secure boot and software signature verification",
        "Vehicle opens on the attacker's trigger",
        "Unsigned software refuses to boot; delivery is logged",
    )
    derive(  # AD27
        ["SG04"], "2.1.2", "Alter",
        "Attacker alters the auto-close timeout to close the vehicle "
        "aggressively.",
        "Attacker can modify gateway parameters",
        "Parameter integrity protection and plausibility bounds",
        "Vehicle closes unexpectedly after seconds",
        "Implausible timeout rejected; default restored",
    )
    derive(  # AD28 -- privacy
        [], "3.1.3", "Eavesdropping",
        "Attacker eavesdrops the access communication to create a "
        "profile about the usage.",
        "Attacker can observe BLE traffic near the parking spot",
        "Traffic padding and identifier rotation",
        "Usage profile (when the vehicle is used) can be constructed",
        "Observations cannot be linked into a profile",
        category=AttackCategory.PRIVACY,
        impl="Tap the channel, bucket open/close observations by time",
    )
    derive(  # AD29 -- privacy
        [], "3.4.2", "Intercept",
        "Attacker intercepts access-related messages at several "
        "locations to track the vehicle.",
        "Attacker operates multiple listening posts",
        "Identifier rotation across sessions",
        "Vehicle movements are trackable across locations",
        "Sessions cannot be linked across locations",
        category=AttackCategory.PRIVACY,
    )

    attacks = deriver.results
    safety = attacks.safety_attacks()
    privacy = attacks.privacy_attacks()
    assert len(safety) == 27, f"UC2 must yield 27 safety attacks, got {len(safety)}"
    assert len(privacy) == 2, f"UC2 must yield 2 privacy attacks, got {len(privacy)}"
    return attacks


def pipeline_builder() -> PipelineBuilder:
    """An immutable builder staged with the complete UC II analysis.

    ``pipeline_builder().build()`` is the supported way to obtain the
    UC II pipeline; fork the builder (e.g. ``.require_complete(False)``)
    for experiments.
    """
    return DEFINITION.builder()


# -- executable bindings (Step 4) ------------------------------------------

def _bind_ad08(attack) -> TestCase:
    """AD08: modified keys over an authenticated link (both strategies)."""

    def arm(scenario: KeylessEntryScenario):
        random_sweep = KeyForgeryAttack(
            "attacker-phone", scenario.clock, scenario.ble,
            scenario.keystore, strategy="random", attempts=25,
            gap_ms=150.0,
        )
        incrementing = KeyForgeryAttack(
            "attacker-phone-2", scenario.clock, scenario.ble,
            scenario.keystore, strategy="incrementing", attempts=25,
            gap_ms=150.0, known_valid_id="KEY-2000",
        )
        random_sweep.launch(500.0)
        incrementing.launch(5000.0)
        return random_sweep

    return TestCase(
        attack_id=attack.identifier,
        title=attack.description,
        build_scenario=lambda: KeylessEntryScenario(),
        arm_attack=arm,
        duration_ms=15000.0,
        success_oracle=oracles.all_of(
            oracles.goal_violated("SG01"), oracles.door_open()
        ),
        failure_oracle=oracles.all_of(
            oracles.no_goal_violated("SG01"),
            oracles.door_closed(),
            oracles.detection_logged("ECU_GW", "id-whitelist"),
        ),
        safety_goal_ids=attack.safety_goal_ids,
    )


def _bind_ad02(attack) -> TestCase:
    """AD02: replay of the owner's opening command."""

    def arm(scenario: KeylessEntryScenario):
        injector = ReplayAttack(
            "eve", scenario.clock, scenario.ble,
            capture_kinds={KIND_OPEN},
        )
        scenario.owner_opens(1000.0)
        scenario.owner_closes(2500.0)
        injector.replay(at_ms=8000.0, count=1)
        return injector

    return TestCase(
        attack_id=attack.identifier,
        title=attack.description,
        build_scenario=lambda: KeylessEntryScenario(),
        arm_attack=arm,
        duration_ms=15000.0,
        success_oracle=oracles.goal_violated("SG01"),
        failure_oracle=oracles.all_of(
            oracles.no_goal_violated("SG01"),
            oracles.door_closed(),
            oracles.any_of(
                oracles.detection_logged("ECU_GW", "replay-guard"),
                oracles.detection_logged("ECU_GW", "message-counter"),
            ),
        ),
        safety_goal_ids=attack.safety_goal_ids,
    )


def _bind_ad03(attack) -> TestCase:
    """AD03: CAN flooding via forwarded Bluetooth diagnostics requests."""

    def arm(scenario: KeylessEntryScenario):
        injector = FloodingAttack(
            "attacker-phone", scenario.clock, scenario.ble,
            kind="diag_request", interval_ms=0.4, duration_ms=6000.0,
            keystore=scenario.keystore, authenticated=True,
            payload_factory=lambda n: {"request": n},
        )
        injector.launch(200.0)
        scenario.owner_opens(5000.0)
        return injector

    return TestCase(
        attack_id=attack.identifier,
        title=attack.description,
        build_scenario=lambda: KeylessEntryScenario(),
        arm_attack=arm,
        duration_ms=15000.0,
        success_oracle=oracles.goal_violated("SG03"),
        failure_oracle=oracles.all_of(
            oracles.no_goal_violated("SG03"),
            oracles.detection_logged("ECU_GW", "flooding-detector"),
        ),
        safety_goal_ids=attack.safety_goal_ids,
    )


def _bind_ad04(attack) -> TestCase:
    """AD04: BLE jamming during an opening attempt."""

    def arm(scenario: KeylessEntryScenario):
        injector = JammingAttack(
            "jammer", scenario.clock, scenario.ble, duration_ms=3000.0
        )
        injector.launch(900.0)
        scenario.owner_opens(1000.0)
        return injector

    return TestCase(
        attack_id=attack.identifier,
        title=attack.description,
        build_scenario=lambda: KeylessEntryScenario(),
        arm_attack=arm,
        duration_ms=10000.0,
        success_oracle=oracles.goal_violated("SG03"),
        failure_oracle=oracles.no_goal_violated("SG03"),
        safety_goal_ids=attack.safety_goal_ids,
    )


def _bind_ad28(attack) -> TestCase:
    """AD28: usage profiling of the BLE access traffic (privacy)."""

    def arm(scenario: KeylessEntryScenario):
        injector = EavesdropAttack("profiler", scenario.clock, scenario.ble)
        scenario._profiler = injector
        for start in (1000.0, 4000.0, 7000.0):
            scenario.owner_opens(start)
            scenario.owner_closes(start + 1500.0)
        return injector

    def profile_built(scenario, result) -> bool:
        profile = scenario._profiler.profile()
        return profile["by_kind"].get("open_command", 0) >= 3

    return TestCase(
        attack_id=attack.identifier,
        title=attack.description,
        build_scenario=lambda: KeylessEntryScenario(),
        arm_attack=arm,
        duration_ms=12000.0,
        success_oracle=oracles.predicate(
            "usage profile shows >= 3 opening events", profile_built
        ),
        failure_oracle=oracles.predicate(
            "no usable profile",
            lambda scenario, result: not profile_built(scenario, result),
        ),
        safety_goal_ids=attack.safety_goal_ids,
    )


def build_bindings() -> BindingRegistry:
    """Executable bindings for the UC II attacks the paper details."""
    registry = BindingRegistry()
    registry.bind_id("AD08", _bind_ad08)
    registry.bind_id("AD02", _bind_ad02)
    registry.bind_id("AD03", _bind_ad03)
    registry.bind_id("AD04", _bind_ad04)
    registry.bind_id("AD28", _bind_ad28)
    return registry


#: UC II as declarative stage registrations: the factories for each
#: process step, consumed by the :mod:`repro.api` builder/Workspace.
DEFINITION = UseCaseDefinition(
    key="uc2",
    title=USE_CASE_NAME,
    threat_library=build_catalog,
    hara=build_hara,
    attacks=build_attacks,
    justifications=tuple(JUSTIFICATIONS.items()),
    bindings=build_bindings,
    author="UC2 analysis",
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
