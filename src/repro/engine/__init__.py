"""The scenario engine: a declarative registry and one campaign runner.

The seed reproduction hard-coded exactly two SUT configurations and ran
every campaign serially.  This package is the architectural seam that
replaces that:

* :mod:`repro.engine.spec` -- declarative :class:`ScenarioSpec` /
  :class:`VariantSpec` data objects: a scenario is a dotted factory path
  plus parameters, a variant is a pure-data parameter override (and is
  therefore trivially picklable for worker processes);
* :mod:`repro.engine.registry` -- the :class:`ScenarioRegistry` holding
  the stock UC1/UC2 specs and the parametric variant families (control
  ablations, attacker timing, traffic density, zone geometry);
* :mod:`repro.engine.attacks` -- the parametric attack catalog variant
  families arm injectors from;
* :mod:`repro.engine.campaign` -- the campaign runner: one validated
  :class:`CampaignConfig` and one execution path fanning scenario x
  attack x control combinations across any :mod:`repro.runtime`
  execution backend (serial or process), one variant per task,
  streaming outcomes and aggregating verdicts.

The discrete-event kernel every scenario builds on lives in (and is
exported by) :mod:`repro.sim.kernel`; :class:`SimKernel`,
:class:`KernelScenario` and :class:`ScenarioResult` still resolve here.
Submodules are imported lazily (PEP 562): importing the package loads
none of them.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Kernel names that resolve here but belong to ``repro.sim.kernel``'s
#: export contract, not this package's ``__all__``.
_KERNEL_NAMES = ("KernelScenario", "ScenarioResult", "SimKernel")

_EXPORTS = {
    **{name: "repro.sim.kernel" for name in _KERNEL_NAMES},
    "ParamItems": "repro.engine.spec",
    "ScenarioSpec": "repro.engine.spec",
    "VariantSpec": "repro.engine.spec",
    "freeze_params": "repro.engine.spec",
    "resolve_factory": "repro.engine.spec",
    "thaw_params": "repro.engine.spec",
    "BOUND_ATTACKS": "repro.engine.registry",
    "FamilyGenerator": "repro.engine.registry",
    "ScenarioRegistry": "repro.engine.registry",
    "UC1_FLEET_SCENARIO": "repro.engine.registry",
    "UC1_SCENARIO": "repro.engine.registry",
    "UC2_SCENARIO": "repro.engine.registry",
    "apply_topology_overrides": "repro.engine.registry",
    "default_registry": "repro.engine.registry",
    "CampaignConfig": "repro.engine.campaign",
    "CampaignMemo": "repro.engine.campaign",
    "CampaignResult": "repro.engine.campaign",
    "ERROR_VERDICT": "repro.engine.campaign",
    "VariantOutcome": "repro.engine.campaign",
    "error_outcome": "repro.engine.campaign",
    "execute_memoised": "repro.engine.campaign",
    "execute_variant": "repro.engine.campaign",
    "iter_campaign": "repro.engine.campaign",
    "run_campaign": "repro.engine.campaign",
    "ATTACK_CATALOG": "repro.engine.attacks",
    "arm_catalog_attack": "repro.engine.attacks",
    "arm_flood": "repro.engine.attacks",
    "arm_forge_keys": "repro.engine.attacks",
    "arm_jam": "repro.engine.attacks",
    "arm_owner_cycle": "repro.engine.attacks",
    "arm_replay_open": "repro.engine.attacks",
    "arm_spoof_speed_limit": "repro.engine.attacks",
}

__all__ = sorted(set(_EXPORTS) - set(_KERNEL_NAMES))


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
