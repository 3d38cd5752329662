"""Typed identifier helpers for SaSeVAL artifacts.

The paper names its artifacts with short structured identifiers:

* safety goals: ``SG01`` .. ``SG06`` (per use case),
* attack descriptions: ``AD08``, ``AD20``,
* threat scenarios: ``2.1.4``, ``3.1.4`` (section-style dotted numbers,
  e.g. "Threat scenario 3.1.4: Spoofing of messages ... by impersonation"),
* HARA functions: ``Rat01`` ("Function (with ID) ... (Rat01)").

This module centralises creation and validation of those identifier forms so
that every subpackage produces identically shaped IDs and cross-references
can be checked mechanically (a prerequisite for the RQ1 traceability
arguments).
"""

from __future__ import annotations

import re

from repro.errors import ValidationError

_SG_RE = re.compile(r"^SG\d{2,}$")
_AD_RE = re.compile(r"^AD\d{2,}$")
_TS_RE = re.compile(r"^\d+(\.\d+)+$")
_FN_RE = re.compile(r"^Rat\d{2,}$")


def safety_goal_id(number: int) -> str:
    """Return the canonical safety-goal identifier, e.g. ``SG01``.

    >>> safety_goal_id(1)
    'SG01'
    """
    if number < 1:
        raise ValidationError(f"safety goal number must be >= 1, got {number}")
    return f"SG{number:02d}"


def attack_id(number: int) -> str:
    """Return the canonical attack-description identifier, e.g. ``AD20``.

    >>> attack_id(8)
    'AD08'
    """
    if number < 1:
        raise ValidationError(f"attack number must be >= 1, got {number}")
    return f"AD{number:02d}"


def threat_scenario_id(*parts: int) -> str:
    """Return a dotted threat-scenario identifier, e.g. ``3.1.4``.

    The paper numbers threat scenarios hierarchically:
    scenario index, asset index, threat index.

    >>> threat_scenario_id(3, 1, 4)
    '3.1.4'
    """
    if len(parts) < 2:
        raise ValidationError("threat scenario ids need at least two parts")
    if any(part < 0 for part in parts):
        raise ValidationError(f"threat scenario id parts must be >= 0: {parts}")
    return ".".join(str(part) for part in parts)


def function_id(number: int) -> str:
    """Return a HARA function identifier, e.g. ``Rat01``.

    >>> function_id(1)
    'Rat01'
    """
    if number < 1:
        raise ValidationError(f"function number must be >= 1, got {number}")
    return f"Rat{number:02d}"


def is_safety_goal_id(value: str) -> bool:
    """True when ``value`` has the canonical ``SGnn`` shape."""
    return bool(_SG_RE.match(value))


def is_attack_id(value: str) -> bool:
    """True when ``value`` has the canonical ``ADnn`` shape."""
    return bool(_AD_RE.match(value))


def is_threat_scenario_id(value: str) -> bool:
    """True when ``value`` has the dotted ``a.b[.c]`` shape."""
    return bool(_TS_RE.match(value))


def is_function_id(value: str) -> bool:
    """True when ``value`` has the canonical ``Ratnn`` shape."""
    return bool(_FN_RE.match(value))


def require_safety_goal_id(value: str) -> str:
    """Validate and return ``value`` or raise :class:`ValidationError`."""
    if not is_safety_goal_id(value):
        raise ValidationError(f"not a safety goal id: {value!r}")
    return value


def require_attack_id(value: str) -> str:
    """Validate and return ``value`` or raise :class:`ValidationError`."""
    if not is_attack_id(value):
        raise ValidationError(f"not an attack description id: {value!r}")
    return value


def require_threat_scenario_id(value: str) -> str:
    """Validate and return ``value`` or raise :class:`ValidationError`."""
    if not is_threat_scenario_id(value):
        raise ValidationError(f"not a threat scenario id: {value!r}")
    return value


def require_function_id(value: str) -> str:
    """Validate and return ``value`` or raise :class:`ValidationError`."""
    if not is_function_id(value):
        raise ValidationError(f"not a HARA function id: {value!r}")
    return value


def next_id(existing: set[str], kind: str) -> str:
    """Return the next free sequential identifier of the given ``kind``.

    ``kind`` is one of ``"SG"``, ``"AD"`` or ``"Rat"``.  Gaps in the
    existing numbering are not reused; the generator always moves past the
    maximum so identifiers stay stable as artifacts are deleted.

    >>> next_id({'AD01', 'AD03'}, 'AD')
    'AD04'
    """
    factories = {"SG": safety_goal_id, "AD": attack_id, "Rat": function_id}
    if kind not in factories:
        raise ValidationError(f"unknown id kind: {kind!r}")
    highest = 0
    for value in existing:
        if value.startswith(kind):
            suffix = value[len(kind):]
            if suffix.isdigit():
                highest = max(highest, int(suffix))
    return factories[kind](highest + 1)


__all__ = [
    "attack_id",
    "function_id",
    "is_attack_id",
    "is_function_id",
    "is_safety_goal_id",
    "is_threat_scenario_id",
    "next_id",
    "require_attack_id",
    "require_function_id",
    "require_safety_goal_id",
    "require_threat_scenario_id",
    "safety_goal_id",
    "threat_scenario_id",
]
