"""Schema-stable lint reports: findings, JSON documents, delta mode.

The static-verification plane reports in three parts: one frozen
pure-data record per observation (:class:`Finding`), a schema-tagged
JSON document a CI job can archive (:func:`build_report` /
:func:`validate_lint_payload`), and a delta mode
(:func:`diff_findings`) so a gate can move from "zero findings" to "no
*new* findings" if the rule catalog grows stricter than the codebase.

Findings are keyed without line numbers (:meth:`Finding.key`) so a
baseline survives unrelated edits shifting code up or down a file.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import ValidationError

#: Schema tag embedded in every lint document; bump on breaking change.
LINT_SCHEMA = "repro.lint/v1"

#: Finding severities (``error`` gates CI; ``warning`` is advisory).
SEVERITIES = ("error", "warning")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one location (pure data, orderable).

    Attributes:
        code: Stable rule code (``REP004``, ``SPC001``, ...).
        message: Human explanation; never embeds the line number, so
            findings key stably across unrelated edits.
        path: Repo-relative posix path, or a virtual location such as
            ``registry`` / ``dsl:uc1`` for non-file checks.
        line: 1-based line, or 0 for file- and registry-level findings.
        symbol: Optional anchor inside the path (function name, variant
            id, attack block id) used in the line-free baseline key.
        severity: ``"error"`` or ``"warning"``.
    """

    code: str
    message: str
    path: str
    line: int = 0
    symbol: str = ""
    severity: str = "error"

    def __post_init__(self) -> None:
        if not self.code:
            raise ValidationError("finding needs a rule code")
        if not self.message:
            raise ValidationError(f"finding {self.code}: needs a message")
        if self.severity not in SEVERITIES:
            raise ValidationError(
                f"finding {self.code}: severity must be one of "
                f"{SEVERITIES}, got {self.severity!r}"
            )

    def key(self) -> tuple[str, str, str, str]:
        """Line-free identity used by the ``--diff`` baseline mode."""
        return (self.code, self.path, self.symbol, self.message)

    def render(self) -> str:
        """One-line human form (``path:line: CODE message``)."""
        location = f"{self.path}:{self.line}" if self.line else self.path
        anchor = f" [{self.symbol}]" if self.symbol else ""
        return f"{location}: {self.code}{anchor} {self.message}"

    def to_payload(self) -> dict[str, Any]:
        """Plain-dict (JSON-ready) form."""
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "severity": self.severity,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Finding":
        """Rebuild a finding from :meth:`to_payload` output."""
        if not isinstance(payload, Mapping):
            raise ValidationError("finding payload must be a mapping")
        return cls(
            code=payload.get("code", ""),
            message=payload.get("message", ""),
            path=payload.get("path", ""),
            line=int(payload.get("line", 0)),
            symbol=payload.get("symbol", ""),
            severity=payload.get("severity", "error"),
        )


def sort_findings(findings: Iterable[Finding]) -> tuple[Finding, ...]:
    """Deterministic report order: path, line, code, symbol."""
    return tuple(
        sorted(findings, key=lambda f: (f.path, f.line, f.code, f.symbol))
    )


def build_report(
    findings: Iterable[Finding],
    *,
    checked_files: int,
    rules: Iterable[Mapping[str, str]] = (),
) -> dict[str, Any]:
    """The schema-stable lint document (the ``LINT.json`` payload)."""
    ordered = sort_findings(findings)
    counts: dict[str, int] = {}
    for finding in ordered:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    return {
        "schema": LINT_SCHEMA,
        "checked_files": checked_files,
        "total": len(ordered),
        "counts": dict(sorted(counts.items())),
        "rules": [dict(rule) for rule in rules],
        "findings": [finding.to_payload() for finding in ordered],
    }


def validate_lint_payload(payload: Mapping[str, Any]) -> None:
    """Assert a document obeys the ``repro.lint/v1`` schema.

    Raises:
        ValidationError: naming the first violated constraint.
    """
    if not isinstance(payload, Mapping):
        raise ValidationError("lint payload must be a mapping")
    if payload.get("schema") != LINT_SCHEMA:
        raise ValidationError(
            f"lint schema mismatch: got {payload.get('schema')!r}, "
            f"expected {LINT_SCHEMA!r}"
        )
    for field in ("checked_files", "total"):
        if not isinstance(payload.get(field), int):
            raise ValidationError(f"lint payload field {field!r} must be int")
    if not isinstance(payload.get("counts"), Mapping):
        raise ValidationError("lint payload field 'counts' must be a mapping")
    findings = payload.get("findings")
    if not isinstance(findings, list):
        raise ValidationError("lint payload field 'findings' must be a list")
    if payload["total"] != len(findings):
        raise ValidationError(
            f"lint payload total={payload['total']} does not match "
            f"{len(findings)} finding(s)"
        )
    for item in findings:
        Finding.from_payload(item)  # raises on malformed entries


def findings_from_payload(payload: Mapping[str, Any]) -> tuple[Finding, ...]:
    """Rebuild the findings of a validated lint document."""
    validate_lint_payload(payload)
    return tuple(
        Finding.from_payload(item) for item in payload.get("findings", [])
    )


def load_report(path: str | Path) -> tuple[Finding, ...]:
    """Read + validate a ``LINT.json`` baseline file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not a lint document: {exc}") from exc
    return findings_from_payload(payload)


def write_report(
    payload: Mapping[str, Any], out_dir: str | Path
) -> Path:
    """Write the canonical ``LINT.json`` under ``out_dir``."""
    validate_lint_payload(payload)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "LINT.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    return path


def diff_findings(
    fresh: Iterable[Finding], baseline: Iterable[Finding]
) -> tuple[Finding, ...]:
    """Findings in ``fresh`` whose line-free key is absent from
    ``baseline`` -- the ``repro lint --diff`` gate: known debt passes,
    new debt fails."""
    known = {finding.key() for finding in baseline}
    return sort_findings(
        finding for finding in fresh if finding.key() not in known
    )


def render_report(payload: Mapping[str, Any]) -> str:
    """Human form of a lint document (one line per finding + a total)."""
    validate_lint_payload(payload)
    lines = [
        Finding.from_payload(item).render()
        for item in payload.get("findings", [])
    ]
    checked = payload.get("checked_files", 0)
    total = payload.get("total", 0)
    if total:
        lines.append(
            f"{total} finding(s) across {checked} checked file(s)"
        )
    else:
        lines.append(f"clean: 0 findings across {checked} checked file(s)")
    return "\n".join(lines)


__all__ = [
    "Finding",
    "LINT_SCHEMA",
    "SEVERITIES",
    "build_report",
    "diff_findings",
    "findings_from_payload",
    "load_report",
    "render_report",
    "sort_findings",
    "validate_lint_payload",
    "write_report",
]
