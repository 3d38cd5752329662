"""Static validation of the scenario registry and the DSL surface.

The campaign plane executes whatever the registry declares; a wrong
variant fails *mid-campaign*, possibly hours into a sweep.  This module
front-loads that failure: it validates every registered
:class:`~repro.engine.spec.ScenarioSpec` and
:class:`~repro.engine.spec.VariantSpec` **without executing a single
variant** -- factories are resolved and introspected
(``inspect.signature``), never called; attacks are checked against the
catalog/binding tables, never armed.

Checks (codes are stable, like the ``REPnnn`` lint rules; a retired
code is never reused):

* ``SPC001`` duplicate variant ids across families;
* ``SPC002`` factory paths that do not resolve;
* ``SPC003`` parameter keys the factory signature does not accept
  (variant params, spec defaults and topology alike);
* ``SPC004`` fleet sizes outside the supported bounds;
* ``SPC006`` attack references that are neither a Step-4 bound id of
  the spec's use case nor a catalog key, and catalog-attack parameters
  the armer does not accept;
* ``SPC007`` non-diverging families: two variants of one family whose
  *resolved* scenario configuration is identical (dead design-space
  points that burn campaign budget without adding coverage);
* ``SPC008`` DSL documents that fail parse/semantic analysis
  (:mod:`repro.dsl.semantics` over the use cases' formatted attacks);
* ``SPC009`` dead DSL blocks: two attack blocks with identical field
  content (the second is an unreachable branch of the design space).
"""

from __future__ import annotations

import inspect
from typing import Any, Iterator

from repro.analysis.report import Finding, sort_findings
from repro.engine.attacks import ATTACK_CATALOG
from repro.engine.registry import (
    BOUND_ATTACKS,
    ScenarioRegistry,
    default_registry,
)
from repro.engine.spec import ScenarioSpec, VariantSpec, resolve_factory
from repro.errors import ReproError, ValidationError

#: Largest convoy the spatial families are validated for; beyond this
#: the quadratic V2V relay fan-out dominates and sweeps should be
#: explicit about it.
MAX_FLEET_SIZE = 64

#: Virtual finding locations (the checks have no source file).
REGISTRY_PATH = "registry"
DSL_PATH = "dsl"


def _finding(
    code: str, message: str, symbol: str = "", path: str = REGISTRY_PATH
) -> Finding:
    return Finding(code=code, message=message, path=path, symbol=symbol)


def _accepted_keywords(spec: ScenarioSpec) -> tuple[frozenset[str], bool]:
    """The factory's keyword-parameter names and whether it has
    ``**kwargs`` -- introspected, never called."""
    factory = resolve_factory(spec.factory)
    signature = inspect.signature(factory)
    names = set()
    var_keyword = False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            var_keyword = True
        elif parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            names.add(parameter.name)
    return frozenset(names), var_keyword


def _check_spec(spec: ScenarioSpec) -> Iterator[Finding]:
    """Spec-level checks: factory resolution and layer keys."""
    try:
        accepted, var_keyword = _accepted_keywords(spec)
    except (ReproError, ImportError, TypeError, ValueError) as exc:
        yield _finding(
            "SPC002",
            f"factory {spec.factory!r} does not resolve: {exc}",
            symbol=spec.name,
        )
        return
    for layer_name, layer in (
        ("defaults", spec.defaults),
        ("topology", spec.topology),
    ):
        if var_keyword:
            break
        for key, _value in layer:
            if key not in accepted:
                yield _finding(
                    "SPC003",
                    f"spec {layer_name} key {key!r} is not a parameter "
                    f"of factory {spec.factory!r}",
                    symbol=spec.name,
                )


def _check_variant(
    variant: VariantSpec, spec: ScenarioSpec
) -> Iterator[Finding]:
    """Variant-level checks: params, fleet bounds, attack references."""
    try:
        accepted, var_keyword = _accepted_keywords(spec)
    except (ReproError, ImportError, TypeError, ValueError):
        return  # SPC002 already reported at spec level
    for key, value in variant.params:
        if not var_keyword and key not in accepted:
            yield _finding(
                "SPC003",
                f"param {key!r} is not a parameter of factory "
                f"{spec.factory!r}",
                symbol=variant.variant_id,
            )
        if key == "fleet_size" and (
            not isinstance(value, int)
            or isinstance(value, bool)
            or not 1 <= value <= MAX_FLEET_SIZE
        ):
            yield _finding(
                "SPC004",
                f"fleet_size must be an int in [1, {MAX_FLEET_SIZE}], "
                f"got {value!r}",
                symbol=variant.variant_id,
            )
    yield from _check_attack(variant, spec)


def _check_attack(
    variant: VariantSpec, spec: ScenarioSpec
) -> Iterator[Finding]:
    if variant.attack is None:
        return
    if variant.uses_bound_attack:
        bound = BOUND_ATTACKS.get(spec.use_case, ())
        if variant.attack not in bound:
            yield _finding(
                "SPC006",
                f"bound attack {variant.attack!r} has no Step-4 binding "
                f"for use case {spec.use_case!r} (known: {list(bound)})",
                symbol=variant.variant_id,
            )
        return
    armer = ATTACK_CATALOG.get(variant.attack)
    if armer is None:
        yield _finding(
            "SPC006",
            f"attack {variant.attack!r} is neither a bound attack id "
            f"nor a catalog key (known catalog: "
            f"{sorted(ATTACK_CATALOG)})",
            symbol=variant.variant_id,
        )
        return
    parameters = inspect.signature(armer).parameters
    names = {
        name
        for name, parameter in parameters.items()
        if parameter.kind
        in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    }
    has_var_keyword = any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )
    for key, _value in variant.attack_params:
        if not has_var_keyword and key not in names:
            yield _finding(
                "SPC006",
                f"attack_params key {key!r} is not a parameter of "
                f"catalog attack {variant.attack!r}",
                symbol=variant.variant_id,
            )


def _resolved_signature(
    variant: VariantSpec, spec: ScenarioSpec
) -> tuple[Any, ...]:
    """The variant's fully-resolved behaviour key (divergence check).

    Two variants with equal resolved signatures build the same scenario
    and run the same attack for the same horizon -- they cannot
    diverge, whatever their ids claim.
    """
    merged: dict[str, Any] = dict(spec.defaults)
    merged.update(dict(spec.topology))
    merged.update(dict(variant.params))
    return (
        variant.scenario,
        tuple(sorted(merged.items())),
        variant.attack,
        variant.attack_params,
        variant.duration_ms,
    )


def check_registry(
    registry: ScenarioRegistry | None = None,
) -> tuple[Finding, ...]:
    """Statically validate a registry (the stock one by default)."""
    if registry is None:
        registry = default_registry()
    findings: list[Finding] = []
    for name in registry.names():
        findings.extend(_check_spec(registry.get(name)))

    seen_ids: dict[str, str] = {}
    groups: dict[tuple[str, str], list[VariantSpec]] = {}
    for name in registry.names():
        for family in registry.families(name):
            try:
                variants = registry.variants(scenario=name, family=family)
            except ValidationError as exc:
                findings.append(
                    _finding("SPC001", str(exc), symbol=f"{name}/{family}")
                )
                continue
            for variant in variants:
                if variant.scenario != name:
                    # A generator may label variants with a foreign (or
                    # unregistered) scenario; resolve against what it
                    # claims so param checks use the right factory.
                    try:
                        spec = registry.get(variant.scenario)
                    except ValidationError as exc:
                        findings.append(
                            _finding(
                                "SPC002",
                                str(exc),
                                symbol=variant.variant_id,
                            )
                        )
                        continue
                else:
                    spec = registry.get(name)
                previous = seen_ids.get(variant.variant_id)
                if previous is not None:
                    findings.append(
                        _finding(
                            "SPC001",
                            f"duplicate variant id (also generated by "
                            f"{previous})",
                            symbol=variant.variant_id,
                        )
                    )
                    continue
                seen_ids[variant.variant_id] = f"{name}/{family}"
                findings.extend(_check_variant(variant, spec))
                groups.setdefault((name, family), []).append(variant)

    for (name, family), variants in groups.items():
        signatures: dict[tuple[Any, ...], str] = {}
        for variant in variants:
            signature = _resolved_signature(
                variant, registry.get(variant.scenario)
            )
            twin = signatures.get(signature)
            if twin is not None:
                findings.append(
                    _finding(
                        "SPC007",
                        f"family {family!r} cannot diverge: resolved "
                        f"configuration is identical to {twin}",
                        symbol=variant.variant_id,
                    )
                )
            else:
                signatures[signature] = variant.variant_id
    return sort_findings(findings)


def check_dsl() -> tuple[Finding, ...]:
    """Statically validate the DSL surface of both use cases.

    Formats every use case's attack descriptions as a DSL document,
    then re-parses and semantically analyzes it (the same pass
    ``repro validate`` runs) -- a full round-trip without executing any
    attack.  Duplicate-content blocks are reported as dead branches.
    """
    from repro.dsl import format_attacks, parse
    from repro.dsl.semantics import analyze
    from repro.threatlib.catalog import build_catalog
    from repro.usecases import uc1, uc2

    findings: list[Finding] = []
    catalog = build_catalog()
    for module, label in ((uc1, "uc1"), (uc2, "uc2")):
        path = f"{DSL_PATH}:{label}"
        source = format_attacks(list(module.build_attacks()))
        try:
            document = parse(source)
            analyze(
                document,
                catalog,
                list(module.build_hara().safety_goals),
            )
        except ReproError as exc:
            findings.append(
                _finding("SPC008", str(exc), symbol=label, path=path)
            )
            continue
        contents: dict[tuple[Any, ...], str] = {}
        for block in document.blocks:
            content = tuple(
                (field.name, field.values) for field in block.fields
            )
            twin = contents.get(content)
            if twin is not None:
                findings.append(
                    _finding(
                        "SPC009",
                        f"attack block duplicates {twin} field-for-field "
                        "(a dead branch of the design space)",
                        symbol=block.identifier,
                        path=path,
                    )
                )
            else:
                contents[content] = block.identifier
    return sort_findings(findings)


def check_all(
    registry: ScenarioRegistry | None = None,
) -> tuple[Finding, ...]:
    """Registry plus DSL checks, in one deterministic report order."""
    return sort_findings(check_registry(registry) + check_dsl())


__all__ = [
    "DSL_PATH",
    "MAX_FLEET_SIZE",
    "REGISTRY_PATH",
    "check_all",
    "check_dsl",
    "check_registry",
]
