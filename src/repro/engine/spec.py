"""Declarative scenario and variant specifications.

A :class:`ScenarioSpec` expresses a SUT configuration as *data*: a dotted
factory path (``"repro.sim.scenarios:ConstructionSiteScenario"``) plus
default parameters.  A :class:`VariantSpec` is one point in a spec's
design space: parameter overrides, an optional attack (either a bound
attack description id like ``AD20`` or a key into the parametric
:mod:`repro.engine.attacks` catalog) and an optional run horizon.

Both are frozen dataclasses holding only plain values (parameter maps are
stored as sorted key/value tuples), so variants pickle cleanly across
campaign worker processes and hash/compare deterministically -- a variant
*is* its description, there is no hidden state to drift.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from typing import Any, Callable, Mapping

from repro.errors import ValidationError
from repro.model.identifiers import is_attack_id

#: Parameter maps are stored as sorted ``(key, value)`` tuples.
ParamItems = tuple[tuple[str, Any], ...]


def freeze_params(params: Mapping[str, Any] | None) -> ParamItems:
    """Normalise a parameter mapping into sorted key/value tuples.

    Set-valued parameters (the ``controls`` set) are normalised to sorted
    tuples so the result is hashable and order-independent.
    """
    if not params:
        return ()
    items = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, (set, frozenset)):
            value = tuple(sorted(value))
        items.append((key, value))
    return tuple(items)


def thaw_params(items: ParamItems) -> dict[str, Any]:
    """Rebuild a keyword-argument dict from frozen parameter items.

    ``controls`` tuples are rebuilt as frozensets (the type the scenario
    constructors validate against).
    """
    params: dict[str, Any] = {}
    for key, value in items:
        if key == "controls" and isinstance(value, (list, tuple)):
            value = frozenset(value)
        params[key] = value
    return params


@functools.lru_cache(maxsize=None)
def resolve_factory(path: str) -> Callable[..., Any]:
    """Resolve a ``"package.module:attribute"`` dotted factory path.

    Resolutions are cached per process: campaign workers build one
    scenario per variant, and re-walking ``importlib`` plus ``getattr``
    for every variant is pure overhead.  The cache is fork/spawn-safe by
    construction -- it holds only module attributes, each worker process
    re-resolves (and re-caches) from its own interpreter state, and
    failed resolutions are never cached (``lru_cache`` does not memoise
    exceptions).
    """
    module_name, sep, attribute = path.partition(":")
    if not sep or not module_name or not attribute:
        raise ValidationError(
            f"factory path must look like 'pkg.module:attr', got {path!r}"
        )
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attribute)
    except AttributeError as exc:
        raise ValidationError(
            f"module {module_name!r} has no attribute {attribute!r}"
        ) from exc


@functools.lru_cache(maxsize=None)
def _merged_base(defaults: ParamItems, topology: ParamItems) -> dict[str, Any]:
    """The defaults+topology layer of :meth:`ScenarioSpec.build`, cached.

    A campaign builds hundreds of scenarios from the same spec;
    thawing the identical two base layers each time is pure overhead.
    Callers must **copy** the returned dict before mutating it.
    """
    merged = thaw_params(defaults)
    merged.update(thaw_params(topology))
    return merged


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One registered SUT configuration, expressed as data.

    Attributes:
        name: Registry key, e.g. ``"uc1-construction-site"``.
        use_case: Which use-case module owns the bound attacks
            (``"uc1"`` or ``"uc2"``).
        factory: Dotted path to the scenario class/factory.
        description: One-line human summary.
        defaults: Spec-level parameter overrides applied under every
            variant's own parameters.
    """

    name: str
    use_case: str
    factory: str
    description: str = ""
    defaults: ParamItems = ()
    topology: ParamItems = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("scenario spec needs a name")
        if self.use_case not in ("uc1", "uc2"):
            raise ValidationError(
                f"spec {self.name!r}: unknown use case {self.use_case!r}"
            )
        for key, value in self.topology:
            if key == "fleet_size" and (
                not isinstance(value, int) or value < 1
            ):
                raise ValidationError(
                    f"spec {self.name!r}: fleet_size must be a positive "
                    f"int, got {value!r}"
                )

    @property
    def topology_keys(self) -> frozenset[str]:
        """The topology/fleet parameter names this spec understands.

        Campaign-level knobs (``--fleet``, ``--rsu-range``) only apply
        to variants whose spec declares the matching key here -- a UC2
        keyless-entry run has no fleet to size.
        """
        return frozenset(key for key, _value in self.topology)

    @property
    def fleet_capable(self) -> bool:
        """True when the spec models a sizeable fleet."""
        return "fleet_size" in self.topology_keys

    def build(
        self,
        params: Mapping[str, Any] | ParamItems | None = None,
    ) -> Any:
        """Instantiate the scenario with defaults + topology + ``params``.

        Precedence (low to high): spec ``defaults``, spec ``topology``
        parameters, then the variant's own ``params``.
        """
        try:
            merged = dict(_merged_base(self.defaults, self.topology))
        except TypeError:  # unhashable custom parameter values
            merged = thaw_params(self.defaults)
            merged.update(thaw_params(self.topology))
        if params:
            if isinstance(params, tuple):
                merged.update(thaw_params(params))
            else:
                merged.update(thaw_params(freeze_params(params)))
        return resolve_factory(self.factory)(**merged)


@dataclasses.dataclass(frozen=True)
class VariantSpec:
    """One executable point in a scenario's design space (pure data).

    Attributes:
        variant_id: Unique id within the registry,
            e.g. ``"uc1/ablation/ad20-no-flooding-detector"``.
        scenario: Name of the owning :class:`ScenarioSpec`.
        family: Variant family ("baseline", "control-ablation", ...).
        params: Scenario constructor overrides.
        attack: ``None`` (unattacked sweep), a bound attack description
            id (``"AD20"``) executed through the use case's Step-4
            binding, or a key into the parametric attack catalog.
        attack_params: Parameters for a catalog attack.
        duration_ms: Run horizon override (``None``: the binding's or
            scenario's default).
        deadline_s: Per-variant wall-clock budget (``None``: the
            campaign-level default, if any).  A run that takes longer
            reports a ``DeadlineExceededError``-typed error outcome.
        description: One-line human summary.
    """

    variant_id: str
    scenario: str
    family: str
    params: ParamItems = ()
    attack: str | None = None
    attack_params: ParamItems = ()
    duration_ms: float | None = None
    deadline_s: float | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.variant_id:
            raise ValidationError("variant needs an id")
        if self.duration_ms is not None and self.duration_ms <= 0:
            raise ValidationError(
                f"variant {self.variant_id}: duration must be positive"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValidationError(
                f"variant {self.variant_id}: deadline must be positive"
            )
        if self.uses_bound_attack and self.attack_params:
            # Bound attacks run their Step-4 binding verbatim; silently
            # dropping sweep parameters would mislabel identical runs.
            raise ValidationError(
                f"variant {self.variant_id}: bound attack "
                f"{self.attack} takes no attack_params (use scenario "
                "params, or a catalog attack for parameter sweeps)"
            )

    @property
    def uses_bound_attack(self) -> bool:
        """True when ``attack`` names a bound attack description (ADnn)."""
        return self.attack is not None and is_attack_id(self.attack)

    def params_dict(self) -> dict[str, Any]:
        """The scenario constructor overrides as keyword arguments."""
        return thaw_params(self.params)

    def attack_params_dict(self) -> dict[str, Any]:
        """The catalog-attack parameters as keyword arguments."""
        return thaw_params(self.attack_params)

    def to_payload(self) -> dict[str, Any]:
        """Plain-dict form for transport and memo keys.

        A shallow ``{field: value}`` map over every dataclass field: the
        values are already immutable plain data, so a recursive copy
        (``dataclasses.asdict``) would change no byte of the JSON that
        wire lines and memo keys are made of.
        """
        return {name: getattr(self, name) for name in _VARIANT_FIELDS}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "VariantSpec":
        """Rebuild a variant from :meth:`to_payload` output (or its JSON
        round trip, which turns the parameter tuples into lists)."""
        data = dict(payload)
        for key in ("params", "attack_params"):
            data[key] = tuple(
                (item[0], tuple(item[1]) if isinstance(item[1], list) else item[1])
                for item in data.get(key, ())
            )
        return cls(**data)


_VARIANT_FIELDS = tuple(field.name for field in dataclasses.fields(VariantSpec))


__all__ = [
    "ParamItems",
    "ScenarioSpec",
    "VariantSpec",
    "freeze_params",
    "resolve_factory",
    "thaw_params",
]
