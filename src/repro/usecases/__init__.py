"""The paper's two evaluated use cases, fully encoded (§IV).

Each module provides the per-step factories (``build_hara()``,
``build_attacks()``, ``build_bindings()``) plus its declarative
registration for the :mod:`repro.api` facade: ``DEFINITION`` (a
:class:`~repro.api.UseCaseDefinition`) and ``pipeline_builder()`` (an
immutable, pre-staged :class:`~repro.api.PipelineBuilder`).
"""

from repro.usecases import uc1_autonomous_driving as uc1
from repro.usecases import uc2_keyless_entry as uc2

__all__ = ["uc1", "uc2"]
