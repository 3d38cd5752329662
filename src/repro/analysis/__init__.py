"""Static verification plane: lint rules, spec checks, typed reports.

``repro.analysis`` moves the repository's reproducibility invariants
from scattered runtime tests to *static* checks that run before any
variant executes:

* :mod:`repro.analysis.astlint` -- the AST linter engine (module model,
  ``noqa`` suppression, file walking);
* :mod:`repro.analysis.rules` -- the codified rule catalog (``REP001``
  .. ``REP008``: multiprocessing isolation, hot-path determinism,
  hygiene, export contracts, trace-retention topic discipline);
* :mod:`repro.analysis.speccheck` -- registry/DSL validation without
  executing a single variant (``SPC001`` .. ``SPC009``);
* :mod:`repro.analysis.report` -- schema-stable ``repro.lint/v1`` JSON
  documents with a ``--diff`` baseline mode.

The ``repro lint`` CLI subcommand (and the CI ``lint`` job) is a thin
shell over :func:`lint_paths` + :func:`check_all` + :func:`build_report`.
"""

from repro.analysis.astlint import (
    ModuleUnderLint,
    NOQA_CODE,
    Rule,
    Suppression,
    apply_suppressions,
    iter_python_files,
    lint_paths,
    lint_source,
    module_name_for,
    parse_module,
    parse_suppressions,
    run_rules,
)
from repro.analysis.report import (
    Finding,
    LINT_SCHEMA,
    SEVERITIES,
    build_report,
    diff_findings,
    findings_from_payload,
    load_report,
    render_report,
    sort_findings,
    validate_lint_payload,
    write_report,
)
from repro.analysis.rules import (
    BareExceptRule,
    ExportContractRule,
    MultiprocessingIsolationRule,
    MutableDefaultRule,
    NumpyIsolationRule,
    PrintInLibraryRule,
    RULE_TYPES,
    RetainedTopicRule,
    ServiceIsolationRule,
    SleepRetryLoopRule,
    UnseededRandomnessRule,
    WallClockRule,
    default_rules,
    rule_catalog,
    rules_by_code,
)
from repro.analysis.speccheck import (
    DSL_PATH,
    MAX_FLEET_SIZE,
    REGISTRY_PATH,
    check_all,
    check_dsl,
    check_registry,
)

__all__ = [
    "BareExceptRule",
    "DSL_PATH",
    "ExportContractRule",
    "Finding",
    "LINT_SCHEMA",
    "MAX_FLEET_SIZE",
    "ModuleUnderLint",
    "MultiprocessingIsolationRule",
    "MutableDefaultRule",
    "NOQA_CODE",
    "NumpyIsolationRule",
    "PrintInLibraryRule",
    "REGISTRY_PATH",
    "RULE_TYPES",
    "RetainedTopicRule",
    "Rule",
    "SEVERITIES",
    "ServiceIsolationRule",
    "SleepRetryLoopRule",
    "Suppression",
    "UnseededRandomnessRule",
    "WallClockRule",
    "apply_suppressions",
    "build_report",
    "check_all",
    "check_dsl",
    "check_registry",
    "default_rules",
    "diff_findings",
    "findings_from_payload",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "load_report",
    "module_name_for",
    "parse_module",
    "parse_suppressions",
    "render_report",
    "rule_catalog",
    "rules_by_code",
    "run_rules",
    "sort_findings",
    "validate_lint_payload",
    "write_report",
]
