"""Export-contract invariant: REP006.

Every ``repro.*`` module declares ``__all__`` and every listed name
resolves to a module-level binding.  The contract is what lets the
package ``__init__`` modules re-export exact unions (see
``tests/test_exports.py``) and what keeps the public surface reviewable:
a name missing from ``__all__`` is invisible API, a stale name is a
broken import waiting for a consumer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astlint import ModuleUnderLint
from repro.analysis.report import Finding

#: Module basenames exempt from the contract (script entry points).
_EXEMPT_STEMS = frozenset({"__main__", "conftest", "setup"})


def _bound_names(body: list[ast.stmt]) -> set[str]:
    """Names bound at module level, compound statements included.

    Recurses into ``if``/``try``/``for``/``while``/``with`` bodies so
    gated bindings (``try: import tomllib ... except ImportError:
    tomllib = None``) count, exactly as the import system sees them.
    """
    names: set[str] = set()
    for node in body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(_target_names(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names.update(_target_names(node.target))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                names.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, (ast.If, ast.For, ast.While, ast.With)):
            if isinstance(node, ast.For):
                names.update(_target_names(node.target))
            names.update(_bound_names(node.body))
            names.update(_bound_names(getattr(node, "orelse", [])))
        elif isinstance(node, ast.Try):
            names.update(_bound_names(node.body))
            names.update(_bound_names(node.orelse))
            names.update(_bound_names(node.finalbody))
            for handler in node.handlers:
                names.update(_bound_names(handler.body))
    return names


def _target_names(target: ast.expr) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for element in target.elts:
            names.update(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return set()


def _all_declarations(
    tree: ast.Module,
) -> Iterator[tuple[ast.stmt, list[ast.expr] | None]]:
    """Module-level ``__all__`` assignments and their element lists.

    The element list is ``None`` for dynamic values the linter cannot
    see through (``__all__ = sorted(...)``); those satisfy presence but
    skip resolution checking.
    """
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], node.value
        if not any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in targets
        ):
            continue
        if isinstance(value, (ast.List, ast.Tuple)):
            yield node, list(value.elts)
        else:
            yield node, None


class ExportContractRule:
    """REP006: ``__all__`` declared and every listed name resolvable."""

    code = "REP006"
    name = "export-contract"
    summary = (
        "every repro.* module declares __all__ and every __all__ entry "
        "names a module-level binding"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        stem = module.module.rpartition(".")[2]
        if stem in _EXEMPT_STEMS:
            return
        declarations = list(_all_declarations(module.tree))
        if not declarations:
            yield module.finding(
                self.code,
                "module does not declare __all__ (the export contract "
                "every repro.* module carries)",
            )
            return
        bound = _bound_names(module.tree.body)
        for node, elements in declarations:
            if elements is None:
                continue
            for element in elements:
                if not isinstance(element, ast.Constant) or not isinstance(
                    element.value, str
                ):
                    yield module.finding(
                        self.code,
                        "__all__ entries must be string literals",
                        node=node,
                    )
                    continue
                if element.value not in bound:
                    yield module.finding(
                        self.code,
                        f"__all__ lists {element.value!r} but the module "
                        "never binds that name",
                        node=element,
                        symbol=element.value,
                    )


__all__ = ["ExportContractRule"]
