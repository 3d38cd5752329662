"""Dependency isolation: REP010.

The spatial engine is pure Python, and ``import repro`` must never pull
numpy in: a stray import would add its load time to every CLI start and
make an undeclared package load-bearing.  Any numpy import anywhere in
``repro`` is therefore a finding, guarded by ``try`` or not.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astlint import ModuleUnderLint
from repro.analysis.report import Finding


class NumpyIsolationRule:
    """REP010: no numpy import anywhere in ``repro``."""

    code = "REP010"
    name = "no-numpy"
    summary = "repro imports no numpy: the spatial engine is pure Python"

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(self._is_numpy(name) for name in names):
                yield module.finding(
                    self.code,
                    "numpy import in repro (the spatial engine is pure "
                    "Python; numpy is not a dependency)",
                    node=node,
                )

    @staticmethod
    def _is_numpy(dotted: str) -> bool:
        return dotted == "numpy" or dotted.startswith("numpy.")


__all__ = ["NumpyIsolationRule"]
