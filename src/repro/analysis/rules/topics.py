"""Trace-retention topic discipline: REP007.

The event bus only retains topics registered up front
(``RETAINED_TOPICS`` / ``bus.retain()``) and **raises** on reads outside
that set.  A scenario class that reads a topic literal it never retains
is therefore a latent crash on a code path its tests may not reach --
exactly the class of bug this rule moves from runtime to lint time.

Scope: classes under :mod:`repro.sim` that declare ``RETAINED_TOPICS``
(i.e. read their trace back).  Reads through variables or f-strings
are out of static reach and are skipped; literal reads -- the dominant
idiom -- are checked against the class's retained prefixes under the
bus's own segment-prefix matching.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astlint import ModuleUnderLint
from repro.analysis.report import Finding

#: EventBus methods that raise on unretained prefixes.
_READ_METHODS = frozenset({"events", "last"})


def _literal_strings(node: ast.expr) -> tuple[str, ...] | None:
    """The string elements of a literal tuple/list, or None."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values = []
    for element in node.elts:
        if not isinstance(element, ast.Constant) or not isinstance(
            element.value, str
        ):
            return None
        values.append(element.value)
    return tuple(values)


def _retained_prefixes(class_node: ast.ClassDef) -> tuple[str, ...] | None:
    """The class's statically-known retained prefixes.

    ``None`` when the class declares no ``RETAINED_TOPICS`` (it does not
    read its trace back) or declares one the linter cannot read.
    Literal ``.retain("...")`` calls inside the class extend the set.
    """
    declared: tuple[str, ...] | None = None
    for statement in class_node.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
            value = statement.value
        if value is None or not any(
            isinstance(target, ast.Name)
            and target.id == "RETAINED_TOPICS"
            for target in targets
        ):
            continue
        declared = _literal_strings(value)
        if declared is None:
            return None  # dynamic declaration: out of static reach
    if declared is None:
        return None
    extra = []
    for node in ast.walk(class_node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "retain"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            extra.append(node.args[0].value)
    return declared + tuple(extra)


def _covered(topic: str, prefixes: tuple[str, ...]) -> bool:
    """EventBus prefix matching: '' retains everything."""
    return any(
        not prefix or topic == prefix or topic.startswith(prefix + ".")
        for prefix in prefixes
    )


class RetainedTopicRule:
    """REP007: trace reads must be retained up front."""

    code = "REP007"
    name = "unretained-topic-read"
    summary = (
        "a sim class that declares RETAINED_TOPICS must retain every "
        "topic literal it reads via events()/last(); unretained reads raise"
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        if not module.in_package("repro.sim"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            prefixes = _retained_prefixes(node)
            if prefixes is None:
                continue
            yield from self._check_class(module, node, prefixes)

    def _check_class(
        self,
        module: ModuleUnderLint,
        class_node: ast.ClassDef,
        prefixes: tuple[str, ...],
    ) -> Iterator[Finding]:
        for node in ast.walk(class_node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _READ_METHODS
                and node.args
            ):
                continue
            argument = node.args[0]
            if not isinstance(argument, ast.Constant) or not isinstance(
                argument.value, str
            ):
                continue  # dynamic topic: out of static reach
            topic = argument.value
            if not _covered(topic, prefixes):
                yield module.finding(
                    self.code,
                    f"{class_node.name} reads topic {topic!r} via "
                    f".{node.func.attr}() but never retains it; add it "
                    "to RETAINED_TOPICS or the read raises",
                    node=node,
                    symbol=class_node.name,
                )


__all__ = ["RetainedTopicRule"]
