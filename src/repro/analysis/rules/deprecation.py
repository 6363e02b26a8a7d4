"""``deprecated-symbol`` — internal code may not use deprecated symbols.

A symbol is deprecated when its docstring contains a ``.. deprecated::``
directive.  Deprecation is a promise to *external* callers that the symbol
keeps working; internal callers get no such grace — they are what makes the
symbol impossible to ever delete.  The rule collects every deprecated
function and class in the scanned tree, then flags imports and references
from any other module.

Legitimate internal appearances — say, a package ``__init__`` re-exporting
the symbol for external callers — carry a suppression with the reason
spelled out.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set, Tuple

from repro.analysis.engine import Finding, ModuleInfo, Project, Rule

_DIRECTIVE = ".. deprecated::"


def _deprecated_definitions(project: Project) -> Dict[str, str]:
    """``{symbol name: defining rel_path}`` for every deprecated def."""
    deprecated: Dict[str, str] = {}
    for info in project.modules:
        if info.tree is None:
            continue
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            docstring = ast.get_docstring(node)
            if docstring and _DIRECTIVE in docstring:
                deprecated[node.name] = info.rel_path
    return deprecated


class DeprecationRule(Rule):
    id = "deprecated-symbol"
    description = (
        "internal callers may not import or call symbols whose docstring "
        "carries `.. deprecated::`"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        deprecated = _deprecated_definitions(project)
        if not deprecated:
            return
        for info in project.modules:
            if info.tree is None:
                continue
            yield from self._check_module(info, deprecated)

    def _check_module(
        self, info: ModuleInfo, deprecated: Dict[str, str]
    ) -> Iterator[Finding]:
        local = {name for name, path in deprecated.items() if path == info.rel_path}
        seen: Set[Tuple[int, str]] = set()

        def finding(line: int, col: int, name: str, how: str) -> Iterator[Finding]:
            if (line, name) in seen:
                return
            seen.add((line, name))
            yield Finding(
                rule=self.id,
                path=info.rel_path,
                line=line,
                col=col,
                message=(
                    f"{how} deprecated symbol {name!r} "
                    f"(defined in {deprecated[name]}, see its `.. deprecated::` "
                    "note); internal callers must migrate to the replacement"
                ),
            )

        for node in ast.walk(info.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    name = alias.name
                    if name in deprecated and name not in local:
                        line = getattr(alias, "lineno", node.lineno)
                        col = getattr(alias, "col_offset", node.col_offset)
                        yield from finding(line, col, name, "imports")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in deprecated and node.id not in local:
                    yield from finding(node.lineno, node.col_offset, node.id, "uses")
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if node.attr in deprecated and node.attr not in local:
                    yield from finding(node.lineno, node.col_offset, node.attr, "uses")
