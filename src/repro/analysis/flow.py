"""What the analyzer's rules share, and the program's import graph.

:mod:`repro.analysis.lint` judges one module at a time by its syntax;
this module holds what every rule needs -- the finding type
(:class:`Violation`), the ``# repro: noqa`` handling, the two
name helpers -- and the one fact that takes more than one file to
interpret: per module, the imports it executes at any scope
(:class:`ModuleSummary`, distilled by :func:`extract_module` from the
same AST the linter walked), assembled by :class:`Project` into the
**module import graph** the layering gate in ``tests/test_probe.py``
walks.

Nothing here touches the disk: the analysis is a function of the
sources it is handed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?")


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and how to fix it."""

    path: str
    line: int
    col: int
    code: str
    message: str
    fixit: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message} ({self.fixit})"


def dotted_name(node: ast.expr) -> Optional[str]:
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.expr) -> Optional[str]:
    """The last identifier of a Name or Attribute expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def suppressed_codes(line: str) -> Optional[Set[str]]:
    """Codes a ``# repro: noqa`` comment suppresses; None = no comment,
    empty set = blanket suppression."""
    match = NOQA_RE.search(line)
    if match is None:
        return None
    codes = match.group("codes")
    if codes is None:
        return set()
    return {code.strip() for code in codes.split(",") if code.strip()}


def apply_noqa(violations: List[Violation], source: str) -> List[Violation]:
    """Drop violations suppressed by a ``# repro: noqa`` on their line."""
    lines = source.splitlines()
    kept: List[Violation] = []
    for violation in violations:
        line = lines[violation.line - 1] if 0 < violation.line <= len(lines) else ""
        suppressed = suppressed_codes(line)
        if suppressed is not None and (not suppressed or violation.code in suppressed):
            continue
        kept.append(violation)
    return kept


def module_name_for(path: str) -> str:
    """Dotted module name for a file path.

    Files under a ``repro`` package directory get their real import
    path (``src/repro/sim/engine.py`` -> ``repro.sim.engine``); files
    outside it (fixtures, scripts) get a path-derived unique name so
    symbol tables never collide.  Paths are relativized against the
    working directory first, so the same file gets the same module name
    whether it was given relative or absolute -- cross-module import
    resolution depends on that.
    """
    resolved = Path(path)
    try:
        resolved = resolved.resolve().relative_to(Path.cwd())
    except (OSError, ValueError):
        pass
    parts = list(resolved.as_posix().split("/"))
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[start:])
    return ".".join(part for part in parts if part and part != "..").lstrip(".")


# ----------------------------------------------------------------------
# Per-module facts
# ----------------------------------------------------------------------


@dataclass
class ModuleSummary:
    """One module's name, file and imports."""

    module: str
    path: str
    imports: Dict[str, str] = field(default_factory=dict)  # local -> dotted target


class ModuleExtractor(ast.NodeVisitor):
    """One pass over a module AST, filling a :class:`ModuleSummary`.

    Imports are recorded at every scope: a lazy ``import`` inside a
    function is an edge of the import graph like any other.
    """

    def __init__(self, module: str, path: str) -> None:
        self.summary = ModuleSummary(module=module, path=path)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.summary.imports[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            # Relative import: anchor at the importing module's package.
            package_parts = self.summary.module.split(".")[: -node.level]
            base = ".".join(package_parts + ([node.module] if node.module else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.summary.imports[local] = f"{base}.{alias.name}" if base else alias.name


def extract_module(source: str, path: str, tree: Optional[ast.AST] = None) -> ModuleSummary:
    """Distill one module's source into its :class:`ModuleSummary`."""
    if tree is None:
        tree = ast.parse(source, filename=path)
    extractor = ModuleExtractor(module_name_for(path), path)
    extractor.visit(tree)
    return extractor.summary


# ----------------------------------------------------------------------
# The program
# ----------------------------------------------------------------------


class Project:
    """The program: the summaries of one run and the import graph."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.summaries: List[ModuleSummary] = list(summaries)
        self.by_module: Dict[str, ModuleSummary] = {
            summary.module: summary for summary in self.summaries
        }

    def import_graph(self) -> Dict[str, Set[str]]:
        """module -> set of analyzed modules it imports (direct edges)."""
        known = set(self.by_module)
        graph: Dict[str, Set[str]] = {}
        for summary in self.summaries:
            edges: Set[str] = set()
            for target in summary.imports.values():
                probe = target
                while probe:
                    if probe in known and probe != summary.module:
                        edges.add(probe)
                        break
                    probe = probe.rpartition(".")[0]
            graph[summary.module] = edges
        return graph
