"""Per-module facts and the program model the analyzer's rules read.

Where :mod:`repro.analysis.lint` judges one module at a time by its
syntax, this module distills each module into the facts that need more
than one file to interpret, and holds them for one run:

* per-module **symbol tables** (:class:`ModuleSummary`): the functions
  and methods a module defines, its imports, and for every class the
  bases, ``__slots__``, the ``STATE_FIELDS`` / ``SNAPSHOT_REBIND``
  declarations and every ``self.<attr> = ...`` it executes, each with a
  local classification of the assigned value;
* the **module import graph** (``Project.import_graph``), which the
  layering gate in ``tests/test_probe.py`` walks.

:mod:`repro.analysis.state` resolves the cross-module half of the class
facts into the object-ownership graph and the RPR91x rules.  The front
end that ties parsing, extraction, and reporting together is
:func:`repro.analysis.lint.run_lint`; the finding type
(:class:`Violation`) and the ``# repro: noqa`` handling live here so
both rule families share them.

Every module's facts are distilled by one walk over its AST
(:func:`extract_module`); :class:`Project` holds the summaries of one
run.  Nothing here touches the disk: the analysis is a function of the
sources it is handed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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


def _string_tuple(node: ast.expr) -> List[str]:
    """String elements of a tuple/list/set literal (or one bare string)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [
            element.value
            for element in node.elts
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        ]
    return []


def annotation_names(annotation: ast.expr) -> List[str]:
    """Every type identifier in an annotation, forward-ref strings included."""
    names: List[str] = []
    for sub in ast.walk(annotation):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            terminal = terminal_name(sub)
            if terminal is not None and terminal not in names:
                names.append(terminal)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            for name in annotation_names(parsed.body):
                if name not in names:
                    names.append(name)
    return names


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
class FieldAssign:
    """One ``self.<name> = ...`` observed inside a class body.

    ``kind`` is the extractor's local classification of the assigned
    value (see :class:`ModuleExtractor`); kinds that need whole-program
    knowledge to finish (``param``/``selfattr``/``paramattr``/``ref``)
    are resolved later by :mod:`repro.analysis.state`.
    """

    name: str
    method: str  # bare method name, or "<class>" for body annotations
    line: int
    col: int
    kind: str
    target: Optional[str] = None  # class / "Ann.attr" the value points at
    shared: bool = False  # caller-provided value the caller still owns
    ann: List[str] = field(default_factory=list)  # annotation type names


@dataclass
class ClassInfo:
    """What the whole-program passes need to know about a class."""

    line: int
    bases: List[str] = field(default_factory=list)
    is_dataclass: bool = False
    slots: Optional[List[str]] = None  # None = no __slots__ declared
    slots_line: int = 0
    declared_state: Optional[List[str]] = None  # STATE_FIELDS contract
    declared_line: int = 0
    rebind: Optional[List[str]] = None  # SNAPSHOT_REBIND declaration
    rebind_line: int = 0
    fields: List[FieldAssign] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Everything the whole-program passes need from one module."""

    module: str
    path: str
    functions: Dict[str, int] = field(default_factory=dict)  # qualname -> line
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)  # local -> dotted target


# ----------------------------------------------------------------------
# Extraction: one AST walk distills a module into its summary
# ----------------------------------------------------------------------


#: Constructor terminals that build a fresh mutable container.
_CONTAINER_CTORS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter", "bytearray"}
)

#: Annotation terminals naming a mutable container type: a parameter so
#: annotated holds a container (the caller's), never a class reference.
_MUTABLE_CONTAINER_ANNS = frozenset(
    {
        "list",
        "dict",
        "set",
        "deque",
        "bytearray",
        "List",
        "Dict",
        "Set",
        "Deque",
        "DefaultDict",
        "MutableMapping",
        "MutableSequence",
        "MutableSet",
    }
)

#: Typing/builtin wrapper names that never name a simulator class; the
#: first capitalized annotation name *outside* this set is treated as a
#: class reference for the ownership graph.
_TYPING_NAMES = frozenset(
    {
        "Optional",
        "Union",
        "Any",
        "Tuple",
        "FrozenSet",
        "Sequence",
        "Iterable",
        "Iterator",
        "Mapping",
        "Callable",
        "ClassVar",
        "Type",
        "Final",
        "Literal",
        "Annotated",
        "None",
        "TYPE_CHECKING",
    }
)


def class_candidates(names: Iterable[str]) -> List[str]:
    """Annotation names that plausibly reference a user-defined class."""
    return [
        name
        for name in names
        if name
        and name[0].isupper()
        and name not in _TYPING_NAMES
        and name not in _MUTABLE_CONTAINER_ANNS
    ]


#: Dotted call targets that yield OS-level handles: state a snapshot /
#: fork of the simulation cannot carry across (RPR914).
_HANDLE_CALLS = frozenset(
    {
        "open",
        "io.open",
        "socket.socket",
        "socket.create_connection",
        "threading.Thread",
        "threading.Lock",
        "threading.RLock",
        "threading.Event",
        "threading.Condition",
        "subprocess.Popen",
        "sqlite3.connect",
        "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryFile",
        "mmap.mmap",
    }
)


class ModuleExtractor(ast.NodeVisitor):
    """One pass over a module AST, filling a :class:`ModuleSummary`.

    The extractor never invents facts: a value it cannot classify
    locally is ``unknown``, so downstream rules under-approximate (a
    lint must not cry wolf).
    """

    def __init__(self, module: str, path: str) -> None:
        self.summary = ModuleSummary(module=module, path=path)
        self._class_stack: List[str] = []
        self._func_stack: List[str] = []
        self._method_stack: List[str] = []  # enclosing method bare name, "" outside
        # Innermost function's parameters: name -> annotation type names
        # ([] when unannotated); the bottom entry is the module level.
        self._params: List[Dict[str, List[str]]] = [{}]

    def _qualname(self, name: str) -> str:
        parts = [self.summary.module, *self._class_stack]
        if self._func_stack:
            # nested function: qualify under the innermost function
            parts = [self._func_stack[-1]]
        return ".".join(parts + [name])

    # -- definitions ---------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        is_dataclass = any(
            terminal_name(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
            for dec in node.decorator_list
        )
        bases = [dotted_name(base) or terminal_name(base) or "" for base in node.bases]
        bases = [base for base in bases if base]
        slots: Optional[List[str]] = None
        slots_line = 0
        declared_state: Optional[List[str]] = None
        declared_line = 0
        rebind: Optional[List[str]] = None
        rebind_line = 0
        body_fields: List[FieldAssign] = []
        for statement in node.body:
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target = statement.targets[0]
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    slots = _string_tuple(statement.value)
                    slots_line = statement.lineno
                elif isinstance(target, ast.Name) and target.id == "STATE_FIELDS":
                    declared_state = _string_tuple(statement.value)
                    declared_line = statement.lineno
                elif isinstance(target, ast.Name) and target.id == "SNAPSHOT_REBIND":
                    rebind = _string_tuple(statement.value)
                    rebind_line = statement.lineno
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                is_classvar = "ClassVar" in ast.dump(statement.annotation)
                if statement.target.id == "STATE_FIELDS" and statement.value is not None:
                    declared_state = _string_tuple(statement.value)
                    declared_line = statement.lineno
                elif (
                    statement.target.id == "SNAPSHOT_REBIND"
                    and statement.value is not None
                ):
                    rebind = _string_tuple(statement.value)
                    rebind_line = statement.lineno
                elif statement.target.id == "__slots__" and statement.value is not None:
                    slots = _string_tuple(statement.value)
                    slots_line = statement.lineno
                elif not is_classvar and not statement.target.id.startswith("__"):
                    # Dataclass-style instance field declaration.
                    body_fields.append(
                        FieldAssign(
                            name=statement.target.id,
                            method="<class>",
                            line=statement.lineno,
                            col=statement.col_offset + 1,
                            kind="decl",
                            ann=annotation_names(statement.annotation),
                        )
                    )
        self.summary.classes[node.name] = ClassInfo(
            line=node.lineno,
            bases=bases,
            is_dataclass=is_dataclass,
            slots=slots,
            slots_line=slots_line,
            declared_state=declared_state,
            declared_line=declared_line,
            rebind=rebind,
            rebind_line=rebind_line,
            fields=body_fields,
        )
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: Any) -> None:
        qualname = self._qualname(node.name)
        self.summary.functions[qualname] = node.lineno
        params: Dict[str, List[str]] = {}
        for arg in [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ]:
            if arg.arg not in ("self", "cls"):
                params[arg.arg] = (
                    annotation_names(arg.annotation)
                    if arg.annotation is not None
                    else []
                )
        if self._class_stack and not self._func_stack:
            method = node.name
        elif self._method_stack:
            method = self._method_stack[-1]
        else:
            method = ""
        self._method_stack.append(method)
        self._func_stack.append(qualname)
        self._params.append(params)
        self.generic_visit(node)
        self._params.pop()
        self._func_stack.pop()
        self._method_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.summary.imports[local] = target
        self.generic_visit(node)

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
        self.generic_visit(node)

    # -- instance-field extraction (the state model's raw material) ----
    def _classify_value(self, value: ast.expr) -> Tuple[str, Optional[str], bool]:
        """(kind, target, shared) for an assigned value.

        ``shared`` marks values the caller still owns (a mutable
        container or callable passed in as a parameter).  Kinds needing
        whole-program knowledge to finish
        (``param``/``selfattr``/``paramattr``/``ref``) are resolved by
        :mod:`repro.analysis.state`.
        """
        if isinstance(value, ast.Constant):
            return ("scalar", None, False)
        if isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.Tuple, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return ("container", None, False)
        if isinstance(value, ast.GeneratorExp):
            return ("generator", None, False)
        if isinstance(value, ast.Lambda):
            return ("callable", "<lambda>", False)
        if isinstance(value, (ast.UnaryOp, ast.BinOp, ast.Compare, ast.BoolOp)):
            return ("scalar", None, False)
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            terminal = terminal_name(value.func)
            if dotted in _HANDLE_CALLS:
                return ("handle", None, False)
            if terminal in _CONTAINER_CTORS:
                return ("container", None, False)
            if terminal == "stream" and isinstance(value.func, ast.Attribute):
                return ("rng", None, False)
            if dotted in ("random.Random", "random.SystemRandom") or terminal in (
                "RngRegistry",
                "Random",
                "SystemRandom",
            ):
                return ("rng", None, False)
            if terminal and terminal[0].isupper() and terminal not in _TYPING_NAMES:
                return ("ref", terminal, False)
            return ("unknown", None, False)
        params = self._params[-1]
        if isinstance(value, ast.Name):
            if value.id in params:
                names = params[value.id]
                if any(name in _MUTABLE_CONTAINER_ANNS for name in names):
                    return ("container", None, True)
                if "Callable" in names:
                    return ("callable", None, True)
                candidates = class_candidates(names)
                if candidates:
                    return ("ref", candidates[0], False)
                return ("param", None, False)
            return ("unknown", None, False)
        if isinstance(value, ast.Attribute):
            root = value.value
            if isinstance(root, ast.Name):
                if root.id == "self":
                    return ("selfattr", value.attr, False)
                if root.id in params:
                    candidates = class_candidates(params[root.id])
                    if candidates:
                        return ("paramattr", f"{candidates[0]}.{value.attr}", False)
            return ("unknown", None, False)
        return ("unknown", None, False)

    def _record_self_assigns(
        self,
        targets: List[ast.expr],
        value: Optional[ast.expr],
        aug: bool = False,
        annotation: Optional[ast.expr] = None,
    ) -> None:
        """Record ``self.<attr> = ...`` targets into the enclosing class."""
        if not self._class_stack or not self._method_stack or not self._method_stack[-1]:
            return
        info = self.summary.classes.get(self._class_stack[-1])
        if info is None:
            return
        direct: List[ast.Attribute] = []
        unpacked: List[ast.Attribute] = []

        def collect(target: ast.expr, into: List[ast.Attribute]) -> None:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                into.append(target)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    collect(element, unpacked)

        for target in targets:
            collect(target, direct)
        if not direct and not unpacked:
            return
        if aug:
            kind, ref_target, shared = "aug", None, False
        elif value is None:
            kind, ref_target, shared = "decl", None, False
        else:
            kind, ref_target, shared = self._classify_value(value)
        ann = annotation_names(annotation) if annotation is not None else []
        method = self._method_stack[-1]
        for attr in direct:
            info.fields.append(
                FieldAssign(
                    name=attr.attr,
                    method=method,
                    line=attr.lineno,
                    col=attr.col_offset + 1,
                    kind=kind,
                    target=ref_target,
                    shared=shared,
                    ann=ann,
                )
            )
        for attr in unpacked:
            info.fields.append(
                FieldAssign(
                    name=attr.attr,
                    method=method,
                    line=attr.lineno,
                    col=attr.col_offset + 1,
                    kind="unknown",
                )
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_self_assigns(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_self_assigns([node.target], node.value, annotation=node.annotation)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_self_assigns([node.target], node.value, aug=True)
        self.generic_visit(node)


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
        #: qualname -> defining module
        self.functions: Dict[str, str] = {}
        for summary in self.summaries:
            for qualname in summary.functions:
                self.functions[qualname] = summary.module

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
