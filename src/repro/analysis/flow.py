"""Whole-program semantic analysis over the repro package.

Where :mod:`repro.analysis.lint` judges one module at a time by its
syntax, this module sees the *program*: which module imports which,
which function calls which, and what flows where.  Four artifacts are
built from one pass over the sources:

* a **module import graph** (``Project.import_graph``);
* per-module **symbol tables** (functions, methods, classes, imports);
* a conservative **call graph** -- edges only where a callee resolves
  statically (local names, imported names, ``self.method`` within the
  defining class), so it under-approximates and never invents an edge;
* an interprocedural **taint pass**: a function that *transitively*
  reaches ``time.time()`` / module-level ``random.*`` / ad-hoc
  ``random.Random(...)`` is tainted, however many call hops sit between
  it and the source.

The RPR8xx rule family (:mod:`repro.analysis.rules8xx`) consumes these
to upgrade the syntactic rules to semantic ones.  The front end that
ties parsing, extraction, and reporting together is
:func:`repro.analysis.lint.run_lint`.

Every module's facts are distilled into a :class:`ModuleSummary` by one
walk over its AST (:func:`extract_module`); :class:`Project` holds the
summaries of one run and the graphs and propagations over them.
Nothing here touches the disk: the analysis is a function of the
sources it is handed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Dotted call targets that read the wall clock (shared with the
#: syntactic RPR101; kept here so both layers agree on the source set).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)

#: Call terminal names that feed event ordering, RNG stream derivation,
#: or spec hashing -- the sinks RPR831 cares about.
DETERMINISM_SINKS = frozenset(
    {"schedule", "schedule_at", "stream", "fork", "spec_hash", "canonical_json"}
)

#: Method names that mutate their receiver in place (RPR821).
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)

#: Name-suffix -> dimension, for RPR841.  Longest suffix wins, so
#: ``retry_delay_ms`` is milliseconds, not seconds.
DIMENSION_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_seconds", "seconds"),
    ("_secs", "seconds"),
    ("_ms", "milliseconds"),
    ("_us", "microseconds"),
    ("_ns", "nanoseconds"),
    ("_s", "seconds"),
    ("_bytes", "bytes"),
    ("_byte", "bytes"),
    ("_bits", "bits"),
    ("_pkts", "packets"),
    ("_packets", "packets"),
    ("_mbps", "megabits/s"),
    ("_kbps", "kilobits/s"),
    ("_bps", "bits/s"),
)

#: Modules RPR811-813 report call sites in: the transport core plus the
#: application and workload models driven inside a simulation, all of
#: which must stay wall-clock- and ambient-RNG-free even transitively.
#: Files outside the repro package (fixtures, scripts linted explicitly)
#: are always in scope.
TAINT_SCOPE: Tuple[str, ...] = (
    "repro.sim",
    "repro.net",
    "repro.tcp",
    "repro.mptcp",
    "repro.core",
    "repro.apps",
    "repro.workloads",
)

#: Taint kinds, in reporting order.
TAINT_CLOCK = "clock"
TAINT_RANDOM = "random"
TAINT_RNG_CTOR = "rng-ctor"

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


def dimension_of_name(name: Optional[str]) -> Optional[str]:
    """The unit dimension a name suffix declares, if any."""
    if not name:
        return None
    for suffix, dim in DIMENSION_SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return dim
    return None


# ----------------------------------------------------------------------
# Per-module facts
# ----------------------------------------------------------------------


@dataclass
class CallSite:
    """One call expression: who calls what, where."""

    caller: str  # enclosing function qualname, or "<mod>.<module>"
    callee: str  # dotted text as written ("self.send", "helpers.now")
    line: int
    col: int
    loop: Optional[int] = None  # index into ModuleSummary.loops, if inside one


@dataclass
class UnorderedLoop:
    """A ``for`` statement iterating a set-typed expression."""

    index: int
    caller: str
    line: int
    col: int
    desc: str  # human description of the iterable


@dataclass
class SpecMutation:
    """A mutation of state reachable from a (candidate) frozen spec."""

    line: int
    col: int
    caller: str
    detail: str
    cls: Optional[str]  # spec class name if known; None = by-name candidate


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
    shared: bool = False  # caller-provided mutable stored without copy
    alias: Optional[str] = None  # local variable the value aliases
    ann: List[str] = field(default_factory=list)  # annotation type names


@dataclass
class ClassInfo:
    """What the whole-program passes need to know about a class."""

    line: int
    frozen_dataclass: bool
    spec_like: bool  # *Spec / *Config name, or ClassVar ``kind``
    set_attrs: List[str] = field(default_factory=list)
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
    """Everything the whole-program passes need from one module.

    ``units`` holds the module's RPR841 findings: dimensions are
    inferred scope by scope during the extraction walk, so that rule
    reports from here instead of from a whole-program pass.
    """

    module: str
    path: str
    functions: Dict[str, int] = field(default_factory=dict)  # qualname -> line
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)  # local -> dotted target
    calls: List[CallSite] = field(default_factory=list)
    taints: Dict[str, List[Tuple[str, str]]] = field(default_factory=dict)
    loops: List[UnorderedLoop] = field(default_factory=list)
    spec_mutations: List[SpecMutation] = field(default_factory=list)
    units: List[Violation] = field(default_factory=list)


# ----------------------------------------------------------------------
# Extraction: one AST walk distills a module into its summary
# ----------------------------------------------------------------------


class _Scope:
    """Per-function (or module) inference state."""

    __slots__ = ("set_vars", "dims", "spec_vars", "spec_aliases", "params", "container_vars")

    def __init__(self) -> None:
        self.set_vars: Set[str] = set()
        self.dims: Dict[str, str] = {}
        # var -> spec class name (None = matched by naming convention)
        self.spec_vars: Dict[str, Optional[str]] = {}
        # var -> (description, spec class) for aliases of spec payloads
        self.spec_aliases: Dict[str, Tuple[str, Optional[str]]] = {}
        # param name -> annotation type names ([] when unannotated)
        self.params: Dict[str, List[str]] = {}
        # locals bound to a freshly built container in this scope
        self.container_vars: Set[str] = set()


_SET_ANNOTATIONS = frozenset({"set", "Set", "FrozenSet", "frozenset", "AbstractSet", "MutableSet"})
_SET_OPS = frozenset({"union", "intersection", "difference", "symmetric_difference"})

#: Constructor terminals that build a fresh mutable container.
_CONTAINER_CTORS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter", "bytearray"}
)

#: Annotation terminals naming a mutable container type: a parameter so
#: annotated that is stored on ``self`` without a copy aliases
#: caller-owned state (RPR913).
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


def _is_spec_name(name: str) -> bool:
    lowered = name.lower()
    return lowered == "spec" or lowered.endswith("_spec") or lowered.endswith("spec")


def _spec_class_name(name: Optional[str]) -> Optional[str]:
    """Class names that *look like* frozen-spec types; confirmed against
    the program-wide frozen-spec set later."""
    if name and (name.endswith("Spec") or name.endswith("Config")):
        return name
    return None


class ModuleExtractor(ast.NodeVisitor):
    """One pass over a module AST, filling a :class:`ModuleSummary`.

    The extractor is deliberately flow-insensitive beyond straight-line
    assignment order: it never invents facts, so downstream rules
    under-approximate (a lint must not cry wolf).
    """

    def __init__(self, module: str, path: str) -> None:
        self.summary = ModuleSummary(module=module, path=path)
        self._class_stack: List[str] = []
        self._func_stack: List[str] = []
        self._method_stack: List[str] = []  # enclosing method bare name, "" outside
        self._loop_stack: List[int] = []
        self._scopes: List[_Scope] = [_Scope()]  # module-level scope

    # -- context helpers -----------------------------------------------
    @property
    def _scope(self) -> _Scope:
        return self._scopes[-1]

    def _caller(self) -> str:
        if self._func_stack:
            return self._func_stack[-1]
        return f"{self.summary.module}.<module>"

    def _qualname(self, name: str) -> str:
        parts = [self.summary.module, *self._class_stack]
        if self._func_stack:
            # nested function: qualify under the innermost function
            parts = [self._func_stack[-1]]
        return ".".join(parts + [name])

    # -- definitions ---------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        frozen = False
        is_dataclass = False
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if terminal_name(target) == "dataclass":
                is_dataclass = True
                if isinstance(dec, ast.Call):
                    for keyword in dec.keywords:
                        if keyword.arg == "frozen":
                            frozen = (
                                isinstance(keyword.value, ast.Constant)
                                and keyword.value.value is True
                            )
        spec_like = node.name.endswith("Spec") or node.name.endswith("Config")
        set_attrs: List[str] = []
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
                if statement.target.id == "kind" and is_classvar:
                    spec_like = True
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
                if self._annotation_is_set(statement.annotation):
                    set_attrs.append(statement.target.id)
        self.summary.classes[node.name] = ClassInfo(
            line=node.lineno,
            frozen_dataclass=is_dataclass and frozen,
            spec_like=spec_like,
            set_attrs=set_attrs,
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

    @staticmethod
    def _annotation_is_set(annotation: ast.expr) -> bool:
        for sub in ast.walk(annotation):
            name = None
            if isinstance(sub, (ast.Name, ast.Attribute)):
                name = terminal_name(sub)
            if name in _SET_ANNOTATIONS:
                return True
        return False

    def _visit_function(self, node: Any) -> None:
        qualname = self._qualname(node.name)
        self.summary.functions[qualname] = node.lineno
        scope = _Scope()
        for arg in [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ]:
            if arg.arg not in ("self", "cls"):
                scope.params[arg.arg] = (
                    annotation_names(arg.annotation)
                    if arg.annotation is not None
                    else []
                )
            if arg.annotation is not None:
                if self._annotation_is_set(arg.annotation):
                    scope.set_vars.add(arg.arg)
                ann = terminal_name(arg.annotation)
                spec_cls = _spec_class_name(ann)
                if spec_cls is not None:
                    scope.spec_vars[arg.arg] = spec_cls
            if arg.arg not in scope.spec_vars and _is_spec_name(arg.arg):
                scope.spec_vars[arg.arg] = None
            dim = dimension_of_name(arg.arg)
            if dim is not None:
                scope.dims[arg.arg] = dim
        if self._class_stack and not self._func_stack:
            method = node.name
        elif self._method_stack:
            method = self._method_stack[-1]
        else:
            method = ""
        self._method_stack.append(method)
        self._func_stack.append(qualname)
        self._scopes.append(scope)
        saved_loops, self._loop_stack = self._loop_stack, []
        self.generic_visit(node)
        self._loop_stack = saved_loops
        self._scopes.pop()
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

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        text = dotted_name(node.func)
        if text is not None:
            self.summary.calls.append(
                CallSite(
                    caller=self._caller(),
                    callee=text,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    loop=self._loop_stack[-1] if self._loop_stack else None,
                )
            )
            self._record_taint_source(text)
            self._record_mutation_call(node, text)
        self.generic_visit(node)

    def _record_taint_source(self, text: str) -> None:
        kind: Optional[str] = None
        if text in WALL_CLOCK_CALLS:
            kind = TAINT_CLOCK
        elif text.startswith("random."):
            head = text.split(".", 2)[1]
            kind = TAINT_RNG_CTOR if head in ("Random", "SystemRandom") else TAINT_RANDOM
        if kind is not None:
            entries = self.summary.taints.setdefault(self._caller(), [])
            if (kind, text) not in entries:
                entries.append((kind, text))

    def _record_mutation_call(self, node: ast.Call, text: str) -> None:
        """``spec.field.append(x)`` / ``alias.add(x)`` -> candidate RPR821."""
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in MUTATING_METHODS:
            return
        receiver = node.func.value
        found = self._spec_payload(receiver)
        if found is not None:
            desc, cls = found
            self._add_mutation(node, f"{desc}.{node.func.attr}(...)", cls)

    def _spec_payload(self, node: ast.expr) -> Optional[Tuple[str, Optional[str]]]:
        """(description, spec class) when ``node`` reads spec-reachable
        state: ``spec.field``, a recorded alias, or a subscript of one."""
        if isinstance(node, ast.Subscript):
            inner = self._spec_payload(node.value)
            if inner is not None:
                return f"{inner[0]}[...]", inner[1]
            return None
        if isinstance(node, ast.Attribute):
            root = node.value
            if isinstance(root, ast.Name) and root.id in self._scope.spec_vars:
                return f"{root.id}.{node.attr}", self._scope.spec_vars[root.id]
            inner = self._spec_payload(root)
            if inner is not None:
                return f"{inner[0]}.{node.attr}", inner[1]
            return None
        if isinstance(node, ast.Name) and node.id in self._scope.spec_aliases:
            return self._scope.spec_aliases[node.id]
        return None

    def _add_mutation(self, node: ast.AST, detail: str, cls: Optional[str]) -> None:
        self.summary.spec_mutations.append(
            SpecMutation(
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                caller=self._caller(),
                detail=detail,
                cls=cls,
            )
        )

    # -- loops ---------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        desc = self._unordered_desc(node.iter)
        if desc is not None:
            loop = UnorderedLoop(
                index=len(self.summary.loops),
                caller=self._caller(),
                line=node.lineno,
                col=node.col_offset + 1,
                desc=desc,
            )
            self.summary.loops.append(loop)
            self._loop_stack.append(loop.index)
            self.generic_visit(node)
            self._loop_stack.pop()
        else:
            self.generic_visit(node)

    def _unordered_desc(self, node: ast.expr) -> Optional[str]:
        """Description of ``node`` when it evaluates to an unordered set."""
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return "a set literal"
        if isinstance(node, ast.Call):
            callee = terminal_name(node.func)
            if callee in ("set", "frozenset"):
                return f"{callee}(...)"
            if callee in _SET_OPS and isinstance(node.func, ast.Attribute):
                if self._unordered_desc(node.func.value) is not None or node.args:
                    # x.union(y): unordered whenever the receiver is a set
                    # we can see; conservative otherwise.
                    if self._unordered_desc(node.func.value) is not None:
                        return f"a set .{callee}()"
            if callee == "sorted":
                return None
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            left = self._unordered_desc(node.left)
            right = self._unordered_desc(node.right)
            if left is not None or right is not None:
                return "a set expression"
            return None
        if isinstance(node, ast.Name) and node.id in self._scope.set_vars:
            return f"set-typed {node.id!r}"
        if isinstance(node, ast.Attribute):
            root = node.value
            if (
                isinstance(root, ast.Name)
                and root.id in ("self", "cls")
                and self._class_stack
            ):
                info = self.summary.classes.get(self._class_stack[-1])
                if info is not None and node.attr in info.set_attrs:
                    return f"set-typed self.{node.attr}"
        return None

    # -- instance-field extraction (the state model's raw material) ----
    def _classify_value(
        self, value: ast.expr
    ) -> Tuple[str, Optional[str], bool, Optional[str]]:
        """(kind, target, shared, alias) for an assigned value.

        ``shared`` marks values the caller still owns (a mutable
        container or callable passed in as a parameter); ``alias`` names
        the local variable the value aliases, for same-method aliasing
        detection.  Kinds needing whole-program knowledge to finish
        (``param``/``selfattr``/``paramattr``/``ref``) are resolved by
        :mod:`repro.analysis.state`.
        """
        if isinstance(value, ast.Constant):
            return ("scalar", None, False, None)
        if isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.Tuple, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return ("container", None, False, None)
        if isinstance(value, ast.GeneratorExp):
            return ("generator", None, False, None)
        if isinstance(value, ast.Lambda):
            return ("callable", "<lambda>", False, None)
        if isinstance(value, (ast.UnaryOp, ast.BinOp, ast.Compare, ast.BoolOp)):
            return ("scalar", None, False, None)
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            terminal = terminal_name(value.func)
            if dotted in _HANDLE_CALLS:
                return ("handle", None, False, None)
            if terminal in _CONTAINER_CTORS:
                return ("container", None, False, None)
            if terminal == "stream" and isinstance(value.func, ast.Attribute):
                return ("rng", None, False, None)
            if dotted in ("random.Random", "random.SystemRandom") or terminal in (
                "RngRegistry",
                "Random",
                "SystemRandom",
            ):
                return ("rng", None, False, None)
            if terminal and terminal[0].isupper() and terminal not in _TYPING_NAMES:
                return ("ref", terminal, False, None)
            return ("unknown", None, False, None)
        if isinstance(value, ast.Name):
            scope = self._scope
            if value.id in scope.params:
                names = scope.params[value.id]
                if any(name in _MUTABLE_CONTAINER_ANNS for name in names):
                    return ("container", None, True, None)
                if "Callable" in names:
                    return ("callable", None, True, None)
                candidates = class_candidates(names)
                if candidates:
                    return ("ref", candidates[0], False, None)
                return ("param", None, False, None)
            if value.id in scope.container_vars:
                return ("container", None, False, value.id)
            return ("unknown", None, False, None)
        if isinstance(value, ast.Attribute):
            root = value.value
            if isinstance(root, ast.Name):
                if root.id == "self":
                    return ("selfattr", value.attr, False, None)
                if root.id in self._scope.params:
                    candidates = class_candidates(self._scope.params[root.id])
                    if candidates:
                        return (
                            "paramattr",
                            f"{candidates[0]}.{value.attr}",
                            False,
                            None,
                        )
            return ("unknown", None, False, None)
        return ("unknown", None, False, None)

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
            kind, ref_target, shared, alias = "aug", None, False, None
        elif value is None:
            kind, ref_target, shared, alias = "decl", None, False, None
        else:
            kind, ref_target, shared, alias = self._classify_value(value)
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
                    alias=alias,
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

    # -- assignments: set-typedness, aliasing, dimensions --------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_self_assigns(node.targets, node.value)
        self._note_assignment(node.targets, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            if self._annotation_is_set(node.annotation):
                self._scope.set_vars.add(node.target.id)
            ann_spec = _spec_class_name(terminal_name(node.annotation))
            if ann_spec is not None:
                self._scope.spec_vars[node.target.id] = ann_spec
        self._record_self_assigns([node.target], node.value, annotation=node.annotation)
        if node.value is not None:
            self._note_assignment([node.target], node.value, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_self_assigns([node.target], node.value, aug=True)
        target = node.target
        found = None
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            found = self._spec_payload(target)
            if found is None and isinstance(target, ast.Attribute):
                root = target.value
                if isinstance(root, ast.Name) and root.id in self._scope.spec_vars:
                    found = (f"{root.id}.{target.attr}", self._scope.spec_vars[root.id])
        if found is not None:
            self._add_mutation(node, f"{found[0]} augmented in place", found[1])
        # dimension check: x_s += y_bytes
        target_dim = self._dim_of(target)
        value_dim = self._dim_of(node.value)
        if target_dim and value_dim and target_dim != value_dim and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            self._unit_violation(
                node,
                f"{self._describe(target)} [{target_dim}] "
                f"{'+=' if isinstance(node.op, ast.Add) else '-='} "
                f"{self._describe(node.value)} [{value_dim}]",
            )
        self.generic_visit(node)

    def _note_assignment(
        self, targets: List[ast.expr], value: ast.expr, node: ast.AST
    ) -> None:
        # Mutations through subscript/attribute targets of spec payloads.
        for target in targets:
            if isinstance(target, (ast.Subscript,)):
                found = self._spec_payload(target.value)
                if found is not None:
                    self._add_mutation(node, f"{found[0]}[...] assigned", found[1])
            elif isinstance(target, ast.Attribute):
                root = target.value
                if isinstance(root, ast.Name) and root.id in self._scope.spec_vars:
                    cls = self._scope.spec_vars[root.id]
                    self._add_mutation(
                        node, f"{root.id}.{target.attr} assigned", cls
                    )
                else:
                    found = self._spec_payload(root)
                    if found is not None:
                        self._add_mutation(
                            node, f"{found[0]}.{target.attr} assigned", found[1]
                        )
        # Inference for simple name targets.
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            self._check_value_dims(value)
            return
        if self._classify_value(value)[0] == "container":
            self._scope.container_vars.update(names)
        if self._unordered_desc(value) is not None or (
            isinstance(value, ast.Call) and terminal_name(value.func) in ("set", "frozenset")
        ):
            self._scope.set_vars.update(names)
        # Alias tracking: payload = spec.field (or another alias/spec).
        if isinstance(value, ast.Name) and value.id in self._scope.spec_vars:
            for name in names:
                self._scope.spec_vars[name] = self._scope.spec_vars[value.id]
        else:
            payload = self._spec_payload(value)
            if payload is not None:
                for name in names:
                    self._scope.spec_aliases[name] = payload
        if isinstance(value, ast.Call):
            ctor = _spec_class_name(terminal_name(value.func))
            if ctor is not None:
                for name in names:
                    self._scope.spec_vars[name] = ctor
        # Dimension propagation and mismatch-on-assignment.
        value_dim = self._dim_of(value)
        for name in names:
            name_dim = dimension_of_name(name)
            if name_dim is not None and value_dim is not None and name_dim != value_dim:
                self._unit_violation(
                    node,
                    f"{name} [{name_dim}] = {self._describe(value)} [{value_dim}]",
                )
            elif name_dim is None and value_dim is not None:
                self._scope.dims[name] = value_dim

    # -- dimensions (RPR841) -------------------------------------------
    def visit_BinOp(self, node: ast.BinOp) -> None:
        self._check_value_dims(node, recurse=False)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for left, right in zip(operands, operands[1:]):
            ldim, rdim = self._dim_of(left), self._dim_of(right)
            if ldim and rdim and ldim != rdim:
                self._unit_violation(
                    node,
                    f"{self._describe(left)} [{ldim}] compared with "
                    f"{self._describe(right)} [{rdim}]",
                )
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self._func_stack:
            func_dim = dimension_of_name(self._func_stack[-1].rsplit(".", 1)[-1])
            value_dim = self._dim_of(node.value)
            if func_dim and value_dim and func_dim != value_dim:
                self._unit_violation(
                    node,
                    f"function returns {self._describe(node.value)} [{value_dim}] "
                    f"but its name declares [{func_dim}]",
                )
        self.generic_visit(node)

    def _check_value_dims(self, node: ast.expr, recurse: bool = True) -> None:
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            ldim, rdim = self._dim_of(node.left), self._dim_of(node.right)
            if ldim and rdim and ldim != rdim:
                op = "+" if isinstance(node.op, ast.Add) else "-"
                self._unit_violation(
                    node,
                    f"{self._describe(node.left)} [{ldim}] {op} "
                    f"{self._describe(node.right)} [{rdim}]",
                )

    def _dim_of(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = terminal_name(node)
            dim = dimension_of_name(name)
            if dim is not None:
                return dim
            if isinstance(node, ast.Name):
                return self._scope.dims.get(node.id)
            return None
        if isinstance(node, ast.Call):
            callee = terminal_name(node.func)
            if callee in ("min", "max", "abs", "sum", "sorted", "round", "float", "int"):
                dims = {self._dim_of(arg) for arg in node.args}
                dims.discard(None)
                return dims.pop() if len(dims) == 1 else None
            return dimension_of_name(callee)
        if isinstance(node, ast.UnaryOp):
            return self._dim_of(node.operand)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                ldim, rdim = self._dim_of(node.left), self._dim_of(node.right)
                if ldim is not None and (rdim is None or rdim == ldim):
                    return ldim
                if rdim is not None and ldim is None:
                    return rdim
            # Mult/Div legitimately change dimension: bytes / seconds, ...
            return None
        return None

    @staticmethod
    def _describe(node: ast.expr) -> str:
        return dotted_name(node) or terminal_name(node) or "<expr>"

    def _unit_violation(self, node: ast.AST, detail: str) -> None:
        # RULES catalog lives in rules8xx; import at call time to avoid a
        # module cycle (rules8xx imports flow for the data types).
        from repro.analysis.rules8xx import RULES_8XX

        summary, fixit = RULES_8XX["RPR841"]
        self.summary.units.append(
            Violation(
                path=self.summary.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code="RPR841",
                message=f"{summary}: {detail}",
                fixit=fixit,
            )
        )


def extract_module(source: str, path: str, tree: Optional[ast.AST] = None) -> ModuleSummary:
    """Distill one module's source into its :class:`ModuleSummary`."""
    if tree is None:
        tree = ast.parse(source, filename=path)
    extractor = ModuleExtractor(module_name_for(path), path)
    extractor.visit(tree)
    return extractor.summary


# ----------------------------------------------------------------------
# Whole-program passes
# ----------------------------------------------------------------------


class Project:
    """The program: summaries plus the graphs/propagations over them."""

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
        #: class name -> True when a frozen spec-like dataclass anywhere
        self.frozen_specs: Set[str] = {
            name
            for summary in self.summaries
            for name, info in summary.classes.items()
            if info.frozen_dataclass and info.spec_like
        }
        self._resolved: Dict[Tuple[str, str, str], Optional[str]] = {}
        self._build_graph()
        self._propagate()

    # -- resolution ----------------------------------------------------
    def resolve(self, summary: ModuleSummary, caller: str, callee: str) -> Optional[str]:
        """Resolve a call-site's dotted text to a defined qualname, or None.

        Under-approximating on purpose: only local names, imported
        names, absolute dotted paths, and ``self.method`` within the
        defining class resolve; anything dynamic stays unresolved.
        """
        key = (summary.module, caller, callee)
        if key in self._resolved:
            return self._resolved[key]
        result = self._resolve_uncached(summary, caller, callee)
        self._resolved[key] = result
        return result

    def _resolve_uncached(
        self, summary: ModuleSummary, caller: str, callee: str
    ) -> Optional[str]:
        parts = callee.split(".")
        head = parts[0]
        if head in ("self", "cls") and len(parts) == 2:
            # caller is "<module>.<Class>.<method>"; siblings resolve.
            prefix = caller.rsplit(".", 1)[0]
            return self._lookup(f"{prefix}.{parts[1]}")
        candidate = self._lookup(f"{summary.module}.{callee}")
        if candidate is not None:
            return candidate
        if head in summary.imports:
            target = summary.imports[head]
            full = target if len(parts) == 1 else f"{target}.{'.'.join(parts[1:])}"
            return self._lookup(full)
        return self._lookup(callee)

    def _lookup(self, qualname: str) -> Optional[str]:
        if qualname in self.functions:
            return qualname
        init = f"{qualname}.__init__"
        if init in self.functions:
            return init
        return None

    # -- graphs --------------------------------------------------------
    def _build_graph(self) -> None:
        #: callee qualname -> set of caller qualnames (reverse call graph)
        self.callers_of: Dict[str, Set[str]] = {}
        #: caller qualname -> direct sink terminal it calls (RPR831)
        self.direct_sink: Dict[str, str] = {}
        for summary in self.summaries:
            for site in summary.calls:
                target = self.resolve(summary, site.caller, site.callee)
                if target is not None:
                    self.callers_of.setdefault(target, set()).add(site.caller)
                terminal = site.callee.rsplit(".", 1)[-1]
                if terminal in DETERMINISM_SINKS and site.caller not in self.direct_sink:
                    self.direct_sink[site.caller] = terminal

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

    # -- propagation ---------------------------------------------------
    def _propagate(self) -> None:
        #: qualname -> {kind: (detail-or-via, next-hop-or-None)}
        self.taint: Dict[str, Dict[str, Tuple[str, Optional[str]]]] = {}
        seeds: List[Tuple[str, str, str]] = []
        for summary in self.summaries:
            for qualname, entries in summary.taints.items():
                for kind, detail in entries:
                    seeds.append((qualname, kind, detail))
        for qualname, kind, detail in seeds:
            self.taint.setdefault(qualname, {}).setdefault(kind, (detail, None))
        work = [(qualname, kind) for qualname, kind, _ in seeds]
        while work:
            tainted, kind = work.pop()
            for caller in self.callers_of.get(tainted, ()):
                kinds = self.taint.setdefault(caller, {})
                if kind not in kinds:
                    kinds[kind] = ("via", tainted)
                    work.append((caller, kind))
        #: qualname -> sink terminal (directly or transitively reached)
        self.reaches_sink: Dict[str, Tuple[str, Optional[str]]] = {
            qualname: (terminal, None) for qualname, terminal in self.direct_sink.items()
        }
        work2 = list(self.reaches_sink)
        while work2:
            reaching = work2.pop()
            terminal = self.reaches_sink[reaching][0]
            for caller in self.callers_of.get(reaching, ()):
                if caller not in self.reaches_sink:
                    self.reaches_sink[caller] = (terminal, reaching)
                    work2.append(caller)

    def taint_chain(self, qualname: str, kind: str) -> List[str]:
        """Human-readable hop list from ``qualname`` down to the source."""
        chain: List[str] = []
        current: Optional[str] = qualname
        seen: Set[str] = set()
        while current is not None and current not in seen:
            seen.add(current)
            chain.append(current.rsplit(".", 1)[-1])
            entry = self.taint.get(current, {}).get(kind)
            if entry is None:
                break
            detail, nxt = entry
            if nxt is None:
                chain.append(f"{detail}()")
                break
            current = nxt
        return chain

    def sink_chain(self, qualname: str) -> List[str]:
        chain: List[str] = []
        current: Optional[str] = qualname
        seen: Set[str] = set()
        while current is not None and current not in seen:
            seen.add(current)
            chain.append(current.rsplit(".", 1)[-1])
            terminal, nxt = self.reaches_sink[current]
            if nxt is None:
                chain.append(f"{terminal}()")
                break
            current = nxt
        return chain

    def in_taint_scope(self, module: str) -> bool:
        """Whether RPR811-813 report call sites in this module."""
        if module != "repro" and not module.startswith("repro."):
            return True  # explicitly linted external file (fixtures, scripts)
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in TAINT_SCOPE
        )
