"""Simulator-specific static analysis (``python -m repro.cli lint``).

Generic linters cannot know that *this* codebase must never read the wall
clock, that every random draw must flow through an injected
``random.Random`` / :class:`~repro.sim.rng.RngRegistry` stream, or that a
scheduler name baked into a default is a typo waiting for runtime.  The
rules here encode exactly those contracts:

=======  ==========================================================
code     invariant
=======  ==========================================================
RPR101   no wall-clock reads (``time.time``, ``datetime.now``, ...)
RPR102   no module-level ``random.*`` draws
RPR103   no ad-hoc ``random.Random(...)`` construction
RPR201   no mutable default arguments
RPR301   no float ``==`` / ``!=`` on simulated timestamps
RPR401   experiment spec dataclasses must be ``frozen=True``
RPR402   spec fields must be plain values, not live simulator objects
RPR501   registry kind strings must resolve against their registry
RPR601   no direct ``print()`` outside the CLI front end
RPR701   no import across a package boundary: another package's
         underscore names, or a layer above (:data:`FENCES`)
RPR901   no event-queue manipulation outside ``repro.sim.engine``
=======  ==========================================================

These are per-module, syntactic rules: each reports the *source*
statement, so a clock read or an ad-hoc stream is named where it is
written, whoever ends up calling it.  A call is matched after its head
name is resolved through the module's imports, at any scope, so
``from time import perf_counter`` or ``import random as r`` hide
nothing.  RPR701 also holds the package layering (:data:`FENCES`) on
each module's direct imports, at any scope.  The snapshot contract
(a class's ``__slots__``) is not linted: Python refuses an undeclared
attribute at assignment, and :func:`repro.sim.snapshot.capture` refuses
a class whose instances carry a ``__dict__``.

Each violation carries a fix-it hint.  A rule can be suppressed on one
line with ``# repro: noqa[RPR101]`` (or all rules with
``# repro: noqa``); suppressions are deliberate, so say *why* in a
neighbouring comment.

:func:`lint_paths` is the whole analyzer, a function of the source
tree: each file is read and parsed once and the sorted, noqa-filtered
findings come back.  Nothing is read from or written to disk besides
the sources.  :func:`lint_source` runs the rules over one module's
text, and the CLI form exits non-zero when any violation survives::

    python -m repro.cli lint            # lints the installed repro package
    python -m repro.cli lint src tests  # explicit files or directories
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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


def _dotted_name(node: ast.expr) -> Optional[str]:
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_name(node: ast.expr) -> Optional[str]:
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


#: The rule catalog: code -> (summary, fix-it hint).
RULES: Dict[str, Tuple[str, str]] = {
    "RPR101": (
        "wall-clock read in simulation code",
        "use the simulator clock (sim.now); real time breaks determinism",
    ),
    "RPR102": (
        "module-level random.* call",
        "draw from an injected random.Random / RngRegistry stream instead",
    ),
    "RPR103": (
        "ad-hoc random.Random construction",
        "derive the stream from RngRegistry so seeds stay refactoring-proof",
    ),
    "RPR201": (
        "mutable default argument",
        "default to None (or a field(default_factory=...)) and build inside",
    ),
    "RPR301": (
        "float equality on a simulated timestamp",
        "compare with a tolerance or an ordering operator; exact float "
        "equality on times is luck, not logic",
    ),
    "RPR401": (
        "experiment spec dataclass is not frozen",
        "declare @dataclass(frozen=True); specs are immutable cache keys",
    ),
    "RPR402": (
        "spec field holds a live simulator object",
        "store a plain-value description (a *Spec / *Config dataclass) and "
        "rebuild the live object at run time",
    ),
    "RPR501": (
        "unknown registry kind string",
        "use a name the registry resolves; typos here only fail at run time",
    ),
    "RPR601": (
        "direct print() in library code",
        "emit telemetry through the run journal / timeline exporters (or a "
        "ProgressEvent sink); stdout writes belong to the CLI alone",
    ),
    "RPR701": (
        "import across a package boundary",
        "underscore names are package-private: import the public accessor "
        "(e.g. SchedulerSpec.kinds()) or promote the name; the simulation "
        "packages import no tooling, driver or wall-clock reader, nor the "
        "package root: move the code down a layer or reach it through the "
        "probe seam (repro.sim.probe)",
    ),
    "RPR901": (
        "event-queue manipulation outside repro.sim.engine",
        "schedule through Simulator.schedule/schedule_at; direct heapq or "
        "_heap access bypasses tie-break keys and breaks the race detector",
    ),
}

#: Dotted call targets that read the wall clock (RPR101).
_WALL_CLOCK_CALLS = frozenset(
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

#: Terminal identifiers treated as simulated timestamps for RPR301.
_TIME_NAMES = frozenset(
    {
        "now",
        "time",
        "sent_time",
        "arrival_time",
        "arrived_at",
        "established_at",
        "completed_at",
        "deadline",
        "start_time",
        "end_time",
        "page_load_time",
        "completion_time",
    }
)

#: Type names that must never appear in a spec field annotation.
_LIVE_OBJECT_TYPES = frozenset(
    {
        "Simulator",
        "Timer",
        "Link",
        "Path",
        "Subflow",
        "MptcpConnection",
        "MptcpReceiver",
        "CongestionController",
        "Scheduler",
        "HttpSession",
        "DashPlayer",
        "Random",
    }
)

#: Files allowed to construct ``random.Random`` directly: the registry
#: itself, which exists to own that construction, and the snapshot
#: restorer, which rebuilds captured streams from ``getstate`` tuples
#: (seeding through the registry would immediately be overwritten).
_RNG_CONSTRUCTION_ALLOWLIST = ("repro/sim/rng.py", "repro/sim/snapshot.py")

#: The one file allowed to import ``heapq`` or touch a simulator's
#: ``_heap``: the engine owns the event queue, including the tie-break
#: key shape the race detector relies on (RPR901).
_EVENT_QUEUE_ALLOWLIST = ("repro/sim/engine.py",)

#: Files allowed to ``print()`` directly: the CLI front end, whose whole
#: job is writing to stdout (RPR601).  Library code reports through the
#: run journal, the timeline exporters, or a ProgressEvent sink.
_PRINT_ALLOWLIST = ("repro/cli.py",)

#: Host-side code whose job is reading the clock (RPR101): run timeouts
#: and wall-time accounting in the executor, journal/daemon/store
#: timestamps, the perf collector and profiler.  Files or directories
#: *inside the repro package* -- where the checkout lives never matters.
#: None of it runs inside a simulation, and :data:`FENCES` keeps every
#: simulation package from importing any of it.
WALL_CLOCK_ALLOWLIST = (
    "experiments/exec.py",
    "obs/",
    "perf/",
    "service/",
)

#: The allowlist as dotted module names.
CLOCK_READERS = tuple(
    "repro." + entry.rstrip("/").removesuffix(".py").replace("/", ".")
    for entry in WALL_CLOCK_ALLOWLIST
)

#: The package layering (RPR701): (fenced packages, what their modules
#: may not import at any scope).  The package root is forbidden to both:
#: it resolves each re-export on first use, so ``from repro import X``
#: would import ``X``'s layer the first time ``X`` is touched.  The
#: transport core sits below all tooling and every driver.  The
#: application and workload models run inside a simulation too: they may
#: register with ``repro.experiments.spec``, never reach a clock reader.
FENCES = (
    (
        ("sim", "net", "tcp", "mptcp", "core"),
        ("repro.analysis", "repro.obs", "repro.perf", "repro.experiments",
         "repro.service", "repro.apps"),
    ),
    (("apps", "workloads"), CLOCK_READERS),
)


def _registries() -> Dict[str, Set[str]]:
    """Kind-name sets for RPR501, loaded from the live registries.

    Loading from the registries (not a hardcoded copy) means a newly
    registered scheduler is immediately lintable without touching the
    linter.
    """
    from repro.core.spec import CcSpec, SchedulerSpec
    from repro.experiments.spec import registered_experiment_kinds
    from repro.net.bandwidth import BandwidthSpec

    return {
        "scheduler": set(SchedulerSpec.kinds()),
        "congestion_control": set(CcSpec.kinds()),
        "bandwidth": set(BandwidthSpec.kinds()),
        "experiment": set(registered_experiment_kinds()),
    }


def _path_in_repro(path: str) -> Optional[List[str]]:
    """Path components below the innermost ``repro`` package directory
    (``a/repro/b/src/repro/obs/journal.py`` -> ``["obs", "journal.py"]``),
    or None for a file outside any."""
    parts = Path(path).as_posix().split("/")
    if "repro" not in parts:
        return None
    return parts[len(parts) - parts[::-1].index("repro") :]


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, registries: Dict[str, Set[str]], tree: ast.AST) -> None:
        self.path = path
        self.registries = registries
        self.violations: List[Violation] = []
        posix = Path(path).as_posix()
        self.allow_rng_construction = posix.endswith(_RNG_CONSTRUCTION_ALLOWLIST)
        self.allow_event_queue = posix.endswith(_EVENT_QUEUE_ALLOWLIST)
        self.allow_print = posix.endswith(_PRINT_ALLOWLIST)
        inside = _path_in_repro(path)
        self.allow_wall_clock = "/".join(inside or ()).startswith(WALL_CLOCK_ALLOWLIST)
        # The repro subpackage the file belongs to, for RPR701: "analysis"
        # for analysis/lint.py, "" for the package root's own modules, None
        # outside the package (external consumers, for whom *every* repro
        # underscore name is private).  ``package_parts`` anchors relative imports.
        self.repro_package = None if inside is None else (inside[0] if len(inside) > 1 else "")
        self.package_parts = None if inside is None else ["repro", *inside[:-1]]
        self.forbidden = next(
            (tuple(f"{target}." for target in above)
             for fenced, above in FENCES if self.repro_package in fenced),
            None,
        )
        # Import bindings at any scope: local name -> dotted target.
        self.bindings = {
            local: target for node in ast.walk(tree) for local, target in self._imports(node)
        }

    # -- helpers -------------------------------------------------------
    def add(self, node: ast.AST, code: str, detail: str = "") -> None:
        summary, fixit = RULES[code]
        message = f"{summary}: {detail}" if detail else summary
        self.violations.append(
            Violation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
                fixit=fixit,
            )
        )

    def _imports(self, node: ast.AST) -> List[Tuple[str, str]]:
        """``(bound name, dotted target)`` per alias of an import
        statement; a relative import resolves against the file's package."""
        if isinstance(node, ast.Import):
            return [
                (alias.asname or alias.name.split(".")[0],
                 alias.name if alias.asname else alias.name.split(".")[0])
                for alias in node.names
            ]
        if not isinstance(node, ast.ImportFrom):
            return []
        base = node.module
        if node.level:
            if self.package_parts is None:
                return []
            parts = self.package_parts
            anchor = parts[: max(0, len(parts) - node.level + 1)]
            base = ".".join(anchor + ([node.module] if node.module else []))
        return [(alias.asname or alias.name, f"{base}.{alias.name}")
                for alias in node.names if alias.name != "*"]

    # -- RPR101 / RPR102 / RPR103 / RPR501 (calls) ---------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            # The head name as imported: ``t.monotonic`` after ``import
            # time as t`` is ``time.monotonic``.
            head, dot, rest = dotted.partition(".")
            if head in self.bindings:
                dotted = self.bindings[head] + dot + rest
        if dotted in _WALL_CLOCK_CALLS:
            if not self.allow_wall_clock:
                self.add(node, "RPR101", f"{dotted}()")
        elif dotted == "print":
            if not self.allow_print:
                self.add(node, "RPR601", "print(...)")
        elif dotted is not None and dotted.startswith("random."):
            head = dotted.split(".", 2)[1]
            if head in ("Random", "SystemRandom"):
                if not self.allow_rng_construction:
                    self.add(node, "RPR103", f"{dotted}(...)")
            else:
                self.add(node, "RPR102", f"{dotted}()")
        self._check_registry_call(node)
        self.generic_visit(node)

    def _check_registry_call(self, node: ast.Call) -> None:
        terminal = _terminal_name(node.func)
        registry_key = "experiment" if terminal == "experiment_kind" else None
        if terminal == "of":
            # SchedulerSpec.of("kind", ...) and friends -- only when the
            # receiver is literally one of the known spec class names;
            # other .of() calls pass.
            receiver = (
                node.func.value if isinstance(node.func, ast.Attribute) else None
            )
            if receiver is not None:
                registry_key = {
                    "BandwidthSpec": "bandwidth",
                    "SchedulerSpec": "scheduler",
                    "CcSpec": "congestion_control",
                }.get(_terminal_name(receiver) or "", registry_key)
        if registry_key is None or not node.args:
            return
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            self._check_kind(node, registry_key, first.value)

    def _check_kind(self, node: ast.AST, registry_key: str, value: str) -> None:
        known = self.registries.get(registry_key, set())
        if known and value.lower() not in known:
            self.add(
                node,
                "RPR501",
                f"{value!r} is not a registered {registry_key} kind "
                f"(known: {', '.join(sorted(known))})",
            )

    # -- RPR701 (package boundaries) -----------------------------------
    def _foreign_repro_module(self, module: str) -> bool:
        """True when ``module`` names a repro subpackage other than ours."""
        parts = module.split(".")
        if parts[0] != "repro":
            return False
        if self.repro_package is None:
            return True
        target = parts[1] if len(parts) > 1 else ""
        return target != self.repro_package

    def _check_private_import(self, node: ast.AST, module: str, name: str) -> None:
        if not self._foreign_repro_module(module):
            return
        private_component = next(
            (part for part in module.split(".") if part.startswith("_")), None
        )
        if private_component is not None:
            self.add(node, "RPR701", f"module {module} ({private_component})")
        elif name.startswith("_"):
            self.add(node, "RPR701", f"from {module} import {name}")

    def _check_layering(self, node: ast.AST) -> None:
        """A fenced package's import of a layer above it (:data:`FENCES`)."""
        if self.forbidden is None:
            return
        for _, target in self._imports(node):
            if isinstance(node, ast.ImportFrom) and target.rpartition(".")[0] == "repro":
                target = "repro"  # ``from repro import x`` reads the root
            if target == "repro" or f"{target}.".startswith(self.forbidden):
                self.add(node, "RPR701", f"repro.{self.repro_package} imports {target}")
                return

    # -- RPR901 (event-queue manipulation) -----------------------------
    def visit_Import(self, node: ast.Import) -> None:
        if not self.allow_event_queue:
            for alias in node.names:
                if alias.name == "heapq":
                    self.add(node, "RPR901", "import heapq")
        for alias in node.names:
            # ``import repro.x._priv``: the module path itself is private.
            self._check_private_import(node, alias.name, "")
        self._check_layering(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self.allow_event_queue and node.module == "heapq":
            self.add(node, "RPR901", "from heapq import ...")
        # Relative imports (level > 0) stay within their own package tree
        # as far as this rule cares; only absolute repro imports cross
        # package boundaries visibly.
        if node.level == 0 and node.module:
            for alias in node.names:
                self._check_private_import(node, node.module, alias.name)
        self._check_layering(node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self.allow_event_queue and node.attr == "_heap":
            self.add(node, "RPR901", "direct _heap access")
        self.generic_visit(node)

    # -- RPR201 (mutable defaults) -------------------------------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
                self.add(default, "RPR201", "literal container default")
            elif isinstance(default, ast.Call):
                callee = _dotted_name(default.func)
                if callee in ("list", "dict", "set", "collections.deque", "deque"):
                    self.add(default, "RPR201", f"{callee}() default")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- RPR301 (float equality on timestamps) -------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if self._is_timestamp(left) or self._is_timestamp(right):
                if self._is_non_numeric_literal(left) or self._is_non_numeric_literal(right):
                    continue
                self.add(node, "RPR301", self._describe_compare(left, right))
        self.generic_visit(node)

    @staticmethod
    def _is_timestamp(node: ast.expr) -> bool:
        return _terminal_name(node) in _TIME_NAMES

    @staticmethod
    def _is_non_numeric_literal(node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) and not isinstance(
            node.value, (int, float)
        )

    @staticmethod
    def _describe_compare(left: ast.expr, right: ast.expr) -> str:
        def name(node: ast.expr) -> str:
            return _dotted_name(node) or _terminal_name(node) or "<expr>"

        return f"{name(left)} == {name(right)}"

    # -- RPR401 / RPR402 / RPR501 (spec dataclasses) -------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        decorator = self._dataclass_decorator(node)
        if decorator is not None and self._is_spec_class(node):
            if not self._dataclass_is_frozen(decorator):
                self.add(node, "RPR401", f"class {node.name}")
            self._check_spec_fields(node)
        if decorator is not None:
            self._check_registry_defaults(node)
        self.generic_visit(node)

    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef):
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if _terminal_name(target) == "dataclass":
                return dec
        return None

    @staticmethod
    def _is_spec_class(node: ast.ClassDef) -> bool:
        """Spec-like: named *Spec, or declaring a ClassVar ``kind``."""
        if node.name.endswith("Spec"):
            return True
        for statement in node.body:
            if (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and statement.target.id == "kind"
                and "ClassVar" in ast.dump(statement.annotation)
            ):
                return True
        return False

    @staticmethod
    def _dataclass_is_frozen(decorator) -> bool:
        if not isinstance(decorator, ast.Call):
            return False
        for keyword in decorator.keywords:
            if keyword.arg == "frozen":
                return (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                )
        return False

    def _check_spec_fields(self, node: ast.ClassDef) -> None:
        for statement in node.body:
            if not isinstance(statement, ast.AnnAssign):
                continue
            for terminal in _annotation_names(statement.annotation):
                if terminal in _LIVE_OBJECT_TYPES:
                    target = statement.target
                    field_name = target.id if isinstance(target, ast.Name) else "<field>"
                    self.add(
                        statement,
                        "RPR402",
                        f"{node.name}.{field_name} annotated {terminal}",
                    )
                    break

    def _check_registry_defaults(self, node: ast.ClassDef) -> None:
        """Kind-string defaults on dataclass fields must resolve too."""
        for statement in node.body:
            if not (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and statement.value is not None
            ):
                continue
            field_name = statement.target.id
            if field_name in ("scheduler", "congestion_control"):
                value = statement.value
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    self._check_kind(statement, _field_registry(field_name), value.value)
            elif field_name == "schedulers" and isinstance(statement.value, ast.Tuple):
                for element in statement.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        self._check_kind(statement, "scheduler", element.value)


def _annotation_names(annotation: ast.expr) -> Set[str]:
    """Every type identifier in an annotation, string forms included."""
    names: Set[str] = set()
    for sub in ast.walk(annotation):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            terminal = _terminal_name(sub)
            if terminal is not None:
                names.add(terminal)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # Forward references: 'Simulator', Optional["Link"], ...
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names.update(_annotation_names(parsed.body))
    return names


def _field_registry(field_name: str) -> str:
    return "scheduler" if field_name == "scheduler" else "congestion_control"


def _selected(select: Optional[Iterable[str]]) -> Optional[Set[str]]:
    """The rule codes ``select`` names (None = every rule)."""
    if select is None:
        return None
    wanted = {code.upper() for code in select}
    unknown = wanted - set(RULES)
    if unknown:
        raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
    return wanted


def _report(
    violations: Iterable[Violation], wanted: Optional[Set[str]]
) -> List[Violation]:
    """Select-filtered findings in reporting order."""
    return sorted(
        (v for v in violations if wanted is None or v.code in wanted),
        key=lambda v: (v.path, v.line, v.col, v.code),
    )


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    registries: Optional[Dict[str, Set[str]]] = None,
) -> List[Violation]:
    """Lint one module's source text.

    ``select`` restricts to the given rule codes; ``registries``
    overrides the kind-name sets (tests use this to avoid importing the
    whole library).
    """
    wanted = _selected(select)
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, _registries() if registries is None else registries, tree)
    linter.visit(tree)
    return _report(apply_noqa(linter.violations, source), wanted)


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Anything that is neither a directory nor an existing ``.py`` file
    is an error: a typoed path silently linting nothing would be worse.
    """
    files: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py" and path.is_file():
            files.add(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(files)


def lint_paths(
    paths: Sequence,
    select: Optional[Iterable[str]] = None,
    registries: Optional[Dict[str, Set[str]]] = None,
) -> List[Violation]:
    """Every finding in the ``.py`` files under ``paths``, each file read
    and parsed once.

    ``select`` restricts the reported rule codes; ``registries``
    overrides the kind-name sets RPR501 resolves against.  A file that
    does not parse raises :class:`SyntaxError`, an unknown code
    :class:`ValueError`, a missing path :class:`FileNotFoundError`.
    """
    wanted = _selected(select)
    if registries is None:
        registries = _registries()
    found: List[Violation] = []
    for file_path in iter_python_files([Path(p) for p in paths]):
        found.extend(lint_source(file_path.read_text(), str(file_path), registries=registries))
    return _report(found, wanted)


def default_lint_root() -> Path:
    """The installed ``repro`` package directory (the CLI default)."""
    import repro

    return Path(repro.__file__).parent
