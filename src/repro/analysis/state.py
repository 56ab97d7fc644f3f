"""The static state model: ownership graph, snapshot contract, RPR91x.

Checkpoint/fork (:mod:`repro.sim.snapshot`, counterfactual twin runs)
rests on the answer to one question: *what is the complete mutable
state of a running simulation?*  This module derives
that answer statically from the :class:`repro.analysis.flow.Project`
summaries -- for every class in the simulation-state packages it
collects the full set of instance attributes ever assigned, classifies
each field, and assembles the object-ownership graph rooted at
``Simulator``:

* **fields** -- every ``self.<attr>`` assignment, classified as
  ``scalar`` / ``container`` / ``rng`` (an RNG stream) / ``ref``
  (another sim object) / ``callable`` (a stored callable or bound
  method) / ``generator`` / ``handle`` (an OS resource);
* **ownership edges** -- a class references another when a field holds
  an instance of it (constructor call, class-annotated parameter, or a
  class-typed annotation), plus base-class edges;
* the **simulator component** -- every class reachable from a class
  named ``Simulator`` along those edges; this is the state a
  checkpoint must capture and a fork must deep-copy.

:func:`build_state_model` renders the whole thing as a deterministic,
line-number-free JSON document (``python -m repro.cli state``), derived
from the sources on demand.  On top of the same model sit the RPR91x
rules (:data:`RULES_9XX`), routed through
:func:`repro.analysis.lint.run_lint` like the syntactic family:

=======  ===========================================================
code     invariant
=======  ===========================================================
RPR912   no ``__slots__`` drift: slotted classes assign only declared
         slots, declare no dead slots, and small hot-path classes on
         the Simulator ownership graph declare ``__slots__`` at all
RPR914   no fork-unsafe state reachable from ``Simulator``: open
         files/sockets/threads, live generators, stored lambdas or
         bound methods of *other* objects would dangle across a
         snapshot
RPR915   no drift between a class's declared ``STATE_FIELDS``
         contract and the fields the analysis actually observes
=======  ===========================================================

All findings honour ``# repro: noqa[RPR91x]`` on the reported line,
exactly like the syntactic rules.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow import (
    ClassInfo,
    FieldAssign,
    ModuleSummary,
    Project,
    Violation,
    class_candidates,
)

#: Schema version of the rendered state-model document.
STATE_MODEL_VERSION = 1

#: Packages whose classes carry simulation state.  Telemetry
#: (``repro.obs`` / ``repro.perf``), the service layer, and the
#: analysis package itself legitimately hold handles, wall-clock
#: readers, and caches -- they are rebuilt, not snapshotted, so they
#: are out of scope.  Files outside the repro package (fixtures,
#: scripts linted explicitly) are always in scope.
STATE_SCOPE: Tuple[str, ...] = (
    "repro.sim",
    "repro.tcp",
    "repro.net",
    "repro.mptcp",
    "repro.apps",
    "repro.core",
)

#: Classes with at most this many observed fields are "small": when one
#: sits on the Simulator ownership graph without ``__slots__``, RPR912
#: flags it (the ROADMAP speed item's per-instance-dict tax).  Larger
#: classes are config-heavy aggregates where ``__slots__`` buys little.
HOT_PATH_MAX_FIELDS = 10

#: Slot names the interpreter itself may populate.
_IMPLICIT_SLOTS = frozenset({"__dict__", "__weakref__"})

#: Merged-field kind precedence: when a field is assigned different
#: value shapes in different methods, the most snapshot-relevant kind
#: wins (a field that is *ever* a handle is a handle).
_KIND_PRECEDENCE = (
    "handle",
    "generator",
    "rng",
    "callable",
    "callable-self",
    "ref",
    "container",
    "scalar",
    "param",
    "decl",
    "unknown",
    "aug",
)
_KIND_RANK = {kind: rank for rank, kind in enumerate(_KIND_PRECEDENCE)}

#: Rule catalog: code -> (summary, fix-it hint).
RULES_9XX: Dict[str, Tuple[str, str]] = {
    "RPR912": (
        "__slots__ drift",
        "keep __slots__ in lockstep with the fields actually assigned; "
        "small hot-path classes on the Simulator ownership graph should "
        "declare __slots__ (per-instance dicts are the speed item's tax)",
    ),
    "RPR914": (
        "fork-unsafe state reachable from Simulator",
        "keep OS handles, live generators, and bound methods of other "
        "objects out of snapshot-reachable state; store plain data and "
        "rebind behaviour after a fork, or declare the field in the "
        "class's SNAPSHOT_REBIND tuple when repro.sim.snapshot rebinds "
        "it through the owner registry",
    ),
    "RPR915": (
        "declared STATE_FIELDS drift from observed fields",
        "update the class's STATE_FIELDS tuple to match the attributes "
        "the analysis observes; the declaration is the snapshot contract",
    ),
}


def _make(path: str, line: int, col: int, code: str, detail: str) -> Violation:
    summary, fixit = RULES_9XX[code]
    return Violation(
        path=path,
        line=line,
        col=col,
        code=code,
        message=f"{summary}: {detail}",
        fixit=fixit,
    )


def in_state_scope(module: str, scope: Sequence[str] = STATE_SCOPE) -> bool:
    """Whether RPR9xx rules report findings for this module."""
    if module != "repro" and not module.startswith("repro."):
        return True  # explicitly linted external file (fixtures, scripts)
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in scope
    )


class FieldModel:
    """One instance attribute, merged across every assignment to it."""

    __slots__ = ("name", "kind", "target", "methods", "assigns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.kind = "unknown"
        self.target: Optional[str] = None
        self.methods: Set[str] = set()
        self.assigns: List[FieldAssign] = []


class ClassModel:
    """One class: its summary, raw info, and merged field views."""

    __slots__ = ("qual", "module", "name", "summary", "info", "fields", "refs", "in_component")

    def __init__(self, qual: str, summary: ModuleSummary, info: ClassInfo) -> None:
        self.qual = qual
        self.module = summary.module
        self.name = qual.rsplit(".", 1)[1]
        self.summary = summary
        self.info = info
        self.fields: Dict[str, FieldModel] = {}
        self.refs: Set[str] = set()
        self.in_component = False


class StateModel:
    """The whole-program state model over a :class:`Project`."""

    def __init__(self, project: Project, scope: Sequence[str] = STATE_SCOPE) -> None:
        self.project = project
        self.scope = tuple(scope)
        #: qualified class name ("module.Class") -> model
        self.classes: Dict[str, ClassModel] = {}
        #: bare class name -> list of quals (for unique-name fallback)
        self._by_name: Dict[str, List[str]] = {}
        for summary in project.summaries:
            for name, info in summary.classes.items():
                qual = f"{summary.module}.{name}"
                self.classes[qual] = ClassModel(qual, summary, info)
                self._by_name.setdefault(name, []).append(qual)
        for model in self.classes.values():
            self._merge_fields(model)
        for model in self.classes.values():
            self._collect_refs(model)
        self._mark_component()

    # -- resolution ----------------------------------------------------
    def resolve_class(self, summary: ModuleSummary, name: str) -> Optional[str]:
        """Qualified class name for a bare name used inside ``summary``.

        Local classes win, then imported names (including TYPE_CHECKING
        imports -- the extractor records them all), then a program-wide
        unique-name fallback; an ambiguous bare name stays unresolved so
        the graph never invents an edge.
        """
        if name in summary.classes:
            return f"{summary.module}.{name}"
        if name in summary.imports:
            target = summary.imports[name]
            module, _, cls = target.rpartition(".")
            owner = self.project.by_module.get(module)
            if owner is not None and cls in owner.classes:
                return f"{module}.{cls}"
        matches = self._by_name.get(name, [])
        if len(matches) == 1:
            return matches[0]
        return None

    def base_quals(self, model: ClassModel) -> List[Optional[str]]:
        """Resolved qual (or None) for each declared base, in order."""
        return [
            self.resolve_class(model.summary, base.rsplit(".", 1)[-1])
            for base in model.info.bases
        ]

    def inherited_state(self, model: ClassModel) -> Optional[Set[str]]:
        """Union of the ``STATE_FIELDS`` the in-project ancestors declare,
        or None when none of them declares a contract."""
        inherited: Optional[Set[str]] = None
        for base_qual in self.base_quals(model):
            base = self.classes.get(base_qual) if base_qual else None
            if base is None:
                continue
            for fields in (base.info.declared_state, self.inherited_state(base)):
                if fields is not None:
                    inherited = (inherited or set()) | set(fields)
        return inherited

    def slots_closure(self, model: ClassModel) -> Optional[Set[str]]:
        """All slot names an instance has, or None when it has a dict.

        None means "cannot prove the instance is slot-restricted": the
        class (or any resolvable base) lacks ``__slots__``, or a base
        does not resolve in-project (so it may well define ``__dict__``).
        """
        seen: Set[str] = set()
        return self._slots_closure(model, seen)

    def _slots_closure(self, model: ClassModel, seen: Set[str]) -> Optional[Set[str]]:
        if model.qual in seen:
            return set()
        seen.add(model.qual)
        if model.info.slots is None:
            return None
        closure = set(model.info.slots)
        for base_qual in self.base_quals(model):
            if base_qual is None:
                return None
            base = self.classes.get(base_qual)
            if base is None:
                return None
            inherited = self._slots_closure(base, seen)
            if inherited is None:
                return None
            closure.update(inherited)
        return closure

    def subclasses_of(self, qual: str) -> List[str]:
        """Every in-project class that (transitively) inherits ``qual``."""
        found: List[str] = []
        for model in self.classes.values():
            if model.qual == qual:
                continue
            probe = [model]
            seen: Set[str] = set()
            while probe:
                current = probe.pop()
                if current.qual in seen:
                    continue
                seen.add(current.qual)
                for base_qual in self.base_quals(current):
                    if base_qual == qual:
                        found.append(model.qual)
                        probe = []
                        break
                    if base_qual is not None and base_qual in self.classes:
                        probe.append(self.classes[base_qual])
                else:
                    continue
                break
        return sorted(set(found))

    # -- field merging -------------------------------------------------
    def _final_kind(
        self, model: ClassModel, assign: FieldAssign
    ) -> Tuple[str, Optional[str]]:
        """(kind, resolved target qual) after whole-program resolution."""
        if assign.kind == "ref" and assign.target is not None:
            return "ref", self.resolve_class(model.summary, assign.target)
        if assign.kind == "selfattr" and assign.target is not None:
            if f"{model.qual}.{assign.target}" in self.project.functions:
                return "callable-self", None
            return "unknown", None
        if assign.kind == "paramattr" and assign.target is not None:
            cls_name, _, attr = assign.target.partition(".")
            qual = self.resolve_class(model.summary, cls_name)
            if qual is not None and f"{qual}.{attr}" in self.project.functions:
                return "callable", qual
            return "unknown", qual
        return assign.kind, None

    def _merge_fields(self, model: ClassModel) -> None:
        for assign in model.info.fields:
            field = model.fields.get(assign.name)
            if field is None:
                field = model.fields[assign.name] = FieldModel(assign.name)
            field.assigns.append(assign)
            field.methods.add(assign.method)
            kind, target = self._final_kind(model, assign)
            if _KIND_RANK.get(kind, len(_KIND_RANK)) < _KIND_RANK.get(
                field.kind, len(_KIND_RANK)
            ):
                field.kind = kind
                field.target = target

    def _collect_refs(self, model: ClassModel) -> None:
        for field in model.fields.values():
            if field.target is not None:
                model.refs.add(field.target)
            for assign in field.assigns:
                for candidate in class_candidates(assign.ann):
                    qual = self.resolve_class(model.summary, candidate)
                    if qual is not None:
                        model.refs.add(qual)
        for base_qual in self.base_quals(model):
            if base_qual is not None:
                model.refs.add(base_qual)
        model.refs.discard(model.qual)

    # -- the simulator component ---------------------------------------
    def _mark_component(self) -> None:
        undirected: Dict[str, Set[str]] = {qual: set() for qual in self.classes}
        for model in self.classes.values():
            for ref in model.refs:
                if ref in undirected:
                    undirected[model.qual].add(ref)
                    undirected[ref].add(model.qual)
        roots = sorted(
            qual for qual, model in self.classes.items() if model.name == "Simulator"
        )
        work = list(roots)
        seen: Set[str] = set()
        while work:
            current = work.pop()
            if current in seen:
                continue
            seen.add(current)
            self.classes[current].in_component = True
            work.extend(undirected[current])
        self.roots = roots

    def in_scope(self, model: ClassModel) -> bool:
        return in_state_scope(model.module, self.scope)


# ----------------------------------------------------------------------
# The rendered document
# ----------------------------------------------------------------------


def build_state_model(
    project: Project, scope: Sequence[str] = STATE_SCOPE
) -> Dict[str, Any]:
    """The state-model document: deterministic, line-free.

    Only repro classes inside the state scope are included, so the
    document depends on the package sources alone -- not on which extra
    paths (tests, fixtures) happened to be analyzed alongside them.
    Line numbers are deliberately omitted: editing a docstring above a
    class must not change the document.
    """
    model = StateModel(project, scope=scope)
    classes: Dict[str, Any] = {}
    for qual in sorted(model.classes):
        cls = model.classes[qual]
        if not cls.module.startswith("repro.") or not model.in_scope(cls):
            continue
        fields: Dict[str, Any] = {}
        for name in sorted(cls.fields):
            field = cls.fields[name]
            entry: Dict[str, Any] = {
                "kind": field.kind,
                "methods": sorted(field.methods),
            }
            if field.target is not None:
                entry["target"] = field.target
            fields[name] = entry
        classes[qual] = {
            "bases": [
                resolved if resolved is not None else base
                for base, resolved in zip(cls.info.bases, model.base_quals(cls))
            ],
            "dataclass": cls.info.is_dataclass,
            "slots": sorted(cls.info.slots) if cls.info.slots is not None else None,
            "declared_state": (
                sorted(cls.info.declared_state)
                if cls.info.declared_state is not None
                else None
            ),
            "rebind": sorted(cls.info.rebind) if cls.info.rebind is not None else None,
            "in_simulator_component": cls.in_component,
            "fields": fields,
            "refs": sorted(ref for ref in cls.refs if ref in model.classes),
        }
    return {
        "version": STATE_MODEL_VERSION,
        "roots": [root for root in model.roots if root in classes],
        "scope": list(scope),
        "classes": classes,
    }


def render_state_model(document: Dict[str, Any]) -> str:
    """Canonical byte form: sorted keys, two-space indent, one newline."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# The RPR9xx rules
# ----------------------------------------------------------------------


def _slots_drift(model: StateModel, cls: ClassModel) -> List[Violation]:
    violations: List[Violation] = []
    closure = model.slots_closure(cls)
    if cls.info.slots is not None and closure is not None:
        # (a) assigned attributes missing from the slot closure.
        for name in sorted(cls.fields):
            if name in closure or name in _IMPLICIT_SLOTS:
                continue
            setattrs = [a for a in cls.fields[name].assigns if a.kind != "decl"]
            if not setattrs:
                continue
            first = min(setattrs, key=lambda a: (a.line, a.col))
            violations.append(
                _make(
                    cls.summary.path,
                    first.line,
                    first.col,
                    "RPR912",
                    f"{cls.name}.{name} assigned but not in __slots__",
                )
            )
        # (b) declared slots never assigned, here or in any subclass.
        assigned = set(cls.fields)
        for sub_qual in model.subclasses_of(cls.qual):
            assigned.update(model.classes[sub_qual].fields)
        dead = sorted(
            slot
            for slot in cls.info.slots
            if slot not in assigned and slot not in _IMPLICIT_SLOTS
        )
        if dead:
            violations.append(
                _make(
                    cls.summary.path,
                    cls.info.slots_line or cls.info.line,
                    1,
                    "RPR912",
                    f"{cls.name} declares dead slot(s): {', '.join(dead)}",
                )
            )
    if (
        cls.info.slots is None
        and cls.in_component
        and not cls.info.is_dataclass
        and cls.fields
        and len(cls.fields) <= HOT_PATH_MAX_FIELDS
    ):
        # (c) small hot-path class on the ownership graph without slots;
        # only when every base is provably slot-restricted (or absent),
        # so adding __slots__ actually removes the instance dict.
        bases = model.base_quals(cls)
        slotted_bases = all(
            base is not None
            and base in model.classes
            and model.slots_closure(model.classes[base]) is not None
            for base in bases
        )
        if slotted_bases:
            violations.append(
                _make(
                    cls.summary.path,
                    cls.info.line,
                    1,
                    "RPR912",
                    f"{cls.name} ({len(cls.fields)} field(s)) is on the "
                    "Simulator ownership graph but declares no __slots__",
                )
            )
    return violations


def _fork_unsafe(model: StateModel, cls: ClassModel) -> List[Violation]:
    if not cls.in_component:
        return []
    violations: List[Violation] = []
    # Fields the snapshot protocol re-encodes as owner references and
    # rebinds on restore: stored callables there are fork-safe by
    # construction.  A rebind declaration cannot bless handles or live
    # generators -- no registry can recreate those.
    rebind = frozenset(cls.info.rebind or ())
    for name in sorted(cls.fields):
        field = cls.fields[name]
        for assign in field.assigns:
            kind, target = model._final_kind(cls, assign)
            detail = None
            if kind == "handle":
                detail = f"{cls.name}.{name} holds an OS handle"
            elif kind == "generator":
                detail = f"{cls.name}.{name} holds a live generator"
            elif kind == "callable" and name in rebind:
                continue
            elif kind == "callable":
                if assign.target == "<lambda>":
                    detail = f"{cls.name}.{name} stores a lambda"
                elif assign.shared:
                    detail = f"{cls.name}.{name} stores a caller-provided callable"
                elif target is not None:
                    detail = (
                        f"{cls.name}.{name} stores a bound method of "
                        f"{target.rsplit('.', 1)[-1]}"
                    )
                else:
                    detail = f"{cls.name}.{name} stores a callable"
            if detail is not None:
                violations.append(
                    _make(cls.summary.path, assign.line, assign.col, "RPR914", detail)
                )
                break  # one finding per field is enough
    return violations


def _declared_drift(model: StateModel, cls: ClassModel) -> List[Violation]:
    own = cls.info.declared_state
    # No declaration of its own, but a base has one: snapshot.capture holds
    # the instance to the inherited contract, so whatever the class adds is
    # undeclared (what left MpDashScheduler uncapturable).
    declared = set(own) if own is not None else model.inherited_state(cls)
    if declared is None:
        return []
    # Aug-only fields (``self.decisions += 1``) mutate *inherited* state;
    # the declaring class, not the mutator, owns them in the contract.
    observed = {
        name
        for name, field in cls.fields.items()
        if any(assign.kind != "aug" for assign in field.assigns)
    }
    missing = sorted(declared - observed) if own is not None else []
    extra = sorted(observed - declared)
    if not missing and not extra:
        return []
    parts = []
    if extra:
        parts.append(f"observed but undeclared: {', '.join(extra)}")
    if missing:
        parts.append(f"declared but never assigned: {', '.join(missing)}")
    return [
        _make(
            cls.summary.path,
            cls.info.declared_line or cls.info.line,
            1,
            "RPR915",
            f"{cls.name} STATE_FIELDS drift ({'; '.join(parts)})",
        )
    ]


def state_violations(
    project: Project, scope: Sequence[str] = STATE_SCOPE
) -> List[Violation]:
    """Every RPR9xx finding for the program, unsorted and un-noqa'd.

    The front end (:func:`repro.analysis.lint.run_lint`) merges these
    with the per-module stream, applies noqa against the sources, and
    sorts.
    """
    model = StateModel(project, scope=scope)
    violations: List[Violation] = []
    for qual in sorted(model.classes):
        cls = model.classes[qual]
        if not model.in_scope(cls):
            continue
        violations.extend(_slots_drift(model, cls))
        violations.extend(_fork_unsafe(model, cls))
        violations.extend(_declared_drift(model, cls))
    return violations
