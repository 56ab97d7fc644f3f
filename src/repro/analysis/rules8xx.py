"""The RPR8xx rule family: semantic rules over the whole program.

Where the RPR1xx-9xx rules in :mod:`repro.analysis.lint` judge one
statement at a time, these consume a :class:`repro.analysis.flow.Project`
-- symbol tables, call graph, taint propagation -- so a violation can be
*N call hops* away from the source that causes it:

=======  ===========================================================
code     invariant
=======  ===========================================================
RPR811   no call path from simulation code to a wall-clock read
         (interprocedural RPR101)
RPR812   no call path from simulation code to a module-level
         ``random.*`` draw (interprocedural RPR102)
RPR813   no call path from simulation code to ad-hoc
         ``random.Random(...)`` construction (interprocedural RPR103)
RPR821   no mutation of state reachable from a frozen ``*Spec`` --
         including through aliases RPR402's field check cannot see
RPR831   no iteration over an unordered set feeding event scheduling,
         RNG stream derivation, or spec hashing
RPR841   no mixed-dimension arithmetic (seconds vs bytes vs packets,
         inferred from name suffixes and propagated through
         assignments and returns)
=======  ===========================================================

RPR811-813 report at **call sites** inside the simulation-semantics
packages (:data:`repro.analysis.flow.TAINT_SCOPE`); the other
rules apply everywhere.  All of them honour ``# repro: noqa[...]``
exactly like the syntactic rules.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.flow import (
    DETERMINISM_SINKS,
    TAINT_CLOCK,
    TAINT_RANDOM,
    TAINT_RNG_CTOR,
    Project,
    Violation,
)

#: Rule catalog: code -> (summary, fix-it hint).
RULES_8XX: Dict[str, Tuple[str, str]] = {
    "RPR811": (
        "call path reaches a wall-clock read",
        "pass the simulator clock (sim.now) down instead; a helper that "
        "reads real time poisons every simulation that calls it",
    ),
    "RPR812": (
        "call path reaches a module-level random.* draw",
        "thread an injected random.Random / RngRegistry stream through "
        "the call chain instead of drawing from the shared module state",
    ),
    "RPR813": (
        "call path reaches ad-hoc random.Random construction",
        "derive the stream from RngRegistry at the top of the chain so "
        "seeds stay refactoring-proof",
    ),
    "RPR821": (
        "mutation of state reachable from a frozen spec",
        "specs are immutable cache keys: copy the payload "
        "(dataclasses.replace / tuple(...)) before mutating, or rebuild "
        "the spec with the new value",
    ),
    "RPR831": (
        "unordered set iteration feeds a determinism-sensitive sink",
        "iterate sorted(...) (or an insertion-ordered structure) before "
        "scheduling events, deriving RNG streams, or hashing specs; set "
        "order varies with hash randomization",
    ),
    "RPR841": (
        "mixed-dimension arithmetic",
        "convert explicitly at the boundary (e.g. bytes * 8 / rate_bps); "
        "the *_s/*_bytes/*_pkts suffix is a contract, not decoration",
    ),
}

_TAINT_CODE = {
    TAINT_CLOCK: "RPR811",
    TAINT_RANDOM: "RPR812",
    TAINT_RNG_CTOR: "RPR813",
}

#: Reporting order for multi-kind taints.
_KIND_ORDER = (TAINT_CLOCK, TAINT_RANDOM, TAINT_RNG_CTOR)


def _make(path: str, line: int, col: int, code: str, detail: str) -> Violation:
    summary, fixit = RULES_8XX[code]
    return Violation(
        path=path,
        line=line,
        col=col,
        code=code,
        message=f"{summary}: {detail}",
        fixit=fixit,
    )


def taint_violations(project: Project) -> List[Violation]:
    """RPR811-813: call sites of transitively tainted functions.

    The *direct* source call (``time.time()`` itself) is the syntactic
    RPR101-103's business; these fire one level up and beyond, at every
    in-scope call of a function whose body -- however deep -- reaches a
    source.
    """
    violations: List[Violation] = []
    for summary in project.summaries:
        if not project.in_taint_scope(summary.module):
            continue
        for site in summary.calls:
            target = project.resolve(summary, site.caller, site.callee)
            if target is None:
                continue
            kinds = project.taint.get(target)
            if not kinds:
                continue
            for kind in _KIND_ORDER:
                if kind not in kinds:
                    continue
                chain = project.taint_chain(target, kind)
                violations.append(
                    _make(
                        summary.path,
                        site.line,
                        site.col,
                        _TAINT_CODE[kind],
                        f"{site.callee}() reaches {chain[-1]} "
                        f"(via {' -> '.join(chain)})",
                    )
                )
    return violations


def spec_mutation_violations(project: Project) -> List[Violation]:
    """RPR821: mutations of frozen-spec-reachable state, alias-aware.

    Candidates recorded with a class name are confirmed against the
    program-wide frozen-spec set (a mutation through a plain mutable
    dataclass is fine); by-convention candidates (a variable literally
    named ``spec``/``*_spec``) always report -- naming something a spec
    and then mutating its payload is the bug either way.
    """
    violations: List[Violation] = []
    for summary in project.summaries:
        for mutation in summary.spec_mutations:
            if mutation.cls is not None and mutation.cls not in project.frozen_specs:
                continue
            cls = mutation.cls or "a *Spec-named object"
            violations.append(
                _make(
                    summary.path,
                    mutation.line,
                    mutation.col,
                    "RPR821",
                    f"{mutation.detail} mutates state reachable from "
                    f"frozen {cls}",
                )
            )
    return violations


def unordered_iteration_violations(project: Project) -> List[Violation]:
    """RPR831: set iteration whose body feeds a determinism sink.

    A loop is flagged when its body calls a sink directly
    (``schedule`` / ``schedule_at`` / ``stream`` / ``fork`` /
    ``spec_hash`` / ``canonical_json``) *or* calls a function the call
    graph proves reaches one -- the static sibling of the runtime race
    detector.
    """
    violations: List[Violation] = []
    for summary in project.summaries:
        calls_by_loop: Dict[int, List] = {}
        for site in summary.calls:
            if site.loop is not None:
                calls_by_loop.setdefault(site.loop, []).append(site)
        for loop in summary.loops:
            detail = None
            for site in calls_by_loop.get(loop.index, ()):
                terminal = site.callee.rsplit(".", 1)[-1]
                if terminal in DETERMINISM_SINKS:
                    detail = f"calls {terminal}() while iterating {loop.desc}"
                    break
                target = project.resolve(summary, site.caller, site.callee)
                if target is not None and target in project.reaches_sink:
                    chain = project.sink_chain(target)
                    detail = (
                        f"calls {site.callee}() while iterating {loop.desc} "
                        f"(reaches {chain[-1]} via {' -> '.join(chain)})"
                    )
                    break
            if detail is not None:
                violations.append(
                    _make(summary.path, loop.line, loop.col, "RPR831", detail)
                )
    return violations


def unit_violations(project: Project) -> List[Violation]:
    """RPR841: found module by module during extraction."""
    violations: List[Violation] = []
    for summary in project.summaries:
        violations.extend(summary.units)
    return violations


def flow_violations(project: Project) -> List[Violation]:
    """Every RPR8xx finding for the program, unsorted and un-noqa'd."""
    violations: List[Violation] = []
    violations.extend(taint_violations(project))
    violations.extend(spec_mutation_violations(project))
    violations.extend(unordered_iteration_violations(project))
    violations.extend(unit_violations(project))
    return violations
