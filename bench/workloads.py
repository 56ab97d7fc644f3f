"""The seven pinned workloads of the two-ledger benchmark.

Each workload is chosen so that a *different* layer of ``src/repro``
owns its wall time (``bench/README.md`` has the table and the reasons);
names and sizes are fixed because later issues state their claims as
"metric X on workload Y".  A workload is three steps:

``setup(seed, workdir)``
    builds the inputs from the seed and nothing else -- the program only
    ever receives the generated specs.  Its cost is ``setup_s``.
``run(state, tracer)``
    the timed region: one closed-loop batch through public ``repro``
    entry points.  ``tracer`` records a span around every call into a
    layer; timed runs pass :data:`NULL_TRACER`.
``check(state, raw)``
    untimed: counts attempted/failed operations, the application payload
    the results prove was delivered, and the result digest.

Sizes target about one second of host time per run on the 2-core
reference box, so a ``run_seconds`` window holds six or more samples.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.apps.bulk import BulkDownloadSpec
from repro.experiments.grid import streaming_grid_specs, wget_matrix_specs
from repro.experiments.runner import StreamingSpec
from repro.experiments.spec import canonical_json, run_spec, spec_hash
from repro.experiments.twin import build_world, finish
from repro.net.profiles import lte_config, wifi_config
from repro.service import (
    CampaignRunner,
    CampaignStore,
    InlineBackendConfig,
    PoolBackendConfig,
)
from repro.sim.snapshot import Snapshot, capture, restore
from repro.workloads.web import WebBrowsingSpec, cnn_like_page

#: Workers of the one concurrent workload (the reference box has 2 cores).
POOL_JOBS = 2
#: ``campaign_warm`` drains the campaign this many times per timed run.
WARM_ROUNDS = 5
#: ``fork_sweep`` checkpoints every this many events.  Dense on purpose:
#: capture + restore must stay >= 40 % of the run (the separation check).
FORK_CHECKPOINT_EVERY = 110


@dataclass
class Outcome:
    """What the checks made of one run."""

    attempted: int
    failed: int
    payload_bytes: int
    digest: str


class NullTracer:
    """Tracing off: spans cost one shared no-op context manager."""

    on_outcome: Optional[Callable[[Any], None]] = None
    _span = nullcontext()

    def span(self, name: str) -> ContextManager[None]:
        return self._span


NULL_TRACER = NullTracer()


def result_text(result: Any) -> str:
    """Byte-comparable form of a result (what the digests hash)."""
    return canonical_json(result.to_dict())


def digest_of(texts: Iterable[str]) -> str:
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def delivered_payload(spec: Any, result: Any) -> Optional[int]:
    """Application bytes ``result`` proves were delivered for ``spec``;
    ``None`` when the transfer is incomplete or short."""
    if spec.kind == "bulk_download":
        complete = result.size == spec.size and result.completion_time > 0
        return result.size if complete else None
    if spec.kind == "streaming":
        return sum(c.size for c in result.metrics.chunks) if result.finished else None
    return spec.page().total_bytes if result.complete else None


# ----------------------------------------------------------------------
# Simulator workloads: one transfer or stream through ``run_spec``
# ----------------------------------------------------------------------


class SimWorkload:
    """One spec, one ``run_spec`` call: a single transfer or stream."""

    #: The simulator runs in this process, so the perf collector, the
    #: sim-profiler and the event log all see it.
    in_process = True

    def __init__(self, name: str, make_spec: Callable[[int], Any]) -> None:
        self.name = name
        self._make_spec = make_spec

    def setup(self, seed: int, workdir: str) -> Any:
        return self._make_spec(seed)

    def run(self, spec: Any, tracer: Any) -> Any:
        with tracer.span("experiments.spec.run_spec"):
            return run_spec(spec)

    def check(self, spec: Any, result: Any) -> Outcome:
        payload = delivered_payload(spec, result)
        return Outcome(
            attempted=1,
            failed=int(payload is None),
            payload_bytes=payload or 0,
            digest=digest_of([result_text(result)]),
        )


def _bulk_single_path(seed: int) -> BulkDownloadSpec:
    return BulkDownloadSpec(
        scheduler="minrtt",
        path_configs=(lte_config(8.6),),
        size=80_000_000,
        seed=seed,
        timeout=3_000.0,
    )


def _dash_hetero_ecf(seed: int) -> StreamingSpec:
    return StreamingSpec(
        scheduler="ecf", wifi_mbps=0.3, lte_mbps=8.6, video_duration=70.0, seed=seed
    )


def _eight_subflow_ecf(seed: int) -> StreamingSpec:
    return StreamingSpec(
        scheduler="ecf",
        wifi_mbps=4.2,
        lte_mbps=8.6,
        video_duration=50.0,
        subflows_per_interface=4,
        seed=seed,
    )


def _lossy_minrtt_bulk(seed: int) -> BulkDownloadSpec:
    return BulkDownloadSpec(
        scheduler="minrtt",
        path_configs=(
            wifi_config(8.6, loss_rate=0.02),
            lte_config(8.6, loss_rate=0.02),
        ),
        size=80_000_000,
        seed=seed,
        timeout=3_000.0,
    )


# ----------------------------------------------------------------------
# Campaign workloads: submit -> drain -> fetch through CampaignRunner
# ----------------------------------------------------------------------

_WGET_GRID_MBPS = (1.0, 3.0, 5.0, 7.0, 9.0)


def campaign_specs(seed: int) -> List[Any]:
    """The mixed 140-job campaign: all three spec kinds, many ~10 ms wget
    jobs beside few ~50 ms streaming jobs so per-job overhead stays
    visible next to simulation time."""
    specs: List[Any] = [
        spec
        for _, spec in streaming_grid_specs(
            StreamingSpec(scheduler="ecf", video_duration=10.0, seed=seed)
        )
    ]
    specs += [
        spec
        for _, spec in wget_matrix_specs(
            ("ecf", "minrtt"),
            (128_000, 1_000_000),
            _WGET_GRID_MBPS,
            _WGET_GRID_MBPS,
            seed=seed,
        )
    ]
    # The page is pinned (the default CNN-like draw), not drawn per seed:
    # page weight is heavy-tailed, and runs with different seeds must do
    # comparable work for their spread to mean host noise.
    page = cnn_like_page().object_sizes
    specs += [
        WebBrowsingSpec(
            scheduler=scheduler,
            path_configs=(wifi_config(wifi), lte_config(8.6)),
            seed=seed,
            object_sizes=page,
        )
        for scheduler in ("ecf", "minrtt")
        for wifi in (1.0, 8.6)
    ]
    return specs


@dataclass
class CampaignState:
    specs: List[Any]
    workdir: str
    #: ``campaign_warm`` only: the populated cache and the cold results
    #: every warm result must equal byte for byte.
    cache_dir: Optional[str] = None
    cold_texts: Dict[str, str] = field(default_factory=dict)


@dataclass
class CampaignRaw:
    """One submit -> drain -> fetch: the specs that finished, their
    results in the same order, and how many jobs failed."""

    specs: List[Any]
    results: List[Any]
    failed: int


def run_campaign(
    specs: Sequence[Any],
    backend: Any,
    cache_dir: str,
    workdir: str,
    tracer: Any,
    store_path: Optional[str] = None,
) -> CampaignRaw:
    """One campaign on a fresh SQLite store (a file under ``workdir``
    unless ``store_path`` says otherwise) and a fresh journal."""
    root = tempfile.mkdtemp(prefix="campaign-", dir=workdir)
    with CampaignStore(store_path or os.path.join(root, "campaign.db")) as store:
        runner = CampaignRunner(
            store,
            "bench",
            backend=backend,
            cache_dir=cache_dir,
            journal=os.path.join(root, "journal.jsonl"),
            on_outcome=tracer.on_outcome,
        )
        with tracer.span("service.runner.submit"):
            runner.submit(specs)
        with tracer.span("service.runner.drain"):
            runner.drain()
        with tracer.span("service.runner.fetch"):
            failed = {run.spec_hash for run in runner.failures()}
            done = [s for s in specs if spec_hash(s) not in failed] if failed else list(specs)
            results = runner.fetch(done)
    return CampaignRaw(specs=done, results=results, failed=len(failed))


def _check_campaign(
    raw: CampaignRaw, expected_texts: Optional[Dict[str, str]] = None
) -> Tuple[Outcome, List[str]]:
    """Checks of one campaign, and the result texts its digest hashes.  A
    job fails by not finishing, by an incomplete transfer, or (with
    ``expected_texts``, keyed by spec hash) by a result that is not the
    expected one byte for byte."""
    texts = [result_text(result) for result in raw.results]
    failed = raw.failed
    payload = 0
    for spec, result, text in zip(raw.specs, raw.results, texts):
        delivered = delivered_payload(spec, result)
        wrong = expected_texts is not None and expected_texts.get(spec_hash(spec)) != text
        if delivered is None or wrong:
            failed += 1
        else:
            payload += delivered
    outcome = Outcome(
        attempted=len(raw.specs) + raw.failed,
        failed=failed,
        payload_bytes=payload,
        digest=digest_of(texts),
    )
    return outcome, texts


class _CampaignWorkload:
    #: The simulator runs in pool workers (cold) or not at all (warm).
    in_process = False

    def __init__(self, make_specs: Callable[[int], List[Any]] = campaign_specs) -> None:
        self._make_specs = make_specs


class CampaignCold(_CampaignWorkload):
    """Empty cache, 2-worker pool: the path a sweep user pays."""

    name = "campaign_cold"

    def setup(self, seed: int, workdir: str) -> CampaignState:
        return CampaignState(specs=self._make_specs(seed), workdir=workdir)

    def run(self, state: CampaignState, tracer: Any) -> CampaignRaw:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=state.workdir)
        return run_campaign(
            state.specs, PoolBackendConfig(jobs=POOL_JOBS), cache_dir, state.workdir, tracer
        )

    def check(self, state: CampaignState, raw: CampaignRaw) -> Outcome:
        return _check_campaign(raw)[0]


class CampaignWarm(_CampaignWorkload):
    """Every job a cache hit: spec hashing, cache reads, store
    transactions and the journal, with zero simulated events.

    The store is SQLite ``:memory:``.  On the reference box a commit to a
    file is ~1 ms of fsync (two thirds of this workload) whose latency
    drifts twofold over minutes, and no statistic of the file-backed
    variant stayed inside the contract's 25 % spread; the disk cost of a
    transaction is published by the ``service.store.*`` probes, which do
    use a file, and paid end to end by ``campaign_cold``.
    """

    name = "campaign_warm"

    def setup(self, seed: int, workdir: str) -> CampaignState:
        state = CampaignState(
            specs=self._make_specs(seed),
            workdir=workdir,
            cache_dir=tempfile.mkdtemp(prefix="warm-cache-", dir=workdir),
        )
        # Population is set-up cost, not timed work.  The pool halves it;
        # results are identical whatever the backend.
        cold = run_campaign(
            state.specs,
            PoolBackendConfig(jobs=POOL_JOBS),
            state.cache_dir,
            workdir,
            NULL_TRACER,
        )
        state.cold_texts = {
            spec_hash(spec): result_text(result)
            for spec, result in zip(cold.specs, cold.results)
        }
        return state

    def run(self, state: CampaignState, tracer: Any) -> List[CampaignRaw]:
        return [
            run_campaign(
                state.specs,
                InlineBackendConfig(),
                state.cache_dir,
                state.workdir,
                tracer,
                store_path=":memory:",
            )
            for _ in range(WARM_ROUNDS)
        ]

    def check(self, state: CampaignState, raws: List[CampaignRaw]) -> Outcome:
        total = Outcome(attempted=0, failed=0, payload_bytes=0, digest="")
        texts: List[str] = []
        for raw in raws:
            outcome, round_texts = _check_campaign(raw, state.cold_texts)
            total.attempted += outcome.attempted
            total.failed += outcome.failed
            total.payload_bytes += outcome.payload_bytes
            texts += round_texts
        total.digest = digest_of(texts)
        return total


# ----------------------------------------------------------------------
# fork_sweep: checkpoint a run densely, fork every checkpoint
# ----------------------------------------------------------------------


@dataclass
class ForkState:
    spec: BulkDownloadSpec
    #: Result of the uninterrupted run; every fork must reproduce it.
    reference_text: str


@dataclass
class ForkRaw:
    #: Straight-line (checkpointed) result first, then one per fork;
    #: ``None`` where a fork did not finish the transfer.
    results: List[Optional[Any]]
    snapshots: List[Snapshot]
    #: Events dispatched by the checkpointed run, and by all forks; the
    #: payload the forks delivered after their restore.
    prefix_events: int
    fork_events: int
    fork_payload_bytes: int


class ForkSweep:
    """Snapshot capture/restore beside many short engine runs."""

    name = "fork_sweep"
    in_process = True

    def setup(self, seed: int, workdir: str) -> ForkState:
        spec = BulkDownloadSpec(
            scheduler="ecf",
            path_configs=(wifi_config(4.2), lte_config(8.6)),
            size=1_600_000,
            seed=seed,
        )
        reference = build_world(spec).run_to_completion()
        return ForkState(spec=spec, reference_text=result_text(reference))

    def run(self, state: ForkState, tracer: Any) -> ForkRaw:
        spec = state.spec
        world = build_world(spec)
        snapshots: List[Snapshot] = []
        prefix_events = 0
        while True:
            with tracer.span("sim.engine.run"):
                executed = world.sim.run(
                    until=spec.timeout, max_events=FORK_CHECKPOINT_EVERY
                )
            prefix_events += executed
            if executed < FORK_CHECKPOINT_EVERY:
                break
            with tracer.span("sim.snapshot.capture"):
                snapshots.append(capture(world.sim, world.roots()))
        results: List[Optional[Any]] = [finish(spec, world.conn, world.recorder)]
        fork_payload = 0
        fork_events = 0
        for snapshot in snapshots:
            with tracer.span("sim.snapshot.restore"):
                fork = restore(snapshot)
            remaining = spec.size - fork["conn"].delivered_bytes
            with tracer.span("sim.engine.run"):
                fork_events += fork["sim"].run(until=spec.timeout)
            try:
                results.append(finish(spec, fork["conn"], fork["recorder"]))
                fork_payload += remaining
            except RuntimeError:  # finish(): the fork never completed
                results.append(None)
        return ForkRaw(results, snapshots, prefix_events, fork_events, fork_payload)

    def check(self, state: ForkState, raw: ForkRaw) -> Outcome:
        texts = ["" if r is None else result_text(r) for r in raw.results]
        return Outcome(
            attempted=len(texts),
            failed=sum(1 for text in texts if text != state.reference_text),
            payload_bytes=state.spec.size + raw.fork_payload_bytes,
            digest=digest_of(texts),
        )


#: Matrix order; ``BENCHMARK.json`` lists the same names with their why.
WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        SimWorkload("bulk_single_path", _bulk_single_path),
        SimWorkload("dash_hetero_ecf", _dash_hetero_ecf),
        SimWorkload("eight_subflow_ecf", _eight_subflow_ecf),
        SimWorkload("lossy_minrtt_bulk", _lossy_minrtt_bulk),
        CampaignCold(),
        CampaignWarm(),
        ForkSweep(),
    )
}
