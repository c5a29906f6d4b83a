"""Campaign engine: prefix reuse, process fan-out, and failure survival.

The naive campaign loop replays the golden prefix from instruction 0 for
every injection and runs the N independent injections strictly serially:
O(N·L) interpreted instructions on one core.  Both costs are accidental --
the paper's methodology is one profiling pass followed by N *independent*
runs -- and this engine removes them with two composable optimizations:

**Snapshot ladder.**  One extra golden run per app drops a
:class:`~repro.checkpoint.snapshot.Snapshot` every K retired instructions
(cached on the app next to its profile).  Each injection restores the
nearest rung at or below its injection point and fast-forwards only the
remainder, turning O(N·L) prefix replay into O(L + N·K).

**Multiprocess fan-out.**  Plans are split into contiguous shards, each
shard sorted by injection depth for ladder locality, and executed on a
``ProcessPoolExecutor``.  Nothing un-picklable crosses the process
boundary: workers re-derive the app (registry name or import path) and
rebuild the ladder from (source, interval) -- on fork-based platforms the
parent's caches are inherited, so this is free.  Shard results are merged
in plan order, which makes the parallel output *identical* to the serial
output for the same seed -- counts, per-plan outcomes, and result
ordering -- preserving the paired-campaign property every
Figure-5/Table-3 comparison relies on.

On top of both sits the **resilience layer**, applying the paper's own
checkpoint/restart discipline to the campaign runner itself:

* a write-ahead **campaign journal**
  (:class:`~repro.faultinject.journal.CampaignJournal`) durably records
  each completed shard, and ``CampaignConfig.resume`` skips journaled
  plans and merges old + new shards into a result bit-identical to an
  uninterrupted run;
* a **supervisor** retries failed shards with bounded exponential
  backoff, rebuilds a broken process pool, bisects a persistently
  failing shard down to the single **poison plan** and quarantines it
  (recorded in :class:`EngineStats` and the journal, never silently
  dropped), and degrades to in-process serial execution when
  multiprocessing is unavailable or keeps breaking;
* a per-run **wall-clock watchdog** (``wall_clock_limit``) complements
  the instruction-budget ``HANG`` detection so a pathological repaired
  run cannot stall a worker forever.

Throughput and resilience observability come back in an
:class:`EngineStats` record: injections/sec, ladder restore-distance,
per-shard utilization, retries, pool rebuilds, and quarantined plans.
Its event counts are read from the supervisor's single tally, the same
dict a telemetry-enabled campaign adds to its tracer's counters, so the
stats and the telemetry report cannot disagree.
"""

from __future__ import annotations

import importlib
import math
import os
from collections import Counter, deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from time import perf_counter, sleep

import numpy as np

from repro.apps.base import MiniApp
from repro.checkpoint.snapshot import SnapshotLadder, restore_into, snapshot
from repro.core.config import BASELINE, LetGoConfig
from repro.errors import CampaignAbortedError
from repro.faultinject.campaign import CampaignConfig, CampaignResult
from repro.faultinject.fault_model import InjectionPlan, plan_injections
from repro.faultinject.injector import InjectionResult, run_injection
from repro.faultinject.journal import CampaignJournal, JournalHeader
from repro.machine.debugger import DebugSession
from repro.telemetry import NULL_TRACER, TelemetryReport, Tracer
from repro.telemetry.export import write_chrome_trace, write_jsonl

#: ``ladder_interval`` value that disables the ladder entirely.
NO_LADDER = 0


@dataclass(frozen=True)
class EngineStats:
    """Throughput + resilience observability for one engine campaign."""

    n: int
    jobs: int                      # worker processes actually used (1 = in-process)
    elapsed_seconds: float
    ladder_interval: int           # 0 when the ladder was disabled
    ladder_rungs: int
    restored: int                  # injections launched from a ladder rung
    cold_starts: int               # injections replayed from instruction 0
    fast_forward_steps: int        # golden-prefix instructions actually replayed
    per_worker_injections: tuple[int, ...]   # per committed shard
    per_worker_seconds: tuple[float, ...]    # per committed shard
    retries: int = 0               # shard re-executions after failures
    pool_rebuilds: int = 0         # broken process pools replaced
    degraded_serial: bool = False  # fell back to in-process execution
    resumed: int = 0               # plans skipped: already journaled
    timeouts: int = 0              # runs stopped by the wall-clock watchdog
    quarantined: tuple[int, ...] = ()  # poison-plan indices, never re-run

    @property
    def executed(self) -> int:
        """Injections actually run this invocation."""
        return self.restored + self.cold_starts

    @property
    def injections_per_sec(self) -> float:
        """End-to-end campaign throughput."""
        return self.n / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def mean_fast_forward(self) -> float:
        """Mean golden-prefix instructions replayed per executed injection."""
        return self.fast_forward_steps / self.executed if self.executed else 0.0

    @property
    def utilization(self) -> float:
        """Mean fraction of the wall-clock each worker spent injecting."""
        if not self.per_worker_seconds or self.elapsed_seconds <= 0:
            return 0.0
        busy = sum(self.per_worker_seconds)
        return busy / (len(self.per_worker_seconds) * self.elapsed_seconds)

    def describe(self) -> str:
        """One-line human-readable summary."""
        ladder = (
            f"ladder K={self.ladder_interval} ({self.ladder_rungs} rungs, "
            f"mean ff {self.mean_fast_forward:,.0f})"
            if self.ladder_interval
            else "ladder off"
        )
        line = (
            f"{self.n} injections in {self.elapsed_seconds:.2f}s "
            f"({self.injections_per_sec:.1f}/s) | jobs={self.jobs} "
            f"util={self.utilization:.0%} | {ladder}"
        )
        extras = []
        if self.resumed:
            extras.append(f"resumed={self.resumed}")
        if self.retries:
            extras.append(f"retries={self.retries}")
        if self.pool_rebuilds:
            extras.append(f"pool rebuilds={self.pool_rebuilds}")
        if self.degraded_serial:
            extras.append("serial fallback")
        if self.timeouts:
            extras.append(f"timeouts={self.timeouts}")
        if self.quarantined:
            extras.append(f"quarantined={list(self.quarantined)}")
        if extras:
            line += " | " + " ".join(extras)
        return line


# -- one shard --------------------------------------------------------------


def _run_shard(
    app: MiniApp,
    ladder: SnapshotLadder | None,
    config: LetGoConfig | None,
    batch: list[tuple[int, InjectionPlan]],
    campaign: CampaignConfig,
) -> tuple[list[tuple[int, InjectionResult]], Counter, float, dict | None]:
    """Run one shard of (index, plan) pairs.

    Plans execute in injection-depth order (ladder/cache locality) but the
    returned pairs are in index order, so reassembling shards by plan
    index reproduces the serial result order exactly.

    One *host process* serves the whole shard: every plan restores its
    launch state (ladder rung, or a pristine instret-0 snapshot) into the
    same process, so segment mapping, CPU construction and -- on the
    compiled backend -- closure-table compilation are paid once per shard
    rather than once per injection.

    Returns (pairs, tally, seconds, payload).  The tally is the shard's
    one exact count of ``restore`` / ``cold-start`` positionings, golden
    ``fast-forward`` instructions replayed and watchdog ``timeout`` runs;
    it exists whether telemetry is on or off.  With telemetry a leaf
    :class:`~repro.telemetry.Tracer` also records the shard's phase spans
    and injection counters; its picklable export is the payload (None
    when disabled), absorbed by the supervisor.  The leaf is created here
    -- identically for in-process and pooled shards -- so the merged
    stream is independent of *where* the shard ran.
    """
    t0 = perf_counter()
    if campaign.telemetry_enabled:
        tracer = Tracer(
            tid=f"shard-{min(idx for idx, _ in batch):05d}",
            probe_interval=campaign.probe_interval,
        )
        tracer.instant("worker-start", pid=os.getpid(), plans=len(batch))
    else:
        tracer = NULL_TRACER
    tally: Counter = Counter()
    out: dict[int, InjectionResult] = {}
    with tracer.span("shard"):
        host = app.load(campaign.backend)
        pristine = snapshot(host)
        for idx, plan in sorted(batch, key=lambda pair: pair[1].dyn_index):
            target = plan.dyn_index - 1
            snap = ladder.nearest(target) if ladder is not None else None
            with tracer.span("restore"):
                restore_into(host, pristine if snap is None else snap)
            if snap is None:
                tally["cold-start"] += 1
                tally["fast-forward"] += target
            else:
                tally["restore"] += 1
                tally["fast-forward"] += target - snap.instret
            result = out[idx] = run_injection(
                app,
                plan,
                config,
                session=DebugSession(host),
                wall_clock_limit=campaign.wall_clock_limit,
                tracer=tracer,
            )
            if result.timed_out:
                tally["timeout"] += 1
    pairs = [(idx, out[idx]) for idx in sorted(out)]
    payload = tracer.export() if tracer.enabled else None
    return pairs, tally, perf_counter() - t0, payload


# -- worker protocol --------------------------------------------------------
#
# Workers receive only picklable primitives: an app *spec* (registry name
# or module:qualname import path), the ladder interval, the LetGo config
# and the CampaignConfig (both frozen dataclasses).  App, program image
# and ladder are re-derived worker-side through the same module caches
# the parent uses.

_WORKER: dict = {}


def _app_from_spec(spec: tuple) -> MiniApp:
    """Rebuild an app from its worker spec."""
    if spec[0] == "registry":
        from repro.apps.registry import make_app

        return make_app(spec[1])
    _, module, qualname = spec
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj()


def _app_spec(app: MiniApp) -> tuple | None:
    """A picklable spec a worker can rebuild *app* from (None: not possible)."""
    try:
        from repro.apps.registry import make_app

        if type(make_app(app.name)) is type(app):
            return ("registry", app.name)
    except KeyError:
        pass
    cls = type(app)
    if "<locals>" in cls.__qualname__ or cls.__module__ == "__main__":
        return None
    spec = ("import", cls.__module__, cls.__qualname__)
    try:
        rebuilt = _app_from_spec(spec)
    except Exception:
        return None
    if not isinstance(rebuilt, MiniApp) or rebuilt.source != app.source:
        return None
    return spec


def _worker_init(
    spec: tuple,
    interval: int | None,
    config: LetGoConfig | None,
    campaign: CampaignConfig,
) -> None:
    app = _app_from_spec(spec)
    _WORKER["app"] = app
    _WORKER["ladder"] = app.ladder(interval) if interval != NO_LADDER else None
    _WORKER["config"] = config
    _WORKER["campaign"] = campaign


def _worker_run(batch: list[tuple[int, InjectionPlan]]):
    return _run_shard(
        _WORKER["app"],
        _WORKER["ladder"],
        _WORKER["config"],
        batch,
        _WORKER["campaign"],
    )


def _split(items: list, k: int) -> list[list]:
    """Split into *k* contiguous, nearly-even, non-empty chunks."""
    k = max(1, min(k, len(items)))
    base, extra = divmod(len(items), k)
    chunks, lo = [], 0
    for i in range(k):
        hi = lo + base + (1 if i < extra else 0)
        chunks.append(items[lo:hi])
        lo = hi
    return chunks


# -- the supervisor ---------------------------------------------------------


@dataclass
class _Supervisor:
    """Drives shards to completion through failures.

    Policy ladder, applied per shard: retry with bounded exponential
    backoff -> bisect a still-failing shard to isolate the poison plan ->
    quarantine the single plan that keeps failing.  Pool breakage
    (SIGKILLed/OOM-killed workers) rebuilds the executor up to
    ``max_pool_rebuilds`` times, then either degrades to in-process serial
    execution or -- with ``serial_fallback`` off -- aborts with
    :class:`~repro.errors.CampaignAbortedError` naming the journal.
    Every completed shard is journaled *before* its results are merged.

    ``tally`` is the campaign's one exact event count: each committed
    shard's tally is added to it, and the supervisor's own ``retry``,
    ``bisect``, ``quarantine``, ``pool-rebuild`` and ``serial-degrade``
    events are counted there and nowhere else.
    """

    campaign: CampaignConfig
    app: MiniApp
    ladder: SnapshotLadder | None
    config: LetGoConfig | None
    spec: tuple | None
    jobs: int
    journal: CampaignJournal | None
    tracer: object = NULL_TRACER      # parent-side merged event stream
    on_progress: object = None        # optional callable(done, total)
    total: int = 0                    # campaign n, for progress reporting
    done_base: int = 0                # plans settled before this invocation

    pairs: dict[int, InjectionResult] = field(default_factory=dict)
    tally: Counter = field(default_factory=Counter)
    shard_sizes: list[int] = field(default_factory=list)
    shard_seconds: list[float] = field(default_factory=list)
    attempts: dict[tuple[int, ...], int] = field(default_factory=dict)
    quarantined: list[int] = field(default_factory=list)

    def run(self, shards: list[list[tuple[int, InjectionPlan]]]) -> None:
        self.queue: deque = deque(shard for shard in shards if shard)
        if self.jobs > 1:
            self._run_pool()
        else:
            self._run_serial()

    # -- serial ------------------------------------------------------------

    def _run_serial(self) -> None:
        while self.queue:
            self.tracer.gauge("queue-depth", len(self.queue))
            shard = self.queue.popleft()
            try:
                outcome = _run_shard(
                    self.app, self.ladder, self.config, shard, self.campaign
                )
            except Exception as exc:
                self._failure(shard, exc)
            else:
                self._commit(*outcome)

    # -- pool --------------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor | None:
        interval = (
            self.ladder.interval if self.ladder is not None else NO_LADDER
        )
        try:
            return ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_worker_init,
                initargs=(self.spec, interval, self.config, self.campaign),
            )
        except Exception:
            return None

    def _run_pool(self) -> None:
        pool = self._make_pool()
        if pool is None:
            self._degrade()
            return
        try:
            while self.queue:
                self.tracer.gauge("queue-depth", len(self.queue))
                batch = list(self.queue)
                self.queue.clear()
                futures = {}
                broken = False
                for shard in batch:
                    if broken:
                        self.queue.append(shard)
                        continue
                    try:
                        futures[pool.submit(_worker_run, shard)] = shard
                    except BrokenExecutor:
                        broken = True
                        self.queue.append(shard)
                for future in as_completed(futures):
                    shard = futures[future]
                    try:
                        outcome = future.result()
                    except BrokenExecutor:
                        broken = True
                        self.queue.append(shard)
                    except Exception as exc:
                        self._failure(shard, exc)
                    else:
                        self._commit(*outcome)
                if broken:
                    pool.shutdown(wait=False, cancel_futures=True)
                    self.tally["pool-rebuild"] += 1
                    rebuilds = self.tally["pool-rebuild"]
                    self.tracer.instant("pool-rebuild", n=rebuilds)
                    if rebuilds > max(0, self.campaign.max_pool_rebuilds):
                        if not self.campaign.serial_fallback:
                            raise CampaignAbortedError(
                                f"worker pool broke {rebuilds} times; "
                                "giving up",
                                journal=(
                                    self.journal.path if self.journal else None
                                ),
                            )
                        pool = None
                        self._degrade()
                        return
                    pool = self._make_pool()
                    if pool is None:
                        self._degrade()
                        return
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _degrade(self) -> None:
        """Multiprocessing unavailable or unreliable: finish in-process."""
        self.tally["serial-degrade"] += 1
        self.tracer.instant("serial-degrade")
        self._run_serial()

    # -- shared bookkeeping ------------------------------------------------

    def _commit(
        self,
        pairs: list[tuple[int, InjectionResult]],
        tally: Counter,
        seconds: float,
        payload: dict | None,
    ) -> None:
        if payload is not None:
            # Re-base the shard's events to where the shard actually ran
            # on the parent timeline: it finished "now" and lasted
            # *seconds*.
            self.tracer.absorb(
                payload, offset=max(0.0, self.tracer.now() - seconds)
            )
        # Journal first: the shard is durable before its results count.
        if self.journal is not None:
            self.journal.record_shard(
                [idx for idx, _ in pairs], [result for _, result in pairs]
            )
        self.pairs.update(pairs)
        self.tally.update(tally)
        self.shard_sizes.append(len(pairs))
        self.shard_seconds.append(seconds)
        if self.on_progress is not None:
            self.on_progress(self.done_base + len(self.pairs), self.total)

    def _failure(self, shard: list[tuple[int, InjectionPlan]], exc: Exception) -> None:
        key = tuple(idx for idx, _ in shard)
        count = self.attempts.get(key, 0) + 1
        self.attempts[key] = count
        campaign = self.campaign
        if count <= max(0, campaign.max_retries):
            self.tally["retry"] += 1
            self.tracer.instant(
                "retry", plans=len(shard), attempt=count,
                error=type(exc).__name__,
            )
            backoff = max(0.0, campaign.retry_backoff)
            if backoff > 0:
                sleep(
                    min(
                        max(0.0, campaign.retry_backoff_cap),
                        backoff * 2 ** (count - 1),
                    )
                )
            self.queue.append(shard)
        elif len(shard) > 1:
            # Bisect: isolate the poison plan instead of discarding the
            # healthy majority of the shard alongside it.
            mid = len(shard) // 2
            self.tally["bisect"] += 1
            self.tracer.instant("bisect", plans=len(shard))
            self.queue.append(shard[:mid])
            self.queue.append(shard[mid:])
        else:
            ((index, plan),) = shard
            self.quarantined.append(index)
            self.tally["quarantine"] += 1
            self.tracer.instant(
                "quarantine", index=index, error=type(exc).__name__
            )
            if self.journal is not None:
                self.journal.record_quarantine(index, plan, repr(exc), count)


# -- the engine -------------------------------------------------------------


class CampaignEngine:
    """Runs injection campaigns with prefix reuse, fan-out, and supervision.

    Every knob lives in the one
    :class:`~repro.faultinject.campaign.CampaignConfig` passed as
    ``config`` (default: ``CampaignConfig()``) and kept on :attr:`config`:

    * execution -- ``jobs`` (1 = in-process; None = ``os.cpu_count()``),
      ``ladder_interval`` (None = the app's
      :attr:`~repro.apps.base.MiniApp.default_ladder_interval`;
      :data:`NO_LADDER` / 0 = replay every prefix from instruction 0),
      ``shard_size``, ``backend`` and ``keep_results``;
    * resilience -- ``max_retries``, ``retry_backoff`` /
      ``retry_backoff_cap``, ``max_pool_rebuilds``, ``serial_fallback``
      and the per-injection ``wall_clock_limit`` watchdog (a
      non-deterministic safety valve: expired runs classify as ``HANG``,
      so leave it off when bit-identical reruns matter);
    * durability -- ``journal`` (fresh write-ahead journal) or ``resume``
      (continue an existing one); an engine runs one journaled campaign,
      so a caller journaling several builds one engine per campaign;
    * observability -- ``telemetry``, ``trace``, ``chrome_trace`` and
      ``probe_interval``.

    For the same (app, n, seed, config, plans) every (jobs,
    ladder_interval, shard_size, backend) combination produces an
    identical :class:`CampaignResult`; the engine only changes how fast
    it arrives and what it survives.  The last run's :class:`EngineStats`
    is kept on :attr:`stats`.  With telemetry enabled the last run's
    aggregated :class:`~repro.telemetry.TelemetryReport` is kept on
    :attr:`telemetry`; :attr:`on_progress` optionally receives
    ``(done, total)`` after every committed shard.
    """

    def __init__(self, config: CampaignConfig | None = None):
        self.config = config if config is not None else CampaignConfig()
        self.stats: EngineStats | None = None
        self.telemetry: TelemetryReport | None = None
        self.on_progress = None  # optional callable(done, total)

    def _shard_count(self, pending: int, jobs: int, journaling: bool) -> int:
        if self.config.shard_size is not None:
            return max(1, math.ceil(pending / self.config.shard_size))
        if journaling:
            # Finer grain: each journaled shard is resume credit, and
            # bisection isolates poison plans in fewer halvings.
            return min(pending, 8 * jobs)
        return jobs

    def run(
        self,
        app: MiniApp,
        n: int,
        seed: int,
        config: LetGoConfig | None = None,
        plans: list[InjectionPlan] | None = None,
    ) -> CampaignResult:
        """Run *n* injections on *app* under *config* (None = baseline).

        With ``CampaignConfig.journal`` a fresh write-ahead journal is
        started at that path; with ``CampaignConfig.resume`` an existing
        one is loaded, verified to belong to this exact campaign, its
        plans skipped, and new shards appended to the same file.  Either
        way the returned result is bit-identical to an uninterrupted run
        with the same seed.
        """
        cfg = self.config
        tracer = (
            Tracer(tid="engine", probe_interval=cfg.probe_interval)
            if cfg.telemetry_enabled
            else NULL_TRACER
        )
        self.telemetry = None
        t0 = perf_counter()
        if plans is None:
            rng = np.random.default_rng(seed)
            with tracer.span("plan"):
                plans = plan_injections(rng, app.golden.instret, n)
        elif len(plans) != n:
            raise ValueError("len(plans) must equal n")

        config_name = (config or BASELINE).name
        journal: CampaignJournal | None = None
        if cfg.resume is not None:
            journal = CampaignJournal.load(cfg.resume)
            journal.verify(
                JournalHeader.for_campaign(app.name, config_name, n, seed, plans)
            )
        elif cfg.journal is not None:
            journal = CampaignJournal.create(
                cfg.journal,
                JournalHeader.for_campaign(app.name, config_name, n, seed, plans),
            )
        if journal is not None:
            journal.tracer = tracer

        settled = journal.settled_indices if journal is not None else frozenset()
        indexed = [
            (idx, plan) for idx, plan in enumerate(plans) if idx not in settled
        ]
        resumed_pairs = journal.pairs() if journal is not None else []
        prior_quarantine = (
            [record.index for record in journal.quarantined]
            if journal is not None
            else []
        )
        if cfg.resume is not None:
            tracer.instant(
                "journal-resume", settled=len(settled), pending=len(indexed)
            )

        use_ladder = cfg.ladder_interval != NO_LADDER
        # Building (or fetching) the ladder in the parent warms the
        # per-source cache, which fork-based workers inherit for free.
        with tracer.span("ladder"):
            ladder = app.ladder(cfg.ladder_interval) if use_ladder else None

        wanted = (os.cpu_count() or 1) if cfg.jobs is None else max(1, cfg.jobs)
        jobs = max(1, min(wanted, len(indexed))) if indexed else 1
        spec = _app_spec(app) if jobs > 1 else None
        if jobs > 1 and spec is None:
            jobs = 1  # un-rederivable app (e.g. a local class): stay in-process

        supervisor = _Supervisor(
            campaign=cfg,
            app=app,
            ladder=ladder,
            config=config,
            spec=spec,
            jobs=jobs,
            journal=journal,
            tracer=tracer,
            on_progress=self.on_progress,
            total=n,
            done_base=len(settled),
        )
        if indexed:
            shards = _split(
                indexed,
                self._shard_count(len(indexed), jobs, journal is not None),
            )
            with tracer.span("execute"):
                supervisor.run(shards)

        with tracer.span("merge"):
            all_pairs = dict(resumed_pairs)
            all_pairs.update(supervisor.pairs)
            ordered = [all_pairs[idx] for idx in sorted(all_pairs)]
            counts: Counter = Counter()
            for result in ordered:
                counts[result.outcome] += 1
            merged = CampaignResult(
                app_name=app.name,
                config_name=config_name,
                n=len(ordered),
                counts=dict(counts),
                results=list(ordered) if cfg.keep_results else [],
            )

        elapsed = perf_counter() - t0
        tally = supervisor.tally
        self.stats = EngineStats(
            n=n,
            jobs=jobs,
            elapsed_seconds=elapsed,
            ladder_interval=ladder.interval if ladder is not None else NO_LADDER,
            ladder_rungs=len(ladder) if ladder is not None else 0,
            restored=tally["restore"],
            cold_starts=tally["cold-start"],
            fast_forward_steps=tally["fast-forward"],
            per_worker_injections=tuple(supervisor.shard_sizes),
            per_worker_seconds=tuple(supervisor.shard_seconds),
            retries=tally["retry"],
            pool_rebuilds=tally["pool-rebuild"],
            degraded_serial=tally["serial-degrade"] > 0,
            resumed=len(resumed_pairs),
            timeouts=tally["timeout"],
            quarantined=tuple(sorted(prior_quarantine + supervisor.quarantined)),
        )
        if tracer.enabled:
            tracer.add_counters(tally)
            self.telemetry = TelemetryReport.from_tracer(
                tracer, wall_seconds=elapsed
            )
            meta = {
                "app": app.name,
                "config": config_name,
                "n": n,
                "seed": seed,
                "jobs": jobs,
                "wall_seconds": elapsed,
            }
            if cfg.trace is not None:
                write_jsonl(
                    cfg.trace, tracer.records(),
                    counters=tracer.counters, meta=meta,
                )
            if cfg.chrome_trace is not None:
                write_chrome_trace(
                    cfg.chrome_trace, tracer.records(),
                    process_name=f"{app.name} under {config_name}",
                )
        return merged


__all__ = [
    "CampaignEngine",
    "EngineStats",
    "NO_LADDER",
]
