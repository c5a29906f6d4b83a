"""The benchmark's three workloads and their output checks.

Every workload is a closed loop run from one driver process: the next
operation starts when the previous one ends.  Work is grouped in *rounds*:

* ``table3-serial`` -- one round is the paper's Table-3 campaign: the six
  apps under LetGo-E, ``n_per_app`` plans each, in-process (``jobs=1``),
  default snapshot ladder, no journal.
* ``fanout-journaled`` -- one round is the six apps under baseline and
  LetGo-B, paired on the same plans, with ``jobs=2`` worker processes, a
  write-ahead journal and the engine's default journaled sharding.
* ``cr-invivo`` -- one round is ``CR_RUNS`` executed checkpoint/restart
  runs per group: pennant and hpl under NONE / CR / CR+LetGo-E through
  ``checkpoint.drive``, a 4-rank heat cluster under CR and comm-safe
  CR+LetGo-E through ``parallel.drive_cluster``.  Run *k* of every group
  uses one seed drawn from (workload seed, k), as Figure 1 pairs policies.

Every round repeats the same ops; a run makes rounds while the next one
fits in its time.

An *op* is one injection run (campaign workloads) or one driven C/R run.
Each op is checked: at the reference seed against the checked-in
``reference.json`` field by field, at any other seed against invariants
that hold for every seed.  Checks run outside the timed region.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.apps import app_names, make_app
from repro.checkpoint import driver as cr_driver
from repro.checkpoint.driver import CRParams, Policy
from repro.core import LETGO_B, LETGO_E
from repro.faultinject import engine as engine_mod
from repro.faultinject.campaign import CampaignConfig, CampaignResult
from repro.faultinject.fault_model import plan_injections
from repro.faultinject.journal import CampaignJournal
from repro.parallel import driver as cluster_driver
from repro.parallel.app import HeatApp
from repro.parallel.driver import ClusterCRParams, ClusterPolicy

#: Seed the reference results were recorded at (HPDC'17 opening day).
REFERENCE_SEED = 20170626
REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Injection plans per app and campaign configuration.
N_PER_APP = 80
#: Worker processes of the fan-out workload.
FANOUT_JOBS = 2
#: Runs per C/R group and round, each with its own seed.
CR_RUNS = 24

#: Figure-1 C/R platform, in instruction units.  ``mtbf_faults`` is the
#: driver's default: at the 12 000 of ``bench_invivo_cr.py`` most runs
#: roll back for seconds, and no window of a few dozen seconds then gives
#: a throughput that repeats from seed to seed.
CR_PARAMS = CRParams(interval=15_000, t_chk=3_000, t_letgo=100, mtbf_faults=50_000.0)
#: The 4-rank heat cluster of ``bench_invivo_scale.py``.
CLUSTER_PARAMS = ClusterCRParams(
    interval=20_000, t_chk=3_000, t_sync=1_200, t_letgo=100, mtbf_faults=20_000.0
)
#: (label, app, policy) of each C/R group, in round order.
CR_GROUPS = (
    ("pennant/none", "pennant", Policy.NONE),
    ("pennant/cr", "pennant", Policy.CR),
    ("pennant/cr+letgo", "pennant", Policy.CR_LETGO),
    ("hpl/none", "hpl", Policy.NONE),
    ("hpl/cr", "hpl", Policy.CR),
    ("hpl/cr+letgo", "hpl", Policy.CR_LETGO),
    ("heat/cr", "heat", ClusterPolicy.CR),
    ("heat/cr+letgo", "heat", ClusterPolicy.CR_LETGO),
)
#: Share of the slowest C/R runs left out of ``ops_per_s`` on cr-invivo.
CR_TRIM = 0.05

CR_OUTCOMES = {"benign", "sdc", "detected", "dead", "hung", "deadlocked"}


def injection_row(result) -> list:
    """The checked fields of one :class:`InjectionResult`."""
    return [
        result.outcome.value,
        result.target_pc,
        list(result.target_reg) if result.target_reg else None,
        result.first_signal.name if result.first_signal else None,
        result.interventions,
        result.steps,
    ]


def cr_row(result) -> list:
    """The checked fields of one C/R run, as the driver reports them."""
    return [
        result.outcome,
        result.useful,
        result.cost,
        result.checkpoints,
        result.rollbacks,
        result.letgo_repairs,
        result.efficiency,
    ]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """The checked-in reference results."""
    return json.loads(path.read_text())


def write_reference(workdir: Path, path: Path = REFERENCE_PATH) -> None:
    """Record every op of every workload at the reference seed.

    Results are written exactly as the program produces them; a run that
    breaks an invariant aborts instead of entering the reference.
    """
    sections = {}
    for name, cls in WORKLOADS.items():
        workload = cls(REFERENCE_SEED)
        workload.prepare()
        rnd = workload.run_round(0, workdir)
        if rnd.failed or rnd.problems:
            raise RuntimeError(f"{name}: {rnd.problems}")
        sections[name] = workload.reference_rows()
    lines = [
        "{",
        f' "seed": {REFERENCE_SEED},',
        f' "n_per_app": {N_PER_APP},',
        f' "cr_runs": {CR_RUNS},',
    ]
    for position, (name, rows) in enumerate(sections.items()):
        if isinstance(rows, dict):
            body = []
            for key, entries in rows.items():
                inner = ",\n".join("   " + json.dumps(row) for row in entries)
                body.append(f'  "{key}": [\n{inner}\n  ]')
            block = "{\n" + ",\n".join(body) + "\n }"
        else:
            block = "[\n" + ",\n".join("  " + json.dumps(row) for row in rows) + "\n ]"
        comma = "," if position < len(sections) - 1 else ""
        lines.append(f' "{name}": {block}{comma}')
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


def warm(app) -> None:
    """One golden run on the default backend: the compiled backend builds
    its per-image code lazily, on first execution of each instruction."""
    app.load().cpu.run(app.max_steps)


@dataclass
class Round:
    """What one round did: its ops, their timed wall-clock and failures."""

    index: int
    ops: int = 0
    wall: float = 0.0
    failed: int = 0
    op_seconds: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    # Exact tallies the traced run reconciles its wrapper counts against.
    tally: dict = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)

    def add(self, key: str, value) -> None:
        self.tally[key] = self.tally.get(key, 0) + value


class Workload:
    """Shared life cycle: ``prepare`` (set-up) then ``run_round`` calls."""

    name = ""
    jobs = 1

    def __init__(
        self, seed: int, n_per_app: int = N_PER_APP, reference: dict | None = None
    ):
        self.seed = seed
        self.n_per_app = n_per_app
        # Results to match op by op (the reference seed only); None: check
        # the invariants that hold for every seed.
        self.reference = reference
        self.ladder_build_s = 0.0

    def describe(self) -> dict:
        return {"n_per_app": self.n_per_app}

    def ops_per_s(self, rounds: list[Round]) -> float:
        return sum(r.ops for r in rounds) / sum(r.wall for r in rounds)


def app_plans(seed: int, index: int, app, n: int):
    # Plans come from the first N_PER_APP draws, so a smaller n (the smoke
    # test) runs a prefix of the reference plans.
    rng = np.random.default_rng([seed, index])
    return plan_injections(rng, app.golden.instret, max(n, N_PER_APP))[:n]


class _Campaigns(Workload):
    """A round runs one engine campaign per (app, config) on fixed plans."""

    configs: tuple = ()

    def prepare(self) -> None:
        self.apps = {}
        self.plans = {}
        for index, name in enumerate(app_names()):
            app = make_app(name)
            app.golden
            app.functions
            start = perf_counter()
            app.ladder()
            self.ladder_build_s += perf_counter() - start
            warm(app)
            self.apps[name] = app
            self.plans[name] = app_plans(self.seed, index, app, self.n_per_app)
        self.totals: dict[str, CampaignResult] = {}

    def campaign_config(self, workdir: Path, key: str, index: int) -> CampaignConfig:
        raise NotImplementedError

    def run_round(self, index: int, workdir: Path) -> Round:
        rnd = Round(index)
        for name, app in self.apps.items():
            plans = self.plans[name]
            for config in self.configs:
                key = f"{name}/{config.name if config else 'baseline'}"
                cfg = self.campaign_config(workdir, key, index)
                engine = engine_mod.CampaignEngine(config=cfg)
                rnd.ops += len(plans)
                start = perf_counter()
                try:
                    result = engine.run(app, len(plans), self.seed, config, plans=plans)
                    previous = self.totals.get(key)
                    self.totals[key] = (
                        result
                        if previous is None
                        else CampaignResult.merge([previous, result])
                    )
                except Exception as exc:  # every op of a raising campaign failed
                    rnd.wall += perf_counter() - start
                    rnd.fail(len(plans), f"{key}: {type(exc).__name__}: {exc}")
                    continue
                rnd.wall += perf_counter() - start
                self._check(rnd, key, plans, result, engine.stats, cfg)
        return rnd

    def _check(self, rnd: Round, key: str, plans, result, stats, cfg) -> None:
        rows = [injection_row(r) for r in result.results]
        bad = set()
        if result.n != len(plans) or sum(result.counts.values()) != result.n:
            rnd.fail(0, f"{key}: outcome counts do not sum to n")
            bad.update(range(len(plans)))
        bad.update(stats.quarantined)
        bad.update(i for i, r in enumerate(result.results) if r.timed_out)
        if cfg.journal is not None:
            journal = CampaignJournal.load(cfg.journal)
            journaled = {i: injection_row(r) for i, r in journal.pairs()}
            bad.update(i for i, row in enumerate(rows) if journaled.get(i) != row)
            bad.update(i for i in range(len(plans)) if i not in journaled)
            os.unlink(cfg.journal)
        if self.reference is not None:
            expected = self.reference[self.name][key][: len(plans)]
            bad.update(i for i, row in enumerate(rows) if row != expected[i])
            bad.update(range(len(rows), len(plans)))
        if bad:
            rnd.fail(len(bad), f"{key}: {len(bad)} plan(s) differ or did not settle")
        rnd.add("campaigns", 1)
        rnd.add("injections", result.n)
        rnd.add("interventions", sum(r.interventions for r in result.results))
        rnd.add("restores", stats.restored + stats.cold_starts)
        rnd.add("fast_forward", stats.fast_forward_steps)
        rnd.add("shards", len(stats.per_worker_injections))
        rnd.add("shard_seconds", sum(stats.per_worker_seconds))
        if cfg.journal is not None:
            rnd.add("journaled_shards", len(stats.per_worker_injections))
        # Instructions the machine retired for this campaign: each run ends
        # at `steps` and started at its plan's target minus the fast-forward.
        rnd.add(
            "instret",
            sum(r.steps for r in result.results)
            - sum(p.dyn_index - 1 for p in plans)
            + stats.fast_forward_steps,
        )

    def reference_rows(self) -> dict:
        return {
            key: [injection_row(r) for r in result.results]
            for key, result in self.totals.items()
        }


class Table3Serial(_Campaigns):
    name = "table3-serial"
    configs = (LETGO_E,)

    def campaign_config(self, workdir, key, index):
        return CampaignConfig(jobs=1, keep_results=True)


class FanoutJournaled(_Campaigns):
    name = "fanout-journaled"
    jobs = FANOUT_JOBS
    configs = (None, LETGO_B)

    def campaign_config(self, workdir, key, index):
        journal = workdir / f"journal-r{index}-{key.replace('/', '-')}.json"
        return CampaignConfig(jobs=self.jobs, keep_results=True, journal=str(journal))

    def describe(self):
        return {"n_per_app": self.n_per_app, "jobs": self.jobs}


class CRInvivo(Workload):
    name = "cr-invivo"

    def __init__(self, seed, n_per_app=N_PER_APP, reference=None, runs=CR_RUNS):
        super().__init__(seed, n_per_app, reference)
        self.runs = runs

    def describe(self):
        return {"runs_per_group": self.runs, "groups": len(CR_GROUPS)}

    def prepare(self) -> None:
        self.apps = {}
        for name in ("pennant", "hpl"):
            app = make_app(name)
            app.golden
            app.functions
            warm(app)
            self.apps[name] = app
        heat = HeatApp(size=4)
        heat.golden
        heat.functions
        self.apps["heat"] = heat
        self.run_seeds = [
            int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])
            for k in range(self.runs)
        ]
        self.rows: list = []

    def run_round(self, index: int, workdir: Path) -> Round:
        rnd = Round(index)
        self.rows = []
        for k, seed in enumerate(self.run_seeds):
            expected = self.reference[self.name][k] if self.reference else None
            rows = []
            for group, (label, app_name, policy) in enumerate(CR_GROUPS):
                row = self._run(rnd, label, app_name, policy, seed)
                rows.append(row)
                if row is not None and expected is not None and row != expected[group]:
                    rnd.fail(1, f"{label} seed {seed}: {row} != {expected[group]}")
            self.rows.append(rows)
        rnd.wall = sum(rnd.op_seconds)
        return rnd

    def _run(self, rnd: Round, label: str, app_name: str, policy, seed: int):
        """One driven C/R run; its checked fields, or None when it failed."""
        app = self.apps[app_name]
        rnd.ops += 1
        start = perf_counter()
        try:
            if app_name == "heat":
                kwargs = {"letgo": LETGO_E} if policy is ClusterPolicy.CR_LETGO else {}
                result = cluster_driver.drive_cluster(
                    app, CLUSTER_PARAMS, policy, seed=seed, **kwargs
                )
            else:
                kwargs = {"letgo": LETGO_E} if policy is Policy.CR_LETGO else {}
                result = cr_driver.drive(app, CR_PARAMS, policy, seed=seed, **kwargs)
        except Exception as exc:
            rnd.op_seconds.append(perf_counter() - start)
            rnd.fail(1, f"{label} seed {seed}: {type(exc).__name__}: {exc}")
            return None
        rnd.op_seconds.append(perf_counter() - start)
        row = cr_row(result)
        if not self._check(rnd, app_name, policy, result):
            rnd.fail(1, f"{label} seed {seed}: {row} breaks a C/R invariant")
            return None
        return row

    def _check(self, rnd: Round, app_name: str, policy, result) -> bool:
        """Tally *result*; False when it breaks an invariant of every seed."""
        cluster = app_name == "heat"
        app = self.apps[app_name]
        golden = app.golden_steps if cluster else app.golden.instret
        letgo = policy in (Policy.CR_LETGO, ClusterPolicy.CR_LETGO)
        unprotected = policy is Policy.NONE
        ok = (
            result.outcome in CR_OUTCOMES
            and result.useful == golden
            and result.completed == (result.outcome in ("benign", "sdc", "detected"))
            and min(result.checkpoints, result.rollbacks, result.letgo_repairs) >= 0
            and (letgo or result.letgo_repairs == 0)
            and (not unprotected or result.rollbacks == result.checkpoints == 0)
        )
        kind = "cluster" if cluster else "drive"
        rnd.add(f"{kind}_runs", 1)
        rnd.add(f"{kind}_checkpoints", result.checkpoints)
        rnd.add(f"{kind}_rollbacks", result.rollbacks)
        rnd.add("letgo_repairs", result.letgo_repairs)
        # Machine instructions: the run's cost minus the charged costs.
        if cluster:
            p = CLUSTER_PARAMS
            charged = (
                (p.t_chk + p.t_sync) * result.checkpoints
                + p.recovery * result.rollbacks
                + p.t_letgo * result.letgo_repairs
            )
        else:
            p = CR_PARAMS
            charged = (
                p.t_chk * result.checkpoints
                + p.recovery * result.rollbacks
                + p.t_letgo * result.letgo_repairs
            )
        rnd.add("instret", result.cost - charged)
        return ok

    def ops_per_s(self, rounds: list[Round]) -> float:
        # The slowest CR_TRIM of runs (rollback storms, hung repair loops)
        # are left out of count and time alike: a handful of them would
        # otherwise decide the whole window.  Their cost is cr.run_ms_tail.
        times = sorted(t for r in rounds for t in r.op_seconds)
        kept = times[: len(times) - int(len(times) * CR_TRIM)]
        return len(kept) / sum(kept)

    def reference_rows(self) -> list:
        return self.rows


WORKLOADS = {cls.name: cls for cls in (Table3Serial, FanoutJournaled, CRInvivo)}
