"""Per-layer measurement from outside the program.

:class:`Spans` installs a timing wrapper at each layer boundary -- at the
attribute the caller actually resolves, which is a class method for some
layers and a module-level import alias for others -- and keeps one span
(name, start, end, parent, info) per call in memory.  ``src/`` is never
edited; :meth:`Spans.uninstall` puts every original back.

:func:`layer_metrics` turns the spans into the per-layer table, and
:func:`reconcile` compares the wrapper counts with the program's own exact
tallies.  Without that check a wrapper installed at an attribute nobody
calls reads as a layer that costs nothing.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
from pathlib import Path
from time import perf_counter

from repro.apps import app_names, make_app
from repro.apps.base import MiniApp
from repro.checkpoint import driver as cr_driver
from repro.core.modifier import Modifier
from repro.core.session import LetGoSession
from repro.faultinject import engine as engine_mod
from repro.faultinject.campaign import CampaignResult
from repro.faultinject.journal import CampaignJournal
from repro.machine.cluster import Cluster
from repro.machine.debugger import DebugSession
from repro.parallel import driver as cluster_driver
from repro.parallel.app import HeatApp, ParallelApp

NAME, START, END, PARENT, INFO = range(5)

MACHINE = ("machine.run_steps", "machine.cont", "machine.cluster_run")
RESTORES = (
    "checkpoint.restore_into",
    "checkpoint.restore",
    "checkpoint.cluster_restore",
)
SNAPSHOTS = ("checkpoint.snapshot", "checkpoint.cluster_snapshot")
CR_RUNS = ("cr.drive", "cr.drive_cluster")

#: Timed golden runs per app and backend (median taken).
SUBSTRATE_REPEATS = 3
#: On/off campaign pairs behind telemetry.overhead_ratio (median taken).
TELEMETRY_PAIRS = 3
#: Percentiles a tail may be stated at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _steps(args, result):
    return result.steps


def _app_name(args, result):
    return args[0].name


def _engine_stats(args, result):
    stats = args[0].stats
    return {
        "jobs": stats.jobs,
        "shard_seconds": sum(stats.per_worker_seconds),
        "shards": len(stats.per_worker_injections),
    }


def _journal_size(args, result):
    return os.path.getsize(args[0].path)


def _cr_result(args, result):
    return {
        "checkpoints": result.checkpoints,
        "rollbacks": result.rollbacks,
        "letgo_repairs": result.letgo_repairs,
    }


def _app_classes() -> list[type]:
    """Every class that defines an acceptance check the workloads call."""
    leaves = {type(make_app(name)) for name in app_names()} | {HeatApp}
    return sorted(leaves, key=lambda cls: cls.__name__)


def boundaries() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, info extractor) of every wrapper."""
    points = [
        ("machine.run_steps", DebugSession, "run_steps", _steps),
        ("machine.cont", DebugSession, "cont", _steps),
        ("machine.cluster_run", Cluster, "run", _steps),
        ("checkpoint.restore_into", engine_mod, "restore_into", None),
        ("checkpoint.snapshot", cr_driver, "snapshot", None),
        ("checkpoint.restore", cr_driver, "restore", None),
        ("checkpoint.cluster_snapshot", cluster_driver, "take_cluster_snapshot", None),
        ("checkpoint.cluster_restore", cluster_driver, "restore_cluster", None),
        ("injector.run_injection", engine_mod, "run_injection", _app_name),
        ("core.session", LetGoSession, "run", None),
        ("core.repair", Modifier, "repair", None),
        ("engine.run", engine_mod.CampaignEngine, "run", _engine_stats),
        ("engine.merge", CampaignResult, "merge", None),
        ("journal.record_shard", CampaignJournal, "record_shard", _journal_size),
        ("cr.drive", cr_driver, "drive", _cr_result),
        ("cr.drive_cluster", cluster_driver, "drive_cluster", _cr_result),
    ]
    for cls in _app_classes():
        name = f"apps.acceptance_check.{cls.__name__}"
        points.append((name, cls, "acceptance_check", None))
    for cls in (MiniApp, ParallelApp):
        name = f"apps.matches_golden.{cls.__name__}"
        points.append((name, cls, "matches_golden", None))
    return points


class Spans:
    """Timing wrappers at the layer boundaries, and the spans they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, owner, attr, info in boundaries():
            self._wrap(name, owner, attr, info)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name: str, owner, attr: str, info) -> None:
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = perf_counter()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._undo.append((owner, attr, raw))

    def fired(self) -> dict[str, int]:
        counts = {name: 0 for name, *_ in boundaries()}
        for span in self.spans:
            counts[span[NAME]] += 1
        return counts

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as out:
            for index, (name, start, end, parent, info) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start_us": round((start - origin) * 1e6, 3),
                    "dur_us": round((end - start) * 1e6, 3),
                    "parent": parent,
                }
                if info is not None:
                    record["info"] = info
                out.write(json.dumps(record) + "\n")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (not empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond
    it; (100, max) when there are too few samples for any."""
    for pct in TAIL_PERCENTILES:
        if len(values) * (1 - pct / 100.0) >= 10:
            return pct, percentile(values, pct)
    return 100.0, max(values)


def layer_metrics(
    spans: list[list], tally: dict, extra: dict
) -> dict[str, tuple[float, str]]:
    """The per-layer metric table, name -> (value, unit)."""
    by_name: dict[str, list[int]] = {}
    child_time = [0.0] * len(spans)
    injection = [-1] * len(spans)  # enclosing run_injection span, if any
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)
        parent = span[PARENT]
        if parent >= 0:
            child_time[parent] += span[END] - span[START]
        if span[NAME] == "injector.run_injection":
            injection[index] = index
        elif parent >= 0:
            injection[index] = injection[parent]

    def pick(*names):
        return [spans[i] for name in names for i in by_name.get(name, [])]

    def dur(selected):
        return sum(s[END] - s[START] for s in selected)

    def mean_us(selected):
        return dur(selected) / len(selected) * 1e6 if selected else 0.0

    out: dict[str, tuple[float, str]] = {}
    machine = pick(*MACHINE)
    instret = sum(s[INFO] for s in machine)
    busy = dur(machine)
    out["machine.instret"] = (instret, "count")
    out["machine.busy_s"] = (busy, "s")
    out["machine.ns_per_instr"] = (busy / instret * 1e9 if instret else 0.0, "ns")
    for backend in ("compiled", "interpreter"):
        out[f"machine.instr_per_s.{backend}"] = (extra["instr_per_s"][backend], "1/s")

    restores, snapshots = pick(*RESTORES), pick(*SNAPSHOTS)
    out["checkpoint.restore_calls"] = (len(restores), "count")
    out["checkpoint.restore_us"] = (mean_us(restores), "us")
    out["checkpoint.snapshot_calls"] = (len(snapshots), "count")
    out["checkpoint.snapshot_us"] = (mean_us(snapshots), "us")
    out["checkpoint.fast_forward_instret"] = (tally.get("fast_forward", 0), "count")
    out["checkpoint.ladder_build_s"] = (extra["ladder_build_s"], "s")

    inside = [
        i for name in ("machine.run_steps", "machine.cont")
        for i in by_name.get(name, []) if injection[i] >= 0
    ]
    advance = [spans[i] for i in inside if spans[i][NAME] == "machine.run_steps"]
    post = [spans[i] for i in inside if spans[i][NAME] == "machine.cont"]
    runs = pick("injector.run_injection")
    op_ms = [(s[END] - s[START]) * 1e3 for s in runs]
    out["injector.advance_s"] = (dur(advance), "s")
    out["injector.post_fault_s"] = (dur(post), "s")
    out["injector.post_fault_instret"] = (sum(s[INFO] for s in post), "count")
    out.update(_timing("injector.op", op_ms))
    for name in app_names():
        out[f"injector.app_s.{name}"] = (dur([s for s in runs if s[INFO] == name]), "s")

    repairs = pick("core.repair")
    out["core.repairs"] = (len(repairs), "count")
    out["core.repair_us"] = (mean_us(repairs), "us")
    sessions = by_name.get("core.session", [])
    out["core.session_self_s"] = (
        sum(spans[i][END] - spans[i][START] - child_time[i] for i in sessions),
        "s",
    )

    checks = [
        s for s in spans
        if s[NAME].startswith("apps.")
        and not (s[PARENT] >= 0 and spans[s[PARENT]][NAME].startswith("apps."))
    ]
    out["apps.check_s"] = (dur(checks), "s")

    engine_runs = pick("engine.run")
    wall = [(s[END] - s[START], s[INFO]) for s in engine_runs]
    out["engine.overhead_s"] = (
        sum(w - i["shard_seconds"] / i["jobs"] for w, i in wall), "s"
    )
    capacity = sum(w * i["jobs"] for w, i in wall)
    in_shards = sum(i["shard_seconds"] for _, i in wall)
    out["engine.utilization"] = (in_shards / capacity if capacity else 0.0, "ratio")
    out["engine.shards"] = (sum(i["shards"] for _, i in wall), "count")
    out["engine.merge_ms"] = (dur(pick("engine.merge")) * 1e3, "ms")

    appends = pick("journal.record_shard")
    out["journal.append_ms"] = (mean_us(appends) / 1e3, "ms")
    out["journal.bytes_written"] = (sum(s[INFO] for s in appends), "bytes")

    cr_runs = pick(*CR_RUNS)
    out.update(_timing("cr.run", [(s[END] - s[START]) * 1e3 for s in cr_runs]))
    for key in ("rollbacks", "checkpoints", "letgo_repairs"):
        out[f"cr.{key}"] = (sum(s[INFO][key] for s in cr_runs), "count")

    out["telemetry.overhead_ratio"] = (extra["telemetry_ratio"], "ratio")
    out["bench.trace_overhead_ratio"] = (extra["trace_ratio"], "ratio")
    return out


def _timing(prefix: str, values_ms: list[float]) -> dict[str, tuple[float, str]]:
    if not values_ms:
        return {
            f"{prefix}_ms_p50": (0.0, "ms"),
            f"{prefix}_ms_tail": (0.0, "ms"),
            f"{prefix}_ms_tail_pct": (0.0, "%"),
            f"{prefix}_samples": (0, "count"),
        }
    pct, value = tail(values_ms)
    return {
        f"{prefix}_ms_p50": (percentile(values_ms, 50.0), "ms"),
        f"{prefix}_ms_tail": (value, "ms"),
        f"{prefix}_ms_tail_pct": (pct, "%"),
        f"{prefix}_samples": (len(values_ms), "count"),
    }


def substrate_rates() -> dict[str, float]:
    """Instructions per second of each backend over the six apps' golden runs."""
    from repro.machine.compiled import BACKENDS
    from repro.machine.process import Process

    rates = {}
    for backend in sorted(BACKENDS):
        instret = seconds = 0.0
        for name in app_names():
            app = make_app(name)
            times = []
            # The first run fills the compiled backend's lazy code cache.
            for _ in range(1 + SUBSTRATE_REPEATS):
                process = Process.load(app.program, backend=backend)
                start = perf_counter()
                process.cpu.run(app.max_steps)
                times.append(perf_counter() - start)
                if process.cpu.instret != app.golden.instret:
                    raise RuntimeError(f"{name} golden run on {backend} diverged")
            seconds += statistics.median(times[1:])
            instret += app.golden.instret
        rates[backend] = instret / seconds
    return rates


def telemetry_ratio(app, plans, seed: int, config) -> float:
    """Campaign wall with telemetry on over off: the median of
    ``TELEMETRY_PAIRS`` back-to-back pairs, alternating which runs first."""
    from repro.faultinject.campaign import CampaignConfig

    ratios = []
    for pair in range(TELEMETRY_PAIRS):
        wall = {}
        for telemetry in (pair % 2 == 1, pair % 2 == 0):
            cfg = CampaignConfig(jobs=1, telemetry=telemetry)
            engine = engine_mod.CampaignEngine(config=cfg)
            start = perf_counter()
            engine.run(app, len(plans), seed, config, plans=plans)
            wall[telemetry] = perf_counter() - start
        ratios.append(wall[True] / wall[False])
    return statistics.median(ratios)


#: Wrappers each workload must see fire; the fan-out's per-injection
#: layers run in worker processes the parent cannot observe.
EXPECTED = {
    "table3-serial": [
        "machine.run_steps", "machine.cont", "checkpoint.restore_into",
        "injector.run_injection", "core.session", "core.repair",
        "engine.run", "engine.merge", "apps.matches_golden.MiniApp",
    ],
    "fanout-journaled": ["engine.run", "engine.merge", "journal.record_shard"],
    "cr-invivo": [
        "machine.run_steps", "machine.cluster_run", "checkpoint.snapshot",
        "checkpoint.restore", "checkpoint.cluster_snapshot",
        "checkpoint.cluster_restore", "core.repair", "cr.drive",
        "cr.drive_cluster", "apps.matches_golden.MiniApp",
        "apps.matches_golden.ParallelApp", "apps.acceptance_check.HeatApp",
        "apps.acceptance_check.Pennant", "apps.acceptance_check.Hpl",
    ],
}


def expected_fired(workload: str) -> list[str]:
    names = list(EXPECTED[workload])
    if workload == "table3-serial":
        names += [
            f"apps.acceptance_check.{cls.__name__}"
            for cls in _app_classes() if issubclass(cls, MiniApp)
        ]
    return names


def reconcile(
    workload: str, fired: dict[str, int], tally: dict, metrics: dict
) -> list[str]:
    """Every way the wrapper counts disagree with the program's tallies."""
    problems = [
        f"wrapper {name} never fired"
        for name in expected_fired(workload)
        if not fired[name]
    ]

    def exact(key: str) -> int:
        return tally.get(key, 0)

    checks = []  # (what, wrappers saw, the program reports)
    if workload in ("table3-serial", "fanout-journaled"):
        checks += [
            ("engine.run calls", fired["engine.run"], exact("campaigns")),
            (
                "record_shard calls",
                fired["journal.record_shard"],
                exact("journaled_shards"),
            ),
            ("engine.shards", metrics["engine.shards"][0], exact("shards")),
        ]
    if workload == "table3-serial":
        checks += [
            (
                "run_injection calls",
                fired["injector.run_injection"],
                exact("injections"),
            ),
            ("restore calls", fired["checkpoint.restore_into"], exact("restores")),
            ("Modifier.repair calls", fired["core.repair"], exact("interventions")),
            ("machine.instret", metrics["machine.instret"][0], exact("instret")),
        ]
    if workload == "cr-invivo":
        checks += [
            ("drive calls", fired["cr.drive"], exact("drive_runs")),
            ("drive_cluster calls", fired["cr.drive_cluster"], exact("cluster_runs")),
            ("Modifier.repair calls", fired["core.repair"], exact("letgo_repairs")),
            (
                "C/R snapshot calls",
                fired["checkpoint.snapshot"],
                exact("drive_checkpoints") + exact("drive_runs"),
            ),
            (
                "C/R restore calls",
                fired["checkpoint.restore"],
                exact("drive_rollbacks"),
            ),
            (
                "cluster snapshot calls",
                fired["checkpoint.cluster_snapshot"],
                exact("cluster_checkpoints") + exact("cluster_runs"),
            ),
            (
                "cluster restore calls",
                fired["checkpoint.cluster_restore"],
                exact("cluster_rollbacks"),
            ),
            ("machine.instret", metrics["machine.instret"][0], exact("instret")),
        ]
    problems += [
        f"{what}: wrappers saw {seen}, the program reports {reported}"
        for what, seen, reported in checks
        if seen != reported
    ]
    return problems
