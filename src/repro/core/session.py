"""LetGo session: run a process to completion under LetGo supervision.

This is the public entry point of the core package.  It wires together the
monitor (signal interception) and the modifier (state repair) around a
debug session, implementing the full Figure-3 interaction loop:

1. attach, configure signal handling;
2. run; on an intercepted signal, stop;
3. repair state, advance the PC;
4. resume; a *second* crash (or an unhandled signal) terminates the run.

Step 3 is :meth:`LetGoSession.repair`, which the executed C/R loop
(:mod:`repro.checkpoint.driver`) calls too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.analysis.functions import FunctionTable
from repro.core.config import LetGoConfig
from repro.core.modifier import InterventionRecord, Modifier
from repro.core.monitor import Monitor
from repro.machine.debugger import (
    STOP_BUDGET,
    STOP_EXITED,
    STOP_TRAP,
    DebugSession,
)
from repro.machine.process import Process
from repro.machine.signals import Signal, Trap
from repro.telemetry.tracer import NULL_TRACER

#: Final status values of a LetGo-supervised run.
COMPLETED = "completed"      # program halted cleanly
TERMINATED = "terminated"    # killed by a signal LetGo did not (re)handle
HUNG = "hung"                # instruction budget (or wall-clock deadline) exhausted

#: Instructions run between wall-clock deadline checks (~tens of ms of
#: interpreted execution); only used when a deadline is supplied, so
#: deadline-free runs stay bit-for-bit deterministic.
WATCHDOG_SLICE = 1 << 18


@dataclass
class LetGoRunReport:
    """Everything observable about one supervised run."""

    status: str
    steps: int
    interventions: list[InterventionRecord] = field(default_factory=list)
    final_signal: Signal | None = None
    exit_code: int | None = None
    output: list[tuple[str, int | float]] = field(default_factory=list)
    timed_out: bool = False      # HUNG because the wall-clock deadline passed

    @property
    def intervened(self) -> bool:
        """True if LetGo elided at least one crash."""
        return bool(self.interventions)

    @property
    def gave_up(self) -> bool:
        """True if LetGo intervened but the program still died (double crash)."""
        return self.status == TERMINATED and self.intervened

    def repair_seconds(self) -> float:
        """Total wall-clock time spent inside the modifier."""
        return sum(r.repair_seconds for r in self.interventions)


class LetGoSession:
    """Supervise processes of one program image under a LetGo config.

    The function table is computed once (the paper's one-time PIN pass)
    and shared across runs.
    """

    def __init__(self, config: LetGoConfig, functions: FunctionTable):
        self.config = config
        self.monitor = Monitor(config)
        self.modifier = Modifier(config, functions)

    def run(
        self,
        process: Process,
        max_steps: int,
        *,
        deadline: float | None = None,
        tracer=None,
    ) -> LetGoRunReport:
        """Run *process* under LetGo until exit, death, budget, or deadline.

        ``deadline`` is an absolute :func:`~time.perf_counter` instant: a
        wall-clock watchdog complementing the instruction budget, so a
        pathological repaired run (e.g. a corrupted loop bound far beyond
        the budget's intent) cannot stall its host forever.  When set, the
        budget is consumed in :data:`WATCHDOG_SLICE` chunks and the clock
        is checked between chunks; expiry reports ``HUNG`` with
        ``timed_out=True``.  ``None`` (the default) keeps runs fully
        deterministic.

        ``tracer`` (a :class:`repro.telemetry.Tracer`) records per-repair
        spans plus signal-disposition and heuristic-firing counters; the
        default null tracer costs nothing and never alters control flow.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        session = self.monitor.attach(process)
        interventions: list[InterventionRecord] = []
        remaining = max_steps
        total_steps = 0
        final_signal: Signal | None = None
        timed_out = False
        while True:
            if deadline is not None and perf_counter() >= deadline:
                status, timed_out = HUNG, True
                break
            chunk = (
                remaining
                if deadline is None
                else min(remaining, WATCHDOG_SLICE)
            )
            event = session.cont(chunk)
            total_steps += event.steps
            remaining -= event.steps
            if event.kind == STOP_EXITED:
                status = COMPLETED
                break
            if event.kind == STOP_BUDGET:
                if remaining > 0:
                    continue  # artificial watchdog-slice boundary, not a hang
                status = HUNG
                break
            assert event.kind == STOP_TRAP and event.trap is not None
            trap = event.trap
            allowance = (
                self.config.max_interventions - len(interventions)
                if remaining > 0
                else 0
            )
            record = self.repair(session, trap, allowance, tracer)
            if record is None:
                session.deliver_default(trap)
                status, final_signal = TERMINATED, trap.signal
                break
            interventions.append(record)
        return LetGoRunReport(
            status=status,
            steps=total_steps,
            interventions=interventions,
            final_signal=final_signal,
            exit_code=process.exit_code if status == COMPLETED else None,
            output=list(process.output),
            timed_out=timed_out,
        )

    def repair(
        self,
        session: DebugSession,
        trap: Trap,
        allowance: int,
        tracer=NULL_TRACER,
    ) -> InterventionRecord | None:
        """Repair the crash *trap* stopped *session* at, if policy allows.

        The one LetGo repair step, shared by :meth:`run` and the executed
        C/R loop: the monitor must intercept the signal and *allowance*
        (repairs still permitted) must be positive; otherwise nothing is
        touched and ``None`` tells the caller to fall back to the signal's
        default (kill, or roll back).  ``tracer`` counts the signal's
        disposition on every call, and times the repair and counts the
        heuristics that fired when one is made.
        """
        intercepted = self.monitor.intercepts(trap.signal)
        tracer.count(
            f"signal:{trap.signal.name}:"
            + ("intercept" if intercepted else "default")
        )
        if not intercepted or allowance <= 0:
            return None
        with tracer.span("repair"):
            record = self.modifier.repair(session, trap)
        tracer.count("intervention")
        if record.h1_fired:
            tracer.count("heuristic:H1")
        if record.h2_fired:
            tracer.count("heuristic:H2")
        return record


def run_under_letgo(
    process: Process,
    config: LetGoConfig,
    functions: FunctionTable,
    max_steps: int,
) -> LetGoRunReport:
    """One-shot convenience wrapper around :class:`LetGoSession`."""
    return LetGoSession(config, functions).run(process, max_steps)


__all__ = [
    "LetGoSession",
    "LetGoRunReport",
    "run_under_letgo",
    "COMPLETED",
    "TERMINATED",
    "HUNG",
    "WATCHDOG_SLICE",
]
