"""Single-fault injection runs (paper section 5.4, phase 2).

A run advances a fresh process to the planned dynamic instruction, flips
the planned bit in the register that instruction produced, and then either
lets the default OS behaviour apply (baseline: any trap kills the process)
or hands supervision to LetGo.  The resulting :class:`InjectionResult`
carries the Figure-4 leaf plus enough detail for per-site analysis.

Runs accept an optional **wall-clock watchdog** (``wall_clock_limit``
seconds): the instruction budget already converts infinite loops into
``HANG``, but a pathological repaired run can be *slow* rather than
unbounded -- e.g. a corrupted trip count that still fits the budget yet
takes minutes of interpreter time.  The watchdog caps real time per run so
one bad injection cannot stall a campaign worker forever.  Expired runs
classify as ``HANG`` (with ``timed_out=True`` for observability); the
default of ``None`` keeps runs bit-for-bit deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.apps.base import MiniApp
from repro.core.config import LetGoConfig
from repro.core.session import COMPLETED, HUNG, WATCHDOG_SLICE, LetGoSession
from repro.errors import InjectionError
from repro.faultinject.fault_model import InjectionPlan, flip_bit, select_target
from repro.faultinject.outcomes import Outcome, classify_finished
from repro.machine.debugger import (
    STOP_BUDGET,
    STOP_EXITED,
    STOP_STEPS_DONE,
    STOP_TRAP,
    DebugSession,
    StopEvent,
)
from repro.machine.signals import Signal
from repro.telemetry.tracer import NULL_TRACER


@dataclass
class InjectionResult:
    """One fault-injection run, fully described."""

    outcome: Outcome
    plan: InjectionPlan
    target_pc: int | None = None        # static site of the corrupted instr
    target_reg: tuple[str, int] | None = None
    first_signal: Signal | None = None  # first crash signal, if any
    interventions: int = 0              # LetGo repairs performed
    steps: int = 0                      # total retired instructions
    timed_out: bool = False             # wall-clock watchdog expired


def _probed_steps(
    session: DebugSession, steps: int, tracer
) -> StopEvent:
    """``session.run_steps(steps)`` in instret buckets, emitting progress.

    One ``progress`` instant per :attr:`Tracer.probe_interval` retired
    instructions -- the golden-prefix heartbeat a stalled worker shows in
    its trace.  Chunking through the exact-budget ``run_steps`` contract
    leaves the architectural outcome identical on both backends.
    """
    cpu = session.process.cpu
    interval = tracer.probe_interval
    remaining = steps
    while True:
        event = session.run_steps(min(interval, remaining))
        tracer.instant("progress", instret=cpu.instret)
        remaining -= event.steps
        if event.kind != STOP_STEPS_DONE or remaining <= 0:
            return event


def _advance_and_flip(
    session: DebugSession, plan: InjectionPlan, tracer=NULL_TRACER
) -> tuple[int, tuple[str, int]] | None:
    """Run to the injection point and apply the flip.

    Returns (target_pc, target_reg), or None if the program halted before
    an eligible instruction appeared.  The pre-injection path is the golden
    path, so traps are impossible here by construction.

    The session may already be part-way down the golden path (restored
    from a snapshot-ladder rung); only the remaining prefix is replayed.
    """
    cpu = session.process.cpu
    remaining = plan.dyn_index - 1 - cpu.instret
    if remaining < 0:
        raise InjectionError(
            f"session already past the injection point "
            f"(instret={cpu.instret}, dyn_index={plan.dyn_index})"
        )
    if remaining > 0:
        if tracer.probe_interval > 0:
            event = _probed_steps(session, remaining, tracer)
        else:
            event = session.run_steps(remaining)
        if event.kind == STOP_EXITED:
            return None
        if event.kind != STOP_STEPS_DONE:
            raise InjectionError(
                f"unexpected stop {event.kind!r} on the golden prefix"
            )
    instrs = session.process.program.instrs
    while True:
        pc = cpu.pc
        if not 0 <= pc < len(instrs):
            # A malformed image can step to a pc outside it without
            # trapping until the next fetch; surface that as a golden-path
            # failure instead of an IndexError (or a bogus negative-index
            # fetch) on the line below.
            raise InjectionError(
                f"golden prefix walked off the image (pc={pc})"
            )
        instr = instrs[pc]
        event = session.run_steps(1)
        if event.kind == STOP_TRAP:  # pragma: no cover - golden path
            raise InjectionError(f"golden prefix trapped: {event.trap}")
        target = select_target(instr, plan.reg_choice)
        if target is not None:
            for bit in plan.bits:
                flip_bit(cpu, target[0], target[1], bit)
            return pc, target
        if event.kind == STOP_EXITED:
            return None


def _cont_watchdog(
    session: DebugSession, budget: int, deadline: float | None
) -> tuple[StopEvent, bool]:
    """``session.cont(budget)`` with an optional wall-clock deadline.

    Returns (event, timed_out).  With no deadline this is exactly one
    ``cont`` call; with one, the budget is consumed in watchdog slices and
    the clock checked between them, so an expired run surfaces as a
    budget-style stop at the next slice boundary.
    """
    if deadline is None:
        return session.cont(budget), False
    remaining = budget
    while True:
        if perf_counter() >= deadline:
            return (
                StopEvent(STOP_BUDGET, 0, pc=session.process.cpu.pc),
                True,
            )
        event = session.cont(min(remaining, WATCHDOG_SLICE))
        remaining -= event.steps
        if event.kind != STOP_BUDGET or remaining <= 0:
            return event, False


def run_injection(
    app: MiniApp,
    plan: InjectionPlan,
    config: LetGoConfig | None = None,
    *,
    session: DebugSession | None = None,
    wall_clock_limit: float | None = None,
    backend: str | None = None,
    tracer=None,
) -> InjectionResult:
    """Execute one injection run; ``config=None`` is the no-LetGo baseline.

    ``session`` optionally supplies a pre-positioned golden-path session
    (e.g. restored from a snapshot-ladder rung at or before the plan's
    injection point); by default a fresh process is loaded and the whole
    prefix replayed.  Results are identical either way.

    ``wall_clock_limit`` caps the post-injection continuation in real
    seconds (the golden prefix is bounded by construction); expiry
    classifies as ``HANG`` with ``timed_out=True``.

    ``backend`` picks the execution engine for the freshly loaded process
    (ignored when *session* is supplied); outcomes are backend-invariant.

    ``tracer`` (a :class:`repro.telemetry.Tracer`) times the run's phases
    (``advance-to-site``, ``post-fault``, ``repair``, ``acceptance-check``)
    and tallies outcome / first-signal counters; the default null tracer
    costs nothing and never alters the result.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    deadline = (
        perf_counter() + wall_clock_limit
        if wall_clock_limit is not None
        else None
    )
    if session is None:
        session = DebugSession(app.load(backend))
    process = session.process
    with tracer.span("advance-to-site"):
        placed = _advance_and_flip(session, plan, tracer)
    if placed is None:
        result = InjectionResult(
            outcome=Outcome.NOT_INJECTED,
            plan=plan,
            steps=process.cpu.instret,
        )
    else:
        target_pc, target_reg = placed
        tracer.instant("flip", pc=target_pc, reg=target_reg[0])
        budget = max(app.max_steps - process.cpu.instret, 1)
        if config is None:
            result = _finish_baseline(
                app, session, plan, target_pc, target_reg, budget, deadline,
                tracer,
            )
        else:
            result = _finish_letgo(
                app, session, plan, target_pc, target_reg, budget, config,
                deadline, tracer,
            )
    tracer.count(f"outcome:{result.outcome.value}")
    if result.first_signal is not None:
        tracer.count(f"first-signal:{result.first_signal.name}")
    return result


def _finish_baseline(
    app: MiniApp,
    session: DebugSession,
    plan: InjectionPlan,
    target_pc: int,
    target_reg: tuple[str, int],
    budget: int,
    deadline: float | None = None,
    tracer=NULL_TRACER,
) -> InjectionResult:
    process = session.process
    with tracer.span("post-fault"):
        event, timed_out = _cont_watchdog(session, budget, deadline)
    if event.kind == STOP_TRAP:
        assert event.trap is not None
        session.deliver_default(event.trap)
        outcome: Outcome = Outcome.CRASH
        signal: Signal | None = event.trap.signal
    elif event.kind == STOP_EXITED:
        output = list(process.output)
        with tracer.span("acceptance-check"):
            outcome = classify_finished(
                passed_check=app.acceptance_check(output),
                matches_golden=app.matches_golden(output),
                continued=False,
            )
        signal = None
    else:
        outcome = Outcome.HANG
        signal = None
    return InjectionResult(
        outcome=outcome,
        plan=plan,
        target_pc=target_pc,
        target_reg=target_reg,
        first_signal=signal,
        steps=process.cpu.instret,
        timed_out=timed_out,
    )


def _finish_letgo(
    app: MiniApp,
    session: DebugSession,
    plan: InjectionPlan,
    target_pc: int,
    target_reg: tuple[str, int],
    budget: int,
    config: LetGoConfig,
    deadline: float | None = None,
    tracer=NULL_TRACER,
) -> InjectionResult:
    process = session.process
    with tracer.span("post-fault"):
        report = LetGoSession(config, app.functions).run(
            process, budget, deadline=deadline, tracer=tracer
        )
    if report.status == COMPLETED:
        output = list(process.output)
        with tracer.span("acceptance-check"):
            outcome = classify_finished(
                passed_check=app.acceptance_check(output),
                matches_golden=app.matches_golden(output),
                continued=report.intervened,
            )
    elif report.status == HUNG:
        outcome = Outcome.C_HANG if report.intervened else Outcome.HANG
    elif report.intervened:
        outcome = Outcome.DOUBLE_CRASH
    else:
        # first signal was outside LetGo's table (e.g. SIGFPE)
        outcome = Outcome.CRASH_UNHANDLED
    first_signal = (
        report.interventions[0].signal
        if report.intervened
        else report.final_signal
    )
    return InjectionResult(
        outcome=outcome,
        plan=plan,
        target_pc=target_pc,
        target_reg=target_reg,
        first_signal=first_signal,
        interventions=len(report.interventions),
        steps=process.cpu.instret,
        timed_out=report.timed_out,
    )


__all__ = ["InjectionResult", "run_injection"]
