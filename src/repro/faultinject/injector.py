"""Single-fault injection runs (paper section 5.4, phase 2).

A run advances a fresh process to the planned dynamic instruction, flips
the planned bit in the register that instruction produced, and then hands
the rest of the run to a :class:`LetGoSession`.  The no-LetGo baseline is
the same session under :data:`BASELINE`, whose empty signal table leaves
every signal at its default disposition: the first trap kills the process.
The resulting :class:`InjectionResult` carries the Figure-4 leaf plus
enough detail for per-site analysis.

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
from repro.core.config import BASELINE, LetGoConfig
from repro.core.session import COMPLETED, HUNG, LetGoRunReport, LetGoSession
from repro.errors import InjectionError
from repro.faultinject.fault_model import InjectionPlan, flip_bit, select_target
from repro.faultinject.outcomes import Outcome, classify_output
from repro.machine.debugger import (
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
    """Execute one injection run; ``config=None`` is the no-LetGo baseline
    (:data:`~repro.core.config.BASELINE`).

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
    (``advance-to-site``, ``post-fault``, ``repair``, ``acceptance-check``);
    the default null tracer costs nothing and never alters the result.
    Outcome and first-signal counters are the campaign engine's, read
    from the results.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    config = config or BASELINE
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
        with tracer.span("post-fault"):
            report = LetGoSession(config, app.functions).run(
                process, budget, deadline=deadline, tracer=tracer
            )
        result = InjectionResult(
            outcome=_classify(app, config, report, tracer),
            plan=plan,
            target_pc=target_pc,
            target_reg=target_reg,
            first_signal=(
                report.interventions[0].signal
                if report.intervened
                else report.final_signal
            ),
            interventions=len(report.interventions),
            steps=process.cpu.instret,
            timed_out=report.timed_out,
        )
    return result


def _classify(
    app: MiniApp, config: LetGoConfig, report: LetGoRunReport, tracer
) -> Outcome:
    """Figure-4 leaf of a post-fault run."""
    if report.status == COMPLETED:
        with tracer.span("acceptance-check"):
            return classify_output(app, report.output, report.intervened)
    if report.status == HUNG:
        return Outcome.C_HANG if report.intervened else Outcome.HANG
    if report.intervened:
        return Outcome.DOUBLE_CRASH
    # killed by the first signal: the default disposition, or a signal
    # outside the config's table (e.g. SIGFPE)
    return Outcome.CRASH_UNHANDLED if config.handled_signals else Outcome.CRASH


__all__ = ["InjectionResult", "run_injection"]
