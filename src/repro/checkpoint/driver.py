"""Executed checkpoint/restart: the Figure-1 story, run for real.

One C/R loop drives a *machine* with periodic checkpoints, Poisson fault
arrivals (single bit flips in the register the current instruction
produces), and one of three failure policies:

* ``NONE``   -- no fault tolerance: the first crash kills the run;
* ``CR``     -- roll back to the last checkpoint on every crash;
* ``CR_LETGO`` -- attempt a LetGo repair first; roll back only if the
  repair fails (double crash) or the signal is unhandled.

A machine is one :class:`MiniApp` process (:func:`drive`, 1 rank) or an
SPMD cluster of a ``ParallelApp`` (``repro.parallel.drive_cluster``, N
ranks, coordinated checkpoints and global rollback).  Repairs go through
:meth:`LetGoSession.repair`, the same step a supervised run takes.

Time is measured in *instructions* (the substrate's clock): checkpoint,
recovery and repair costs are charged in instruction units, so measured
efficiency = useful work / total cost is directly comparable across
policies and against the Figure-6 analytical model's predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.apps.base import MiniApp
from repro.checkpoint.snapshot import restore, snapshot
from repro.core.config import LetGoConfig
from repro.core.session import LetGoSession
from repro.errors import SimulationError
from repro.faultinject.fault_model import flip_bit, select_target
from repro.faultinject.outcomes import classify_output
from repro.isa.instructions import Op
from repro.machine.debugger import STOP_EXITED, STOP_TRAP, DebugSession

if TYPE_CHECKING:  # parallel.driver imports this module; break the cycle
    from repro.parallel.app import ParallelApp

#: Event kind of a machine whose live ranks all wait on empty queues.
DEADLOCK = "deadlock"

#: Instructions whose elision tears the message protocol: skipping a
#: message does not perturb a number, it breaks the synchronisation
#: structure, and the resulting deadlocks cost more than the rollback
#: LetGo avoided.  The loop refuses to repair them unless asked to.
COMM_OPS = frozenset({Op.SEND, Op.FSEND, Op.RECV, Op.FRECV})


class Policy(Enum):
    """Failure-handling policy for a run."""

    NONE = "none"
    CR = "cr"
    CR_LETGO = "cr+letgo"


@dataclass(frozen=True)
class CRParams:
    """Platform parameters, in (machine-total) instruction units.

    ``interval`` is the useful work between checkpoints; ``t_chk`` /
    ``t_r`` / ``t_letgo`` are the charged costs of a checkpoint write, a
    recovery, and one LetGo repair; ``t_sync`` is the extra coordination
    cost a cluster pays on every checkpoint and recovery.
    """

    interval: int
    t_chk: int
    t_r: int | None = None       # default: t_chk
    t_letgo: int = 0
    mtbf_faults: float = 50_000.0  # mean instructions between faults
    t_sync: int = 0

    def __post_init__(self) -> None:
        if self.interval <= 0 or self.t_chk < 0 or self.mtbf_faults <= 0:
            raise SimulationError("invalid CRParams")

    @property
    def recovery(self) -> int:
        return (self.t_chk if self.t_r is None else self.t_r) + self.t_sync


@dataclass
class CRRunResult:
    """Everything observable about one driven run."""

    policy: Policy
    completed: bool
    outcome: str                 # benign|sdc|detected|dead|deadlocked|hung
    useful: int                  # golden dynamic instructions (work delivered)
    cost: int                    # total charged instruction units
    size: int = 1                # ranks of the machine
    checkpoints: int = 0
    rollbacks: int = 0
    deadlock_rollbacks: int = 0
    restarts: int = 0            # fell back to the initial state (poisoned ckpt)
    faults_injected: int = 0
    letgo_repairs: int = 0
    letgo_giveups: int = 0
    output: list = field(default_factory=list, repr=False)

    @property
    def efficiency(self) -> float:
        """useful / cost; zero for runs that never completed."""
        if not self.completed or self.cost <= 0:
            return 0.0
        return self.useful / self.cost


class Machine(Protocol):
    """What the C/R loop drives: an application running on *size* ranks.

    ``run`` returns an event with ``kind`` (``exited`` / ``trap`` /
    ``deadlock`` / anything else for a finished stride), ``steps`` and
    ``trap``.  ``restart_after`` maps a failure kind to how many such
    failures since a checkpoint mark the checkpoint as poisoned, so the
    run restarts from its initial state instead.
    """

    app: MiniApp | ParallelApp
    useful: int
    size: int
    restart_after: dict[str, int]

    def run(self, steps: int): ...

    def checkpoint(self): ...

    def rollback(self, snap) -> None: ...

    def trap_session(self, event) -> DebugSession: ...

    def live_cpus(self) -> list: ...

    def outputs(self) -> list: ...


class ProcessMachine:
    """A :class:`MiniApp` process: the 1-rank machine.

    A process never deadlocks and keeps rolling back to its last
    checkpoint, however often it fails from there.
    """

    size = 1
    restart_after: dict[str, int] = {}

    def __init__(self, app: MiniApp):
        self.app = app
        self.useful = app.golden.instret
        self._attach(app.load())

    def _attach(self, process) -> None:
        self.process = process
        self.session = DebugSession(process)

    def run(self, steps: int):
        return self.session.run_steps(steps)

    def checkpoint(self):
        return snapshot(self.process)

    def rollback(self, snap) -> None:
        self._attach(restore(self.app.program, snap))

    def trap_session(self, event) -> DebugSession:
        return self.session

    def live_cpus(self) -> list:
        return [self.process.cpu]

    def outputs(self) -> list:
        return list(self.process.output)


def run_cr(
    machine: Machine,
    params: CRParams,
    policy: Policy,
    seed: int,
    letgo: LetGoConfig | None = None,
    repair_comm: bool = False,
) -> CRRunResult:
    """Drive one run of *machine* under *policy* with injected faults."""
    if policy is Policy.CR_LETGO and letgo is None:
        raise SimulationError("CR_LETGO policy needs a LetGo config")
    app = machine.app
    letgo_session = (
        LetGoSession(letgo, app.functions) if policy is Policy.CR_LETGO else None
    )
    rng = np.random.default_rng(seed)
    result = CRRunResult(
        policy=policy,
        completed=False,
        outcome="dead",
        useful=machine.useful,
        cost=0,
        size=machine.size,
    )
    initial = ckpt = machine.checkpoint()
    since_ckpt = 0           # instructions retired since the checkpoint
    to_fault = _next_fault(rng, params)
    budget = app.max_steps * 4  # generous: rollbacks repeat work
    repairs = 0              # LetGo repairs since the last rollback/checkpoint
    failures = 0             # rollbacks since the last checkpoint
    takes_checkpoints = policy is not Policy.NONE

    while result.cost < budget:
        if takes_checkpoints:
            stride = min(params.interval - since_ckpt, to_fault)
        else:
            stride = to_fault
        event = machine.run(stride)
        result.cost += event.steps
        since_ckpt += event.steps
        to_fault -= event.steps

        if event.kind == STOP_EXITED:
            result.completed = True
            result.output = machine.outputs()
            result.outcome = classify_output(app, result.output, False).value
            return result

        if event.kind == STOP_TRAP:
            trap = event.trap
            comm = trap.instr is not None and trap.instr.op in COMM_OPS
            if letgo_session is not None and (repair_comm or not comm):
                session = machine.trap_session(event)
                allowance = letgo.max_interventions * machine.size - repairs
                if letgo_session.repair(session, trap, allowance) is not None:
                    result.cost += params.t_letgo
                    result.letgo_repairs += 1
                    repairs += 1
                    continue
        elif event.kind != DEADLOCK:
            # the stride ran out: inject a due fault, take a due checkpoint
            if to_fault <= 0:
                _inject(rng, machine)
                result.faults_injected += 1
                to_fault = _next_fault(rng, params)
            if (
                takes_checkpoints
                and since_ckpt >= params.interval
                and len(machine.live_cpus()) == machine.size
            ):
                ckpt = machine.checkpoint()
                result.cost += params.t_chk + params.t_sync
                result.checkpoints += 1
                # a successful checkpoint forgives the crash budget
                since_ckpt = repairs = failures = 0
            continue

        # an unrepaired crash or a deadlock: fail, or roll back
        if policy is Policy.NONE:
            result.outcome = "dead" if event.kind == STOP_TRAP else "deadlocked"
            return result
        if event.kind == DEADLOCK:
            result.deadlock_rollbacks += 1
        elif repairs:
            result.letgo_giveups += 1
        failures += 1
        if failures > machine.restart_after.get(event.kind, math.inf):
            ckpt = initial
            result.restarts += 1
            failures = 0
        machine.rollback(ckpt)
        result.cost += params.recovery
        result.rollbacks += 1
        since_ckpt = repairs = 0
        to_fault = _next_fault(rng, params)

    result.outcome = "hung"
    return result


def _next_fault(rng: np.random.Generator, params: CRParams) -> int:
    return max(1, int(rng.exponential(params.mtbf_faults)))


def _inject(rng: np.random.Generator, machine: Machine) -> None:
    """Flip one bit in the register a random live rank produces next."""
    cpus = machine.live_cpus()
    if not cpus:
        return
    # a 1-rank machine draws nothing here: integers(1) consumes no state
    cpu = cpus[int(rng.integers(len(cpus)))]
    pc = cpu.pc
    instrs = machine.app.program.instrs
    if not 0 <= pc < len(instrs):
        return  # wild PC: the crash is already on its way
    target = select_target(instrs[pc], float(rng.random()))
    if target is None:
        return
    flip_bit(cpu, target[0], target[1], int(rng.integers(64)))


def drive(
    app: MiniApp,
    params: CRParams,
    policy: Policy,
    seed: int = 0,
    letgo: LetGoConfig | None = None,
) -> CRRunResult:
    """Run *app* as one process under *policy* with injected faults."""
    return run_cr(ProcessMachine(app), params, policy, seed, letgo)


__all__ = [
    "Policy",
    "CRParams",
    "CRRunResult",
    "Machine",
    "ProcessMachine",
    "run_cr",
    "drive",
]
