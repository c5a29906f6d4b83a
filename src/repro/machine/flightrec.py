"""Flight recorder: the last N instructions before a stop.

A crash post-mortem tool: wraps a process and keeps a ring buffer of
recently executed (pc, instruction) pairs plus the register deltas of the
final few steps.  Used to diagnose double crashes (what did the repaired
run do between the repair and the second trap?) without paying tracing
costs on the fast path of normal runs -- recording is explicit opt-in and
runs the slow single-step loop.

Recording works on any execution backend: it only needs budget-1 ``run``
calls and the architectural registers, both part of the backend contract.
(On the compiled backend a budget of one interprets the instruction
unless it is a block by itself, so a recorded stretch runs at roughly
interpreter speed -- fine for post-mortems, which cover only the last
few hundred instructions.)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.isa.registers import FP_REG_NAMES, INT_REG_NAMES
from repro.machine.process import Process
from repro.machine.signals import Trap


@dataclass
class TraceEntry:
    """One executed instruction."""

    index: int      # dynamic ordinal within the recording
    pc: int
    text: str


@dataclass
class FlightRecording:
    """Result of a recorded run."""

    entries: list[TraceEntry]
    stopped_by: Trap | None
    steps: int
    final_regs: dict[str, int | float] = field(default_factory=dict)

    def tail(self, n: int = 10) -> list[TraceEntry]:
        """The last *n* executed instructions."""
        return self.entries[-n:]

    def render(self) -> str:
        lines = [f"flight recording: {self.steps} steps"]
        if self.stopped_by is not None:
            lines.append(f"stopped by: {self.stopped_by}")
        for entry in self.entries:
            lines.append(f"  [{entry.index:6d}] pc={entry.pc:5d}  {entry.text}")
        return "\n".join(lines)


def record(
    process: Process,
    max_steps: int,
    window: int = 32,
) -> FlightRecording:
    """Single-step *process*, keeping the last *window* instructions.

    Stops on halt, trap, or budget; the trap (if any) is captured rather
    than raised so callers can inspect the recording alongside it.
    """
    cpu = process.cpu
    ring: deque[TraceEntry] = deque(maxlen=window)
    trap: Trap | None = None
    steps = 0
    instrs = process.program.instrs
    while steps < max_steps and not cpu.halted:
        pc = cpu.pc
        if 0 <= pc < len(instrs):
            text = instrs[pc].text()
        else:
            text = "<fetch fault>"
        try:
            cpu.run(1)
        except Trap as caught:
            trap = caught
            break
        ring.append(TraceEntry(index=steps, pc=pc, text=text))
        steps += 1
    regs: dict[str, int | float] = {
        name: cpu.iregs[i] for i, name in enumerate(INT_REG_NAMES)
    }
    regs.update({name: cpu.fregs[i] for i, name in enumerate(FP_REG_NAMES)})
    regs["pc"] = cpu.pc
    return FlightRecording(
        entries=list(ring),
        stopped_by=trap,
        steps=steps,
        final_regs=regs,
    )


__all__ = ["FlightRecording", "TraceEntry", "record"]
