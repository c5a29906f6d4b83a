"""Scratch backend mutants: known-bad CPUs the fuzzer must catch.

Each class is a copy of the reference interpreter with ONE semantic
fault planted -- deliberately re-creating the bug classes PR 3 fixed by
hand (NaN min/max, HALT-pc advance, map-before-alignment), a
sign-extension fault, and the block compiler's typical retire-count bug
(a faulting load counted as retired).  They are strictly test
scaffolding: running the fuzzer with ``--mutation NAME`` swaps the
mutant in as the "compiled" side of every differential oracle, which
must then (a) flag a divergence and (b) shrink it to a tiny
reproducer.  A fuzzer that cannot kill these mutants would not have
caught the real bugs either (the mutation-adequacy methodology of the
repair-assessment line of work).

The interpreter builds its dispatch table per-instance with
``getattr(self, "_op_...")``, so overriding a handler in a subclass is
all a mutant needs.
"""

from __future__ import annotations

from math import isnan

from repro.isa.instructions import Instr
from repro.machine.cpu import CPU
from repro.machine.signals import Signal, Trap


class FminNanPropagates(CPU):
    """FMIN propagates NaN instead of IEEE minNum (PR-3 bug class)."""

    def _op_fmin(self, ins: Instr) -> None:
        f = self.fregs
        a, b = f[ins.ra], f[ins.rb]
        if isnan(a) or isnan(b):
            f[ins.rd] = float("nan")
        else:
            f[ins.rd] = a if a < b else b
        self.pc += 1


class HaltAdvancesPc(CPU):
    """HALT retires with pc past the halt site (PR-3 bug class)."""

    def _op_halt(self, ins: Instr) -> None:
        self.halted = True
        self.exit_code = self.iregs[0]
        self.pc += 1


class ShriLogical(CPU):
    """SHRI shifts the unsigned 64-bit pattern (drops sign extension)."""

    def _op_shri(self, ins: Instr) -> None:
        pattern = self.iregs[ins.ra] & ((1 << 64) - 1)
        self.iregs[ins.rd] = pattern >> (ins.imm & 63)
        self.pc += 1


class AlignmentBeforeMap(CPU):
    """LD checks alignment before the segment map (PR-3 bug class).

    An unaligned access to *unmapped* memory then reports SIGBUS where
    the fixed substrate reports SIGSEGV.
    """

    def _op_ld(self, ins: Instr) -> None:
        addr = self.iregs[ins.ra] + ins.imm
        if addr % 8 and not self.memory.is_mapped(addr):
            raise Trap(
                Signal.SIGBUS,
                pc=self.pc,
                instr=ins,
                detail=f"bus on read at 0x{addr & ((1 << 64) - 1):x}",
                address=addr,
            )
        super()._op_ld(ins)


class LoadTrapRetires(CPU):
    """A faulting LD retires before it traps: ``instret`` one too high.

    The bug class of block-compiled execution, where a trap in the middle
    of a block must retire exactly the instructions before the faulter.
    """

    def _op_ld(self, ins: Instr) -> None:
        try:
            super()._op_ld(ins)
        except Trap:
            self.instret += 1
            raise


#: name -> mutant class, the ``--mutation`` CLI choices.
MUTATIONS: dict[str, type[CPU]] = {
    "fmin-nan": FminNanPropagates,
    "halt-pc": HaltAdvancesPc,
    "shri-logical": ShriLogical,
    "segv-order": AlignmentBeforeMap,
    "load-trap-retires": LoadTrapRetires,
}


__all__ = ["MUTATIONS"] + [cls.__name__ for cls in MUTATIONS.values()]
