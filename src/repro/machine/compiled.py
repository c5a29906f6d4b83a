"""Block-compiled execution backend: the interpreter's fast twin.

:class:`CompiledCPU` runs a program as straight-line *blocks*, QEMU's
translation blocks (Bellard, USENIX ATC 2005) in Python.  A block starts
at any entry pc and runs through the first control transfer or stop
(JMP/BEQZ/BNEZ/CALL/RET/HALT/ABORT); a block also ends just *before* a
communication op (SEND/RECV/FSEND/FRECV), so every comm op is a block of
its own.  Each block is emitted as Python source -- registers held in
locals, immediates and branch targets written in as literals, loads and
stores inlined against the memory's cell dict with the segment check in
front -- and compiled once per program image.  The hot loop is then one
``pc = blocks[pc]()`` dispatch per block instead of one per instruction.

The backend preserves the interpreter's contract exactly:

* **Exact budget.**  A block runs only when the remaining step budget
  covers its whole length; otherwise the inherited interpreter runs the
  budget's tail.  Every instruction that tail reaches is straight-line
  (a terminator only ever ends a block), so ``run(n)`` retires exactly
  what the interpreter would, which keeps ``dyn_index``-addressed fault
  injection deterministic.
* **Precise traps.**  Every trap raised inside a block carries the static
  pc of its faulting instruction, which commits nothing, so the block
  retired exactly ``trap.pc - entry`` instructions and ``cpu.pc`` is left
  at the fault site -- bit-identical trap sites, signals and detail
  strings.  :class:`~repro.machine.signals.Blocked` can only come from a
  comm op, which is a one-instruction block, so it retires nothing.
* **Live state.**  Blocks are bound per CPU with
  :class:`types.FunctionType`, whose defaults hold the *identities* of
  the register files, the memory's cell dict and the output stream --
  exactly the objects :func:`~repro.checkpoint.snapshot.restore_into`
  refills in place -- so snapshot/restore, debugger register writes and
  LetGo's ``set_pc(pc + 1)`` resume into the middle of a block (which is
  simply another entry pc) all work unchanged.
* **Out-of-image control flow.**  A computed or encoded jump target outside
  the image retires the jump, parks the wild pc, and faults on the *next*
  fetch, exactly like the interpreter (a run whose budget expires right
  after such a jump stops with the wild pc and no trap).

Compilation is lazy on both levels: a block's code object is compiled the
first time any process of its image enters that pc, and kept in a
per-image code cache shared by every process of the image; a CPU binds
the code to its own state the first time *it* enters the pc.  A golden run
enters only a small fraction of the static pcs, so nothing is paid for
code that never runs.

``run_profiled`` is inherited from the interpreter: profiling is a
one-time golden pass and the per-pc counts must stay reference-exact.
"""

from __future__ import annotations

import builtins
import os
import re
from math import copysign, inf, isinf, isnan, nan, sqrt
from types import FunctionType

from repro.isa.instructions import Instr, Op
from repro.isa.layout import INT64_MAX, INT64_MIN, MASK64
from repro.isa.registers import BP, SP
from repro.machine.cpu import CPU, STOP_HALT, STOP_STEPS, _wrap64
from repro.machine.memory import (
    AccessError,
    float_to_pattern,
    pattern_to_float,
)
from repro.machine.signals import Blocked, Signal, Trap

_SIGN = 1 << 63
_WRAP = 1 << 64

#: Ops that end a block (inclusive).
_TERMINATORS = frozenset(
    (Op.JMP, Op.BEQZ, Op.BNEZ, Op.CALL, Op.RET, Op.HALT, Op.ABORT)
)
#: Ops that always form a one-instruction block.
_COMM_OPS = frozenset((Op.SEND, Op.RECV, Op.FSEND, Op.FRECV))


def _mem_trap(exc: AccessError, pc: int, ins: Instr) -> Trap:
    return Trap(
        Signal.SIGSEGV if exc.kind == "segv" else Signal.SIGBUS,
        pc=pc,
        instr=ins,
        detail=str(exc),
        address=exc.address,
    )


def _fetch_trap(pc: int) -> Trap:
    return Trap(
        Signal.SIGSEGV,
        pc=pc,
        instr=None,
        detail=f"instruction fetch out of image (pc={pc})",
    )


# -- the emitter --------------------------------------------------------------
#
# Inside a block, registers live in Python locals (``r3``, ``f2``): a
# register is loaded from its file on first use and written back only where
# the architectural state can be observed -- before every ``return`` and on
# the cold path of every instruction that can trap, ahead of the trap -- so
# a trap still sees every earlier instruction committed and nothing of its
# own.  Other generated-code names are upper case, so they cannot clash
# with the lower-case text of trap details:
#   R, F      integer / float register files
#   C, G      the memory's cell dict and its bound ``get``
#   L0 H0     first mapped range, L1 H1 second (a missed fast check falls
#             back to the exact Memory method, so extra segments are fine)
#   LD ST     exact load / store slow paths; they raise the precise Trap
#   TRAP      raise a non-memory Trap at a static pc
#   BQ BD     an 8-byte buffer seen as a pattern / as a float: a float's
#             bit pattern (and back) by two item accesses, no allocation
#   WRAP      64-bit wraparound of an out-of-range integer result
#   OUT CPU WILD   output append, the CPU itself, the wild-target slot
#   K<i>      immediates that have no exact source literal (floats)

_MAX = repr(_SIGN)
_SIGNED_P = f"p if p < {_MAX} else p - {_WRAP}"

_INT_BINOPS = {
    Op.ADD: "+", Op.SUB: "-", Op.MUL: "*",
    Op.AND: "&", Op.OR: "|", Op.XOR: "^",
}
_INT_IMMOPS = {
    Op.ADDI: "+", Op.SUBI: "-", Op.MULI: "*",
    Op.ANDI: "&", Op.ORI: "|", Op.XORI: "^",
}
_CMP_OPS = {
    Op.SEQ: ("r", "=="), Op.SNE: ("r", "!="),
    Op.SLT: ("r", "<"), Op.SLE: ("r", "<="),
    Op.FEQ: ("f", "=="), Op.FNE: ("f", "!="),
    Op.FLT: ("f", "<"), Op.FLE: ("f", "<="),
}
_FP_BINOPS = {Op.FADD: "+", Op.FSUB: "-", Op.FMUL: "*"}
_ENV_NAME = re.compile(r"\b[A-Z][A-Z0-9]*\b")


def block_extent(instrs: list[Instr]) -> list[int]:
    """Length of the block that starts at each pc of *instrs*."""
    n = len(instrs)
    extent = [1] * n
    for pc in range(n - 2, -1, -1):
        op = instrs[pc].op
        if op not in _TERMINATORS and op not in _COMM_OPS \
                and instrs[pc + 1].op not in _COMM_OPS:
            extent[pc] = extent[pc + 1] + 1
    return extent


class _Emitter:
    """Python source of one block, built one instruction at a time."""

    def __init__(self, n: int):
        self.n = n
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}
        self.live: set[str] = set()    # register locals holding a value
        self.dirty: set[str] = set()   # ... not yet written back

    def const(self, value) -> str:
        """Source for an immediate: a literal, or a bound ``K<i>`` name."""
        if type(value) is int:
            return repr(value)
        name = f"K{len(self.consts)}"
        self.consts[name] = value
        return name

    def read(self, bank: str, index: int) -> str:
        """Local holding register *bank* (``r``/``f``) *index*."""
        name = f"{bank}{index}"
        if name not in self.live:
            self.lines.append(f"{name} = {bank.upper()}[{index}]")
            self.live.add(name)
        return name

    def write(self, bank: str, index: int) -> str:
        """Local to assign register *bank* *index* (written back later)."""
        name = f"{bank}{index}"
        self.live.add(name)
        self.dirty.add(name)
        return name

    def assign(self, bank: str, index: int, value: str) -> str:
        """Line setting a register to *value* (source built, so read, first)."""
        return f"{self.write(bank, index)} = {value}"

    def flush(self, indent: str = "") -> list[str]:
        """Lines writing every modified register back to its file."""
        return [
            f"{indent}{name[0].upper()}[{name[1:]}] = {name}"
            for name in sorted(self.dirty)
        ]

    def leave(self, target: int) -> list[str]:
        """Write back, then return *target*."""
        return self.flush() + [f"return {target}"]

    def goto(self, target: int) -> list[str]:
        if 0 <= target <= self.n:
            return [f"return {target}"]
        return [f"WILD[0] = {target}", f"return {self.n}"]

    # -- memory ------------------------------------------------------------

    def address(self, ins: Instr) -> str:
        """Source of the effective address of a load/store."""
        addr = self.read("r", ins.ra)
        if ins.op in (Op.LDX, Op.STX, Op.FLDX, Op.FSTX):
            addr += f" + {self.read('r', ins.rb)} * 8"
        if ins.imm:
            addr += f" + {self.const(ins.imm)}"
        return addr

    @staticmethod
    def mapped(stack: bool) -> str:
        """Fast in-segment-and-aligned test of ``a``, likelier range first.

        Ranges are sorted by start, so the stack (the top segment) is
        range 1.
        """
        ranges = ("L1 <= a < H1", "L0 <= a < H0") if stack else (
            "L0 <= a < H0", "L1 <= a < H1")
        return f"not a & 7 and ({ranges[0]} or {ranges[1]})"

    def load(self, pc: int, addr: str, stack: bool) -> list[str]:
        """Lines leaving the cell pattern at ``addr`` in ``p``."""
        return [
            f"a = {addr}",
            f"if {self.mapped(stack)}:",
            "    p = G(a, 0)",
            "else:",
            *self.flush("    "),
            f"    p = LD(a, {pc})",
        ]

    def store(self, pc: int, addr: str, value: str, stack: bool) -> list[str]:
        """Lines writing the pattern *value* at ``addr``."""
        return [
            f"a = {addr}",
            f"if {self.mapped(stack)}:",
            f"    C[a] = {value}",
            "else:",
            *self.flush("    "),
            f"    ST(a, {value}, {pc})",
        ]

    def trap(self, pc: int, signal: str, detail: str,
             indent: str = "    ") -> list[str]:
        """Lines raising a non-memory trap, by default under an ``if``."""
        return self.flush(indent) + [f"{indent}TRAP({pc}, {signal}, {detail})"]

    # -- one instruction ---------------------------------------------------

    def emit(self, ins: Instr, pc: int) -> None:
        """Append the source of the instruction at *pc*.

        Straight-line ops fall through; control ops end in ``return <next
        pc>`` (a HALT returns ``n + 1 + pc``; a wild target parks in
        ``WILD`` and returns the fetch-fault pad ``n``).  Every register an
        instruction reads is loaded before any of its lines, so no load
        sits on a conditional path.
        """
        self.lines += self._lines(ins, pc)

    def _lines(self, ins: Instr, pc: int) -> list[str]:
        op = ins.op
        d, a, b, imm = ins.rd, ins.ra, ins.rb, ins.imm
        n = self.n
        nxt = pc + 1
        read, write, assign = self.read, self.write, self.assign

        # -- data movement ---------------------------------------------------
        if op is Op.NOP:
            return []
        if op is Op.MOV:
            return [assign("r", d, read("r", a))]
        if op is Op.MOVI:
            return [assign("r", d, self.const(imm))]
        if op is Op.FMOV:
            return [assign("f", d, read("f", a))]
        if op is Op.FMOVI:
            return [assign("f", d, self.const(imm))]

        # -- memory ----------------------------------------------------------
        stack = a in (SP, BP)
        if op in (Op.LD, Op.LDX):
            lines = self.load(pc, self.address(ins), stack)
            return lines + [assign("r", d, _SIGNED_P)]
        if op in (Op.FLD, Op.FLDX):
            lines = self.load(pc, self.address(ins), stack)
            return lines + ["BQ[0] = p", assign("f", d, "BD[0]")]
        if op in (Op.ST, Op.STX):
            value = f"{read('r', d)} & {MASK64}"
            return self.store(pc, self.address(ins), value, stack)
        if op in (Op.FST, Op.FSTX):
            lines = [f"BD[0] = {read('f', d)}"]
            return lines + self.store(pc, self.address(ins), "BQ[0]", stack)
        sp = read("r", SP) if op in (
            Op.PUSH, Op.POP, Op.FPUSH, Op.FPOP, Op.CALL, Op.RET) else None
        if op is Op.PUSH:
            value = f"{read('r', a)} & {MASK64}"
            lines = self.store(pc, f"{sp} - 8", value, True)
            return lines + [assign("r", SP, "a")]
        if op is Op.FPUSH:
            lines = [f"BD[0] = {read('f', a)}"]
            lines += self.store(pc, f"{sp} - 8", "BQ[0]", True)
            return lines + [assign("r", SP, "a")]
        if op is Op.POP:
            # sp first, value second: "pop sp" ends with the loaded value.
            return self.load(pc, sp, True) + [
                assign("r", SP, "a + 8"),
                assign("r", d, _SIGNED_P),
            ]
        if op is Op.FPOP:
            return self.load(pc, sp, True) + [
                "BQ[0] = p",
                assign("f", d, "BD[0]"),
                assign("r", SP, "a + 8"),
            ]

        # -- integer ALU -------------------------------------------------------
        if op in _INT_BINOPS:
            value = f"{read('r', a)} {_INT_BINOPS[op]} {read('r', b)}"
        elif op in _INT_IMMOPS:
            value = f"{read('r', a)} {_INT_IMMOPS[op]} {self.const(imm)}"
        elif op is Op.SHL:
            value = f"{read('r', a)} << ({read('r', b)} & 63)"
        elif op is Op.SHLI:
            value = f"{read('r', a)} << {imm & 63}"
        elif op is Op.NEG:
            value = f"-{read('r', a)}"
        elif op is Op.NOT:
            value = f"~{read('r', a)}"
        else:
            value = None
        if value is not None:
            return [
                f"v = {value}",
                assign("r", d, f"v if -{_MAX} <= v < {_MAX} else WRAP(v)"),
            ]
        if op is Op.SHR:
            return [assign("r", d, f"{read('r', a)} >> ({read('r', b)} & 63)")]
        if op is Op.SHRI:
            return [assign("r", d, f"{read('r', a)} >> {imm & 63}")]
        if op in (Op.DIV, Op.MOD):
            what = "divide" if op is Op.DIV else "remainder"
            x, y = read("r", a), read("r", b)
            lines = [
                f"if {y} == 0:",
                *self.trap(pc, "SIGFPE", f"'integer {what} by zero'"),
                f"q = abs({x}) // abs({y})",
            ]
            if op is Op.DIV:
                lines.append(f"v = -q if ({x} < 0) != ({y} < 0) else q")
            else:
                lines += [f"if ({x} < 0) != ({y} < 0):", "    q = -q",
                          f"v = {x} - q * {y}"]
            return lines + [
                assign("r", d, f"v if -{_MAX} <= v < {_MAX} else WRAP(v)")
            ]

        # -- comparisons -----------------------------------------------------
        if op in _CMP_OPS:
            bank, cmp = _CMP_OPS[op]
            test = f"{read(bank, a)} {cmp} {read(bank, b)}"
            return [assign("r", d, f"1 if {test} else 0")]

        # -- floating point ----------------------------------------------------
        if op in _FP_BINOPS:
            value = f"{read('f', a)} {_FP_BINOPS[op]} {read('f', b)}"
            return [assign("f", d, value)]
        if op is Op.FDIV:
            # IEEE-754: x/0 -> signed inf; 0/0 and nan/0 -> nan.
            x, y = read("f", a), read("f", b)
            fd = write("f", d)
            return [
                f"if {y} == 0.0:",
                f"    {fd} = nan if {x} == 0.0 or isnan({x}) "
                f"else copysign(inf, {x}) * copysign(1.0, {y})",
                "else:",
                f"    {fd} = {x} / {y}",
            ]
        if op is Op.FNEG:
            return [assign("f", d, f"-{read('f', a)}")]
        if op is Op.FSQRT:
            x = read("f", a)
            value = f"nan if {x} < 0.0 else ({x} if isnan({x}) else sqrt({x}))"
            return [assign("f", d, value)]
        if op is Op.FABS:
            return [assign("f", d, f"abs({read('f', a)})")]
        if op in (Op.FMIN, Op.FMAX):
            cmp = "<" if op is Op.FMIN else ">"
            x, y = read("f", a), read("f", b)
            fd = write("f", d)
            return [
                f"if isnan({x}):",
                f"    {fd} = {y}",
                f"elif isnan({y}):",
                f"    {fd} = {x}",
                "else:",
                f"    {fd} = {x} if {x} {cmp} {y} else {y}",
            ]

        # -- conversions -------------------------------------------------------
        if op is Op.ITOF:
            return [assign("f", d, f"float({read('r', a)})")]
        if op is Op.FTOI:
            x = read("f", a)
            return [
                f"if isnan({x}) or isinf({x}):",
                f"    v = {INT64_MIN}",  # x86 cvttsd2si "integer indefinite"
                "else:",
                f"    v = int({x})",
                f"    if v < {INT64_MIN} or v > {INT64_MAX}:",
                f"        v = {INT64_MIN}",
                assign("r", d, "v"),
            ]

        # -- control flow ------------------------------------------------------
        if op is Op.JMP:
            return self.flush() + self.goto(imm)
        if op in (Op.BEQZ, Op.BNEZ):
            cmp = "==" if op is Op.BEQZ else "!="
            flag = read("r", a)
            return self.flush() + [f"if {flag} {cmp} 0:"] + [
                "    " + line for line in self.goto(imm)
            ] + [f"return {nxt}"]
        if op is Op.CALL:
            lines = self.store(pc, f"{sp} - 8", repr(nxt & MASK64), True)
            lines.append(assign("r", SP, "a"))
            return lines + self.flush() + self.goto(imm)
        if op is Op.RET:
            lines = self.load(pc, sp, True)
            lines += [assign("r", SP, "a + 8"), f"t = {_SIGNED_P}"]
            return lines + self.flush() + [
                f"if 0 <= t <= {n}:",
                "    return t",
                "WILD[0] = t",
                f"return {n}",
            ]

        # -- system ------------------------------------------------------------
        if op is Op.HALT:
            # pc stays on the HALT site: the run loop decodes n + 1 + pc.
            return [
                "CPU.halted = True",
                f"CPU.exit_code = {read('r', 0)}",
            ] + self.leave(n + 1 + pc)
        if op is Op.OUT:
            return [f"OUT(('i', {read('r', a)}))"]
        if op is Op.FOUT:
            return [f"OUT(('f', {read('f', a)}))"]
        if op is Op.ABORT:
            return self.trap(pc, "SIGABRT", "'application abort'", indent="")

        # -- inter-rank communication (comm ops are one-instruction blocks) ---
        if op is Op.RANK:
            return [assign("r", d, "CPU.rank")]
        if op is Op.NRANKS:
            return [
                "net = CPU.network",
                assign("r", d, "net.size if net is not None else 1"),
            ]
        if op in _COMM_OPS:
            name = op.name.lower()
            sending = op in (Op.SEND, Op.FSEND)
            peer = f"{name} {'to' if sending else 'from'} invalid rank"
            x = read("r", a)
            lines = [
                "net = CPU.network",
                "if net is None:",
                *self.trap(pc, "SIGBUS", f"'{name} outside a cluster'"),
                f"if not net.valid_rank({x}):",
                *self.trap(pc, "SIGBUS", f"f'{peer} {{{x}}}'"),
            ]
            if op is Op.SEND:
                lines.append(f"net.send(CPU.rank, {x}, {read('r', b)} & {MASK64})")
            elif op is Op.FSEND:
                lines.append(f"net.send(CPU.rank, {x}, f2p({read('f', b)}))")
            else:
                lines += [
                    f"p = net.recv(CPU.rank, {x})",
                    "if p is None:",
                    f"    raise Blocked(pc={pc}, rank=CPU.rank, src={x})",
                ]
                if op is Op.RECV:
                    lines += [f"p &= {MASK64}", assign("r", d, _SIGNED_P)]
                else:
                    lines.append(assign("f", d, "p2f(p)"))
            return lines
        raise NotImplementedError(f"no compiled template for {op!r}")  # pragma: no cover


def _compile_block(instrs: list[Instr], entry: int, length: int):
    """Compile the *length*-instruction block of *instrs* at *entry*.

    Returns ``(code, consts)``: a code object whose parameters are the
    generated-code names it uses (bound per CPU as defaults) and the
    immediates (``K<i>``) that have no exact source literal.
    """
    emitter = _Emitter(len(instrs))
    for pc in range(entry, entry + length):
        emitter.emit(instrs[pc], pc)
    if instrs[entry + length - 1].op not in _TERMINATORS:
        emitter.lines += emitter.leave(entry + length)
    text = "\n    ".join(emitter.lines)
    params = sorted(set(_ENV_NAME.findall(text)) - _GLOBAL_NAMES)
    source = f"def block_{entry}_{length}({', '.join(params)}):\n    {text}\n"
    namespace: dict = {}
    exec(compile(source, f"<block {entry}+{length}>", "exec"), namespace)
    return namespace[f"block_{entry}_{length}"].__code__, emitter.consts


#: Names generated code resolves as globals: rare helpers, shared by all.
_GLOBALS = {
    "__builtins__": builtins,
    "SIGABRT": Signal.SIGABRT,
    "SIGBUS": Signal.SIGBUS,
    "SIGFPE": Signal.SIGFPE,
    "Blocked": Blocked,
    "copysign": copysign,
    "f2p": float_to_pattern,
    "inf": inf,
    "isinf": isinf,
    "isnan": isnan,
    "nan": nan,
    "p2f": pattern_to_float,
    "sqrt": sqrt,
}
_GLOBAL_NAMES = frozenset(_GLOBALS)


# -- the per-image code cache ---------------------------------------------


class ImageCode:
    """Compiled block code of one program image, shared by its processes."""

    __slots__ = ("instrs", "extent", "codes")

    def __init__(self, instrs: list[Instr]):
        self.instrs = instrs
        #: Static block length per entry pc.
        self.extent = block_extent(instrs)
        #: (entry pc, length) -> (code, consts), filled lazily.
        self.codes: dict[tuple[int, int], tuple] = {}

    def code(self, entry: int, length: int):
        key = (entry, length)
        hit = self.codes.get(key)
        if hit is None:
            hit = self.codes[key] = _compile_block(self.instrs, entry, length)
        return hit


# Keyed by instruction-list identity: programs are interned per source by
# the app layer, and the instrs reference both keeps the id stable and
# guards against id reuse.  Bounded so fuzzing, which makes thousands of
# throwaway images, does not keep them all.
_IMAGE_CACHE: dict[int, ImageCode] = {}
_IMAGE_CACHE_MAX = 64


def image_code(instrs: list[Instr]) -> ImageCode:
    """The code cache of the image *instrs* (created on first use)."""
    hit = _IMAGE_CACHE.get(id(instrs))
    if hit is not None and hit.instrs is instrs:
        return hit
    if len(_IMAGE_CACHE) >= _IMAGE_CACHE_MAX:
        del _IMAGE_CACHE[next(iter(_IMAGE_CACHE))]
    image = _IMAGE_CACHE[id(instrs)] = ImageCode(instrs)
    return image


def _bind_env(cpu: "CompiledCPU") -> dict:
    """Per-CPU values of the generated-code names (see the emitter)."""
    memory = cpu.memory
    instrs = cpu.instrs
    read_pattern = memory.read_pattern
    write_pattern = memory.write_pattern

    def load(address: int, pc: int) -> int:
        try:
            return read_pattern(address)
        except AccessError as exc:
            raise _mem_trap(exc, pc, instrs[pc]) from None

    def store(address: int, pattern: int, pc: int) -> None:
        try:
            write_pattern(address, pattern)
        except AccessError as exc:
            raise _mem_trap(exc, pc, instrs[pc]) from None

    def trap(pc: int, signal: Signal, detail: str):
        raise Trap(signal, pc=pc, instr=instrs[pc], detail=detail)

    # Ranges mapped later are only missed by the fast check; the slow
    # path sees them (segments are never unmapped).
    (l0, h0), (l1, h1) = (list(memory._ranges) + [(0, 0), (0, 0)])[:2]
    cells = memory._cells
    bits = bytearray(8)  # per CPU: no other thread's conversion can interleave
    return {
        "R": cpu.iregs, "F": cpu.fregs, "C": cells, "G": cells.get,
        "L0": l0, "H0": h0, "L1": l1, "H1": h1,
        "LD": load, "ST": store, "TRAP": trap,
        "BQ": memoryview(bits).cast("Q"), "BD": memoryview(bits).cast("d"),
        "WRAP": _wrap64, "OUT": cpu.output.append, "CPU": cpu,
        "WILD": cpu._wild,
    }


#: Block-length slot of a pc whose block this CPU has not bound yet (also
#: of the fetch-fault pad and the HALT codes): never fits a budget.
_UNBOUND = inf


class CompiledCPU(CPU):
    """Drop-in :class:`CPU` whose run loop dispatches compiled blocks.

    Binding is lazy (first :meth:`run`, then per entered pc), so processes
    that are only snapshotted or inspected never pay for it; blocks bind
    the live register files / memory / output objects, which
    ``restore_into`` refills in place, so one compiled process can host
    any number of restored runs.
    """

    # ``__weakref__`` lets a caller check that a finished CPU is freed.
    __slots__ = ("_image", "_env", "_blocks", "_lens", "_wild",
                 "__weakref__")

    def __init__(self, program, memory):
        super().__init__(program, memory)
        self._blocks = None
        self._wild = [None]  # out-of-image jump target awaiting its fetch fault

    def _bind(self, entry: int, length: int):
        """This CPU's function for the block (*entry*, *length*)."""
        code, consts = self._image.code(entry, length)
        env = self._env
        defaults = tuple(
            env[name] if name in env else consts[name]
            for name in code.co_varnames[: code.co_argcount]
        )
        return FunctionType(code, _GLOBALS, code.co_name, defaults)

    def run(self, max_steps: int) -> str:
        """Exactly :meth:`CPU.run`, at compiled speed."""
        if self.halted:
            return STOP_HALT
        blocks = self._blocks
        n = self._n_instrs
        if blocks is None:
            self._image = image_code(self.instrs)
            self._env = _bind_env(self)
            blocks = self._blocks = [None] * n
            # Slot n is the fetch-fault pad, slots n + 1 + pc the HALTs.
            self._lens = [_UNBOUND] * (2 * n + 2)
        pc = self.pc
        if pc < 0 or pc > n:
            if max_steps <= 0:
                return STOP_STEPS
            raise _fetch_trap(pc)
        lens = self._lens
        wild = self._wild
        left = max_steps
        try:
            while True:
                k = lens[pc]
                if k <= left:
                    pc = blocks[pc]()
                    left -= k
                    continue
                if pc > n:  # a HALT retired; its site is pc - n - 1
                    pc -= n + 1
                    return STOP_HALT
                if left <= 0:
                    return STOP_STEPS
                if pc == n:
                    # Fetch past the image, or a parked wild target.
                    if wild[0] is not None:
                        pc = wild[0]
                        wild[0] = None
                    raise _fetch_trap(pc)
                if k is _UNBOUND:
                    k = self._image.extent[pc]
                    if k <= left:
                        blocks[pc] = self._bind(pc, k)
                        lens[pc] = k
                        continue
                break  # the block is longer than the budget left
        except Trap as trap:
            # Everything before the faulter in the block retired.
            left -= trap.pc - pc
            pc = trap.pc
            raise
        finally:
            if wild[0] is not None:
                # Budget expired right after an out-of-image jump: expose
                # the wild pc (the fault belongs to the *next* fetch).
                pc = wild[0]
                wild[0] = None
            self.pc = pc
            self.instret += max_steps - left
        # Straight-line up to the budget: the interpreter finishes exactly
        # (and retires its own steps).
        return super().run(left)


# -- backend selection -------------------------------------------------------

#: Known execution backends, name -> CPU class.
BACKENDS: dict[str, type[CPU]] = {
    "interpreter": CPU,
    "compiled": CompiledCPU,
}

#: Package default; override per call with ``backend=`` or process-wide
#: with the ``REPRO_BACKEND`` environment variable.
DEFAULT_BACKEND = "compiled"


def default_backend() -> str:
    """The backend used when no ``backend=`` is given."""
    return os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND)


def cpu_class(backend: "str | type[CPU] | None") -> type[CPU]:
    """Resolve a backend name (``None`` = :func:`default_backend`).

    A :class:`CPU` subclass passes through unchanged, so callers (the
    fuzz harness's scratch mutants, experiments) can plug a custom
    engine into ``Process.load`` without registering it in
    :data:`BACKENDS`.
    """
    if isinstance(backend, type) and issubclass(backend, CPU):
        return backend
    name = default_backend() if backend is None else backend
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r} "
            f"(choose from {sorted(BACKENDS)})"
        ) from None


__all__ = [
    "CompiledCPU",
    "ImageCode",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "block_extent",
    "default_backend",
    "cpu_class",
    "image_code",
]
