"""Architectural observations: the one definition of "same state".

Both backends, snapshots, ladder rungs and the fuzz oracles are judged by
``observe(a) == observe(b)``, so the equality itself is pinned here:
floats by IEEE-754 bit pattern, and the exit code only once halted.
"""

from repro.isa.instructions import Instr, Op
from repro.isa.program import Program
from repro.machine import Process, observe


def _program(instrs):
    return Program(instrs=instrs, functions={"main": 0}, source_name="test")


def test_observation_compares_float_bit_patterns():
    neg = _program([Instr(Op.FMOVI, rd=0, imm=-0.0), Instr(Op.HALT)])
    pos = _program([Instr(Op.FMOVI, rd=0, imm=0.0), Instr(Op.HALT)])
    pa, pb = Process.load(neg), Process.load(pos)
    pa.run(4)
    pb.run(4)
    diff = observe(pa).diff(observe(pb))
    assert diff is not None and diff.startswith("fregs")


def test_observation_equal_on_same_nan_pattern():
    """Two runs computing the same NaN observe equal, although each holds
    its own NaN object and ``nan != nan`` under float ``==``."""
    program = _program([
        Instr(Op.FMOVI, rd=1, imm=float("inf")),
        Instr(Op.FMOVI, rd=2, imm=0.0),
        Instr(Op.FMUL, rd=0, ra=1, rb=2),     # inf * 0: NaN
        Instr(Op.HALT),
    ])
    pa, pb = Process.load(program), Process.load(program)
    pa.run(8)
    pb.run(8)
    assert pa.cpu.fregs[0] != pa.cpu.fregs[0]
    assert pa.cpu.fregs != pb.cpu.fregs       # float == calls them unequal
    assert observe(pa) == observe(pb)


def test_observation_ignores_exit_code_until_halted():
    program = _program([
        Instr(Op.MOVI, rd=0, imm=42),
        Instr(Op.NOP),
        Instr(Op.HALT),
    ])
    process = Process.load(program)
    process.run(1)
    assert observe(process).exit_code is None
    process.run(16)
    assert observe(process).exit_code == 42
