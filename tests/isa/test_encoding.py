"""Binary encoding: exact round trips, including property-based coverage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.isa import (
    Instr,
    Op,
    assemble,
    decode_instr,
    decode_program,
    encode_instr,
    encode_program,
)
from repro.isa.instructions import FLOAT_IMM_OPS

_INT_OPS = [op for op in Op if op not in FLOAT_IMM_OPS]


@st.composite
def instructions(draw):
    op = draw(st.sampled_from(list(Op)))
    rd = draw(st.integers(0, 15))
    ra = draw(st.integers(0, 15))
    rb = draw(st.integers(0, 15))
    if op in FLOAT_IMM_OPS:
        imm = draw(
            st.floats(allow_nan=False, allow_infinity=True, width=64)
        )
    else:
        imm = draw(st.integers(-(2**63), 2**63 - 1))
    return Instr(op, rd=rd, ra=ra, rb=rb, imm=imm)


@given(instructions())
@settings(max_examples=300)
def test_instr_roundtrip(instr):
    assert decode_instr(encode_instr(instr)) == instr


def test_record_is_16_bytes():
    assert len(encode_instr(Instr(Op.NOP))) == 16
    assert len(encode_instr(Instr(Op.FMOVI, rd=1, imm=3.14))) == 16


def test_float_imm_bit_exact():
    for value in (0.1, -0.0, 1e308, 5e-324, float("inf")):
        instr = Instr(Op.FMOVI, rd=2, imm=value)
        decoded = decode_instr(encode_instr(instr))
        assert str(decoded.imm) == str(value)


def test_decode_bad_length():
    with pytest.raises(EncodingError):
        decode_instr(b"\x00" * 15)


def test_decode_unknown_opcode():
    blob = bytes([200]) + b"\x00" * 15
    with pytest.raises(EncodingError):
        decode_instr(blob)


def test_program_roundtrip(demo_program):
    blob = encode_program(demo_program)
    back = decode_program(blob)
    assert back.instrs == demo_program.instrs
    assert back.functions == demo_program.functions
    assert back.entry == demo_program.entry
    assert back.data_init == demo_program.data_init
    assert {n: (s.addr, s.cells) for n, s in back.data_symbols.items()} == {
        n: (s.addr, s.cells) for n, s in demo_program.data_symbols.items()
    }
    assert back.checksum() == demo_program.checksum()


def test_program_roundtrip_preserves_syms(demo_program):
    back = decode_program(encode_program(demo_program))
    for mine, theirs in zip(demo_program.instrs, back.instrs):
        assert mine.sym == theirs.sym


def test_bad_magic():
    with pytest.raises(EncodingError):
        decode_program(b"XXXX" + b"\x00" * 20)


def test_truncated_image(demo_program):
    blob = encode_program(demo_program)
    with pytest.raises(EncodingError):
        decode_program(blob[: len(blob) // 4])


def test_short_header():
    with pytest.raises(EncodingError):
        decode_program(b"LG")


def test_minic_program_roundtrip(demo_unit):
    blob = encode_program(demo_unit.program)
    back = decode_program(blob)
    assert back.checksum() == demo_unit.program.checksum()


def test_roundtrip_executes_identically(demo_program):
    from repro.machine import Process, observe

    original = Process.load(demo_program)
    original.run(10**6)
    back = Process.load(decode_program(encode_program(demo_program)))
    back.run(10**6)
    assert observe(back) == observe(original)
