"""Disassembler: text output re-assembles to an equivalent program."""

from repro.isa import assemble, disassemble, dump
from repro.machine import Process, observe


def test_roundtrip_demo(demo_program):
    text = disassemble(demo_program)
    back = assemble(text)
    assert back.instrs == demo_program.instrs
    assert back.functions == demo_program.functions
    assert back.data_cells == demo_program.data_cells


def test_roundtrip_minic(demo_unit):
    text = disassemble(demo_unit.program)
    back = assemble(text)
    assert back.instrs == demo_unit.program.instrs


def test_roundtrip_executes_identically(demo_unit):
    program = demo_unit.program
    back = assemble(disassemble(program))
    a = Process.load(program)
    b = Process.load(back)
    a.run(10**7)
    b.run(10**7)
    assert observe(a) == observe(b)


def test_data_initializers_preserved(demo_program):
    back = assemble(disassemble(demo_program))
    # 'cnt' has value 5 and 'vals' two doubles; initialised patterns match
    assert back.data_init == demo_program.data_init


def test_dump_contains_symbols(demo_program):
    text = dump(demo_program)
    assert "main:" in text
    assert "_start:" in text
    assert "data arr" in text


def test_dump_lists_every_pc(demo_program):
    text = dump(demo_program)
    for pc in range(len(demo_program.instrs)):
        assert f"{pc:6d}: " in text


def test_labels_generated_for_anonymous_targets():
    program = assemble(
        ".text\n.entry m\n.func m\nm:\n"
        "    movi r1, #3\nt:\n    subi r1, r1, #1\n    bnez r1, t\n    halt\n"
    )
    text = disassemble(program)
    assert ".L" in text
    back = assemble(text)
    assert back.instrs == program.instrs
