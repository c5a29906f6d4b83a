"""Differential suite: interpreter vs compiled backend, bit-identical.

The compiled backend is only admissible if no observable differs from the
reference interpreter: golden-run facts, architectural state at arbitrary
pause points, trap sites and signals, and -- the property campaigns stand
on -- injection outcomes addressed by ``dyn_index``.  Every check here
runs the same workload on both backends and compares exhaustively:
machine state through :func:`~repro.machine.observe`, injections through
``InjectionResult ==``.
"""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest

from repro.checkpoint.snapshot import restore_into, snapshot
from repro.core import VARIANTS
from repro.faultinject.fault_model import plan_injections
from repro.faultinject.injector import run_injection
from repro.isa import Instr, Op, Program
from repro.machine import CPU, CompiledCPU, Process, Signal, observe
from repro.machine.compiled import block_extent, image_code
from repro.machine.debugger import DebugSession
from repro.machine.process import ProcessStatus
from repro.machine.signals import Trap

APP_NAMES = ("lulesh", "clamr", "hpl", "comd", "snap", "pennant")

BACKENDS = ("interpreter", "compiled")


def _fresh(program: Program, backend: str) -> Process:
    return Process.load(program, backend=backend)


# -- unit-level: trap sites and budget accounting ---------------------------


def test_backend_classes_differ():
    p_i = Process.load(
        Program(instrs=[Instr(Op.HALT)], functions={"main": 0}),
        backend="interpreter",
    )
    p_c = Process.load(
        Program(instrs=[Instr(Op.HALT)], functions={"main": 0}),
        backend="compiled",
    )
    assert type(p_i.cpu) is CPU
    assert isinstance(p_c.cpu, CompiledCPU)
    assert p_i.backend == "interpreter"
    assert p_c.backend == "compiled"


def test_unknown_backend_rejected():
    program = Program(instrs=[Instr(Op.HALT)], functions={"main": 0})
    with pytest.raises(ValueError):
        Process.load(program, backend="jit")


def test_budget_stop_at_wild_pc_matches_interpreter():
    """Budget expiring right after an out-of-image jump must stop with the
    wild pc and *no* trap (the fault belongs to the next fetch)."""
    program = Program(
        instrs=[
            Instr(Op.MOVI, rd=1, imm=99999),
            Instr(Op.PUSH, ra=1),
            Instr(Op.RET),
        ],
        functions={"main": 0},
    )
    states = []
    for backend in BACKENDS:
        process = _fresh(program, backend)
        cpu = process.cpu
        stop = cpu.run(3)          # exactly consumes the budget on the RET
        assert stop == "steps"
        assert cpu.pc == 99999     # wild pc exposed, not trapped
        assert cpu.instret == 3
        with pytest.raises(Trap) as info:
            cpu.run(1)             # the next fetch faults
        assert info.value.signal is Signal.SIGSEGV
        assert info.value.pc == 99999
        assert info.value.instr is None
        states.append((observe(process), str(info.value)))
    assert states[0] == states[1]


def test_trapped_instruction_not_retired_both_backends():
    program = Program(
        instrs=[Instr(Op.NOP), Instr(Op.ABORT), Instr(Op.HALT)],
        functions={"main": 0},
    )
    for backend in BACKENDS:
        cpu = _fresh(program, backend).cpu
        with pytest.raises(Trap) as info:
            cpu.run(10)
        assert cpu.instret == 1, backend
        assert cpu.pc == 1, backend
        assert info.value.pc == 1


#: One 7-instruction block (pcs 0-6) with a faulting load in the middle.
BLOCK_PROGRAM = Program(
    instrs=[
        Instr(Op.MOVI, rd=1, imm=0),
        Instr(Op.ADDI, rd=2, ra=1, imm=8),
        Instr(Op.LD, rd=3, ra=1),           # address 0: unmapped, SIGSEGV
        Instr(Op.ADDI, rd=4, ra=2, imm=1),
        Instr(Op.SLT, rd=5, ra=2, rb=4),
        Instr(Op.PUSH, ra=4),
        Instr(Op.BNEZ, ra=5, imm=8),
        Instr(Op.HALT),
        Instr(Op.HALT),
    ],
    functions={"main": 0},
)
BLOCK_LEN = 7


def _run_observed(session: DebugSession, budget: int):
    """Run *budget* steps; the stop, the trap if any, and the state."""
    try:
        stop = session.process.cpu.run(budget)
        trap = None
    except Trap as exc:
        stop, trap = "trap", (exc.signal, exc.pc, exc.detail)
    return (stop, trap, observe(session.process))


def _block_trails(backend: str) -> dict:
    """(entry, budget) -> the stops of one LetGo-style run of the block."""
    session = DebugSession(_fresh(BLOCK_PROGRAM, backend))
    start = snapshot(session.process)

    def trail(entry: int, budget: int) -> list:
        restore_into(session.process, start)
        session.set_pc(entry)
        stops = [_run_observed(session, budget)]
        trap = stops[0][1]
        if trap is not None:
            # LetGo: skip the faulter and carry on.
            session.set_pc(trap[1] + 1)
            stops.append(_run_observed(session, budget))
        stops.append(_run_observed(session, 100))
        return stops

    # Enter every pc once first: short budgets must also meet bound blocks.
    for entry in range(BLOCK_LEN):
        trail(entry, 100)
    return {
        (entry, budget): trail(entry, budget)
        for entry in range(BLOCK_LEN)
        for budget in range(1, BLOCK_LEN - entry + 2)
    }


def test_block_boundaries_respect_budget_and_traps():
    """Every (entry pc, budget) around a block with a mid-block faulting
    load agrees with the interpreter: a block never overruns the budget,
    a trap retires exactly the instructions before the faulter, and
    LetGo's resume at ``trap.pc + 1`` (the middle of the block) works."""
    assert block_extent(BLOCK_PROGRAM.instrs)[0] == BLOCK_LEN
    reference, compiled = (_block_trails(backend) for backend in BACKENDS)
    for key, stops in reference.items():
        assert compiled[key] == stops, f"(entry, budget) = {key}"
    # The unbroken block from pc 0 does trap at the load, two retired.
    stop, trap, state = reference[(0, BLOCK_LEN + 1)][0]
    assert (stop, state.instret, trap[1]) == ("trap", 2, 2)


def test_image_code_is_compiled_once_per_image(suite):
    """A second process of an image binds the cached block code and
    compiles none; processes of one image stay independent; a budget that
    stops mid-block compiles no single-instruction tail."""
    app = suite["pennant"]
    image = image_code(app.program.instrs)
    app.load("compiled").run(app.max_steps)
    compiled = dict(image.codes)
    assert compiled
    second = app.load("compiled")
    assert second.run(app.max_steps).reason == "exited"
    assert image.codes.keys() == compiled.keys()
    assert all(image.codes[key] is code for key, code in compiled.items())
    cached = {id(code) for code, _ in compiled.values()}
    bound = [block for block in second.cpu._blocks if block is not None]
    assert bound and all(id(block.__code__) in cached for block in bound)

    # Interleaved, with budgets that stop mid-block in both processes.
    a, b = app.load("compiled"), app.load("compiled")
    while ProcessStatus.RUNNING in (a.status, b.status):
        for process, budget in ((a, 997), (b, 1009)):
            if process.status is ProcessStatus.RUNNING:
                process.run(budget)
    for process in (a, b):
        assert process.status is ProcessStatus.EXITED
        assert process.cpu.instret == app.golden.instret
        assert tuple(process.output) == app.golden.output
    assert observe(a) == observe(b)
    # The interpreter ran every budget tail: the cache holds whole blocks.
    assert not [
        pc for pc, length in image.codes
        if length == 1 and image.extent[pc] > 1
    ]


def test_lockstep_random_budgets_demo(demo_program):
    """Pause both backends at random points; every pause must agree on the
    complete architectural state."""
    rng = random.Random(20260806)
    a = _fresh(demo_program, "interpreter")
    b = _fresh(demo_program, "compiled")
    while a.status is ProcessStatus.RUNNING:
        k = rng.choice([1, 1, 2, 3, 5, 8, 13, 50])
        assert a.run(k) == b.run(k)
        assert observe(a) == observe(b)
    assert a.status is ProcessStatus.EXITED


# -- app-level: golden runs --------------------------------------------------


@pytest.mark.parametrize("name", APP_NAMES)
def test_golden_run_bit_identical(suite, name):
    app = suite[name]
    facts = []
    for backend in BACKENDS:
        process = app.load(backend)
        facts.append((process.run(app.max_steps).reason, observe(process)))
    assert facts[0] == facts[1]
    # and both agree with the cached golden facts
    reason, state = facts[0]
    assert (reason, state.instret) == ("exited", app.golden.instret)
    assert tuple(process.output) == app.golden.output


def test_halted_compiled_cpus_are_freed(suite):
    """No CPU outlives its run: halting must not pin it (or its memory)."""
    refs = []
    for name in ("pennant", "hpl", "comd"):
        process = suite[name].load("compiled")
        assert process.run(suite[name].max_steps).reason == "exited"
        refs.append(weakref.ref(process.cpu))
        del process
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


# -- app-level: seeded injection sample --------------------------------------

#: Injections per (app, config) pair.  Small but seeded: dyn_index spreads
#: across the run, bit positions across the word, so crash/benign/SDC and
#: repair paths all appear across the suite.
N_PLANS = 5


@pytest.mark.parametrize("name", APP_NAMES)
@pytest.mark.parametrize("config_name", [None, "LetGo-E"])
def test_injection_outcomes_bit_identical(suite, name, config_name):
    app = suite[name]
    config = VARIANTS[config_name] if config_name else None
    rng = np.random.default_rng(0xD1FF + len(name))
    plans = plan_injections(rng, app.golden.instret, N_PLANS)
    for plan in plans:
        results = [
            run_injection(app, plan, config, backend=backend)
            for backend in BACKENDS
        ]
        assert results[0] == results[1], (name, config_name, plan)
