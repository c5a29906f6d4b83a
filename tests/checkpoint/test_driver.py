"""In-vivo C/R driver: policies, accounting, and the Figure-1 story."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import app_names
from repro.checkpoint import CRParams, Policy, drive
from repro.checkpoint.driver import run_cr
from repro.core import LETGO_E
from repro.core.modifier import Modifier
from repro.errors import SimulationError
from repro.machine import Signal
from repro.machine.signals import Trap

PARAMS = CRParams(interval=15_000, t_chk=3_000, t_letgo=100, mtbf_faults=12_000.0)
CALM = CRParams(interval=30_000, t_chk=1_000, t_letgo=100, mtbf_faults=10**9)


def test_params_validation():
    with pytest.raises(SimulationError):
        CRParams(interval=0, t_chk=1)
    with pytest.raises(SimulationError):
        CRParams(interval=10, t_chk=1, mtbf_faults=0)


def test_recovery_defaults_to_t_chk():
    assert CRParams(interval=10, t_chk=7).recovery == 7
    assert CRParams(interval=10, t_chk=7, t_r=3).recovery == 3


def test_letgo_policy_needs_config(pennant_app):
    with pytest.raises(SimulationError):
        drive(pennant_app, PARAMS, Policy.CR_LETGO, seed=0)


def test_fault_free_run_overheads(pennant_app):
    """With ~no faults, cost = work + checkpoints * t_chk."""
    result = drive(pennant_app, CALM, Policy.CR, seed=1)
    assert result.completed and result.outcome == "benign"
    assert result.faults_injected == 0
    assert result.rollbacks == 0
    expected_ckpts = pennant_app.golden.instret // CALM.interval
    assert abs(result.checkpoints - expected_ckpts) <= 1
    assert result.cost == pennant_app.golden.instret + result.checkpoints * CALM.t_chk


@pytest.mark.parametrize("policy", [Policy.NONE, Policy.CR])
@pytest.mark.parametrize("name", app_names())
def test_fault_free_run_is_golden(suite, name, policy):
    """No faults: every app's output is golden and cost is pure overhead."""
    app = suite[name]
    params = CRParams(interval=30_000, t_chk=1_000, t_sync=50, mtbf_faults=10**9)
    result = drive(app, params, policy, seed=1)
    assert result.outcome == "benign"
    assert tuple(result.output) == app.golden.output
    assert result.cost == result.useful + result.checkpoints * (
        params.t_chk + params.t_sync
    )


class _ScriptedMachine:
    """A machine replaying a script of stop kinds, recording what the C/R
    loop asks of it."""

    restart_after: dict = {}

    def __init__(self, app, size, script, interval):
        self.app, self.useful, self.size = app, 1, size
        self.script, self.interval, self.log = list(script), interval, []

    def run(self, steps):
        kind = self.script.pop(0) if self.script else "exited"
        trap = Trap(Signal.SIGSEGV, pc=0) if kind == "trap" else None
        ran = self.interval if kind == "steps" else 1
        return SimpleNamespace(kind=kind, steps=ran, trap=trap)

    def checkpoint(self):
        self.log.append("checkpoint")

    def rollback(self, snap):
        self.log.append("rollback")

    def trap_session(self, event):
        return None

    def live_cpus(self):
        return [None] * self.size

    def outputs(self):
        return []


@pytest.mark.parametrize("size", [1, 3])
def test_repairs_capped_per_rank_since_rollback_or_checkpoint(
    pennant_app, monkeypatch, size
):
    """At most ``max_interventions x size`` repairs between a rollback or
    checkpoint and the next; the crash after that rolls back."""
    record = SimpleNamespace(h1_fired=False, h2_fired=False)

    def fake_repair(self, session, trap):
        machine.log.append("repair")
        return record

    monkeypatch.setattr(Modifier, "repair", fake_repair)
    app = SimpleNamespace(
        functions=pennant_app.functions,
        max_steps=10**6,
        acceptance_check=lambda output: True,
        matches_golden=lambda output: True,
    )
    cap = LETGO_E.max_interventions * size
    burst = ["trap"] * (cap + 1)
    params = CRParams(interval=1_000, t_chk=0, mtbf_faults=10**9)
    machine = _ScriptedMachine(app, size, burst + ["steps"] + burst, 1_000)
    result = run_cr(machine, params, Policy.CR_LETGO, seed=0, letgo=LETGO_E)
    assert result.outcome == "benign"
    # run start, a capped burst, a checkpoint, then a capped burst again
    burst_log = ["repair"] * cap + ["rollback"]
    assert machine.log == ["checkpoint"] + burst_log + ["checkpoint"] + burst_log
    assert result.letgo_repairs == 2 * cap
    assert result.rollbacks == result.letgo_giveups == 2


def test_policy_none_takes_no_checkpoints(pennant_app):
    result = drive(pennant_app, CALM, Policy.NONE, seed=1)
    assert result.completed
    assert result.checkpoints == 0
    assert result.cost == pennant_app.golden.instret


def test_efficiency_zero_for_dead_runs(pennant_app):
    # guaranteed crashes: very high fault rate without protection
    params = CRParams(interval=10_000, t_chk=100, mtbf_faults=2_000.0)
    dead = [
        drive(pennant_app, params, Policy.NONE, seed=s)
        for s in range(8)
    ]
    killed = [r for r in dead if not r.completed]
    assert killed, "expected some unprotected run to die"
    assert all(r.efficiency == 0.0 for r in killed)
    assert all(r.outcome == "dead" for r in killed)


def test_cr_survives_where_none_dies(pennant_app):
    params = PARAMS
    completed_cr = 0
    for seed in range(6):
        result = drive(pennant_app, params, Policy.CR, seed=seed)
        if result.completed:
            completed_cr += 1
            assert result.cost >= pennant_app.golden.instret
    assert completed_cr >= 4  # C/R completes almost always


def test_letgo_reduces_rollbacks_paired(pennant_app):
    """Same seeds: CR+LetGo rolls back less than CR (repairs instead)."""
    cr_rollbacks = letgo_rollbacks = repairs = 0
    for seed in range(6):
        cr = drive(pennant_app, PARAMS, Policy.CR, seed=seed)
        lg = drive(pennant_app, PARAMS, Policy.CR_LETGO, seed=seed, letgo=LETGO_E)
        cr_rollbacks += cr.rollbacks
        letgo_rollbacks += lg.rollbacks
        repairs += lg.letgo_repairs
    assert repairs > 0
    assert letgo_rollbacks < cr_rollbacks


def test_letgo_efficiency_at_least_cr(pennant_app):
    """Averaged over seeds, CR+LetGo does not lose to CR."""
    cr = np.mean(
        [drive(pennant_app, PARAMS, Policy.CR, seed=s).efficiency for s in range(8)]
    )
    lg = np.mean(
        [
            drive(pennant_app, PARAMS, Policy.CR_LETGO, seed=s, letgo=LETGO_E).efficiency
            for s in range(8)
        ]
    )
    assert lg >= cr - 0.03


def test_accounting_consistency(pennant_app):
    result = drive(pennant_app, PARAMS, Policy.CR_LETGO, seed=3, letgo=LETGO_E)
    if result.completed:
        overhead = (
            result.checkpoints * PARAMS.t_chk
            + result.rollbacks * PARAMS.recovery
            + result.letgo_repairs * PARAMS.t_letgo
        )
        # cost = executed instructions (>= useful) + charged overheads
        assert result.cost >= result.useful + overhead - PARAMS.interval
        assert 0.0 < result.efficiency <= 1.0


def test_deterministic_per_seed(pennant_app):
    a = drive(pennant_app, PARAMS, Policy.CR_LETGO, seed=9, letgo=LETGO_E)
    b = drive(pennant_app, PARAMS, Policy.CR_LETGO, seed=9, letgo=LETGO_E)
    assert a.cost == b.cost
    assert a.outcome == b.outcome
    assert a.rollbacks == b.rollbacks
    assert a.letgo_repairs == b.letgo_repairs
