"""Coordinated cluster C/R driver."""

import numpy as np
import pytest

from repro.checkpoint import CRParams, Policy
from repro.core import LETGO_E
from repro.errors import SimulationError
from repro.parallel import (
    HeatApp,
    drive_cluster,
    restore_cluster,
    take_cluster_snapshot,
)

PARAMS = CRParams(
    interval=20_000, t_chk=4_000, t_sync=400, t_letgo=100, mtbf_faults=15_000.0
)
CALM = CRParams(interval=40_000, t_chk=1_000, mtbf_faults=10**9)


@pytest.fixture(scope="module")
def heat():
    app = HeatApp(size=4)
    app.golden
    return app


def test_params_validation():
    with pytest.raises(SimulationError):
        CRParams(interval=0, t_chk=1)


def test_letgo_policy_needs_config(heat):
    with pytest.raises(SimulationError):
        drive_cluster(heat, PARAMS, Policy.CR_LETGO, seed=0)


def test_cluster_snapshot_roundtrip(heat):
    cluster = heat.make_cluster()
    cluster.run(5_000)
    snap = take_cluster_snapshot(cluster)
    in_flight = cluster.network.in_flight()
    # run on, then roll back and check everything resumed correctly
    cluster.run(5_000)
    restore_cluster(cluster, snap)
    assert cluster.network.in_flight() == in_flight
    event = cluster.run(10**8)
    assert event.kind == "exited"
    assert cluster.outputs() == heat.golden_outputs


def test_fault_free_run(heat):
    result = drive_cluster(heat, CALM, Policy.CR, seed=1)
    assert result.completed and result.outcome == "benign"
    assert result.faults_injected == 0
    assert result.rollbacks == 0
    assert result.cost == heat.golden_steps + result.checkpoints * CALM.t_chk


@pytest.mark.parametrize("policy", [Policy.NONE, Policy.CR])
def test_fault_free_run_is_golden(heat, policy):
    """No faults: golden outputs, and cost is work plus coordinated
    checkpoints, each charged ``t_chk + t_sync``."""
    params = CRParams(interval=40_000, t_chk=1_000, t_sync=300, mtbf_faults=10**9)
    result = drive_cluster(heat, params, policy, seed=1)
    assert result.outcome == "benign" and result.size == heat.size
    assert result.output == heat.golden_outputs
    assert result.cost == result.useful + result.checkpoints * (
        params.t_chk + params.t_sync
    )
    assert result.checkpoints == (0 if policy is Policy.NONE else 2)


def test_none_policy_no_checkpoints(heat):
    result = drive_cluster(heat, CALM, Policy.NONE, seed=1)
    assert result.completed
    assert result.checkpoints == 0
    assert result.cost == heat.golden_steps


def test_deterministic(heat):
    a = drive_cluster(heat, PARAMS, Policy.CR_LETGO, seed=7, letgo=LETGO_E)
    b = drive_cluster(heat, PARAMS, Policy.CR_LETGO, seed=7, letgo=LETGO_E)
    assert a.cost == b.cost and a.outcome == b.outcome


def test_cr_completes_under_faults(heat):
    completed = 0
    for seed in range(6):
        result = drive_cluster(heat, PARAMS, Policy.CR, seed=seed)
        completed += result.completed
    assert completed >= 5


def test_letgo_not_worse_than_cr(heat):
    cr = np.mean(
        [drive_cluster(heat, PARAMS, Policy.CR, seed=s).efficiency
         for s in range(6)]
    )
    lg = np.mean(
        [
            drive_cluster(
                heat, PARAMS, Policy.CR_LETGO, seed=s, letgo=LETGO_E
            ).efficiency
            for s in range(6)
        ]
    )
    assert lg >= cr - 0.03


def test_unprotected_cluster_can_die(heat):
    hot = CRParams(interval=20_000, t_chk=4_000, mtbf_faults=4_000.0)
    outcomes = [
        drive_cluster(heat, hot, Policy.NONE, seed=s).outcome
        for s in range(6)
    ]
    assert any(o in ("dead", "deadlocked") for o in outcomes)


def test_poisoned_checkpoint_restart_bounded(heat):
    """No run should loop forever on a corrupt checkpoint."""
    hot = CRParams(
        interval=15_000, t_chk=3_000, t_letgo=100, mtbf_faults=6_000.0
    )
    for seed in range(4):
        result = drive_cluster(heat, hot, Policy.CR, seed=seed)
        # either completes, or gives up within the budget with few rollbacks
        assert result.rollbacks < 200
