"""Executed C/R results pinned row by row.

Each row is one driven run at a fixed seed: the process rows cover pennant
and hpl under every policy, the cluster rows a 4-rank heat job under C/R
and C/R+LetGo-E with comm-safe and naive (``repair_comm=True``) repair.
The hot cluster rate makes rollbacks, deadlock rollbacks and
poisoned-checkpoint restarts happen, so those counters are pinned too.
Any change to the driver that is meant to keep results must keep every
row; a change that is meant to alter them re-records this table.
"""

import pytest

from repro.checkpoint import CRParams, Policy, drive
from repro.core import LETGO_E
from repro.parallel import HeatApp, drive_cluster

PARAMS = CRParams(interval=15_000, t_chk=3_000, t_letgo=100, mtbf_faults=50_000.0)

#: (app, policy, seed, (outcome, cost, checkpoints, rollbacks,
#: letgo_repairs, efficiency))
PROCESS_ROWS = [
    ("pennant", "NONE", 0, ("benign", 125593, 0, 0, 0, 1.0)),
    ("pennant", "NONE", 1, ("benign", 125593, 0, 0, 0, 1.0)),
    ("pennant", "NONE", 2, ("detected", 125593, 0, 0, 0, 1.0)),
    ("pennant", "NONE", 3, ("benign", 125593, 0, 0, 0, 1.0)),
    ("pennant", "CR", 0, ("benign", 149593, 8, 0, 0, 0.8395646855133596)),
    ("pennant", "CR", 1, ("benign", 149593, 8, 0, 0, 0.8395646855133596)),
    ("pennant", "CR", 2, ("detected", 149593, 8, 0, 0, 0.8395646855133596)),
    ("pennant", "CR", 3, ("benign", 149593, 8, 0, 0, 0.8395646855133596)),
    ("pennant", "CR_LETGO", 0, ("benign", 149593, 8, 0, 0, 0.8395646855133596)),
    ("pennant", "CR_LETGO", 1, ("benign", 149593, 8, 0, 0, 0.8395646855133596)),
    ("pennant", "CR_LETGO", 2, ("detected", 149593, 8, 0, 0, 0.8395646855133596)),
    ("pennant", "CR_LETGO", 3, ("benign", 149593, 8, 0, 0, 0.8395646855133596)),
    ("hpl", "NONE", 0, ("dead", 33997, 0, 0, 0, 0.0)),
    ("hpl", "NONE", 1, ("benign", 146625, 0, 0, 0, 1.0)),
    ("hpl", "NONE", 2, ("dead", 108856, 0, 0, 0, 0.0)),
    ("hpl", "NONE", 3, ("dead", 115529, 0, 0, 0, 0.0)),
    ("hpl", "CR", 0, ("benign", 180622, 9, 1, 0, 0.8117781887034802)),
    ("hpl", "CR", 1, ("benign", 173625, 9, 0, 0, 0.8444924406047516)),
    ("hpl", "CR", 2, ("benign", 180481, 9, 1, 0, 0.812412386899452)),
    ("hpl", "CR", 3, ("benign", 196891, 9, 2, 0, 0.744701382998715)),
    ("hpl", "CR_LETGO", 0, ("detected", 518807, 14, 15, 19, 0.28261954830987246)),
    ("hpl", "CR_LETGO", 1, ("benign", 173625, 9, 0, 0, 0.8444924406047516)),
    ("hpl", "CR_LETGO", 2, ("detected", 151561, 8, 0, 2, 0.9674322549996371)),
    ("hpl", "CR_LETGO", 3, ("detected", 173728, 9, 0, 1, 0.8439917572296924)),
]

#: (mtbf_faults, policy, repair_comm, seed, (outcome, cost, checkpoints,
#: rollbacks, letgo_repairs, efficiency, restarts, deadlock_rollbacks))
CLUSTER_ROWS = [
    (50000.0, "CR", False, 0, ("benign", 139769, 5, 0, 0, 0.8497520909500677, 0, 0)),
    (50000.0, "CR", False, 1, ("benign", 139769, 5, 0, 0, 0.8497520909500677, 0, 0)),
    (50000.0, "CR", False, 2, ("benign", 139769, 5, 0, 0, 0.8497520909500677, 0, 0)),
    (50000.0, "CR_LETGO", False, 0, ("benign", 139769, 5, 0, 0, 0.8497520909500677, 0, 0)),
    (50000.0, "CR_LETGO", False, 1, ("benign", 139769, 5, 0, 0, 0.8497520909500677, 0, 0)),
    (50000.0, "CR_LETGO", False, 2, ("benign", 139769, 5, 0, 0, 0.8497520909500677, 0, 0)),
    (50000.0, "CR_LETGO", True, 0, ("benign", 139769, 5, 0, 0, 0.8497520909500677, 0, 0)),
    (50000.0, "CR_LETGO", True, 1, ("benign", 139769, 5, 0, 0, 0.8497520909500677, 0, 0)),
    (50000.0, "CR_LETGO", True, 2, ("benign", 139769, 5, 0, 0, 0.8497520909500677, 0, 0)),
    (1500.0, "CR", False, 0, ("detected", 175010, 5, 4, 0, 0.6786412205016856, 0, 0)),
    (1500.0, "CR", False, 1, ("detected", 188229, 5, 5, 0, 0.6309814109409283, 1, 0)),
    (1500.0, "CR", False, 2, ("detected", 167057, 5, 2, 0, 0.7109489575414379, 0, 0)),
    (1500.0, "CR", False, 3, ("detected", 149688, 5, 1, 0, 0.793443696221474, 0, 0)),
    (1500.0, "CR", False, 4, ("detected", 157602, 5, 1, 0, 0.7536008426289007, 0, 0)),
    (1500.0, "CR", False, 5, ("detected", 179933, 5, 3, 0, 0.6600734717922783, 0, 0)),
    (1500.0, "CR_LETGO", False, 0, ("detected", 146896, 5, 1, 3, 0.8085243982137023, 0, 1)),
    (1500.0, "CR_LETGO", False, 1, ("detected", 186362, 5, 5, 8, 0.6373026689990449, 2, 4)),
    (1500.0, "CR_LETGO", False, 2, ("detected", 146810, 5, 1, 4, 0.8089980246577209, 0, 1)),
    (1500.0, "CR_LETGO", False, 3, ("detected", 139967, 5, 0, 2, 0.8485500153607636, 0, 0)),
    (1500.0, "CR_LETGO", False, 4, ("detected", 139683, 5, 0, 1, 0.8502752661383275, 0, 0)),
    (1500.0, "CR_LETGO", False, 5, ("detected", 151267, 5, 1, 1, 0.7851613372381286, 0, 0)),
    (1500.0, "CR_LETGO", True, 0, ("detected", 146896, 5, 1, 3, 0.8085243982137023, 0, 1)),
    (1500.0, "CR_LETGO", True, 1, ("detected", 166270, 5, 4, 11, 0.7143140674806039, 2, 4)),
    (1500.0, "CR_LETGO", True, 2, ("detected", 146810, 5, 1, 4, 0.8089980246577209, 0, 1)),
    (1500.0, "CR_LETGO", True, 3, ("detected", 139967, 5, 0, 2, 0.8485500153607636, 0, 0)),
    (1500.0, "CR_LETGO", True, 4, ("detected", 139683, 5, 0, 1, 0.8502752661383275, 0, 0)),
    (1500.0, "CR_LETGO", True, 5, ("detected", 327602, 10, 4, 10, 0.36254052173063656, 1, 3)),
]


@pytest.fixture(scope="module")
def heat():
    return HeatApp(size=4)


def _kwargs(policy):
    return {"letgo": LETGO_E} if policy is Policy.CR_LETGO else {}


@pytest.mark.parametrize("app_name, policy, seed, expected", PROCESS_ROWS)
def test_process_results_pinned(request, app_name, policy, seed, expected):
    app = request.getfixturevalue(f"{app_name}_app")
    policy = Policy[policy]
    result = drive(app, PARAMS, policy, seed=seed, **_kwargs(policy))
    assert result.useful == app.golden.instret
    row = (
        result.outcome,
        result.cost,
        result.checkpoints,
        result.rollbacks,
        result.letgo_repairs,
        result.efficiency,
    )
    assert row == expected


@pytest.mark.parametrize("mtbf, policy, repair_comm, seed, expected", CLUSTER_ROWS)
def test_cluster_results_pinned(heat, mtbf, policy, repair_comm, seed, expected):
    params = CRParams(
        interval=20_000, t_chk=3_000, t_sync=1_200, t_letgo=100, mtbf_faults=mtbf
    )
    policy = Policy[policy]
    kwargs = _kwargs(policy)
    if repair_comm:
        kwargs["repair_comm"] = True
    result = drive_cluster(heat, params, policy, seed=seed, **kwargs)
    assert result.useful == heat.golden_steps
    row = (
        result.outcome,
        result.cost,
        result.checkpoints,
        result.rollbacks,
        result.letgo_repairs,
        result.efficiency,
        result.restarts,
        result.deadlock_rollbacks,
    )
    assert row == expected
