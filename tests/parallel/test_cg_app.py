"""The distributed conjugate-gradient proxy."""

import math

import numpy as np
import pytest

from repro.core import LETGO_E
from repro.checkpoint import CRParams, Policy
from repro.parallel import drive_cluster
from repro.parallel.cg import CgApp


@pytest.fixture(scope="module")
def cg():
    app = CgApp(size=4)
    app.golden
    return app


def test_converges(cg):
    rank0 = cg.golden_outputs[0]
    iterations, residual = rank0[0][1], rank0[1][1]
    assert 0 < iterations < cg.max_iters
    assert residual < 1e-10


def test_matches_direct_solve(cg):
    n = cg.size * cg.n_local
    laplacian = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    x = np.arange(1, n + 1) / (n + 1)
    rhs = x * (1 - x)
    reference = np.linalg.solve(laplacian, rhs)
    solution = np.array(cg.sdc_slice(cg.golden_outputs))
    assert np.max(np.abs(solution - reference)) < 1e-9


def test_acceptance(cg):
    assert cg.acceptance_check(cg.golden_outputs)
    assert cg.matches_golden(cg.golden_outputs)


def test_acceptance_rejects_asymmetry(cg):
    outputs = [list(s) for s in cg.golden_outputs]
    kind, value = outputs[3][-1]
    outputs[3][-1] = (kind, value + 1.0)
    assert not cg.acceptance_check(outputs)


def test_acceptance_rejects_bad_residual(cg):
    outputs = [list(s) for s in cg.golden_outputs]
    outputs[0][1] = ("f", 1.0)
    assert not cg.acceptance_check(outputs)


def test_size_independence():
    """2-rank and 4-rank decompositions of the same system agree."""
    two = CgApp(size=2, n_local=24)
    four = CgApp(size=4, n_local=12)
    a = np.array(two.sdc_slice(two.golden_outputs))
    b = np.array(four.sdc_slice(four.golden_outputs))
    assert np.max(np.abs(a - b)) < 1e-8


def test_under_coordinated_cr(cg):
    params = CRParams(
        interval=25_000, t_chk=3_000, t_letgo=100, mtbf_faults=20_000.0
    )
    completed = 0
    for seed in range(4):
        result = drive_cluster(
            cg, params, Policy.CR_LETGO, seed=seed, letgo=LETGO_E
        )
        completed += result.completed
    assert completed >= 3


def test_math_isfinite_guard(cg):
    outputs = [list(s) for s in cg.golden_outputs]
    outputs[1][0] = ("f", math.inf)
    assert not cg.acceptance_check(outputs)
