"""Shared benchmark fixtures: cached apps and fault-injection campaigns.

The expensive work (compiling apps, golden runs, injection campaigns)
happens once per session in fixtures; individual benches aggregate and
assert on the shared results, and time the kernels that are theirs alone.

Campaign size is controlled with the ``REPRO_BENCH_N`` environment
variable (default 150 injections per app per config -- sized for a
single-core run; the paper used 20 000, so expect error bars of a few
percentage points, reported alongside every number).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.apps import app_names, make_app
from repro.core import LETGO_B, LETGO_E
from repro.faultinject import CampaignConfig, run_paired_campaigns

#: Injections per (app, config); see module docstring.
BENCH_N = int(os.environ.get("REPRO_BENCH_N", "150"))
SEED = 20170626  # HPDC'17 opening day

RESULTS_DIR = Path(__file__).parent / "results"


def write_artifact(name: str, text: str) -> Path:
    """Persist a rendered table/figure so the bench log survives capture."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def apps():
    """All six apps, golden-profiled once."""
    out = {}
    for name in app_names():
        app = make_app(name)
        app.golden
        app.functions
        out[name] = app
    return out


@pytest.fixture(scope="session")
def iterative_campaigns(apps):
    """Paired LetGo-B / LetGo-E campaigns for the five iterative apps.

    Runs on the campaign engine with all cores (``jobs=None``); results
    are identical to the serial loop for the same seed.
    """
    results = {}
    for name in app_names(iterative_only=True):
        results[name] = run_paired_campaigns(
            apps[name], BENCH_N, SEED, configs=[LETGO_B, LETGO_E],
            campaign=CampaignConfig(jobs=None)
        )
    return results


@pytest.fixture(scope="session")
def hpl_campaign(apps):
    """LetGo-E campaign on the direct-method app (paper section 8)."""
    return run_paired_campaigns(
        apps["hpl"], BENCH_N, SEED, configs=[LETGO_B, LETGO_E],
        campaign=CampaignConfig(jobs=None)
    )
