"""Telemetry progress probes on the injection path, on both backends.

With a tracer whose ``probe_interval`` is positive, ``run_injection``
replays the golden prefix through ``injector._probed_steps``: the prefix
budget is sliced through the exact-budget ``run_steps`` contract, with
one ``progress`` instant per slice.  The probes only observe, so a probed
run must give the same :class:`InjectionResult` as a null-tracer run --
for benign and crashing plans, baseline and LetGo alike, on the
interpreter and the compiled backend.
"""

from __future__ import annotations

import pytest

from repro.core import LETGO_E
from repro.faultinject import InjectionPlan, run_injection
from repro.telemetry import Tracer

BACKENDS = ("interpreter", "compiled")

#: pennant plans: benign; SIGSEGV that LetGo-E continues; SIGSEGV that
#: LetGo-E repairs and then crashes again.
BENIGN = InjectionPlan(dyn_index=1200, bit=0, reg_choice=0.0)
CRASH = InjectionPlan(dyn_index=1500, bit=62, reg_choice=0.0)
DOUBLE_CRASH = InjectionPlan(dyn_index=2000, bit=3, reg_choice=0.0)


def _probed(app, plan, config, backend, interval):
    """(result, progress instret trail) of one probed injection run."""
    tracer = Tracer(probe_interval=interval)
    result = run_injection(app, plan, config, backend=backend, tracer=tracer)
    trail = [
        record["args"]["instret"]
        for record in tracer.records()
        if record["kind"] == "instant" and record["name"] == "progress"
    ]
    return result, trail


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("interval", [1, 7, 64, 10_000])
def test_probed_run_matches_plain_run(pennant_app, backend, interval):
    for plan in (BENIGN, CRASH):
        plain = run_injection(pennant_app, plan, None, backend=backend)
        probed, trail = _probed(pennant_app, plan, None, backend, interval)
        assert probed == plain
        # Monotone probe trail ending where the prefix replay stopped.
        assert trail == sorted(trail)
        assert trail[-1] == plan.dyn_index - 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_probed_budget_exhaustion_is_exact(pennant_app, backend):
    plan = InjectionPlan(dyn_index=38, bit=0, reg_choice=0.0)
    plain = run_injection(pennant_app, plan, None, backend=backend)
    probed, trail = _probed(pennant_app, plan, None, backend, 10)
    assert probed == plain
    assert trail == [10, 20, 30, 37]


@pytest.mark.parametrize("backend", BACKENDS)
def test_probed_trap_propagates_at_same_site(pennant_app, backend):
    for plan in (CRASH, DOUBLE_CRASH):
        for config in (None, LETGO_E):
            plain = run_injection(pennant_app, plan, config, backend=backend)
            probed, _ = _probed(pennant_app, plan, config, backend, 16)
            assert plain.first_signal is not None
            assert probed == plain


@pytest.mark.parametrize("backend", BACKENDS)
def test_probe_interval_must_be_positive(pennant_app, backend):
    with pytest.raises(ValueError, match="probe_interval"):
        Tracer(probe_interval=-1)
    # Zero keeps telemetry on but the probes off.
    plain = run_injection(pennant_app, BENIGN, None, backend=backend)
    probed, trail = _probed(pennant_app, BENIGN, None, backend, 0)
    assert probed == plain
    assert trail == []
