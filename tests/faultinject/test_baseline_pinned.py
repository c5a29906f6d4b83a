"""Baseline (no-LetGo) injection results pinned row by row.

Each row is one ``run_injection(app, plan, config=None)`` on the default
backend, for ten seeded plans per app: the Figure-4 leaf, the corrupted
site and register, the first signal, the intervention count, the retired
instruction count and the watchdog flag.  A change to the post-fault path
that is meant to keep results must keep every row; a change that is meant
to alter them re-records this table.
"""

import numpy as np
import pytest

from repro.apps import app_names
from repro.faultinject import InjectionPlan, plan_injections, run_injection

SEED = 20170626
PLANS_PER_APP = 10

#: (app, dyn_index, (outcome, target_pc, target_reg, first_signal,
#: interventions, steps, timed_out))
ROWS = [
    # lulesh
    ("lulesh", 48732, ("benign", 282, ('r', 1), None, 0, 268986, False)),
    ("lulesh", 261529, ("detected", 458, ('f', 1), None, 0, 269162, False)),
    ("lulesh", 199720, ("benign", 265, ('r', 1), None, 0, 269168, False)),
    ("lulesh", 212591, ("benign", 107, ('r', 1), None, 0, 268478, False)),
    ("lulesh", 94610, ("crash", 258, ('r', 10), "SIGSEGV", 0, 94610, False)),
    ("lulesh", 143170, ("crash", 30, ('r', 15), "SIGSEGV", 0, 143186, False)),
    ("lulesh", 30222, ("benign", 11, ('f', 1), None, 0, 269174, False)),
    ("lulesh", 25649, ("crash", 30, ('r', 15), "SIGSEGV", 0, 25665, False)),
    ("lulesh", 75474, ("benign", 467, ('f', 4), None, 0, 269168, False)),
    ("lulesh", 217987, ("benign", 76, ('f', 12), None, 0, 269168, False)),
    # clamr
    ("clamr", 27992, ("benign", 507, ('r', 10), None, 0, 349827, False)),
    ("clamr", 275967, ("benign", 196, ('f', 1), None, 0, 349842, False)),
    ("clamr", 298784, ("crash", 139, ('r', 1), "SIGSEGV", 0, 298785, False)),
    ("clamr", 324570, ("crash", 181, ('r', 1), "SIGSEGV", 0, 324571, False)),
    ("clamr", 315694, ("benign", 793, ('f', 2), None, 0, 349842, False)),
    ("clamr", 269700, ("benign", 502, ('f', 1), None, 0, 349842, False)),
    ("clamr", 231936, ("crash", 291, ('r', 10), "SIGSEGV", 0, 231936, False)),
    ("clamr", 21370, ("crash", 152, ('r', 10), "SIGSEGV", 0, 21370, False)),
    ("clamr", 212616, ("benign", 46, ('r', 1), None, 0, 349842, False)),
    ("clamr", 285293, ("benign", 744, ('r', 2), None, 0, 349842, False)),
    # hpl
    ("hpl", 54344, ("benign", 259, ('r', 2), None, 0, 146625, False)),
    ("hpl", 24348, ("detected", 301, ('r', 8), None, 0, 145837, False)),
    ("hpl", 4538, ("sdc", 36, ('r', 15), None, 0, 145041, False)),
    ("hpl", 140923, ("benign", 460, ('r', 2), None, 0, 146625, False)),
    ("hpl", 122246, ("crash", 237, ('r', 10), "SIGSEGV", 0, 122246, False)),
    ("hpl", 131539, ("detected", 386, ('f', 10), None, 0, 146625, False)),
    ("hpl", 36685, ("crash", 258, ('r', 10), "SIGBUS", 0, 36685, False)),
    ("hpl", 57798, ("detected", 290, ('r', 1), None, 0, 146625, False)),
    ("hpl", 66586, ("crash", 48, ('r', 0), "SIGSEGV", 0, 66594, False)),
    ("hpl", 73204, ("detected", 257, ('r', 1), None, 0, 142939, False)),
    # comd
    ("comd", 140267, ("benign", 50, ('r', 1), None, 0, 324250, False)),
    ("comd", 307335, ("crash", 60, ('r', 10), "SIGSEGV", 0, 307335, False)),
    ("comd", 169167, ("crash", 204, ('r', 10), "SIGSEGV", 0, 169167, False)),
    ("comd", 105144, ("detected", 435, ('f', 1), None, 0, 316386, False)),
    ("comd", 247370, ("benign", 68, ('f', 1), None, 0, 324240, False)),
    ("comd", 204591, ("crash", 240, ('r', 10), "SIGSEGV", 0, 204591, False)),
    ("comd", 282708, ("detected", 171, ('r', 1), None, 0, 315221, False)),
    ("comd", 297488, ("benign", 93, ('f', 2), None, 0, 324240, False)),
    ("comd", 275496, ("benign", 50, ('r', 1), None, 0, 324245, False)),
    ("comd", 266329, ("benign", 140, ('r', 14), None, 0, 324240, False)),
    # snap
    ("snap", 322761, ("crash", 193, ('r', 10), "SIGSEGV", 0, 322761, False)),
    ("snap", 234074, ("benign", 50, ('r', 15), None, 0, 567445, False)),
    ("snap", 45987, ("crash", 186, ('r', 1), "SIGSEGV", 0, 45988, False)),
    ("snap", 25782, ("benign", 109, ('f', 2), None, 0, 332780, False)),
    ("snap", 283067, ("benign", 119, ('f', 2), None, 0, 585592, False)),
    ("snap", 13689, ("benign", 191, ('r', 1), None, 0, 332780, False)),
    ("snap", 245801, ("crash", 198, ('r', 2), "SIGABRT", 0, 245809, False)),
    ("snap", 220463, ("crash", 199, ('r', 1), "SIGABRT", 0, 220470, False)),
    ("snap", 278768, ("benign", 189, ('f', 2), None, 0, 332780, False)),
    ("snap", 290802, ("crash", 108, ('r', 10), "SIGSEGV", 0, 290802, False)),
    # pennant
    ("pennant", 36594, ("crash", 383, ('r', 1), "SIGSEGV", 0, 36595, False)),
    ("pennant", 58898, ("detected", 571, ('r', 9), None, 0, 124925, False)),
    ("pennant", 73759, ("crash", 678, ('r', 10), "SIGSEGV", 0, 73759, False)),
    ("pennant", 123818, ("benign", 668, ('r', 2), None, 0, 125593, False)),
    ("pennant", 100002, ("crash", 359, ('r', 1), "SIGSEGV", 0, 100003, False)),
    ("pennant", 100107, ("crash", 386, ('f', 1), "SIGABRT", 0, 112437, False)),
    ("pennant", 86191, ("crash", 674, ('r', 1), "SIGSEGV", 0, 86192, False)),
    ("pennant", 97422, ("crash", 648, ('r', 1), "SIGSEGV", 0, 97423, False)),
    ("pennant", 87075, ("crash", 401, ('r', 10), "SIGBUS", 0, 87075, False)),
    ("pennant", 1150, ("crash", 26, ('r', 8), "SIGSEGV", 0, 1166, False)),
]


def _row(result):
    return (
        result.outcome.value,
        result.target_pc,
        result.target_reg,
        result.first_signal.name if result.first_signal else None,
        result.interventions,
        result.steps,
        result.timed_out,
    )


@pytest.mark.parametrize("name", app_names())
def test_baseline_rows_pinned(suite, name):
    app = suite[name]
    rng = np.random.default_rng([SEED, app_names().index(name)])
    plans = plan_injections(rng, app.golden.instret, PLANS_PER_APP)
    expected = [(dyn, row) for app_name, dyn, row in ROWS if app_name == name]
    got = [
        (plan.dyn_index, _row(run_injection(app, plan, None))) for plan in plans
    ]
    assert got == expected


def test_zero_wall_clock_limit_is_a_timed_out_hang(pennant_app):
    plan = InjectionPlan(dyn_index=50_000, bit=62, reg_choice=0.0)
    result = run_injection(pennant_app, plan, None, wall_clock_limit=0)
    assert _row(result) == ("hang", 417, ("f", 1), None, 0, 50_000, True)
