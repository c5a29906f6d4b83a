"""In-vivo Figure 8: coordinated C/R vs C/R+LetGo as the cluster grows.

Runs the SPMD heat proxy at 2, 4 and 8 ranks with the per-node fault rate
held constant (so the cluster fault rate grows with scale, the Figure-8
setup) under coordinated checkpointing with global rollback.  Three
policies:

* plain coordinated C/R,
* C/R + comm-safe LetGo (crashes on send/recv instructions are never
  elided -- skipping a message tears the protocol),
* C/R + naive LetGo (elides everything, the single-process behaviour).

Expected shape: efficiency declines with scale; comm-safe LetGo beats
plain C/R at every scale because repairing one rank saves *all* ranks'
work; and comm-safe beats naive -- the parallel-specific hazard this
reproduction surfaced (elided messages become deadlocks and poisoned
checkpoints).
"""

import os

import numpy as np

from repro.checkpoint import CRParams, Policy
from repro.core import LETGO_E
from repro.parallel import HeatApp, drive_cluster
from repro.reporting import ascii_table

from conftest import write_artifact

SEEDS = range(int(os.environ.get("REPRO_INVIVO_SEEDS", "10")))
#: Per-node mean instructions between faults (constant across scales).
PER_NODE_MTBF = 20_000.0
SIZES = (2, 4, 8)
TOTAL_CELLS = 48  # global problem held constant (strong scaling)

VARIANTS = (
    ("cr", Policy.CR, {}),
    ("letgo-safe", Policy.CR_LETGO, {"letgo": LETGO_E}),
    ("letgo-naive", Policy.CR_LETGO, {"letgo": LETGO_E, "repair_comm": True}),
)


def build_study():
    rows = []
    stats = {}
    for size in SIZES:
        app = HeatApp(size=size, n_local=TOTAL_CELLS // size)
        app.golden
        params = CRParams(
            interval=20_000,
            t_chk=3_000,
            t_sync=300 * size,
            t_letgo=100,
            mtbf_faults=PER_NODE_MTBF / size,
        )
        for label, policy, kwargs in VARIANTS:
            runs = [
                drive_cluster(app, params, policy, seed=s, **kwargs)
                for s in SEEDS
            ]
            eff = float(np.mean([r.efficiency for r in runs]))
            stats[(size, label)] = {
                "eff": eff,
                "completed": sum(r.completed for r in runs),
                "rollbacks": sum(r.rollbacks for r in runs),
                "repairs": sum(r.letgo_repairs for r in runs),
            }
            entry = stats[(size, label)]
            rows.append(
                [size, label, f"{eff:.3f}",
                 f"{entry['completed']}/{len(list(SEEDS))}",
                 entry["rollbacks"], entry["repairs"]]
            )
    text = ascii_table(
        ["ranks", "policy", "mean efficiency", "completed", "rollbacks", "repairs"],
        rows,
        title=(
            "In-vivo Figure 8: coordinated C/R on the SPMD heat proxy "
            f"(per-node MTBF {PER_NODE_MTBF:.0f} instrs, strong scaling)"
        ),
    )
    return stats, text


def test_invivo_scaling(benchmark):
    stats, text = benchmark.pedantic(build_study, rounds=1, iterations=1)
    print("\n" + text)
    write_artifact("invivo_scale.txt", text)

    n = len(list(SEEDS))
    for size in SIZES:
        cr = stats[(size, "cr")]
        safe = stats[(size, "letgo-safe")]
        # both schemes keep the job alive
        assert cr["completed"] >= n - 2, size
        assert safe["completed"] >= n - 2, size
        # comm-safe LetGo does not lose to plain coordinated C/R
        assert safe["eff"] >= cr["eff"] - 0.02, size
    # LetGo actually repaired crashes
    assert sum(stats[(s, "letgo-safe")]["repairs"] for s in SIZES) > 0
    # efficiency declines with scale for plain C/R
    assert stats[(SIZES[0], "cr")]["eff"] > stats[(SIZES[-1], "cr")]["eff"]
    # comm-safe at least matches naive on average (the protocol hazard)
    safe_mean = np.mean([stats[(s, "letgo-safe")]["eff"] for s in SIZES])
    naive_mean = np.mean([stats[(s, "letgo-naive")]["eff"] for s in SIZES])
    assert safe_mean >= naive_mean - 0.01
