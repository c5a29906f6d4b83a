"""Multi-rank LetGo: coordinated checkpointing on an SPMD job.

Runs the domain-decomposed heat-equation proxy on a 4-rank cluster with
injected faults, comparing plain coordinated C/R (every crash rolls every
rank back) against C/R + comm-safe LetGo (a crashed rank is repaired in
place, saving all ranks' work -- unless the crash is on a send/recv, where
elision would tear the message protocol).

This is the paper's "towards large-scale application" future work, made
runnable.

Run:  python examples/parallel_heat.py
"""

import numpy as np

from repro.checkpoint import CRParams, Policy
from repro.core import LETGO_E
from repro.parallel import HeatApp, drive_cluster
from repro.reporting import ascii_table


def main() -> None:
    app = HeatApp(size=4)
    outputs, steps = app.golden
    total0, totalf = outputs[0][0][1], outputs[0][1][1]
    print(f"golden 4-rank run: {steps:,} instructions total")
    print(f"global heat conserved: {total0:.12f} -> {totalf:.12f}")
    print(f"acceptance check: {app.acceptance_check(outputs)}\n")

    params = CRParams(
        interval=20_000,
        t_chk=3_000,
        t_sync=1_200,
        t_letgo=100,
        mtbf_faults=5_000.0,
    )
    seeds = range(10)
    rows = []
    for label, policy, kwargs in (
        ("no fault tolerance", Policy.NONE, {}),
        ("coordinated C/R", Policy.CR, {}),
        ("C/R + LetGo (comm-safe)", Policy.CR_LETGO, {"letgo": LETGO_E}),
    ):
        runs = [drive_cluster(app, params, policy, seed=s, **kwargs) for s in seeds]
        rows.append(
            [
                label,
                f"{sum(r.completed for r in runs)}/{len(list(seeds))}",
                f"{np.mean([r.efficiency for r in runs]):.3f}",
                sum(r.rollbacks for r in runs),
                sum(r.letgo_repairs for r in runs),
                sum(r.outcome == 'sdc' for r in runs),
            ]
        )
    print(
        ascii_table(
            ["policy", "completed", "mean efficiency", "rollbacks",
             "LetGo repairs", "SDC runs"],
            rows,
            title="4-rank heat proxy under heavy fault injection (10 seeds)",
        )
    )
    print(
        "\nA repair costs one rank a few state edits; a rollback costs all "
        "four ranks their work since the last coordinated checkpoint."
    )


if __name__ == "__main__":
    main()
