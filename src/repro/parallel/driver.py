"""Coordinated checkpoint/restart for SPMD clusters, with LetGo.

Implements the paper's Section-7 multi-node assumptions *in vivo*:
synchronous coordinated checkpoints (all ranks + in-flight messages
captured together), and global rollback -- "when one node crashes, all
nodes in the system have to fall back to the last checkpoint and
re-execute together".  With LetGo attached, a crash on one rank is
repaired locally and *every* rank's work since the checkpoint is saved,
which is exactly why the paper expects LetGo's advantage to grow with
scale.

The C/R loop is :func:`repro.checkpoint.driver.run_cr`, the one that also
drives single processes; this module supplies the N-rank machine.  A
deadlock (e.g. a receiver starved because LetGo elided a crashed send) is
treated like a failure: global rollback under C/R, death without it.  By
default the loop refuses to elide crashes of communication instructions
(comm-safe repair); ``repair_comm=True`` restores the naive behaviour for
ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checkpoint.driver import (
    DEADLOCK,
    CRParams,
    CRRunResult,
    Policy,
    run_cr,
)
from repro.checkpoint.snapshot import Snapshot, restore, snapshot
from repro.core.config import LetGoConfig
from repro.machine.cluster import Cluster
from repro.machine.debugger import STOP_TRAP, DebugSession
from repro.parallel.app import ParallelApp

#: Former names of :class:`Policy` and :class:`CRParams`, still imported
#: by ``perfbench/workloads.py``.
ClusterPolicy = Policy
ClusterCRParams = CRParams


@dataclass(frozen=True)
class ClusterSnapshot:
    """Coordinated checkpoint: every rank + the network, atomically."""

    ranks: tuple[Snapshot, ...]
    channels: dict = field(hash=False)


def take_cluster_snapshot(cluster: Cluster) -> ClusterSnapshot:
    """Capture all ranks and in-flight messages (all must be running)."""
    return ClusterSnapshot(
        ranks=tuple(snapshot(cluster.process(r)) for r in range(cluster.size)),
        channels=cluster.network.capture(),
    )


def restore_cluster(cluster: Cluster, snap: ClusterSnapshot) -> None:
    """Roll every rank and the network back to the checkpoint."""
    for rank, rank_snap in enumerate(snap.ranks):
        cluster.replace_process(rank, restore(cluster.program, rank_snap))
    cluster.network.reset(snap.channels)


class ClusterMachine:
    """A :class:`ParallelApp` cluster: the N-rank machine.

    Repeated failures from one checkpoint mean the checkpoint itself
    captured corrupted (e.g. deadlock-bound) state: after more than three
    crashes, or more than one (deterministic re-)deadlock, since a
    checkpoint, the job restarts from scratch, as an operator would.
    """

    restart_after = {STOP_TRAP: 3, DEADLOCK: 1}

    def __init__(self, app: ParallelApp):
        self.app = app
        self.useful = app.golden_steps
        self.size = app.size
        self.cluster = app.make_cluster()

    def run(self, steps: int):
        return self.cluster.run(steps)

    def checkpoint(self) -> ClusterSnapshot:
        return take_cluster_snapshot(self.cluster)

    def rollback(self, snap: ClusterSnapshot) -> None:
        restore_cluster(self.cluster, snap)

    def trap_session(self, event) -> DebugSession:
        return DebugSession(self.cluster.process(event.rank))

    def live_cpus(self) -> list:
        return [
            r.process.cpu
            for r in self.cluster.ranks
            if not (r.exited or r.terminated)
        ]

    def outputs(self) -> list:
        return self.cluster.outputs()


def drive_cluster(
    app: ParallelApp,
    params: CRParams,
    policy: Policy,
    seed: int = 0,
    letgo: LetGoConfig | None = None,
    repair_comm: bool = False,
) -> CRRunResult:
    """Run *app* as a cluster under *policy* with injected faults."""
    return run_cr(ClusterMachine(app), params, policy, seed, letgo, repair_comm)


__all__ = [
    "ClusterSnapshot",
    "take_cluster_snapshot",
    "restore_cluster",
    "ClusterMachine",
    "drive_cluster",
]
