"""SPMD parallelism: clusters, a parallel proxy app, coordinated C/R.

The paper's "towards large-scale application" extension, built for real:
multi-rank jobs with message passing, synchronous coordinated
checkpointing, global rollback on failure, and per-rank LetGo repair that
saves every rank's work at once.
"""

from repro.machine.cluster import Cluster, ClusterEvent, Network
from repro.parallel.app import HeatApp, ParallelApp, RankOutputs
from repro.parallel.cg import CgApp
from repro.parallel.driver import (
    ClusterSnapshot,
    drive_cluster,
    restore_cluster,
    take_cluster_snapshot,
)

__all__ = [
    "Cluster",
    "ClusterEvent",
    "Network",
    "ParallelApp",
    "HeatApp",
    "CgApp",
    "RankOutputs",
    "ClusterSnapshot",
    "take_cluster_snapshot",
    "restore_cluster",
    "drive_cluster",
]
