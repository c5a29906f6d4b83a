"""In-vivo checkpoint/restart: snapshots + a driven C/R runtime.

Executes the paper's Figure-1 scenario for real on the substrate --
periodic checkpoints, Poisson fault arrivals, rollback vs LetGo repair --
so the analytical Figure-6 model (``repro.crsim``) can be cross-validated
against measured behaviour.
"""

from repro.checkpoint.driver import (
    CRParams,
    CRRunResult,
    Policy,
    drive,
)
from repro.checkpoint.snapshot import (
    Snapshot,
    SnapshotLadder,
    build_ladder,
    restore,
    restore_into,
    snapshot,
)

__all__ = [
    "Snapshot",
    "snapshot",
    "restore",
    "restore_into",
    "SnapshotLadder",
    "build_ladder",
    "Policy",
    "CRParams",
    "CRRunResult",
    "drive",
]
