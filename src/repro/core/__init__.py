"""LetGo core: monitor + modifier + heuristics + session runner.

The paper's primary contribution.  ``run_under_letgo`` takes a loaded
process and continues it across crash-causing errors instead of letting
the OS kill it, per the configured variant (LetGo-B / LetGo-E / ablations).
"""

from repro.core.config import (
    BASELINE,
    LETGO_B,
    LETGO_E,
    LETGO_H1,
    LETGO_H2,
    VARIANTS,
    LetGoConfig,
)
from repro.core.heuristics import (
    HeuristicReport,
    RepairAction,
    apply_heuristic1,
    apply_heuristic2,
)
from repro.core.modifier import InterventionRecord, Modifier
from repro.core.monitor import Monitor, SignalPolicy
from repro.core.session import (
    COMPLETED,
    HUNG,
    TERMINATED,
    LetGoRunReport,
    LetGoSession,
    run_under_letgo,
)

__all__ = [
    "LetGoConfig",
    "BASELINE",
    "LETGO_B",
    "LETGO_E",
    "LETGO_H1",
    "LETGO_H2",
    "VARIANTS",
    "Monitor",
    "SignalPolicy",
    "Modifier",
    "InterventionRecord",
    "HeuristicReport",
    "RepairAction",
    "apply_heuristic1",
    "apply_heuristic2",
    "LetGoSession",
    "LetGoRunReport",
    "run_under_letgo",
    "COMPLETED",
    "TERMINATED",
    "HUNG",
]
