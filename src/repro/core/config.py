"""LetGo configuration: which heuristics run, which signals are elided.

The paper evaluates two variants:

* **LetGo-B(asic)**  -- intercept the signal and advance the PC, nothing else;
* **LetGo-E(nhanced)** -- additionally apply Heuristic I (feed faulted loads a
  fill value, skip stores) and Heuristic II (detect and repair corrupted
  ``sp``/``bp`` from the function's static frame size).

Per-heuristic toggles (H1-only / H2-only) are exposed for the ablation
benches, and the Heuristic-I fill value is configurable (the paper uses 0
and calls fancier choices future work).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.signals import LETGO_DEFAULT_SIGNALS, Signal


@dataclass(frozen=True)
class LetGoConfig:
    """One LetGo variant.

    ``max_interventions`` is 1 in the paper: LetGo repairs the first crash;
    if the application crashes again it is allowed to die ("double crash").
    """

    name: str
    heuristic1: bool = True
    heuristic2: bool = True
    fill_int: int = 0
    fill_float: float = 0.0
    handled_signals: frozenset[Signal] = field(default=LETGO_DEFAULT_SIGNALS)
    max_interventions: int = 1
    #: Heuristic-II slack: how many bytes of callee pushes beyond the frame
    #: the sp/bp relationship check tolerates.
    frame_slack: int = 4096

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [self.name]
        parts.append(f"H1={'on' if self.heuristic1 else 'off'}")
        parts.append(f"H2={'on' if self.heuristic2 else 'off'}")
        signals = ",".join(s.name for s in sorted(self.handled_signals))
        parts.append(f"signals={signals}")
        return " ".join(parts)


#: The no-LetGo baseline: an empty signal table leaves every signal at its
#: default disposition, so the first crash kills the run.  Not a variant:
#: sweeps and the CLI spell it ``config=None``.
BASELINE = LetGoConfig(
    name="baseline",
    heuristic1=False,
    heuristic2=False,
    handled_signals=frozenset(),
)

#: The paper's basic variant: PC advance only.
LETGO_B = LetGoConfig(name="LetGo-B", heuristic1=False, heuristic2=False)

#: The paper's enhanced variant: both heuristics.
LETGO_E = LetGoConfig(name="LetGo-E", heuristic1=True, heuristic2=True)

#: Ablations (not in the paper; used by bench_ablation_heuristics).
LETGO_H1 = LetGoConfig(name="LetGo-H1", heuristic1=True, heuristic2=False)
LETGO_H2 = LetGoConfig(name="LetGo-H2", heuristic1=False, heuristic2=True)

#: All named variants, for sweeps.
VARIANTS: dict[str, LetGoConfig] = {
    c.name: c for c in (LETGO_B, LETGO_E, LETGO_H1, LETGO_H2)
}

__all__ = ["LetGoConfig", "BASELINE", "LETGO_B", "LETGO_E", "LETGO_H1", "LETGO_H2", "VARIANTS"]
