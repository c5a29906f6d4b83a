"""Fault-outcome taxonomy (paper Figure 4).

Top split: did the run *crash* (receive a crash-causing signal) or finish?
Finished runs break down by the application acceptance check and a bitwise
golden comparison; crash-origin runs under LetGo break down by whether the
continuation completed and what it produced.

The paper's "Double crash" column absorbs every crash LetGo could not
convert into a completed run; we keep three distinct reasons
(:data:`DOUBLE_CRASH`, :data:`CRASH_UNHANDLED`, :data:`C_HANG`) and
provide :meth:`Outcome.folds_to_double_crash` for Table-3 accounting.
Hangs of *non*-crash origin get their own bucket (the paper notes they are
rare; they are, here too).
"""

from __future__ import annotations

from enum import Enum


class Outcome(Enum):
    """Leaf classification of one fault-injection run."""

    # -- finished, no crash signal ever raised ---------------------------
    BENIGN = "benign"            # passed checks, bitwise-identical to golden
    SDC = "sdc"                  # passed checks, output differs from golden
    DETECTED = "detected"        # acceptance check caught the corruption
    HANG = "hang"                # never finished (budget exhausted), no crash

    # -- crash-causing error, baseline (no LetGo) ---------------------------
    CRASH = "crash"              # default disposition: terminated

    # -- crash-causing error, LetGo engaged -----------------------------
    DOUBLE_CRASH = "double-crash"        # repaired, crashed again, gave up
    CRASH_UNHANDLED = "crash-unhandled"  # signal outside LetGo's table
    C_BENIGN = "c-benign"        # continued; correct output
    C_SDC = "c-sdc"              # continued; undetected wrong output
    C_DETECTED = "c-detected"    # continued; acceptance check caught it
    C_HANG = "c-hang"            # continued but never finished

    # -- degenerate -------------------------------------------------------
    NOT_INJECTED = "not-injected"  # run ended before any eligible target

    # -- taxonomy helpers ---------------------------------------------------

    @property
    def crash_origin(self) -> bool:
        """True if the underlying fault raised a crash-causing signal."""
        return self in _CRASH_ORIGIN

    @property
    def continued(self) -> bool:
        """True if LetGo successfully continued the run to completion."""
        return self in (Outcome.C_BENIGN, Outcome.C_SDC, Outcome.C_DETECTED)

    @property
    def is_sdc(self) -> bool:
        """Undetected wrong output (with or without LetGo continuation)."""
        return self in (Outcome.SDC, Outcome.C_SDC)

    @property
    def folds_to_double_crash(self) -> bool:
        """True for crash-origin runs LetGo failed to convert (Table 3)."""
        return self in (
            Outcome.DOUBLE_CRASH,
            Outcome.CRASH_UNHANDLED,
            Outcome.C_HANG,
        )


_CRASH_ORIGIN = frozenset(
    {
        Outcome.CRASH,
        Outcome.DOUBLE_CRASH,
        Outcome.CRASH_UNHANDLED,
        Outcome.C_BENIGN,
        Outcome.C_SDC,
        Outcome.C_DETECTED,
        Outcome.C_HANG,
    }
)

#: Finished-branch outcomes (Figure 4, left subtree).
FINISHED_OUTCOMES = (Outcome.DETECTED, Outcome.BENIGN, Outcome.SDC)

#: Crash-branch outcomes under LetGo (Figure 4, right subtree).
LETGO_CRASH_OUTCOMES = (
    Outcome.DOUBLE_CRASH,
    Outcome.CRASH_UNHANDLED,
    Outcome.C_DETECTED,
    Outcome.C_BENIGN,
    Outcome.C_SDC,
    Outcome.C_HANG,
)


def classify_finished(
    passed_check: bool, matches_golden: bool, continued: bool
) -> Outcome:
    """Leaf for a run that reached HALT (Figure 4 left/right-lower split)."""
    if not passed_check:
        return Outcome.C_DETECTED if continued else Outcome.DETECTED
    if matches_golden:
        return Outcome.C_BENIGN if continued else Outcome.BENIGN
    return Outcome.C_SDC if continued else Outcome.SDC


def classify_output(app, output, continued: bool) -> Outcome:
    """Leaf for a run that reached HALT and produced *output*.

    *app* supplies ``acceptance_check`` and ``matches_golden`` (a
    ``MiniApp`` or a ``ParallelApp``); the golden comparison runs only
    when the acceptance check passed.
    """
    passed = app.acceptance_check(output)
    return classify_finished(
        passed_check=passed,
        matches_golden=passed and app.matches_golden(output),
        continued=continued,
    )


__all__ = [
    "Outcome",
    "FINISHED_OUTCOMES",
    "LETGO_CRASH_OUTCOMES",
    "classify_finished",
    "classify_output",
]
