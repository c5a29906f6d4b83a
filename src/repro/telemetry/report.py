"""Aggregated telemetry: where a campaign's wall-clock actually went.

A :class:`TelemetryReport` reduces a merged event stream to per-phase
statistics (count / total / mean / max seconds) plus the counter tallies,
and renders them as the end-of-campaign breakdown table the CLI prints.

Determinism contract
--------------------
Phase *durations* are wall-clock and vary run to run; phase *counts* for
the per-injection phases and all counters are pure functions of the
campaign's plan population.  :meth:`TelemetryReport.signature` projects
out exactly that deterministic core, which is what the engine's
cross-process merge test pins: the same seed must produce an identical
signature at ``jobs=1`` and ``jobs=4``.  Engine-level phases (one
``shard`` span per shard, journal appends) are excluded because the shard
*count* legitimately depends on the fan-out geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.reporting.tables import ascii_table

#: Span names whose counts are per-injection, i.e. independent of
#: sharding and worker geometry.  These (plus all counters) form the
#: deterministic signature.
INJECTION_PHASES = frozenset(
    {
        "restore",
        "advance-to-site",
        "post-fault",
        "repair",
        "acceptance-check",
    }
)


@dataclass
class PhaseStat:
    """Aggregate of every span with one name."""

    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


@dataclass
class TelemetryReport:
    """One campaign's aggregated telemetry."""

    phases: dict[str, PhaseStat] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    events: int = 0
    dropped: int = 0
    wall_seconds: float = 0.0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: list[dict],
        counters: dict[str, int] | None = None,
        dropped: int = 0,
        wall_seconds: float = 0.0,
    ) -> "TelemetryReport":
        """Aggregate a canonical record list (see ``Tracer.records``)."""
        report = cls(
            counters=dict(counters or {}),
            events=len(records),
            dropped=dropped,
            wall_seconds=wall_seconds,
        )
        phases = report.phases
        for record in records:
            if record["kind"] != "span":
                continue
            stat = phases.get(record["name"])
            if stat is None:
                stat = phases[record["name"]] = PhaseStat()
            stat.add(record["dur"])
        return report

    @classmethod
    def from_tracer(cls, tracer, wall_seconds: float = 0.0) -> "TelemetryReport":
        """Aggregate everything a (merged) tracer recorded."""
        return cls.from_records(
            tracer.records(),
            counters=tracer.counters,
            dropped=tracer.dropped,
            wall_seconds=wall_seconds,
        )

    # -- deterministic projection ------------------------------------------

    def signature(self) -> dict:
        """The sharding-independent core of this report.

        Counters plus per-injection phase counts: for a given (app, n,
        seed, config, plans) this dict is identical whatever ``jobs``,
        ``shard_size`` or ``ladder_interval`` the campaign ran with.
        """
        return {
            "counters": dict(sorted(self.counters.items())),
            "phase_counts": {
                name: stat.count
                for name, stat in sorted(self.phases.items())
                if name in INJECTION_PHASES
            },
        }

    # -- accessors ---------------------------------------------------------

    def outcome_counts(self) -> dict[str, int]:
        """Per-outcome tallies from the engine's shard tally (``outcome:*``)."""
        return {
            name.split(":", 1)[1]: value
            for name, value in sorted(self.counters.items())
            if name.startswith("outcome:")
        }

    def heuristic_counts(self) -> dict[str, int]:
        """Per-heuristic firing tallies (``heuristic:*``)."""
        return {
            name.split(":", 1)[1]: value
            for name, value in sorted(self.counters.items())
            if name.startswith("heuristic:")
        }

    def phase_seconds(self) -> dict[str, float]:
        """Total seconds per phase name."""
        return {name: stat.total_seconds for name, stat in self.phases.items()}

    # -- rendering ---------------------------------------------------------

    def render(self, title: str | None = None) -> str:
        """The end-of-campaign breakdown: phases table + counter table."""
        wall = self.wall_seconds
        phase_rows = [
            [
                name,
                stat.count,
                f"{stat.total_seconds:.3f}",
                f"{stat.mean_seconds * 1e3:.2f}",
                f"{stat.max_seconds * 1e3:.2f}",
                f"{100.0 * stat.total_seconds / wall:.1f}%" if wall > 0 else "-",
            ]
            for name, stat in sorted(
                self.phases.items(), key=lambda kv: -kv[1].total_seconds
            )
        ]
        parts = [
            ascii_table(
                ["phase", "count", "total s", "mean ms", "max ms", "of wall"],
                phase_rows,
                title=title or "phase breakdown",
            )
        ]
        counter_rows = [
            [name, value] for name, value in sorted(self.counters.items())
        ]
        if counter_rows:
            parts.append("")
            parts.append(ascii_table(["counter", "n"], counter_rows))
        tail = f"{self.events} events"
        if self.dropped:
            tail += f" ({self.dropped} dropped by the ring buffer)"
        if wall > 0:
            tail += f", {wall:.2f}s wall-clock"
        parts.append("")
        parts.append(tail)
        return "\n".join(parts)


__all__ = ["TelemetryReport", "PhaseStat", "INJECTION_PHASES"]
