"""The tracer: a ring-buffered structured-event recorder.

A :class:`Tracer` is a cheap append-only log of what one execution stream
(the campaign parent, or one worker shard) did and when.  Three event
kinds cover the campaign engine's needs:

``span``
    A named duration with nesting depth -- one timed phase (``restore``,
    ``post-fault``, ``journal-append``).  Opened with :meth:`Tracer.span`
    as a context manager; the record is written on exit, exceptions
    included, so failed shards still account their time.
``instant``
    A point event with optional arguments (``flip``, ``retry``,
    ``quarantine``, ``progress`` probes).
``gauge``
    A sampled value over time (``queue-depth``).

Counters are kept separately in a plain dict (name -> int): they are the
deterministic backbone of the aggregated report, and summing dicts is
order-independent, which is what makes the cross-process merge reproduce
the serial campaign's tallies exactly.

Timestamps come from :func:`time.perf_counter` and are stored relative to
the tracer's birth; :meth:`export` produces a picklable payload and
:meth:`absorb` merges one into a parent tracer, shifting times by a
caller-supplied offset so worker streams land on the parent's timeline.

The ring buffer (``capacity`` events) bounds memory at large N: when full,
the oldest event is dropped and ``dropped`` incremented -- counters are
never dropped, so aggregated tallies stay exact even when the raw trace
is truncated.

Disabled tracing is the module-level :data:`NULL_TRACER` singleton: every
method is a no-op and :meth:`NullTracer.span` returns one shared, reusable
null context manager, so instrumented code costs one attribute lookup and
one method call per phase when telemetry is off.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

#: Default ring-buffer capacity (events, not counters).
DEFAULT_CAPACITY = 100_000


class _NullSpan:
    """Shared no-op context manager returned by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    ``enabled`` is False so instrumented code can skip building event
    arguments entirely (``if tracer.enabled: ...``) on hot-ish paths.
    """

    __slots__ = ()

    enabled = False
    probe_interval = 0

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass

    def instant(self, name: str, **args) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def now(self) -> float:
        return 0.0


NULL_TRACER = NullTracer()


class _Span:
    """One open span; records itself on ``__exit__``."""

    __slots__ = ("tracer", "name", "t0")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.tracer._depth += 1
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = perf_counter()
        tracer = self.tracer
        tracer._depth -= 1
        tracer._append(
            {
                "kind": "span",
                "name": self.name,
                "ts": self.t0 - tracer._t0,
                "dur": end - self.t0,
                "depth": tracer._depth,
                "tid": tracer.tid,
            }
        )
        return False


class Tracer:
    """Enabled structured-event recorder for one execution stream.

    ``tid`` labels the stream (``"engine"``, ``"shard-0042"``);
    ``probe_interval`` > 0 asks instrumented run loops to emit
    ``progress`` instants every that many retired instructions.
    """

    __slots__ = (
        "tid",
        "probe_interval",
        "capacity",
        "counters",
        "dropped",
        "_events",
        "_foreign",
        "_depth",
        "_t0",
    )

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        tid: str = "main",
        probe_interval: int = 0,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if probe_interval < 0:
            raise ValueError("probe_interval must be >= 0")
        self.tid = tid
        self.probe_interval = probe_interval
        self.capacity = capacity
        self.counters: dict[str, int] = {}
        self.dropped = 0
        self._events: deque[dict] = deque(maxlen=capacity)
        self._foreign: list[dict] = []
        self._depth = 0
        self._t0 = perf_counter()

    # -- recording ---------------------------------------------------------

    def _append(self, record: dict) -> None:
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1  # deque(maxlen) evicts the oldest on append
        events.append(record)

    def span(self, name: str) -> _Span:
        """Open a timed span; use as ``with tracer.span("restore"):``."""
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter *name* by *n* (never ring-buffered)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def add_counters(self, counters: dict[str, int]) -> None:
        """Add a whole tally (name -> int) to this tracer's counters."""
        for name, value in counters.items():
            self.count(name, value)

    def instant(self, name: str, **args) -> None:
        """Record a point event, with optional structured arguments."""
        self._append(
            {
                "kind": "instant",
                "name": name,
                "ts": perf_counter() - self._t0,
                "args": args or None,
                "tid": self.tid,
            }
        )

    def gauge(self, name: str, value: float) -> None:
        """Sample a time-varying value (e.g. queue depth)."""
        self._append(
            {
                "kind": "gauge",
                "name": name,
                "ts": perf_counter() - self._t0,
                "value": float(value),
                "tid": self.tid,
            }
        )

    def now(self) -> float:
        """Seconds since this tracer was created (its timeline origin)."""
        return perf_counter() - self._t0

    # -- merge protocol ----------------------------------------------------

    def export(self) -> dict:
        """Picklable payload of everything recorded so far.

        Timestamps are relative to this tracer's birth; the receiving
        :meth:`absorb` re-bases them onto its own timeline.
        """
        return {
            "tid": self.tid,
            "records": list(self._events),
            "counters": dict(self.counters),
            "dropped": self.dropped,
        }

    def absorb(self, payload: dict, offset: float = 0.0) -> None:
        """Merge an exported payload from another tracer.

        *offset* (seconds on this tracer's timeline) shifts the payload's
        events to where its stream actually ran -- the engine passes
        ``commit_time - shard_duration`` so worker spans line up with the
        parent's view in the Chrome trace.  Counter merging is a plain
        sum, hence order-independent: absorbing shards in any completion
        order yields identical aggregated counters.
        """
        self.add_counters(payload["counters"])
        self.dropped += payload["dropped"]
        for record in payload["records"]:
            shifted = dict(record)
            shifted["ts"] = record["ts"] + offset
            self._foreign.append(shifted)

    def records(self) -> list[dict]:
        """All events (own + absorbed), sorted by timestamp then tid.

        The sort makes the exported trace independent of shard completion
        order, so two runs of the same campaign differ only in the
        timestamp *values*, never in record ordering logic.
        """
        merged = list(self._events) + self._foreign
        merged.sort(key=lambda r: (r["ts"], r["tid"], r["name"]))
        return merged


__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "DEFAULT_CAPACITY"]
