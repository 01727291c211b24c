"""Epoch tracing: a structured record of every epoch the emulator closes.

Section 3.2 describes Quartz's tuning statistics and knobs; this module
is the reproduction's power tool behind them.  Attach an
:class:`EpochTrace` to a :class:`~repro.quartz.emulator.Quartz` instance
and every epoch close is recorded — when, why (monitor / sync / exit),
how long the epoch was, how much delay the model computed and how much
was actually injected.  The summary answers the practical questions:
*is my epoch size right?  are delays propagating through sync points?
is overhead amortising?*

The in-memory trace is capped (oldest records drop past
``max_records``); for full-history inspection of million-epoch runs,
attach a :class:`JsonlTraceWriter` **sink** — every record then also
streams to a JSONL file as it is produced, bypassing the cap entirely.
:func:`read_trace_jsonl` reloads such a file and the
``quartz-repro trace summarize`` CLI subcommand reprints the §3.2-style
summary from it.

The JSONL layout is line-per-object, each tagged with a ``kind``:

* ``header`` — schema name/version, written once at the top;
* ``run`` — a marker opening one emulated run (index, workload, arch,
  mode, seed), written by the experiment runner;
* ``epoch`` — one :class:`EpochRecord`;
* ``stats`` — a :class:`~repro.quartz.stats.QuartzStats` snapshot,
  written when a run completes.

Unknown kinds are ignored on read (forward compatibility).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

from repro.errors import QuartzError
from repro.quartz.stats import EpochTrigger, QuartzStats
from repro.stats_util import summarize

if TYPE_CHECKING:
    from repro.quartz.emulator import Quartz

#: Schema identity of the JSONL trace stream.
TRACE_SCHEMA = "quartz-repro/epoch-trace"
#: Bump when the line layout or record fields change.
TRACE_SCHEMA_VERSION = 1

#: Default in-memory record cap (see :class:`EpochTrace`).
DEFAULT_MAX_RECORDS = 1_000_000


@dataclass(frozen=True)
class EpochRecord:
    """One closed epoch."""

    time_ns: float
    tid: int
    thread_name: str
    trigger: EpochTrigger
    epoch_length_ns: float
    delay_computed_ns: float
    delay_injected_ns: float

    def to_dict(self) -> dict:
        """JSON-safe form (trigger as its string value)."""
        return {
            "time_ns": self.time_ns,
            "tid": self.tid,
            "thread_name": self.thread_name,
            "trigger": self.trigger.value,
            "epoch_length_ns": self.epoch_length_ns,
            "delay_computed_ns": self.delay_computed_ns,
            "delay_injected_ns": self.delay_injected_ns,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EpochRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        try:
            return cls(
                time_ns=float(payload["time_ns"]),
                tid=int(payload["tid"]),
                thread_name=str(payload["thread_name"]),
                trigger=EpochTrigger(payload["trigger"]),
                epoch_length_ns=float(payload["epoch_length_ns"]),
                delay_computed_ns=float(payload["delay_computed_ns"]),
                delay_injected_ns=float(payload["delay_injected_ns"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise QuartzError(f"malformed epoch record: {error}")


class JsonlTraceWriter:
    """Streams trace objects to a JSONL file, one JSON object per line.

    Opening writes the ``header`` line immediately, so even a run that
    closes no epochs leaves a parseable file.  ``close()`` is idempotent;
    the writer is also a context manager.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.records_written = 0
        self.runs_written = 0
        self._handle = open(self.path, "w", encoding="utf-8")
        self._write_line(
            {
                "kind": "header",
                "schema": TRACE_SCHEMA,
                "schema_version": TRACE_SCHEMA_VERSION,
            }
        )

    def _write_line(self, payload: dict) -> None:
        if self._handle is None:
            raise QuartzError(f"trace writer already closed: {self.path}")
        self._handle.write(json.dumps(payload, sort_keys=True))
        self._handle.write("\n")

    def begin_run(self, **fields: Any) -> None:
        """Open one run section (index, workload, arch, mode, seed, ...)."""
        self.runs_written += 1
        self._write_line({"kind": "run", **fields})

    def write_record(self, record: EpochRecord) -> None:
        """Append one epoch record."""
        self.records_written += 1
        self._write_line({"kind": "epoch", **record.to_dict()})

    def write_stats(self, stats: QuartzStats) -> None:
        """Append a run-final emulator statistics snapshot."""
        self._write_line({"kind": "stats", **stats.to_dict()})

    def close(self) -> None:
        """Flush and close the file (safe to call twice)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class EpochTrace:
    """A growable trace of epoch closes, with summary analytics."""

    records: Sequence[EpochRecord] = field(default_factory=list)
    #: Cap to keep long runs bounded; oldest records are dropped.
    max_records: int = DEFAULT_MAX_RECORDS
    #: Optional streaming sink: every recorded epoch is also written to
    #: this :class:`JsonlTraceWriter`, uncapped.
    sink: Optional[JsonlTraceWriter] = None

    def __post_init__(self) -> None:
        # A bounded deque evicts from the front in O(1); the old list
        # implementation paid O(n) per record once the cap was reached.
        self.records = deque(self.records, maxlen=self.max_records)

    def record(self, record: EpochRecord) -> None:
        """Append one record (drops the oldest past ``max_records``).

        With a ``sink`` attached the record additionally streams to the
        JSONL file, so the on-disk history never loses anything to the
        in-memory cap.
        """
        self.records.append(record)
        if self.sink is not None:
            self.sink.write_record(record)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def by_trigger(self, trigger: EpochTrigger) -> list[EpochRecord]:
        """All records closed by one trigger."""
        return [r for r in self.records if r.trigger is trigger]

    def by_thread(self, tid: int) -> list[EpochRecord]:
        """All records of one thread."""
        return [r for r in self.records if r.tid == tid]

    @property
    def total_injected_ns(self) -> float:
        """Sum of injected delays across the trace."""
        return sum(r.delay_injected_ns for r in self.records)

    def epoch_length_stats(self):
        """Trial statistics over epoch lengths."""
        if not self.records:
            raise QuartzError("empty trace")
        return summarize([r.epoch_length_ns for r in self.records])

    def injection_ratio(self) -> float:
        """Injected / computed delay (1.0 = no amortisation shaving)."""
        computed = sum(r.delay_computed_ns for r in self.records)
        if computed <= 0:
            return 1.0
        return self.total_injected_ns / computed

    def summary(self) -> str:
        """A human-readable multi-line report."""
        if not self.records:
            return "epoch trace: empty"
        lengths = self.epoch_length_stats()
        lines = [
            f"epoch trace: {len(self.records)} epochs over "
            f"{len({r.tid for r in self.records})} thread(s)",
            (
                f"  triggers: monitor={len(self.by_trigger(EpochTrigger.MONITOR))}"
                f" sync={len(self.by_trigger(EpochTrigger.SYNC))}"
                f" exit={len(self.by_trigger(EpochTrigger.EXIT))}"
            ),
            (
                f"  epoch length us: mean={lengths.mean / 1000.0:.1f}"
                f" min={lengths.minimum / 1000.0:.1f}"
                f" max={lengths.maximum / 1000.0:.1f}"
            ),
            (
                f"  delay injected: {self.total_injected_ns / 1e6:.3f} ms"
                f" ({100.0 * self.injection_ratio():.1f}% of computed)"
            ),
        ]
        return "\n".join(lines)


@dataclass
class TraceFile:
    """A reloaded JSONL trace: records plus run/stats markers."""

    header: dict
    trace: EpochTrace
    runs: list[dict] = field(default_factory=list)
    stats: list[dict] = field(default_factory=list)


def read_trace_jsonl(
    path: Union[str, Path], max_records: Optional[int] = None
) -> TraceFile:
    """Reload a JSONL epoch trace written by :class:`JsonlTraceWriter`.

    ``max_records`` caps the rebuilt in-memory trace exactly like a live
    :class:`EpochTrace` (default: the same 1M-record cap), so the
    summary of a reloaded capped run matches the in-memory one.  Lines
    with unknown ``kind`` values are skipped; a missing or incompatible
    header raises :class:`~repro.errors.QuartzError`.
    """
    path = Path(path)
    cap = DEFAULT_MAX_RECORDS if max_records is None else max_records
    header: Optional[dict] = None
    records: deque = deque(maxlen=cap)
    runs: list[dict] = []
    stats: list[dict] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as error:
        raise QuartzError(f"cannot open trace file: {error}")
    with handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError as error:
                raise QuartzError(
                    f"{path}:{line_number}: not valid JSON ({error})"
                )
            kind = payload.get("kind")
            if header is None:
                if kind != "header" or payload.get("schema") != TRACE_SCHEMA:
                    raise QuartzError(
                        f"{path}: not a {TRACE_SCHEMA} JSONL file"
                    )
                if payload.get("schema_version") != TRACE_SCHEMA_VERSION:
                    raise QuartzError(
                        f"{path}: unsupported trace schema version "
                        f"{payload.get('schema_version')!r} "
                        f"(supported: {TRACE_SCHEMA_VERSION})"
                    )
                header = payload
                continue
            if kind == "epoch":
                records.append(EpochRecord.from_dict(payload))
            elif kind == "run":
                runs.append(payload)
            elif kind == "stats":
                stats.append(payload)
            # unknown kinds: skip (forward compatibility)
    if header is None:
        raise QuartzError(f"{path}: empty trace file (no header line)")
    return TraceFile(
        header=header,
        trace=EpochTrace(records=records, max_records=cap),
        runs=runs,
        stats=stats,
    )


def summarize_trace_jsonl(
    path: Union[str, Path], max_records: Optional[int] = None
) -> str:
    """The §3.2-style summary of a JSONL trace file.

    The first lines are exactly :meth:`EpochTrace.summary` over the
    reloaded records; run markers and per-run stats snapshots, when
    present, append amortisation feedback per emulated run.
    """
    document = read_trace_jsonl(path, max_records=max_records)
    lines = [document.trace.summary()]
    if document.runs:
        lines.append(f"  runs traced: {len(document.runs)}")
    for index, stats in enumerate(document.stats):
        run = document.runs[index] if index < len(document.runs) else {}
        label = run.get("label") or (
            f"{run.get('workload', '?')}/{run.get('arch', '?')}"
            f"/seed={run.get('seed', '?')}"
        )
        amortized = "yes" if stats.get("fully_amortized") else "NO"
        lines.append(
            f"  run {run.get('index', index)} ({label}): "
            f"{stats.get('epochs_total', 0)} epochs, "
            f"{stats.get('delay_injected_ns', 0.0) / 1e6:.3f} ms injected, "
            f"overhead fully amortized: {amortized}"
        )
    return "\n".join(lines)


def attach_trace(
    quartz: "Quartz",
    max_records: int = DEFAULT_MAX_RECORDS,
    sink: Optional[JsonlTraceWriter] = None,
) -> EpochTrace:
    """Instrument an attached Quartz with an epoch trace.

    Wraps the engine's close paths; the emulator's behaviour is unchanged
    (tracing is free in simulated time).  Returns the live trace.  With
    ``sink`` set, every record also streams to the JSONL writer.
    """
    engine = quartz._engine
    if engine is None:
        raise QuartzError("attach the emulator before attaching a trace")
    trace = EpochTrace(max_records=max_records, sink=sink)
    original_measure = engine._close_measure

    def traced_measure(thread, state, trigger):
        epoch_length = engine.machine.sim.now - state.start_ns
        injected_before = quartz.stats.thread(thread.tid).delay_injected_ns
        delay_ns, cost = original_measure(thread, state, trigger)
        trace.record(
            EpochRecord(
                time_ns=engine.machine.sim.now,
                tid=thread.tid,
                thread_name=thread.name,
                trigger=trigger,
                epoch_length_ns=epoch_length,
                delay_computed_ns=delay_ns,
                # Injection happens after amortisation; resolved lazily
                # below via the injected-delta of the stats record.
                delay_injected_ns=max(
                    0.0,
                    delay_ns
                    - max(0.0, state.overhead_pool_ns),
                ),
            )
        )
        del injected_before
        return delay_ns, cost

    engine._close_measure = traced_measure
    return trace
