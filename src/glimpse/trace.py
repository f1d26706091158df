"""Decode traces, wall-clock phase instrumentation, and JSONL serialization.

Every decode run (``parallel``, ``ar`` or ``answer``) records one
:class:`IterationRecord` per iteration plus a :class:`TimeBreakdown` of
where the wall clock went.  Traces are the single input to the metrics
module and to golden-trace tests, and serialize to JSONL with one
iteration per line.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from typing import IO

from glimpse.errors import InstrumentationError

#: Wall-clock categories reported in benchmark tables.
PHASES = ("infer", "decode", "kv_cache", "stop_check")


@dataclass
class TimeBreakdown:
    """Disjoint wall-clock totals in seconds; they sum to <= total elapsed."""

    infer: float = 0.0
    decode: float = 0.0
    kv_cache: float = 0.0
    stop_check: float = 0.0

    def total(self) -> float:
        return self.infer + self.decode + self.kv_cache + self.stop_check

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


class PhaseTimer:
    """Accumulates monotone-clock durations per category.

    Phases may not overlap: beginning a phase while another is active, or
    ending one that is not active, raises :class:`InstrumentationError`.
    This makes double counting impossible by construction.
    """

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self._active: str | None = None
        self._entering = ""
        self._start = 0.0

    def begin(self, category: str) -> None:
        if self._active is not None:
            raise InstrumentationError(
                f"cannot begin {category!r}: phase {self._active!r} still active"
            )
        self._active = category
        self._start = time.perf_counter()

    def end(self, category: str) -> None:
        if self._active != category:
            raise InstrumentationError(
                f"cannot end {category!r}: active phase is {self._active!r}"
            )
        self.totals[category] = self.totals.get(category, 0.0) + (
            time.perf_counter() - self._start
        )
        self._active = None

    def phase(self, category: str) -> "PhaseTimer":
        """``with timer.phase(category):`` times the block (begin/end around it).

        The timer is its own context manager, not a generator-based one: the
        decode loop enters several phases per iteration, and this costs a
        third as much per entry.
        """
        self._entering = category
        return self

    def __enter__(self) -> None:
        self.begin(self._entering)

    def __exit__(self, *exc: object) -> None:
        self.end(self._active)  # type: ignore[arg-type]

    def get(self, category: str) -> float:
        return self.totals.get(category, 0.0)

    def breakdown(self) -> TimeBreakdown:
        if self._active is not None:
            raise InstrumentationError(f"phase {self._active!r} never ended")
        return TimeBreakdown(**{name: self.get(name) for name in PHASES})


@dataclass
class IterationRecord:
    """State transition of one decode iteration.

    ``window_before`` holds the guesses the forward call actually saw;
    ``committed`` the tokens verified exact this iteration; ``window``
    the refilled guess block afterwards.
    """

    iteration: int
    frontier_before: int
    frontier: int
    window_before: list[int]
    predictions: list[int]
    match_len: int
    committed: list[int]
    window: list[int]

    def to_json(self) -> dict:
        """The JSONL object: the fields in declaration order, then ``"type"``.

        Built field by field rather than with ``dataclasses.asdict``, which
        deep-copies every list; the lists are shared, not copied.
        """
        return {
            "iteration": self.iteration,
            "frontier_before": self.frontier_before,
            "frontier": self.frontier,
            "window_before": self.window_before,
            "predictions": self.predictions,
            "match_len": self.match_len,
            "committed": self.committed,
            "window": self.window,
            "type": "iteration",
        }


@dataclass
class DecodeTrace:
    """Full record of one decode run for one instance."""

    method: str
    prompt: list[int]
    window_len: int
    skip: bool
    records: list[IterationRecord] = field(default_factory=list)
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    wall_s: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.records)

    def committed_stream(self) -> list[int]:
        out: list[int] = []
        for rec in self.records:
            out.extend(rec.committed)
        return out

    def write_jsonl(self, fh: IO[str]) -> None:
        header = {
            "type": "header",
            "method": self.method,
            "prompt": self.prompt,
            "window_len": self.window_len,
            "skip": self.skip,
        }
        fh.write(json.dumps(header) + "\n")
        for rec in self.records:
            fh.write(json.dumps(rec.to_json()) + "\n")
        summary = {
            "type": "summary",
            "breakdown": self.breakdown.as_dict(),
            "wall_s": self.wall_s,
        }
        fh.write(json.dumps(summary) + "\n")


# The keys of each line type besides ``"type"``, as ``write_jsonl`` writes them.
_LINE_KEYS = {
    "header": {"method", "prompt", "window_len", "skip"},
    "iteration": {f.name for f in fields(IterationRecord)},
    "summary": {"breakdown", "wall_s"},
}


def read_traces(fh: IO[str]) -> list[DecodeTrace]:
    """Rebuild every trace of a JSONL stream in order: each header starts the next one.

    This reads ``glimpse decode``'s ``trace.jsonl``, one trace per prompt.
    A malformed line raises ``ValueError`` naming its 1-based line.
    """
    return _read(fh, one=False)


def read_jsonl(fh: IO[str]) -> DecodeTrace:
    """Rebuild the one trace of a JSONL stream (inverse of ``write_jsonl``).

    A second header or a malformed line raises ``ValueError`` naming its 1-based line.
    """
    return _read(fh, one=True)[0]


def _read(fh: IO[str], one: bool) -> list[DecodeTrace]:
    traces: list[DecodeTrace] = []
    for number, line in enumerate(fh, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)  # a JSONDecodeError is a ValueError
            if not isinstance(obj, dict):
                raise ValueError("not a JSON object")
            kind = obj.pop("type", None)
            if kind not in _LINE_KEYS:
                raise ValueError(f"unknown line type {kind!r}")
            if set(obj) != _LINE_KEYS[kind]:
                raise ValueError(f"{kind} keys {sorted(obj)}, expected {sorted(_LINE_KEYS[kind])}")
            if kind == "header":
                if one and traces:
                    raise ValueError("a second header: one trace per stream")
                traces.append(DecodeTrace(**obj))
            elif not traces:
                raise ValueError(f"{kind} line before header")
            elif kind == "iteration":
                traces[-1].records.append(IterationRecord(**obj))
            else:
                breakdown = obj["breakdown"]
                if not isinstance(breakdown, dict) or set(breakdown) != set(PHASES):
                    raise ValueError(f"breakdown {breakdown!r}, expected the phases {PHASES}")
                traces[-1].breakdown = TimeBreakdown(**breakdown)
                traces[-1].wall_s = obj["wall_s"]
        except ValueError as exc:
            raise ValueError(f"trace line {number}: {exc}") from exc
    if not traces:
        raise ValueError("empty trace stream")
    return traces
