"""Decode traces, their wall-clock phase totals, and JSONL serialization.

Every decode run records one :class:`IterationRecord` per iteration plus a
:class:`TimeBreakdown` of where the wall clock went.  A trace's method is
its config's: ``"ar"`` for a zero-length window, else ``"parallel"``.
Traces are the single input to the metrics module and to golden-trace
tests, and serialize to JSONL with one iteration per line; each line's keys
are its dataclass's fields.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from operator import attrgetter
from typing import IO


@dataclass
class TimeBreakdown:
    """Wall-clock seconds of the consecutive segments of a run's iterations.

    ``infer`` runs through the forward call and its score checks;
    ``decode`` is each instance's pick, verify, commit count, update and
    record; ``kv_cache`` the cache write-back alone; ``stop_check`` the
    trace appends, stop conditions and next active set.  The rest is set-up.
    """

    infer: float = 0.0
    decode: float = 0.0
    kv_cache: float = 0.0
    stop_check: float = 0.0

    def total(self) -> float:
        return sum(self.as_dict().values())

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


#: Wall-clock categories reported in benchmark tables.
PHASES = tuple(f.name for f in fields(TimeBreakdown))


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


# One iteration line: the bytes ``json.dumps`` gives for the record's fields
# in declaration order, then ``"type"``, because the repr of a Python int and
# of a list of them is its JSON text.
_ITERATION_NAMES = tuple(f.name for f in fields(IterationRecord))
_ITERATION_LINE = '{%s"type": "iteration"}\n' % "".join(
    f'"{name}": %r, ' for name in _ITERATION_NAMES
)
_ITERATION_FIELDS = attrgetter(*_ITERATION_NAMES)
# Deleting these bytes from a line leaves only its keys.  Any other value
# leaves more: the repr of a bool, a float, a string, None or a numpy scalar
# holds a letter, a point or a quote.
_INT_TEXT = b"0123456789-, []"
_ITERATION_KEYS = (_ITERATION_LINE % ((0,) * len(_ITERATION_NAMES))).encode().translate(
    None, _INT_TEXT
)


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
        """Write the header line, one line per record, then the summary line.

        Each line holds the bytes ``json.dumps`` gives for its object.  An
        iteration line is formatted from the record's ints, not encoded, and
        written on its own, so the trace is never held twice in memory.  A
        record value that is not an int or a list of ints, such as a bool or
        a numpy integer, raises ``TypeError`` and writes no line.
        """
        header = {"type": "header", **{f.name: getattr(self, f.name) for f in _HEADER}}
        fh.write(json.dumps(header) + "\n")
        for values in map(_ITERATION_FIELDS, self.records):
            line = _ITERATION_LINE % values
            if line.encode().translate(None, _INT_TEXT) != _ITERATION_KEYS:
                raise TypeError(f"iteration record {values!r}: values must be ints or lists of ints")
            fh.write(line)
        summary = {
            "type": "summary",
            "breakdown": self.breakdown.as_dict(),
            "wall_s": self.wall_s,
        }
        fh.write(json.dumps(summary) + "\n")


# A header holds the trace's fields that have no default.
_HEADER = [f for f in fields(DecodeTrace) if f.default is MISSING is f.default_factory]


def _is_real(value: object) -> bool:
    return type(value) in (int, float)


def _is_tokens(value: object) -> bool:
    return type(value) is list and all(type(t) is int for t in value)


def _is_breakdown(value: object) -> bool:
    return type(value) is dict and set(value) == set(PHASES) and all(map(_is_real, value.values()))


# The test for a value of each field annotation (a string, as this module
# postpones annotations) and what that test asks for.  JSON reads back exact
# Python types, so ``true`` is a bool and not an int, and ``1.0`` is a float
# and not a token.
_TESTS = {
    "int": (lambda v: type(v) is int, "an int"),
    "list[int]": (_is_tokens, "a list of ints"),
    "str": (lambda v: type(v) is str, "a string"),
    "bool": (lambda v: type(v) is bool, "a bool"),
}

# Each line type's keys besides ``"type"``, as ``write_jsonl`` writes them,
# with the test its value must pass and what that test asks for.
_LINE_FIELDS = {
    "header": {f.name: _TESTS[f.type] for f in _HEADER},
    "iteration": {f.name: _TESTS[f.type] for f in fields(IterationRecord)},
    "summary": {
        "breakdown": (_is_breakdown, f"an object of numbers keyed by the phases {PHASES}"),
        "wall_s": (_is_real, "a number"),
    },
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
    # Each trace as write_jsonl lays it out: its header, iterations 1, 2, ...
    # in order, then one summary.  A stream cut short or reordered is refused.
    traces: list[DecodeTrace] = []
    summarized = True  # whether the last trace has its summary
    for number, line in enumerate(fh, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)  # a JSONDecodeError is a ValueError
            if not isinstance(obj, dict):
                raise ValueError("not a JSON object")
            kind = obj.pop("type", None)
            if kind not in _LINE_FIELDS:
                raise ValueError(f"unknown line type {kind!r}")
            tests = _LINE_FIELDS[kind]
            if set(obj) != set(tests):
                raise ValueError(f"{kind} keys {sorted(obj)}, expected {sorted(tests)}")
            for key, (test, want) in tests.items():
                if not test(obj[key]):
                    raise ValueError(f"{kind} {key} {obj[key]!r}, expected {want}")
            if kind == "header":
                if not summarized:
                    raise ValueError("header before the previous trace's summary")
                if one and traces:
                    raise ValueError("a second header: one trace per stream")
                traces.append(DecodeTrace(**obj))
                summarized = False
            elif not traces:
                raise ValueError(f"{kind} line before header")
            elif summarized:
                raise ValueError(f"{kind} line after the trace's summary")
            elif kind == "iteration":
                records = traces[-1].records
                if obj["iteration"] != len(records) + 1:
                    raise ValueError(f"iteration {obj['iteration']}, expected {len(records) + 1}")
                records.append(IterationRecord(**obj))
            else:
                traces[-1].breakdown = TimeBreakdown(**obj["breakdown"])
                traces[-1].wall_s = obj["wall_s"]
                summarized = True
        except ValueError as exc:
            raise ValueError(f"trace line {number}: {exc}") from exc
    if not traces:
        raise ValueError("empty trace stream")
    if not summarized:
        raise ValueError(f"trace line {number}: the stream ends before the trace's summary")
    return traces
