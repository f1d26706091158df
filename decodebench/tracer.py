"""Layer attribution from outside the program.

While installed, timing wrappers replace the public names the engine looks
up (``glimpse.engine.verify``, ``ToyTransformer.forward_batch``,
``CacheBuffer.write_back`` and so on), in this process only.  Each call
becomes a span (name, start, end, parent, request); spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the time its child spans cover, so the self times of one request sum
to its wall time, and the request span's own self time is the engine code
that no wrapped name covers.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from collections import Counter, defaultdict
from typing import IO, Iterator

import glimpse.backends.counting as counting_mod
import glimpse.backends.toy as toy_mod
import glimpse.engine as engine_mod
from glimpse.backends.base import HistoryMask
from glimpse.buffer import BatchBuffers
from glimpse.cache import CacheBuffer
from glimpse.trace import DecodeTrace

REQUEST = "request"


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, str | None]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[list] = []  # [id, name, start, child seconds]
        self._ids = itertools.count()
        self._request: str | None = None

    def push(self, name: str) -> None:
        self._open.append([next(self._ids), name, time.perf_counter(), 0.0])

    def pop(self) -> float:
        """Close the innermost span; return its self time."""
        end = time.perf_counter()
        sid, name, start, child = self._open.pop()
        dur = end - start
        parent = None
        if self._open:
            self._open[-1][3] += dur
            parent = self._open[-1][0]
        self.spans.append((sid, name, start, end, parent, self._request))
        own = dur - child
        self.self_s[name] += own
        self.total_s[name] += dur
        self.calls[name] += 1
        return own

    @contextlib.contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        self._request = request_id
        self.push(REQUEST)
        try:
            yield
        finally:
            self.pop()
            self._request = None

    def write_spans(self, fh: IO[str]) -> None:
        """One JSON array per span, after a header line naming the fields."""
        fh.write(json.dumps(["id", "name", "start", "end", "parent", "request"]) + "\n")
        for span in self.spans:
            fh.write(json.dumps(span) + "\n")


def _wrap(tracer: Tracer, name: str, fn, after=None):
    """Time ``fn`` as span ``name``; ``after(args, result, self_s)`` counts work."""

    def wrapper(*args, **kwargs):
        tracer.push(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            own = tracer.pop()
        if after is not None:
            after(args, kwargs, out, own)
        return out

    return wrapper


def _toy_forward_counts(tracer: Tracer):
    def after(args, kwargs, out, own):
        _, contexts, block_lens = args[:3]
        slots = args[3] if len(args) > 3 else kwargs.get("slots")
        slots = slots if slots is not None else [None] * len(contexts)
        new = [len(c) - (s.valid_len if s is not None else 0) for c, s in zip(contexts, slots)]
        tracer.counts["toy.positions_scored"] += sum(new)
        # A window step computes exactly its c+1 block; an AR step one position.
        if max(block_lens) > 1 and new == list(block_lens):
            tracer.counts["toy.window_calls"] += 1
            tracer.counts["toy.window_self_s"] += own
        elif max(new) == 1:
            tracer.counts["toy.ar_calls"] += 1
            tracer.counts["toy.ar_self_s"] += own

    return after


def _plan_counts(tracer: Tracer, kind: str):
    def after(args, kwargs, out, own):
        plan = out[0] if isinstance(out, tuple) else out
        batch = len(plan.pad_counts)
        if batch > 1:
            tracer.counts[f"cache.{kind}_pad"] += sum(plan.pad_counts)
            tracer.counts[f"cache.{kind}_slots"] += batch * plan.target_len

    return after


def _targets(tracer: Tracer) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counter hook) for every wrapped name."""
    c = tracer.counts

    def count(key, fn):
        def after(args, kwargs, out, own):
            c[key] += fn(args, out)

        return after

    def verify_counts(args, kwargs, out, own):
        c["buffer.guesses_offered"] += len(args[0])
        c["buffer.guesses_confirmed"] += out.match_len

    return [
        (toy_mod.ToyTransformer, "forward_batch", "toy.forward", _toy_forward_counts(tracer)),
        (counting_mod.CountingBackend, "forward", "counting.forward",
         count("counting.context_tokens", lambda a, out: len(a[1]))),
        (toy_mod, "check_forward_args", "base.check_args", None),
        (counting_mod, "check_forward_args", "base.check_args", None),
        (HistoryMask, "pick", "base.pick", None),
        (BatchBuffers, "context", "buffer.context",
         count("buffer.context_tokens", lambda a, out: len(out))),
        (engine_mod, "verify", "buffer.verify", verify_counts),
        (engine_mod, "update", "buffer.update", None),
        (CacheBuffer, "write_back", "cache.write_back",
         count("cache.positions_written", lambda a, out: max(a[4], 0))),
        (toy_mod, "plan_kv_padding", "cache.plan", _plan_counts(tracer, "kv")),
        (toy_mod, "plan_input_padding", "cache.plan", _plan_counts(tracer, "input")),
        (engine_mod, "iterate_once", "engine.iterate", None),
        (engine_mod, "check_stop", "engine.check_stop", None),
        (engine_mod, "answer_phase", "engine.answer_phase", None),
        (engine_mod, "IterationRecord", "trace.record", None),
        (DecodeTrace, "write_jsonl", "trace.write_jsonl", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Replace the traced names with wrappers; restore them on exit."""
    saved = []
    try:
        for owner, attr, name, after in _targets(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, untimed_s: float, trace_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced round (0 where a layer is not exercised)."""
    s, n, c = tr.self_s, tr.calls, tr.counts
    return {
        "toy.forward_calls": n["toy.forward"],
        "toy.positions_scored": c["toy.positions_scored"],
        "toy.forward_s": s["toy.forward"],
        "toy.window_call_ratio": _ratio(
            _ratio(c["toy.window_self_s"], c["toy.window_calls"]),
            _ratio(c["toy.ar_self_s"], c["toy.ar_calls"]),
        ),
        "counting.forward_s": s["counting.forward"],
        "counting.context_tokens": c["counting.context_tokens"],
        "base.check_args_s": s["base.check_args"],
        "base.pick_calls": n["base.pick"],
        "base.pick_s": s["base.pick"],
        "buffer.context_s": s["buffer.context"],
        "buffer.context_tokens": c["buffer.context_tokens"],
        "buffer.verify_update_s": s["buffer.verify"] + s["buffer.update"],
        "buffer.accept_ratio": _ratio(c["buffer.guesses_confirmed"], c["buffer.guesses_offered"]),
        "cache.write_back_s": s["cache.write_back"],
        "cache.positions_written": c["cache.positions_written"],
        "cache.kv_pad_ratio": _ratio(c["cache.kv_pad"], c["cache.kv_slots"]),
        "cache.input_pad_ratio": _ratio(c["cache.input_pad"], c["cache.input_slots"]),
        "cache.plan_s": s["cache.plan"],
        "engine.iterate_self_s": s["engine.iterate"],
        "engine.loop_self_s": s[REQUEST],
        "engine.check_stop_s": s["engine.check_stop"],
        "engine.answer_phase_s": tr.total_s["engine.answer_phase"],
        "engine.untimed_s": untimed_s,
        "trace.records": n["trace.record"],
        "trace.record_s": s["trace.record"],
        "trace.write_jsonl_s": s["trace.write_jsonl"],
        "trace.bytes": trace_bytes,
    }
