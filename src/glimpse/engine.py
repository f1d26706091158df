"""Decode engine: fused autoregressive + lookahead iteration with verified commits.

Each iteration issues one forward call per instance over
``[cached prefix | last exact token | window]`` with a query block of
``window + 1`` positions.  The first scored position is conditioned only on
exact context, so its pick is always committed; further picks commit while
the window guesses they were conditioned on match.  The uncommitted fresh
predictions slide into the next window.  With a zero-length window the loop
is plain greedy autoregressive decoding.

There is one loop.  The autoregressive baseline, budget-truncated decoding
and the answer phase are runs of it with a zero-length window; the answer
phase decodes after ``prompt ‖ exact ‖ approximate tail ‖ trigger`` and
extends the rationale's cache, letting a run answer before its rationale
has fully resolved.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from glimpse.backends.base import Backend, StepOutput, TokenSeq, check_forward_args
from glimpse.buffer import BatchBuffers, update, verify
from glimpse.cache import CacheBuffer, alloc
from glimpse.errors import ConfigError, ContractError
from glimpse.trace import DecodeTrace, IterationRecord, PhaseTimer

STOP_REASONS = ("eos", "probe", "iteration_cap", "max_tokens")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_ids(value) -> bool:
    return isinstance(value, tuple) and all(map(_is_int, value))


# Each field's type test; a bool is neither an integer nor a number here.
_FIELD_TYPES = {
    "window_len": (_is_int, "an integer"),
    "skip": (lambda v: isinstance(v, bool), "a bool"),
    "max_new_tokens": (_is_int, "an integer"),
    "iteration_cap": (lambda v: v is None or _is_int(v), "an integer or None"),
    "probe_threshold": (lambda v: v is None or _is_real(v), "a number or None"),
    "repetition_penalty": (_is_real, "a number"),
    "answer_trigger": (_is_ids, "a tuple of integers"),
    "answer_max_tokens": (_is_int, "an integer"),
}


@dataclass(frozen=True)
class DecodeConfig:
    """Engine configuration; the window length is fixed for a whole run.

    Attributes:
        window_len: Lookahead window size c (0 = pure autoregressive).
        skip: Commit ``1 + match`` tokens per iteration instead of exactly 1.
        max_new_tokens: Hard budget of exact tokens (safety net, always on).
        iteration_cap: Optional maximum number of iterations.
        probe_threshold: Optional attention-score threshold in [0, 1] for
            the early-answer stop; None disables the probe.
        repetition_penalty: Greedy-pick penalty, >= 1.
        answer_trigger: Token sequence appended before answer decoding.
        answer_max_tokens: Budget for the answer phase.
    """

    window_len: int
    skip: bool = True
    max_new_tokens: int = 256
    iteration_cap: int | None = None
    probe_threshold: float | None = None
    repetition_penalty: float = 1.2
    answer_trigger: tuple[int, ...] = ()
    answer_max_tokens: int = 16

    def __post_init__(self) -> None:
        for name, (ok, kind) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
        if self.window_len < 0:
            raise ConfigError("window_len must be nonnegative")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be positive")
        if self.iteration_cap is not None and self.iteration_cap < 1:
            raise ConfigError("iteration_cap must be positive when set")
        if self.probe_threshold is not None and not 0.0 <= self.probe_threshold <= 1.0:
            raise ConfigError("probe_threshold must lie in [0, 1]")
        if not self.repetition_penalty >= 1.0:
            raise ConfigError("repetition_penalty must be >= 1")
        if self.answer_max_tokens < 1:
            raise ConfigError("answer_max_tokens must be positive")

    def to_dict(self) -> dict:
        return {
            "window_len": self.window_len,
            "skip": self.skip,
            "max_new_tokens": self.max_new_tokens,
            "iteration_cap": self.iteration_cap,
            "probe_threshold": self.probe_threshold,
            "repetition_penalty": self.repetition_penalty,
            "answer_trigger": list(self.answer_trigger),
            "answer_max_tokens": self.answer_max_tokens,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecodeConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        if "window_len" not in data:
            raise ConfigError("config must set window_len")
        kwargs = dict(data)
        if isinstance(kwargs.get("answer_trigger"), list):
            kwargs["answer_trigger"] = tuple(kwargs["answer_trigger"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def digest_payload(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class StopDecision:
    """Why a rationale loop ended, with the value that triggered it."""

    reason: str
    value: float

    def __post_init__(self) -> None:
        if self.reason not in STOP_REASONS:
            raise ContractError(f"unknown stop reason {self.reason!r}")


@dataclass
class DecodeResult:
    exact_rationale: list[int]
    approximate_tail: list[int]
    answer: list[int]
    trace: DecodeTrace
    stop: StopDecision


def probe_score(step: StepOutput, window_positions: Sequence[int]) -> float:
    """Peak head-averaged attention from the last queried position onto the window.

    Zero when the backend exposes no attention (probe disabled) or the
    window is empty.
    """
    if step.attention_summary is None or len(window_positions) == 0:
        return 0.0
    last_row = step.attention_summary[-1]
    return float(max(last_row[p] for p in window_positions))


def check_stop(
    record: IterationRecord, n_exact: int, eos_id: int, cfg: DecodeConfig
) -> StopDecision | None:
    """Evaluate stop conditions in fixed precedence; return the first hit.

    ``record`` is the iteration that just ended and ``n_exact`` the
    instance's exact-token count after it.  Order: EOS committed this
    iteration, probe score at threshold, iteration cap, exact-token budget.
    """
    committed = record.committed
    if eos_id in committed:
        eos_pos = record.frontier_before + committed.index(eos_id)
        return StopDecision(reason="eos", value=float(eos_pos))
    if cfg.probe_threshold is not None and record.probe_score >= cfg.probe_threshold:
        return StopDecision(reason="probe", value=record.probe_score)
    if cfg.iteration_cap is not None and record.iteration >= cfg.iteration_cap:
        return StopDecision(reason="iteration_cap", value=float(record.iteration))
    if n_exact >= cfg.max_new_tokens:
        return StopDecision(reason="max_tokens", value=float(n_exact))
    return None


def iterate_once(
    buffers: BatchBuffers,
    backend: Backend,
    cache: CacheBuffer | None,
    cfg: DecodeConfig,
    instances: Sequence[int] | None = None,
    timer: PhaseTimer | None = None,
) -> list[IterationRecord]:
    """Run one fused forward + pick + verify + update over the given instances.

    Every listed instance must be unfinished.  Each gets exactly one
    forward call over ``[cached prefix | frontier-1 token | window]`` with
    a query block of ``window_len + 1`` (the first call also computes the
    uncached prompt); the cache is extended by the newly exact positions
    only.  The commit count is ``1 + match_len`` with skip (else 1), cut at
    the token budget and after the first EOS.  The forward for the whole
    batch happens, and its scores are checked to be finite, before any
    instance is updated, so a backend error or a non-finite score leaves
    every buffer untouched.  Cache write-back and update then run instance
    by instance and are not rolled back: a write-back error on one instance
    leaves the earlier ones advanced.  Returns one record per instance.
    """
    if instances is None:
        instances = range(len(buffers))
    for i in instances:
        if buffers.finished[i]:
            raise ContractError(f"instance {i} already finished")
    timer = timer or PhaseTimer()
    eos = backend.spec.eos_id
    c = buffers.window_len
    penalty = cfg.repetition_penalty

    contexts = [buffers.context(i) for i in instances]
    slots = [cache.slot(i) for i in instances] if cache is not None else None
    with timer.phase("infer"):
        steps = backend.forward_batch(contexts, [c + 1] * len(contexts), slots)
    for step in steps:
        if not np.isfinite(step.rows).all():
            raise ContractError("backend returned non-finite scores")

    records: list[IterationRecord] = []
    for i, ctx, step in zip(instances, contexts, steps):
        frontier = buffers.frontier[i]
        window = buffers.window(i)
        mask = buffers.histories[i]
        with timer.phase("decode"):
            preds = mask.pick(step.rows[:1], penalty)
        if c:
            # Window tokens join the history of the rows after them, for this pick only.
            with timer.phase("context_decode"):
                preds += mask.pick(step.rows[1:], penalty, window)
        probe = probe_score(step, range(frontier, frontier + c)) if c else 0.0
        window_before = window.tolist()
        outcome = verify(window_before, preds, cfg.skip)
        m = min(len(outcome.committed), cfg.max_new_tokens - (frontier - buffers.prompt_len[i]))
        if eos in preds[:m]:
            m = preds.index(eos) + 1

        if cache is not None:
            # Persist up to (new frontier - 1): all freshly exact positions
            # except the last committed token, whose K/V is recomputed as the
            # next iteration's frontier-1 input.  The new K/V start at the
            # slot's valid length.
            persist_end = frontier + m - 1
            with timer.phase("kv_cache"):
                start = int(cache.valid_len[i])
                cache.write_back(
                    i, step.new_kv, start, persist_end - start, ctx[start:persist_end]
                )
        update(buffers, i, preds, m)
        records.append(
            IterationRecord(
                iteration=buffers.iteration[i],
                frontier_before=frontier,
                frontier=frontier + m,
                window_before=window_before,
                predictions=preds,
                match_len=outcome.match_len,
                committed=preds[:m],
                window=buffers.window(i).tolist(),
                probe_score=probe,
            )
        )
    return records


def _max_context(prompts: Sequence[TokenSeq], cfg: DecodeConfig) -> int:
    """Longest context a forward of this run can see.

    The last iteration starts with at most ``max_new_tokens - 1`` exact
    tokens and scores them behind the prompt, with the window after them.
    """
    return max(len(p) for p in prompts) + cfg.max_new_tokens - 1 + cfg.window_len


def _check_capacity(backend: Backend, need: int, what: str) -> None:
    """Refuse up front a run whose contexts would outgrow the backend."""
    limit = backend.spec.max_len
    if limit and need > limit:
        raise ConfigError(
            f"{what} needs contexts of up to {need} tokens,"
            f" over the backend's max_len {limit}"
        )


class _Session:
    """One batch decode run: the fused loop until every instance stops.

    ``cache`` continues an earlier run's cache (the answer phase extends
    the rationale's); without it a backend with layers gets a fresh
    cache, with room for an answer phase after this run.
    """

    def __init__(
        self,
        prompts: Sequence[TokenSeq],
        backend: Backend,
        cfg: DecodeConfig,
        method: str = "parallel",
        cache: CacheBuffer | None = None,
        timer: PhaseTimer | None = None,
    ) -> None:
        spec = backend.spec
        # The backends' own check: integer ids inside the vocabulary.
        prompts = [check_forward_args(spec, prompt, 1) for prompt in prompts]
        for tok in cfg.answer_trigger:
            if not 0 <= tok < spec.vocab_size:
                raise ConfigError(f"answer trigger token {tok} outside vocab")
        need = _max_context(prompts, cfg)
        _check_capacity(backend, need, "decoding")
        # The last update's tail write ends at most one token past the last forward's context.
        self.buffers = BatchBuffers(prompts, cfg.window_len, spec, capacity=need + 1)
        self.backend = backend
        self.cfg = cfg
        self.timer = timer or PhaseTimer()
        self.stops: list[StopDecision | None] = [None] * len(prompts)
        self.traces = [
            DecodeTrace(method=method, prompt=p.tolist(), window_len=cfg.window_len, skip=cfg.skip)
            for p in prompts
        ]
        if cache is None and spec.n_layers > 0:
            rows = need + len(cfg.answer_trigger) + cfg.answer_max_tokens
            cache = alloc(len(prompts), min(rows, spec.max_len or rows), spec)
        self.cache = cache

    def run(self) -> list[DecodeResult]:
        buffers, cfg, timer = self.buffers, self.cfg, self.timer
        eos = self.backend.spec.eos_id
        active = buffers.active_indices()
        while active:
            records = iterate_once(buffers, self.backend, self.cache, cfg, active, timer)
            for i, rec in zip(active, records):
                self.traces[i].records.append(rec)
                with timer.phase("stop_check"):
                    stop = check_stop(rec, rec.frontier - buffers.prompt_len[i], eos, cfg)
                if stop is not None:
                    buffers.finished[i] = True
                    self.stops[i] = stop
            active = buffers.active_indices()
        return [
            DecodeResult(
                exact_rationale=buffers.exact(i).tolist(),
                approximate_tail=buffers.window(i).tolist(),
                answer=[],
                trace=trace,
                stop=stop,
            )
            for i, (trace, stop) in enumerate(zip(self.traces, self.stops))
        ]


def _stamp(results: list[DecodeResult], timer: PhaseTimer, t0: float) -> list[DecodeResult]:
    """Give every trace the run's wall time since ``t0`` and its phase totals."""
    wall_s = time.perf_counter() - t0
    for result in results:
        result.trace.wall_s = wall_s
        result.trace.breakdown = timer.breakdown()
        result.trace.stop_check_s = timer.get("stop_check")
    return results


def _decode(
    prompts: Sequence[TokenSeq], backend: Backend, cfg: DecodeConfig, method: str
) -> list[DecodeResult]:
    t0 = time.perf_counter()
    session = _Session(prompts, backend, cfg, method)
    return _stamp(session.run(), session.timer, t0)


def _greedy(cfg: DecodeConfig, budget: int) -> DecodeConfig:
    """``cfg`` as plain greedy decoding of ``budget`` tokens: no window, cap or probe."""
    return replace(
        cfg,
        window_len=0,
        skip=False,
        max_new_tokens=budget,
        iteration_cap=None,
        probe_threshold=None,
    )


def run_rationale(
    prompt: TokenSeq, backend: Backend, cfg: DecodeConfig
) -> DecodeResult:
    """Iterate the fused decode loop until a stop condition fires.

    Returns the committed exact rationale, the final approximate window,
    the full trace, and the stop decision; the answer field is left empty.
    """
    return _decode([prompt], backend, cfg, "parallel")[0]


def run_rationale_batch(
    prompts: Sequence[TokenSeq], backend: Backend, cfg: DecodeConfig
) -> list[DecodeResult]:
    """Batched :func:`run_rationale`; per-instance results match solo runs.

    Every trace carries the batch's totals: ``wall_s`` is the wall time of
    the whole batch and ``breakdown`` its session timer's phases.
    """
    return _decode(prompts, backend, cfg, "parallel")


def answer_phase(
    prompt: TokenSeq,
    exact: TokenSeq,
    approx_tail: TokenSeq,
    backend: Backend,
    cfg: DecodeConfig,
    cache: CacheBuffer | None = None,
    timer: PhaseTimer | None = None,
) -> list[int]:
    """Decode the answer from prompt, exact rationale, approximate tail, trigger.

    A zero-window run over ``prompt ‖ exact ‖ approx_tail ‖ trigger``: the
    approximate tail is included verbatim, PAD tokens and all.  Decoding is
    greedy with the configured penalty, up to ``answer_max_tokens`` or EOS
    (EOS itself is not returned).  Given ``cache`` (the rationale's,
    instance 0) it extends that cache; without it the run gets a fresh one.
    """
    seq = [*prompt, *exact, *approx_tail, *cfg.answer_trigger]
    session = _Session(
        [seq], backend, _greedy(cfg, cfg.answer_max_tokens), "answer", cache, timer
    )
    answer = session.run()[0].exact_rationale
    if answer and answer[-1] == backend.spec.eos_id:
        answer.pop()
    return answer


def _with_answer(
    prompt: TokenSeq, backend: Backend, cfg: DecodeConfig, method: str
) -> DecodeResult:
    need = _max_context([prompt], cfg) + len(cfg.answer_trigger) + cfg.answer_max_tokens
    _check_capacity(backend, need, "the answer phase")
    t0 = time.perf_counter()
    session = _Session([prompt], backend, cfg, method)
    result = session.run()[0]
    result.answer = answer_phase(
        prompt,
        result.exact_rationale,
        result.approximate_tail,
        backend,
        cfg,
        cache=session.cache,
        timer=session.timer,
    )
    return _stamp([result], session.timer, t0)[0]


def decode_with_answer(
    prompt: TokenSeq, backend: Backend, cfg: DecodeConfig
) -> DecodeResult:
    """Full pipeline: rationale loop, then the answer phase.

    Refused before the rationale starts when the answer would not fit the
    backend's ``max_len``.
    """
    return _with_answer(prompt, backend, cfg, "parallel")


def ar_baseline(prompt: TokenSeq, backend: Backend, cfg: DecodeConfig) -> DecodeResult:
    """Greedy autoregressive decode to EOS or the token budget.

    The fused loop with a zero-length window; the window, iteration cap
    and probe threshold of ``cfg`` are ignored.
    """
    return _decode([prompt], backend, _greedy(cfg, cfg.max_new_tokens), "ar")[0]


def truncated_cot(
    prompt: TokenSeq,
    backend: Backend,
    cfg: DecodeConfig,
    iteration_budget: int,
) -> DecodeResult:
    """Autoregressive decode of exactly ``iteration_budget`` tokens, then answer.

    One token per iteration, no approximate tail: isolates what the
    lookahead window contributes on top of the same exact prefix.
    """
    if iteration_budget < 0:
        raise ContractError("iteration_budget must be nonnegative")
    if iteration_budget == 0:
        t0 = time.perf_counter()
        timer = PhaseTimer()
        result = DecodeResult(
            exact_rationale=[],
            approximate_tail=[],
            answer=answer_phase(prompt, [], [], backend, cfg, timer=timer),
            trace=DecodeTrace(
                method="truncated",
                prompt=check_forward_args(backend.spec, prompt, 1).tolist(),
                window_len=0,
                skip=False,
            ),
            stop=StopDecision(reason="iteration_cap", value=0.0),
        )
        return _stamp([result], timer, t0)[0]
    result = _with_answer(prompt, backend, _greedy(cfg, iteration_budget), "truncated")
    if result.stop.reason == "max_tokens":
        result.stop = StopDecision(reason="iteration_cap", value=float(iteration_budget))
    return result


def calibrate_iteration_cap(
    sample_prompts: Sequence[tuple[TokenSeq, Sequence[int]]],
    backend: Backend,
    cfg: DecodeConfig,
    loss_threshold: float,
) -> int:
    """Smallest iteration cap whose sample accuracy is within the loss threshold.

    Runs the full pipeline uncapped to establish reference accuracy, then
    sweeps caps upward and returns the first one whose accuracy is at least
    ``full_accuracy - loss_threshold``.  A run capped at ``k`` iterations is
    the first ``k`` records of the uncapped one, so each cap costs only an
    answer phase per sample that ran longer than ``k``.
    """
    if len(sample_prompts) == 0:
        raise ConfigError("sample_prompts must be nonempty")
    if not 0.0 <= loss_threshold <= 1.0:
        raise ConfigError("loss_threshold must lie in [0, 1]")
    base = replace(cfg, iteration_cap=None)
    full = [decode_with_answer(p, backend, base) for p, _ in sample_prompts]
    refs = [list(ref) for _, ref in sample_prompts]
    full_acc = float(np.mean([res.answer == ref for res, ref in zip(full, refs)]))
    max_cap = max(res.trace.iterations for res in full)
    target = full_acc - loss_threshold
    for cap in range(1, max_cap + 1):
        hits = []
        for (prompt, _), res, ref in zip(sample_prompts, full, refs):
            records = res.trace.records
            answer = res.answer
            if cap < len(records):
                exact = [tok for rec in records[:cap] for tok in rec.committed]
                answer = answer_phase(prompt, exact, records[cap - 1].window, backend, cfg)
            hits.append(answer == ref)
        if float(np.mean(hits)) >= target:
            return cap
    return max_cap
