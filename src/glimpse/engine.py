"""Decode engine: fused autoregressive + lookahead iteration with verified commits.

Each iteration issues one forward call per instance over
``[cached prefix | last exact token | window]`` with a query block of
``window + 1`` positions.  The first scored position is conditioned only on
exact context, so its pick is always committed; further picks commit while
the window guesses they were conditioned on match.  The uncommitted fresh
predictions slide into the next window.  With a zero-length window the loop
degenerates to plain autoregressive decoding.

The answer phase appends the configured trigger after the exact rationale
plus the remaining approximate window and decodes greedily, letting a run
answer before its rationale has fully resolved.

Also provides the two reference baselines (plain autoregressive decoding
and budget-truncated decoding) used by the benchmark harness.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from glimpse.backends.base import Backend, HistoryMask, StepOutput, TokenSeq
from glimpse.buffer import (
    BatchBuffers,
    DecodeBuffer,
    VerifyOutcome,
    init_buffer,
    update,
    verify,
)
from glimpse.cache import CacheBuffer, alloc
from glimpse.errors import ConfigError, ContractError
from glimpse.trace import DecodeTrace, IterationRecord, PhaseTimer

STOP_REASONS = ("eos", "probe", "iteration_cap", "max_tokens")


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
        reuse_cache_for_answer: Extend the rationale KV-cache into the
            answer phase instead of starting fresh.
    """

    window_len: int
    skip: bool = True
    max_new_tokens: int = 256
    iteration_cap: int | None = None
    probe_threshold: float | None = None
    repetition_penalty: float = 1.2
    answer_trigger: tuple[int, ...] = ()
    answer_max_tokens: int = 16
    reuse_cache_for_answer: bool = True

    def __post_init__(self) -> None:
        if self.window_len < 0:
            raise ConfigError("window_len must be nonnegative")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be positive")
        if self.iteration_cap is not None and self.iteration_cap < 1:
            raise ConfigError("iteration_cap must be positive when set")
        if self.probe_threshold is not None and not 0.0 <= self.probe_threshold <= 1.0:
            raise ConfigError("probe_threshold must lie in [0, 1]")
        if self.repetition_penalty < 1.0:
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
            "reuse_cache_for_answer": self.reuse_cache_for_answer,
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
        if "answer_trigger" in kwargs:
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


@dataclass
class IterationOutput:
    """Per-instance product of one engine iteration."""

    outcome: VerifyOutcome
    step: StepOutput
    probe: float
    predictions: list[int] = field(default_factory=list)


@dataclass
class InstanceState:
    """Stop-relevant view of one instance, fed to :func:`check_stop`."""

    buffer: DecodeBuffer
    eos_id: int
    last_committed: list[int] = field(default_factory=list)
    last_probe: float = 0.0


def probe_score(step: StepOutput, window_positions: Sequence[int]) -> float:
    """Peak head-averaged attention from the last queried position onto the window.

    Zero when the backend exposes no attention (probe disabled) or the
    window is empty.
    """
    if step.attention_summary is None or len(window_positions) == 0:
        return 0.0
    last_row = step.attention_summary[-1]
    return float(max(last_row[p] for p in window_positions))


def check_stop(state: InstanceState, cfg: DecodeConfig) -> StopDecision | None:
    """Evaluate stop conditions in fixed precedence; return the first hit.

    Order: EOS committed this iteration, probe score at threshold,
    iteration cap, exact-token budget.
    """
    if state.eos_id in state.last_committed:
        offset = state.last_committed.index(state.eos_id)
        eos_pos = state.buffer.frontier - len(state.last_committed) + offset
        return StopDecision(reason="eos", value=float(eos_pos))
    if cfg.probe_threshold is not None and state.last_probe >= cfg.probe_threshold:
        return StopDecision(reason="probe", value=state.last_probe)
    if cfg.iteration_cap is not None and state.buffer.iteration >= cfg.iteration_cap:
        return StopDecision(reason="iteration_cap", value=float(state.buffer.iteration))
    if len(state.buffer.exact) >= cfg.max_new_tokens:
        return StopDecision(reason="max_tokens", value=float(len(state.buffer.exact)))
    return None


def _truncate_commit(
    outcome: VerifyOutcome, remaining_budget: int, eos_id: int, window_len: int
) -> VerifyOutcome:
    """Trim a commit at the token budget and at the first EOS.

    Dropped committed tokens are verified continuations, so they slide back
    into the front of the next window rather than being thrown away.
    """
    cut = min(len(outcome.committed), remaining_budget)
    head = outcome.committed[:cut]
    if eos_id in head:
        cut = head.index(eos_id) + 1
    if cut == len(outcome.committed):
        return outcome
    dropped = outcome.committed[cut:]
    next_window = (dropped + outcome.next_window)[:window_len]
    return VerifyOutcome(
        committed=outcome.committed[:cut],
        match_len=outcome.match_len,
        next_window=next_window,
    )


def iterate_once(
    buffers: BatchBuffers,
    backend: Backend,
    cache: CacheBuffer | None,
    cfg: DecodeConfig,
    instances: Sequence[int] | None = None,
    histories: Sequence[HistoryMask] | None = None,
    timer: PhaseTimer | None = None,
) -> list[IterationOutput]:
    """Run one fused forward + verify + update over the given instances.

    Every listed instance must be unfinished.  Each gets exactly one
    forward call over ``[cached prefix | frontier-1 token | window]`` with
    a query block of ``window_len + 1``; the cache is extended by the newly
    exact positions only.  The forward for the whole batch happens before
    any instance is updated, so iteration is atomic per instance: a backend
    or cache error leaves every buffer untouched.
    """
    if instances is None:
        instances = list(range(len(buffers)))
    for i in instances:
        if buffers.finished[i]:
            raise ContractError(f"instance {i} already finished")
    timer = timer or PhaseTimer()
    pad = backend.spec.pad_id
    eos = backend.spec.eos_id

    contexts = [buffers.context(i) for i in instances]
    block_lens = [len(buffers[i].window) + 1 for i in instances]
    with timer.phase("kv_cache"):
        slots = [cache.slot(i) for i in instances] if cache is not None else None
    with timer.phase("infer"):
        steps = backend.forward_batch(contexts, block_lens, slots)

    outputs: list[IterationOutput] = []
    for pos, i in enumerate(instances):
        buf = buffers[i]
        step = steps[pos]
        ctx = contexts[pos]
        c = len(buf.window)
        if histories is not None:
            mask = histories[pos].copy()
        else:
            mask = HistoryMask(backend.spec.vocab_size)
            mask.extend(ctx[: buf.frontier])
        preds: list[int] = []
        with timer.phase("decode"):
            preds.append(mask.pick(step.rows[0], cfg.repetition_penalty))
        if c:
            with timer.phase("context_decode"):
                for j in range(1, c + 1):
                    mask.add(buf.window[j - 1])
                    preds.append(mask.pick(step.rows[j], cfg.repetition_penalty))

        probe = probe_score(step, range(buf.frontier, buf.frontier + c))
        raw = verify(buf.window, preds, cfg.skip, pad)
        remaining = cfg.max_new_tokens - len(buf.exact)
        outcome = _truncate_commit(raw, remaining, eos, c)

        if cache is not None and step.new_kv is not None:
            # Persist up to (new frontier - 1): all freshly exact positions
            # except the last committed token, whose K/V is recomputed as the
            # next iteration's frontier-1 input.
            persist_end = buf.frontier + len(outcome.committed) - 1
            count = persist_end - step.new_start
            with timer.phase("kv_cache"):
                cache.write_back(
                    i,
                    step.new_kv,
                    step.new_start,
                    count,
                    ctx[step.new_start : persist_end],
                )
        update(buf, outcome)
        outputs.append(
            IterationOutput(outcome=outcome, step=step, probe=probe, predictions=preds)
        )
    return outputs


class _Session:
    """Single-threaded batch decode session (one backend, one config)."""

    def __init__(
        self,
        prompts: Sequence[TokenSeq],
        backend: Backend,
        cfg: DecodeConfig,
        method: str = "parallel",
    ) -> None:
        spec = backend.spec
        for prompt in prompts:
            if len(prompt) == 0:
                raise ContractError("prompt must be nonempty")
            for tok in prompt:
                if not 0 <= tok < spec.vocab_size:
                    raise ContractError(f"prompt token {tok} outside vocab")
        for tok in cfg.answer_trigger:
            if not 0 <= tok < spec.vocab_size:
                raise ConfigError(f"answer trigger token {tok} outside vocab")
        self.backend = backend
        self.cfg = cfg
        self.prompts = [list(p) for p in prompts]
        self.buffers = BatchBuffers(
            [init_buffer(len(p), cfg.window_len, spec.pad_id) for p in self.prompts],
            self.prompts,
        )
        self.timer = PhaseTimer()
        self.histories = [HistoryMask(spec.vocab_size) for _ in prompts]
        for mask, prompt in zip(self.histories, self.prompts):
            mask.extend(prompt)
        self.states = [
            InstanceState(buffer=buf, eos_id=spec.eos_id) for buf in self.buffers.buffers
        ]
        self.stops: list[StopDecision | None] = [None] * len(prompts)
        self.traces = [
            DecodeTrace(
                method=method,
                prompt=list(p),
                window_len=cfg.window_len,
                skip=cfg.skip,
            )
            for p in self.prompts
        ]
        self.cache: CacheBuffer | None = None
        if spec.supports_cache:
            max_len = (
                max(len(p) for p in self.prompts)
                + cfg.max_new_tokens
                + cfg.window_len
                + len(cfg.answer_trigger)
                + cfg.answer_max_tokens
                + 2
            )
            if spec.max_len:
                max_len = min(max_len, spec.max_len)
            self.cache = alloc(len(prompts), max_len, spec)
            self._prefill()

    def _prefill(self) -> None:
        """Cache each prompt except its final token, one solo pass apiece.

        Afterwards every iteration's input block is exactly
        ``[frontier-1 token | window]`` regardless of prompt length.
        """
        assert self.cache is not None
        for i, prompt in enumerate(self.prompts):
            if len(prompt) < 2:
                continue
            with self.timer.phase("infer"):
                step = self.backend.forward(prompt, 1, self.cache.slot(i))
            with self.timer.phase("kv_cache"):
                self.cache.write_back(
                    i, step.new_kv, 0, len(prompt) - 1, prompt[:-1]
                )

    def run(self) -> None:
        while True:
            active = self.buffers.active_indices()
            if not active:
                break
            before = [
                (self.buffers[i].frontier, list(self.buffers[i].window)) for i in active
            ]
            outs = iterate_once(
                self.buffers,
                self.backend,
                self.cache,
                self.cfg,
                instances=active,
                histories=[self.histories[i] for i in active],
                timer=self.timer,
            )
            for (frontier_before, window_before), i, out in zip(before, active, outs):
                buf = self.buffers[i]
                self.histories[i].extend(out.outcome.committed)
                self.traces[i].records.append(
                    IterationRecord(
                        iteration=buf.iteration,
                        frontier_before=frontier_before,
                        frontier=buf.frontier,
                        window_before=window_before,
                        predictions=list(out.predictions),
                        match_len=out.outcome.match_len,
                        committed=list(out.outcome.committed),
                        window=list(buf.window),
                        probe_score=out.probe,
                    )
                )
                state = self.states[i]
                state.last_committed = list(out.outcome.committed)
                state.last_probe = out.probe
                stop = check_stop(state, self.cfg)
                if stop is not None:
                    self.buffers.finished[i] = True
                    self.stops[i] = stop

    def results(self) -> list[DecodeResult]:
        out = []
        for i, buf in enumerate(self.buffers.buffers):
            trace = self.traces[i]
            stop = self.stops[i]
            assert stop is not None
            out.append(
                DecodeResult(
                    exact_rationale=list(buf.exact),
                    approximate_tail=list(buf.window),
                    answer=[],
                    trace=trace,
                    stop=stop,
                )
            )
        return out


def run_rationale(
    prompt: TokenSeq, backend: Backend, cfg: DecodeConfig
) -> DecodeResult:
    """Iterate the fused decode loop until a stop condition fires.

    Returns the committed exact rationale, the final approximate window,
    the full trace, and the stop decision; the answer field is left empty.
    """
    t0 = time.perf_counter()
    session = _Session([prompt], backend, cfg)
    session.run()
    result = session.results()[0]
    result.trace.wall_s = time.perf_counter() - t0
    result.trace.breakdown = session.timer.breakdown()
    return result


def run_rationale_batch(
    prompts: Sequence[TokenSeq], backend: Backend, cfg: DecodeConfig
) -> list[DecodeResult]:
    """Batched :func:`run_rationale`; per-instance results match solo runs.

    Every trace carries the batch's totals: ``wall_s`` is the wall time of
    the whole batch and ``breakdown`` its session timer's phases.
    """
    t0 = time.perf_counter()
    session = _Session(prompts, backend, cfg)
    session.run()
    results = session.results()
    wall_s = time.perf_counter() - t0
    for result in results:
        result.trace.wall_s = wall_s
        result.trace.breakdown = session.timer.breakdown()
    return results


def _cache_for_answer(
    prompt_len: int,
    seq_len: int,
    backend: Backend,
    cfg: DecodeConfig,
    session_cache: CacheBuffer | None,
):
    if not backend.spec.supports_cache:
        return None
    if cfg.reuse_cache_for_answer and session_cache is not None:
        return session_cache.slot(0)
    fresh = alloc(1, seq_len + cfg.answer_max_tokens + 1, backend.spec)
    return fresh.slot(0)


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

    The approximate tail is included verbatim, PAD tokens and all.  Decoding
    is greedy with the configured penalty, up to ``answer_max_tokens`` or EOS
    (EOS itself is not returned).
    """
    timer = timer or PhaseTimer()
    spec = backend.spec
    seq = list(prompt) + list(exact) + list(approx_tail) + list(cfg.answer_trigger)
    slot = _cache_for_answer(len(prompt), len(seq), backend, cfg, cache)
    mask = HistoryMask(spec.vocab_size)
    mask.extend(seq)
    answer: list[int] = []
    for _ in range(cfg.answer_max_tokens):
        with timer.phase("infer"):
            step = backend.forward(seq, 1, slot)
        with timer.phase("decode"):
            tok = mask.pick(step.rows[0], cfg.repetition_penalty)
        if slot is not None and step.new_kv is not None:
            count = len(seq) - step.new_start
            with timer.phase("kv_cache"):
                slot.write_back(
                    step.new_kv, step.new_start, count, seq[step.new_start :]
                )
        if tok == spec.eos_id:
            break
        answer.append(tok)
        seq.append(tok)
        mask.add(tok)
    return answer


def decode_with_answer(
    prompt: TokenSeq, backend: Backend, cfg: DecodeConfig
) -> DecodeResult:
    """Full pipeline: rationale loop, then the answer phase."""
    t0 = time.perf_counter()
    session = _Session([prompt], backend, cfg)
    session.run()
    result = session.results()[0]
    result.answer = answer_phase(
        prompt,
        result.exact_rationale,
        result.approximate_tail,
        backend,
        cfg,
        cache=session.cache,
        timer=session.timer,
    )
    result.trace.breakdown = session.timer.breakdown()
    result.trace.wall_s = time.perf_counter() - t0
    return result


def ar_baseline(prompt: TokenSeq, backend: Backend, cfg: DecodeConfig) -> DecodeResult:
    """Greedy autoregressive decode to EOS or the token budget.

    Trace timings bucket the stop check separately so benchmark totals can
    exclude it.  The breakdown reports zero context-decode time by
    construction; cache write-back is timed as ``kv_cache``, as in the
    windowed loop, so it is zero only for cache-less backends.
    """
    spec = backend.spec
    if len(prompt) == 0:
        raise ContractError("prompt must be nonempty")
    t0 = time.perf_counter()
    timer = PhaseTimer()
    trace = DecodeTrace(method="ar", prompt=list(prompt), window_len=0, skip=False)
    slot = None
    if spec.supports_cache:
        max_len = len(prompt) + cfg.max_new_tokens + len(cfg.answer_trigger) + cfg.answer_max_tokens + 2
        if spec.max_len:
            max_len = min(max_len, spec.max_len)
        slot = alloc(1, max_len, spec).slot(0)
    seq = list(prompt)
    mask = HistoryMask(spec.vocab_size)
    mask.extend(seq)
    stop: StopDecision | None = None
    for step_no in range(cfg.max_new_tokens):
        with timer.phase("infer"):
            out = backend.forward(seq, 1, slot)
        with timer.phase("decode"):
            tok = mask.pick(out.rows[0], cfg.repetition_penalty)
        if slot is not None and out.new_kv is not None:
            with timer.phase("kv_cache"):
                slot.write_back(
                    out.new_kv, out.new_start, len(seq) - out.new_start, seq[out.new_start :]
                )
        seq.append(tok)
        mask.add(tok)
        trace.records.append(
            IterationRecord(
                iteration=step_no + 1,
                frontier_before=len(seq) - 1,
                frontier=len(seq),
                window_before=[],
                predictions=[tok],
                match_len=0,
                committed=[tok],
                window=[],
            )
        )
        timer.begin("stop_check")
        hit_eos = tok == spec.eos_id
        timer.end("stop_check")
        if hit_eos:
            stop = StopDecision(reason="eos", value=float(len(seq) - 1))
            break
    if stop is None:
        stop = StopDecision(reason="max_tokens", value=float(len(seq) - len(prompt)))
    trace.breakdown = timer.breakdown()
    trace.stop_check_s = timer.get("stop_check")
    trace.wall_s = time.perf_counter() - t0
    return DecodeResult(
        exact_rationale=seq[len(prompt) :],
        approximate_tail=[],
        answer=[],
        trace=trace,
        stop=stop,
    )


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
        trace = DecodeTrace(
            method="truncated", prompt=list(prompt), window_len=0, skip=False
        )
        answer = answer_phase(prompt, [], [], backend, cfg)
        result = DecodeResult(
            exact_rationale=[],
            approximate_tail=[],
            answer=answer,
            trace=trace,
            stop=StopDecision(reason="iteration_cap", value=0.0),
        )
        return result
    inner = replace(cfg, max_new_tokens=iteration_budget)
    result = ar_baseline(prompt, backend, inner)
    result.trace.method = "truncated"
    result.answer = answer_phase(
        prompt, result.exact_rationale, [], backend, cfg
    )
    if result.stop.reason == "max_tokens":
        result.stop = StopDecision(
            reason="iteration_cap", value=float(iteration_budget)
        )
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
    ``full_accuracy - loss_threshold``.
    """
    if len(sample_prompts) == 0:
        raise ConfigError("sample_prompts must be nonempty")
    if not 0.0 <= loss_threshold <= 1.0:
        raise ConfigError("loss_threshold must lie in [0, 1]")
    base = replace(cfg, iteration_cap=None)
    full_results = [decode_with_answer(p, backend, base) for p, _ in sample_prompts]
    full_acc = float(
        np.mean(
            [
                res.answer == list(ref)
                for res, (_, ref) in zip(full_results, sample_prompts)
            ]
        )
    )
    max_cap = max(res.trace.iterations for res in full_results)
    target = full_acc - loss_threshold
    for cap in range(1, max_cap + 1):
        capped = replace(cfg, iteration_cap=cap)
        acc = float(
            np.mean(
                [
                    decode_with_answer(p, backend, capped).answer == list(ref)
                    for p, ref in sample_prompts
                ]
            )
        )
        if acc >= target:
            return cap
    return max_cap
