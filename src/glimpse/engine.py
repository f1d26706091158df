"""Decode engine: fused autoregressive + lookahead iteration with verified commits.

Each iteration issues one forward call per instance over
``[cached prefix | last exact token | window]`` with a query block of
``window + 1`` positions.  The first scored position is conditioned only on
exact context, so its pick is always committed; further picks commit while
the window guesses they were conditioned on match.  The uncommitted fresh
predictions slide into the next window.  With a zero-length window the loop
is plain greedy autoregressive decoding.

There is one loop, and one call around it, :func:`decode`, which decodes a
batch and, given ``answer=True``, answers it; a solo run is a batch of one.
Autoregressive decoding is a config, ``window_len=0, skip=False,
iteration_cap=None``.  The answer phase is a run of the loop with a
zero-length window after ``prompt ‖ exact ‖ approximate tail ‖ trigger``
that extends the rationale's cache, letting a run answer before its
rationale has fully resolved.  Truncated chain of thought at ``k``
iterations is AR with ``iteration_cap=k``: the same call as FastCoT at
that cap, with the other window.
"""

from __future__ import annotations

import numbers
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from glimpse.backends.base import Backend, TokenSeq, check_forward_args
from glimpse.buffer import BatchBuffers, update, verify
from glimpse.cache import CacheBuffer
from glimpse.errors import ConfigError, ContractError
from glimpse.trace import DecodeTrace, IterationRecord, TimeBreakdown


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
    "repetition_penalty": (_is_real, "a number"),
    "answer_trigger": (_is_ids, "a tuple of integers"),
    "answer_max_tokens": (_is_int, "an integer"),
}


def _plain(value):
    """A checked field value as plain Python: a numpy scalar cannot be written as JSON."""
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    if value is None or isinstance(value, bool):
        return value
    return int(value) if _is_int(value) else float(value)


@dataclass(frozen=True)
class DecodeConfig:
    """Engine configuration; the window length is fixed for a whole run.

    Attributes:
        window_len: Lookahead window size c (0 = pure autoregressive).
        skip: Commit ``1 + match`` tokens per iteration instead of exactly 1.
        max_new_tokens: Hard budget of exact tokens (safety net, always on).
        iteration_cap: Optional maximum number of iterations.
        repetition_penalty: Greedy-pick penalty, finite and >= 1.
        answer_trigger: Token sequence appended before answer decoding.
        answer_max_tokens: Budget for the answer phase.
    """

    window_len: int
    skip: bool = True
    max_new_tokens: int = 256
    iteration_cap: int | None = None
    repetition_penalty: float = 1.2
    answer_trigger: tuple[int, ...] = ()
    answer_max_tokens: int = 16

    def __post_init__(self) -> None:
        for name, (ok, kind) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
            object.__setattr__(self, name, _plain(value))
        if self.window_len < 0:
            raise ConfigError("window_len must be nonnegative")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be positive")
        if self.iteration_cap is not None and self.iteration_cap < 1:
            raise ConfigError("iteration_cap must be positive when set")
        # A bound, not math.isfinite, which raises OverflowError on a huge int.
        if not 1.0 <= self.repetition_penalty <= sys.float_info.max:
            raise ConfigError("repetition_penalty must be finite and >= 1")
        if self.answer_max_tokens < 1:
            raise ConfigError("answer_max_tokens must be positive")

    def to_dict(self) -> dict:
        return {**asdict(self), "answer_trigger": list(self.answer_trigger)}

    @classmethod
    def from_dict(cls, data: dict) -> "DecodeConfig":
        extra = set(data) - set(cls.__dataclass_fields__)
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


@dataclass(frozen=True)
class StopDecision:
    """Why a rationale loop ended, with the value that triggered it."""

    reason: str
    value: float


@dataclass
class DecodeResult:
    exact_rationale: list[int]
    approximate_tail: list[int]
    answer: list[int]
    trace: DecodeTrace
    stop: StopDecision


def check_stop(
    record: IterationRecord, n_exact: int, eos_id: int, cfg: DecodeConfig
) -> StopDecision | None:
    """Evaluate stop conditions in fixed precedence; return the first hit.

    ``record`` is the iteration that just ended and ``n_exact`` the
    instance's exact-token count after it.  Order: EOS committed this
    iteration, iteration cap, exact-token budget.
    """
    committed = record.committed
    if eos_id in committed:
        eos_pos = record.frontier_before + committed.index(eos_id)
        return StopDecision(reason="eos", value=float(eos_pos))
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
    times: TimeBreakdown | None = None,
) -> list[IterationRecord]:
    """Run one fused forward + pick + verify + update over the given instances.

    Every listed instance must be unfinished.  Each gets exactly one
    forward call over ``[cached prefix | frontier-1 token | window]`` with
    a query block of ``window_len + 1`` (the first call also computes the
    uncached prompt); the cache is extended by the newly exact positions
    only.  The commit count is decided here alone: ``1 + match_len`` with
    skip (else 1), cut at the token budget and after the first EOS.  The
    forward for the whole batch happens, and its scores are checked to be
    finite, before any instance is updated, so a backend error or a
    non-finite score leaves every buffer untouched.  Cache write-back and
    update then run instance by instance and are not rolled back: a
    write-back error on one instance leaves the earlier ones advanced.
    ``times`` gains the ``infer``, ``decode`` and ``kv_cache`` segments
    (see :class:`TimeBreakdown`).  Returns one record per instance.
    """
    clock = time.perf_counter
    t = clock()
    if instances is None:
        instances = range(len(buffers))
    for i in instances:
        if buffers.finished[i]:
            raise ContractError(f"instance {i} already finished")
    times = times or TimeBreakdown()
    eos = backend.spec.eos_id
    c = buffers.window_len
    penalty = cfg.repetition_penalty

    contexts = [buffers.context(i) for i in instances]
    slots = [cache.slot(i) for i in instances] if cache is not None else None
    scores = backend.forward_batch(contexts, [c + 1] * len(contexts), slots)
    for rows in scores:
        if not np.isfinite(rows).all():
            raise ContractError("backend returned non-finite scores")
    now = clock()
    times.infer += now - t
    t = now

    records: list[IterationRecord] = []
    for i, ctx, rows in zip(instances, contexts, scores):
        frontier = buffers.frontier[i]
        window = buffers.window(i)
        # One block pick: row j is penalized under the history plus window[:j].
        preds = buffers.histories[i].pick(rows, penalty, window)
        window_before = window.tolist()
        outcome = verify(window_before, preds)
        m = 1 + outcome.match_len if cfg.skip else 1
        m = min(m, cfg.max_new_tokens - (frontier - buffers.prompt_len[i]))
        if eos in preds[:m]:
            m = preds.index(eos) + 1

        if cache is not None:
            # Persist up to (new frontier - 1): all freshly exact positions
            # except the last committed token, whose K/V is recomputed as the
            # next iteration's frontier-1 input.  The new K/V start at the
            # slot's valid length.
            persist_end = frontier + m - 1
            start = int(cache.valid_len[i])
            now = clock()
            times.decode += now - t
            cache.write_back(i, ctx, start, persist_end - start)
            t = clock()
            times.kv_cache += t - now
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
            )
        )
    times.decode += clock() - t
    return records


def _max_context(prompts: Sequence[TokenSeq], cfg: DecodeConfig) -> int:
    """Longest context a forward of this run can see.

    The last iteration starts with at most ``max_new_tokens - 1`` exact
    tokens and scores them behind the prompt, with the window after them.
    Every run sizes itself with this first, so it refuses an empty batch.
    """
    if len(prompts) == 0:
        raise ContractError("batch must be nonempty")
    return max(len(p) for p in prompts) + cfg.max_new_tokens - 1 + cfg.window_len


def _check_trigger(backend: Backend, cfg: DecodeConfig) -> None:
    """Refuse up front an answer trigger the backend cannot read."""
    for tok in cfg.answer_trigger:
        if not 0 <= tok < backend.spec.vocab_size:
            raise ConfigError(f"answer trigger token {tok} outside vocab")


def _check_capacity(backend: Backend, rows: int, need: int, what: str) -> None:
    """Refuse up front a run whose ``rows`` contexts would outgrow the backend or any array."""
    limit = backend.spec.max_len
    if limit and need > limit:
        raise ConfigError(
            f"{what} needs contexts of up to {need} tokens,"
            f" over the backend's max_len {limit}"
        )
    # numpy refuses an array of more than sys.maxsize bytes; a row holds need + 1 int64s.
    if 8 * rows * (need + 1) > sys.maxsize:
        raise ConfigError(f"{what} needs contexts of up to {need} tokens, more than an array holds")


def _decode(
    prompts: Sequence[TokenSeq],
    backend: Backend,
    cfg: DecodeConfig,
    cache: CacheBuffer | None,
    times: TimeBreakdown,
) -> list[DecodeResult]:
    """One batch decode run: the fused loop until every instance stops.

    ``cache`` continues an earlier run's cache (the answer phase extends
    the rationale's); without it a backend with layers gets a fresh cache
    sized for this run.  Each trace is labelled by the config alone:
    ``"ar"`` for a zero-length window, else ``"parallel"``.
    """
    spec = backend.spec
    # The backends' own check: integer ids inside the vocabulary.
    prompts = [check_forward_args(spec, prompt, 1) for prompt in prompts]
    need = _max_context(prompts, cfg)
    _check_capacity(backend, len(prompts), need, "decoding")
    # The last update's tail write ends at most one token past the last forward's context.
    buffers = BatchBuffers(prompts, cfg.window_len, spec, capacity=need + 1)
    if cache is None and spec.n_layers > 0:
        cache = CacheBuffer(len(prompts), need, spec)
    stops: list[StopDecision | None] = [None] * len(prompts)
    method = "parallel" if cfg.window_len else "ar"
    traces = [
        DecodeTrace(method=method, prompt=p.tolist(), window_len=cfg.window_len, skip=cfg.skip)
        for p in prompts
    ]
    eos = spec.eos_id
    clock = time.perf_counter
    active = buffers.active_indices()
    while active:
        records = iterate_once(buffers, backend, cache, cfg, active, times)
        t = clock()
        for i, rec in zip(active, records):
            traces[i].records.append(rec)
            stop = check_stop(rec, rec.frontier - buffers.prompt_len[i], eos, cfg)
            if stop is not None:
                buffers.finished[i] = True
                stops[i] = stop
        active = buffers.active_indices()
        times.stop_check += clock() - t
    return [
        DecodeResult(
            exact_rationale=buffers.exact(i).tolist(),
            approximate_tail=buffers.window(i).tolist(),
            answer=[],
            trace=trace,
            stop=stop,
        )
        for i, (trace, stop) in enumerate(zip(traces, stops))
    ]


def _greedy(cfg: DecodeConfig, budget: int) -> DecodeConfig:
    """``cfg`` as plain greedy decoding of ``budget`` tokens: no window or cap."""
    return replace(cfg, window_len=0, skip=False, max_new_tokens=budget, iteration_cap=None)


def answer_phase(
    contexts: Sequence[TokenSeq],
    backend: Backend,
    cfg: DecodeConfig,
    cache: CacheBuffer | None = None,
    times: TimeBreakdown | None = None,
) -> list[list[int]]:
    """Decode each instance's answer after its context and the trigger.

    One zero-window run over every ``context ‖ trigger``, where a
    rationale's context is ``prompt ‖ exact ‖ approximate tail``, the tail
    verbatim, PAD tokens and all.  Decoding is greedy with the configured
    penalty, up to ``answer_max_tokens`` or EOS (EOS itself is not
    returned).  Given ``cache`` (the rationale's) instance ``i`` extends
    row ``i``; without it the run gets a fresh one.  ``times`` gains the
    loop's phases.
    """
    _check_trigger(backend, cfg)
    seqs = [[*context, *cfg.answer_trigger] for context in contexts]
    greedy = _greedy(cfg, cfg.answer_max_tokens)
    results = _decode(seqs, backend, greedy, cache, times or TimeBreakdown())
    eos = backend.spec.eos_id
    answers = [result.exact_rationale for result in results]
    return [answer[:-1] if answer and answer[-1] == eos else answer for answer in answers]


def decode(
    prompts: Sequence[TokenSeq], backend: Backend, cfg: DecodeConfig, *, answer: bool = False
) -> list[DecodeResult]:
    """Decode a batch: the rationale loop, then, if ``answer``, its answer phase.

    Per-instance results match solo runs (a batch of one).  Without
    ``answer`` each result's answer is empty.  A run that answers is
    refused before the rationale starts when the trigger is outside the
    vocabulary or the answer would not fit the backend's ``max_len``; its
    cache holds the answer rows too.  Every trace carries the batch's
    totals: ``wall_s`` is the wall time of the whole call and
    ``breakdown`` the phases of its loops.
    """
    if answer:
        _check_trigger(backend, cfg)
        need = _max_context(prompts, cfg) + len(cfg.answer_trigger) + cfg.answer_max_tokens
        _check_capacity(backend, len(prompts), need, "the answer phase")
    t0 = time.perf_counter()
    times = TimeBreakdown()
    spec = backend.spec
    cache = CacheBuffer(len(prompts), need, spec) if answer and spec.n_layers else None
    results = _decode(prompts, backend, cfg, cache, times)
    if answer:
        contexts = [
            [*prompt, *result.exact_rationale, *result.approximate_tail]
            for prompt, result in zip(prompts, results)
        ]
        for result, tokens in zip(results, answer_phase(contexts, backend, cfg, cache, times)):
            result.answer = tokens
    wall_s = time.perf_counter() - t0
    for result in results:
        result.trace.wall_s = wall_s
        result.trace.breakdown = replace(times)
    return results


# The benchmark's names for three calls of ``decode`` (decodebench/workloads.py);
# they go when the benchmark calls ``decode`` itself.
def ar_baseline(prompt: TokenSeq, backend: Backend, cfg: DecodeConfig) -> DecodeResult:
    return decode([prompt], backend, _greedy(cfg, cfg.max_new_tokens))[0]


def decode_with_answer(prompt: TokenSeq, backend: Backend, cfg: DecodeConfig) -> DecodeResult:
    return decode([prompt], backend, cfg, answer=True)[0]


def run_rationale_batch(
    prompts: Sequence[TokenSeq], backend: Backend, cfg: DecodeConfig
) -> list[DecodeResult]:
    return decode(prompts, backend, cfg)
