import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glimpse.backends import (
    NgramBackend,
    default_toy_spec,
    make_scripted_backend,
    make_toy_transformer,
    RetrievalScript,
)
from glimpse.backends.scripted import TRIGGER, PAD as S_PAD
from glimpse.buffer import BatchBuffers, update
from glimpse.cache import CacheBuffer
from glimpse.engine import (
    DecodeConfig,
    answer_phase,
    check_stop,
    decode,
    iterate_once,
)
from glimpse.errors import CapacityError, ConfigError, ContractError
from glimpse.trace import IterationRecord

from conftest import as_ar, random_ngram_backend, random_prompt, small_toy_spec
from oracles import greedy_ar_reference, jacobi_reference


def cfg_for(backend, c, skip=True, max_new=24, **kw):
    return DecodeConfig(window_len=c, skip=skip, max_new_tokens=max_new, **kw)


# ----------------------------------------------------------------------
# iterate_once / the fused loop
# ----------------------------------------------------------------------


def test_counting_trace_matches_jacobi_oracle(counting_backend):
    cfg = cfg_for(counting_backend, 3, max_new=24)
    result = decode([[0]], counting_backend, cfg)[0]
    oracle_exact, oracle_commits = jacobi_reference(
        counting_backend, [0], 3, True, 24
    )
    assert result.exact_rationale == oracle_exact
    assert [len(r.committed) for r in result.trace.records] == oracle_commits
    # frozen oracle values: the first iteration commits the single AR token,
    # then the loop alternates between a full-window commit and a re-priming
    # single commit
    assert oracle_commits[0] == 1
    assert oracle_commits[1] == 4
    assert oracle_commits[2] == 1
    assert oracle_commits[3] == 4


def test_window_zero_is_ar_trace_identical(counting_backend):
    cfg = cfg_for(counting_backend, 0, max_new=15)
    par = decode([[4]], counting_backend, cfg)[0]
    ar = decode([[4]], counting_backend, as_ar(cfg))[0]
    assert par.exact_rationale == ar.exact_rationale
    assert par.trace.iterations == ar.trace.iterations
    for a, b in zip(par.trace.records, ar.trace.records):
        assert (a.iteration, a.frontier_before, a.frontier) == (
            b.iteration,
            b.frontier_before,
            b.frontier,
        )
        assert a.committed == b.committed
        assert a.window == b.window == []


def test_batch_matches_solo_runs(toy_backend):
    cfg = cfg_for(toy_backend, 4, max_new=16)
    prompts = [[1, 2, 3], [9, 8, 7, 6, 5], [40]]
    solo = [decode([p], toy_backend, cfg)[0] for p in prompts]
    batch = decode(prompts, toy_backend, cfg)
    for s, b in zip(solo, batch):
        assert s.exact_rationale == b.exact_rationale
        assert s.stop.reason == b.stop.reason
        assert [r.committed for r in s.trace.records] == [
            r.committed for r in b.trace.records
        ]


def test_iterate_once_rejects_finished_instance(counting_backend):
    cfg = cfg_for(counting_backend, 2)
    bufs = BatchBuffers([[0]], 2, counting_backend.spec)
    bufs.finished[0] = True
    with pytest.raises(ContractError):
        iterate_once(bufs, counting_backend, None, cfg)


def test_iterate_once_atomic_on_backend_error(counting_backend):
    class Flaky:
        def __init__(self, inner):
            self.spec = inner.spec
            self.inner = inner

        def forward(self, *a, **kw):
            raise RuntimeError("boom")

        def forward_batch(self, *a, **kw):
            raise RuntimeError("boom")

    cfg = cfg_for(counting_backend, 2)
    bufs = BatchBuffers([[0]], 2, counting_backend.spec, capacity=6)

    def state():
        return bufs.store.tolist(), bufs.frontier, bufs.iteration, bufs.histories[0].mask.tolist()

    snapshot = state()
    with pytest.raises(RuntimeError):
        iterate_once(bufs, Flaky(counting_backend), None, cfg)
    assert state() == snapshot


def test_max_new_tokens_never_exceeded(counting_backend):
    # skip mode commits in bursts; the budget must still cut exactly
    for max_new in (5, 8, 9, 17):
        cfg = cfg_for(counting_backend, 7, max_new=max_new)
        res = decode([[0]], counting_backend, cfg)[0]
        assert len(res.exact_rationale) == max_new
        assert res.stop.reason == "max_tokens"


# ----------------------------------------------------------------------
# stop conditions
# ----------------------------------------------------------------------


def test_stop_eos_at_scripted_position():
    script = RetrievalScript(num_keys=1, rationale_len=6)
    backend = make_scripted_backend(script)
    cfg = DecodeConfig(window_len=3, max_new_tokens=40)
    res = decode([script.prompt(9)], backend, cfg)[0]
    # schedule: 6 rationale tokens then EOS
    assert res.stop.reason == "eos"
    assert res.exact_rationale == script.rationale(9) + [backend.spec.eos_id]
    assert res.stop.value == 2 + 6  # absolute position of EOS


def test_stop_iteration_cap_exact(counting_backend):
    cfg = cfg_for(counting_backend, 0, max_new=100, iteration_cap=5)
    res = decode([[1]], counting_backend, cfg)[0]
    assert res.trace.iterations == 5
    assert res.stop.reason == "iteration_cap"
    assert res.stop.value == 5


def test_stop_eos_beats_cap():
    # EOS commits on iteration 1 while the cap also fires there
    backend = NgramBackend({(3,): 7}, vocab_size=8)  # 7 == eos
    assert backend.spec.eos_id == 7
    cfg = DecodeConfig(window_len=0, max_new_tokens=10, iteration_cap=1)
    res = decode([[3]], backend, cfg)[0]
    assert res.stop.reason == "eos"


def _record(committed, iteration=1, frontier_before=3):
    return IterationRecord(
        iteration=iteration,
        frontier_before=frontier_before,
        frontier=frontier_before + len(committed),
        window_before=[],
        predictions=list(committed),
        match_len=0,
        committed=list(committed),
        window=[],
    )


def test_check_stop_returns_none_when_clear(counting_backend):
    eos = counting_backend.spec.eos_id
    cfg = cfg_for(counting_backend, 2, max_new=10, iteration_cap=3)
    assert check_stop(_record([1, 2], iteration=2), 9, eos, cfg) is None
    assert check_stop(_record([1, 2], iteration=3), 9, eos, cfg).reason == "iteration_cap"
    assert check_stop(_record([1, 2], iteration=2), 10, eos, cfg).reason == "max_tokens"
    assert check_stop(_record([1, 2], iteration=3), 10, eos, cfg).reason == "iteration_cap"
    # EOS comes first, before the cap and the budget that fire with it
    stop = check_stop(_record([1, eos, 2], iteration=3), 10, eos, cfg)
    assert (stop.reason, stop.value) == ("eos", 4.0)


# ----------------------------------------------------------------------
# answer phase
# ----------------------------------------------------------------------


def test_answer_phase_scripted_retrieval():
    script = RetrievalScript(num_keys=1, rationale_len=10)
    backend = make_scripted_backend(script)
    cfg = DecodeConfig(
        window_len=4,
        max_new_tokens=40,
        answer_trigger=TRIGGER,
        answer_max_tokens=3,
    )
    q = 6
    res = decode([script.prompt(q)], backend, cfg, answer=True)[0]
    assert res.answer == [script.answer_token(q)]


def test_answer_phase_all_pad_tail_equals_exact_only():
    script = RetrievalScript(num_keys=1, rationale_len=10)
    backend = make_scripted_backend(script)
    cfg = DecodeConfig(
        window_len=0, answer_trigger=TRIGGER, answer_max_tokens=3, max_new_tokens=40
    )
    q = 13
    rationale = script.rationale(q)
    prompt = script.prompt(q)
    with_pads, without = answer_phase(
        [prompt + rationale + [S_PAD] * 4, prompt + rationale], backend, cfg
    )
    assert with_pads == without


def test_answer_phase_budget_of_one(toy_backend):
    cfg = DecodeConfig(
        window_len=0, answer_trigger=(1, 2), answer_max_tokens=1, max_new_tokens=8
    )
    [answer] = answer_phase([[5, 6, 7, 8]], toy_backend, cfg)
    assert len(answer) <= 1


def test_answer_phase_cache_reuse_matches_fresh(toy_backend):
    base = DecodeConfig(
        window_len=3,
        max_new_tokens=12,
        answer_trigger=(2, 3),
        answer_max_tokens=5,
    )
    reused = decode([[4, 5, 6]], toy_backend, base, answer=True)[0]
    # without a cache the answer phase starts from a fresh one
    [fresh] = answer_phase(
        [[4, 5, 6, *reused.exact_rationale, *reused.approximate_tail]], toy_backend, base
    )
    assert reused.answer == fresh


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------


def test_ar_baseline_counting(counting_backend):
    cfg = cfg_for(counting_backend, 0, max_new=5)
    res = decode([[0]], counting_backend, as_ar(cfg))[0]
    assert res.exact_rationale == [1, 2, 3, 4, 5]
    assert res.stop.reason == "max_tokens"


def test_ar_baseline_repeat_identical(toy_backend):
    cfg = cfg_for(toy_backend, 0, max_new=10)
    a = decode([[3, 1, 4]], toy_backend, as_ar(cfg))[0]
    b = decode([[3, 1, 4]], toy_backend, as_ar(cfg))[0]
    assert a.exact_rationale == b.exact_rationale
    assert [r.committed for r in a.trace.records] == [
        r.committed for r in b.trace.records
    ]


def test_trace_method_follows_the_window(counting_backend):
    for c, method in ((0, "ar"), (1, "parallel"), (3, "parallel")):
        cfg = DecodeConfig(window_len=c, max_new_tokens=8)
        assert decode([[1]], counting_backend, cfg, answer=True)[0].trace.method == method
        batch = decode([[1], [2, 3]], counting_backend, cfg)
        assert [res.trace.method for res in batch] == [method, method]
    # the baseline decodes with no window, whatever the config's
    [res] = decode([[1]], counting_backend, as_ar(DecodeConfig(window_len=3)))
    assert res.trace.method == "ar"


def test_ar_baseline_buckets(counting_backend):
    cfg = cfg_for(counting_backend, 0, max_new=50)
    res = decode([[0]], counting_backend, as_ar(cfg))[0]
    assert res.trace.breakdown.kv_cache == 0.0
    assert res.trace.breakdown.stop_check >= 0.0


def test_ar_baseline_times_cache_write_back(toy_backend):
    cfg = cfg_for(toy_backend, 0, max_new=20)
    res = decode([[3, 1, 4, 1, 5]], toy_backend, as_ar(cfg))[0]
    assert res.trace.breakdown.kv_cache > 0.0
    assert res.trace.breakdown.total() <= res.trace.wall_s * 1.05


def test_batch_traces_carry_batch_totals(toy_backend):
    cfg = cfg_for(toy_backend, 3, max_new=20)
    results = decode([[9, 4, 7], [1, 2, 3, 4, 5]], toy_backend, cfg)
    for res in results:
        assert res.trace.wall_s > 0.0
        assert res.trace.breakdown.total() <= res.trace.wall_s * 1.05
        assert res.trace.breakdown.infer > 0.0


def truncated(prompt, backend, cfg, k):
    """Truncated CoT at ``k`` iterations: the zero-window pipeline capped at ``k``."""
    return decode(
        [prompt], backend, replace(cfg, window_len=0, skip=False, iteration_cap=k), answer=True
    )[0]


def test_truncated_prefix_property(counting_backend):
    cfg = cfg_for(counting_backend, 0, max_new=20)
    full = decode([[2]], counting_backend, as_ar(cfg))[0]
    for k in (3, 7):
        trunc = truncated([2], counting_backend, cfg, k)
        assert trunc.exact_rationale == full.exact_rationale[:k]


def test_truncated_budget_zero_answers_from_prompt():
    script = RetrievalScript(num_keys=1, rationale_len=8)
    backend = make_scripted_backend(script)
    cfg = DecodeConfig(
        window_len=0, answer_trigger=TRIGGER, answer_max_tokens=3, max_new_tokens=30
    )
    # truncated at zero iterations the context is the prompt alone: no
    # rationale -> no key token -> the unknown marker
    from glimpse.backends.scripted import UNK

    assert answer_phase([script.prompt(3)], backend, cfg) == [[UNK]]


def test_truncated_saturates_to_full_cot():
    script = RetrievalScript(num_keys=1, rationale_len=8)
    backend = make_scripted_backend(script)
    cfg = DecodeConfig(
        window_len=0, answer_trigger=TRIGGER, answer_max_tokens=3, max_new_tokens=30
    )
    q = 10
    full = decode([script.prompt(q)], backend, cfg, answer=True)[0]
    trunc = truncated(script.prompt(q), backend, cfg, 100)
    assert trunc.answer == full.answer == [script.answer_token(q)]


@pytest.mark.parametrize("name", ["toy", "counting", "scripted", "ngram"])
def test_truncated_row_is_capped_greedy_then_a_fresh_answer(name, request):
    # bench's truncated row: greedy AR for k iterations, then the answer phase
    script = RetrievalScript(num_keys=1, rationale_len=8)
    backend, prompt, trigger = {
        "toy": lambda: (request.getfixturevalue("toy_backend"), [4, 5, 6], (2, 3)),
        "counting": lambda: (request.getfixturevalue("counting_backend"), [2], (5,)),
        "scripted": lambda: (make_scripted_backend(script), script.prompt(10), TRIGGER),
        "ngram": lambda: (random_ngram_backend(5), [1, 2], (3,)),
    }[name]()
    eos = backend.spec.eos_id
    for penalty in (1.0, 1.2):
        cfg = DecodeConfig(
            window_len=4,
            max_new_tokens=12,
            repetition_penalty=penalty,
            answer_trigger=trigger,
            answer_max_tokens=4,
        )
        for k in (1, 2, 5, 12):
            res = truncated(prompt, backend, cfg, k)
            reference = greedy_ar_reference(backend, prompt, k, penalty)
            assert res.exact_rationale == reference
            assert res.approximate_tail == []
            if reference[-1] == eos:
                assert res.stop.reason == "eos"
            else:
                assert (res.stop.reason, res.stop.value) == ("iteration_cap", float(k))
            assert [res.answer] == answer_phase([[*prompt, *reference]], backend, cfg)


# ----------------------------------------------------------------------
# losslessness (the core theorem, randomized)
# ----------------------------------------------------------------------


def test_losslessness_random_sample(toy_backend, counting_backend):
    rng = np.random.default_rng(7)
    cases = 0
    for _ in range(40):
        pick = rng.integers(0, 3)
        if pick == 0:
            backend = counting_backend
        elif pick == 1:
            backend = random_ngram_backend(int(rng.integers(0, 1000)))
        else:
            backend = toy_backend
        c = int(rng.integers(0, 9))
        skip = bool(rng.integers(0, 2))
        prompt = random_prompt(rng, backend.spec.vocab_size)
        max_new = int(rng.integers(1, 20))
        cfg = DecodeConfig(window_len=c, skip=skip, max_new_tokens=max_new)
        got = decode([prompt], backend, cfg)[0].exact_rationale
        want = greedy_ar_reference(backend, prompt, max_new)
        assert got == want, (backend.__class__.__name__, prompt, c, skip, max_new)
        cases += 1
    assert cases == 40


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    c=st.integers(0, 8),
    skip=st.booleans(),
    budget=st.integers(1, 40),
    penalty=st.sampled_from([1.0, 1.2]),
    data=st.data(),
)
def test_trace_matches_jacobi_oracle_and_batch_matches_solo(seed, c, skip, budget, penalty, data):
    # EOS follows about a fifth of all ids, so most runs stop at EOS rather
    # than at the budget, and some cut a commit short at either.
    backend = random_ngram_backend(seed, eos_prob=0.2)
    vocab, eos = backend.spec.vocab_size, backend.spec.eos_id
    prompt = st.lists(st.integers(0, vocab - 1), min_size=1, max_size=6)
    prompts = data.draw(st.lists(prompt, min_size=2, max_size=4))
    trigger = tuple(data.draw(st.lists(st.integers(0, vocab - 1), max_size=2)))
    cfg = DecodeConfig(
        window_len=c,
        skip=skip,
        max_new_tokens=budget,
        repetition_penalty=penalty,
        answer_trigger=trigger,
        answer_max_tokens=4,
    )
    solo = [decode([p], backend, cfg, answer=True)[0] for p in prompts]
    for p, res in zip(prompts, solo):
        exact, commits = jacobi_reference(backend, p, c, skip, budget, penalty)
        assert res.exact_rationale == exact
        assert [len(r.committed) for r in res.trace.records] == commits
        # The answer is greedy AR after prompt ‖ exact ‖ tail ‖ trigger, cut before EOS.
        context = [*p, *exact, *res.approximate_tail, *trigger]
        answer = greedy_ar_reference(backend, context, cfg.answer_max_tokens, penalty)
        assert res.answer == (answer[: answer.index(eos)] if eos in answer else answer)
    for s, b in zip(solo, decode(prompts, backend, cfg, answer=True)):
        assert b.trace.records == s.trace.records
        assert (b.exact_rationale, b.approximate_tail, b.answer, b.stop) == (
            s.exact_rationale,
            s.approximate_tail,
            s.answer,
            s.stop,
        )


@pytest.mark.parametrize("c", [0, 4, 8])
def test_toy_answer_batch_matches_solo_record_for_record(toy_backend, c):
    rng = np.random.default_rng(c)
    prompts = [[int(t) for t in rng.integers(0, 60, size=n)] for n in (8, 20, 1, 13, 5, 17, 3, 11)]
    cfg = DecodeConfig(
        window_len=c,
        max_new_tokens=40,
        repetition_penalty=1.0,
        answer_trigger=(1, 2, 3),
        answer_max_tokens=6,
    )
    batch = decode(prompts, toy_backend, cfg, answer=True)
    for prompt, b in zip(prompts, batch):
        s = decode([prompt], toy_backend, cfg, answer=True)[0]
        assert (b.trace.method, b.trace.prompt, b.trace.records) == (
            s.trace.method,
            s.trace.prompt,
            s.trace.records,
        )
        assert (b.exact_rationale, b.approximate_tail, b.answer, b.stop) == (
            s.exact_rationale,
            s.approximate_tail,
            s.answer,
            s.stop,
        )
    # every trace carries the batch's totals, answer phase included
    assert len({b.trace.wall_s for b in batch}) == 1
    assert all(b.trace.breakdown == batch[0].trace.breakdown for b in batch)


def test_skip_vs_noskip_same_stream_fewer_iterations(counting_backend):
    cfg_s = cfg_for(counting_backend, 5, skip=True, max_new=30)
    cfg_n = cfg_for(counting_backend, 5, skip=False, max_new=30)
    with_skip = decode([[0]], counting_backend, cfg_s)[0]
    without = decode([[0]], counting_backend, cfg_n)[0]
    assert with_skip.exact_rationale == without.exact_rationale
    assert with_skip.trace.iterations <= without.trace.iterations
    assert without.trace.iterations == len(without.exact_rationale)


def test_monotone_frontier(toy_backend):
    cfg = cfg_for(toy_backend, 4, max_new=16)
    res = decode([[8, 9]], toy_backend, cfg)[0]
    frontiers = [r.frontier for r in res.trace.records]
    assert all(b > a for a, b in zip(frontiers, frontiers[1:]))
    assert all(len(r.committed) >= 1 for r in res.trace.records)


# ----------------------------------------------------------------------
# refused inputs: capacity and non-finite scores
# ----------------------------------------------------------------------


class _CountingForwards:
    """Backend proxy that counts forward calls and can poison one call's scores."""

    def __init__(self, inner, nan_at=None):
        self.inner = inner
        self.spec = inner.spec
        self.calls = 0
        self.nan_at = nan_at

    def forward(self, context, block_len, cache=None):
        return self.forward_batch([context], [block_len], [cache])[0]

    def forward_batch(self, contexts, block_lens, slots=None):
        steps = self.inner.forward_batch(contexts, block_lens, slots)
        self.calls += 1
        if self.calls == self.nan_at:
            steps[0] = steps[0].copy()
            steps[0][-1, 3] = np.nan
        return steps


def _small_max_len_toy():
    return _CountingForwards(make_toy_transformer(1, default_toy_spec(max_len=64)))


PROMPT_10_17 = list(range(10, 18))


def test_over_capacity_window_run_refused_before_decoding():
    backend = _small_max_len_toy()
    # 8 + (55 - 1) + 4 = 66 context tokens at the last iteration, max_len 64
    with pytest.raises(ConfigError):
        decode([PROMPT_10_17], backend, DecodeConfig(window_len=4, max_new_tokens=55))
    with pytest.raises(ConfigError):
        decode([PROMPT_10_17], backend, DecodeConfig(window_len=4, max_new_tokens=54))
    assert backend.calls == 0


def test_largest_accepted_budget_runs_to_completion():
    backend = _small_max_len_toy()
    cfg = DecodeConfig(window_len=4, max_new_tokens=53, repetition_penalty=1.0)
    res = decode([PROMPT_10_17], backend, cfg)[0]
    ar = decode([PROMPT_10_17], backend, as_ar(cfg))[0]
    assert res.exact_rationale == ar.exact_rationale
    assert res.stop.reason == ar.stop.reason == "max_tokens"
    assert len(res.exact_rationale) == 53


def test_ar_baseline_fills_max_len():
    backend = _small_max_len_toy()
    cfg = DecodeConfig(window_len=0, max_new_tokens=56, repetition_penalty=1.0)
    res = decode([PROMPT_10_17], backend, as_ar(cfg))[0]
    assert res.stop.reason == "max_tokens"
    assert len(res.exact_rationale) == 56
    with pytest.raises(ConfigError):
        decode([PROMPT_10_17], backend, as_ar(DecodeConfig(window_len=0, max_new_tokens=58)))


def test_answer_that_cannot_fit_refused_before_rationale():
    backend = _small_max_len_toy()
    # the 56-token rationale fits, but its 16-token answer would not
    cfg = DecodeConfig(window_len=0, max_new_tokens=56)
    with pytest.raises(ConfigError):
        decode([PROMPT_10_17], backend, cfg, answer=True)
    assert backend.calls == 0
    # 8 + 40 - 1 + 0 + 1 trigger + 16 answer = 64 fits exactly
    fits = DecodeConfig(window_len=0, max_new_tokens=40, answer_trigger=(5,))
    res = decode([PROMPT_10_17], backend, fits, answer=True)[0]
    assert len(res.answer) <= fits.answer_max_tokens


def test_answer_trigger_is_checked_only_by_runs_that_answer():
    backend = _small_max_len_toy()
    vocab = backend.spec.vocab_size
    cfg = DecodeConfig(window_len=2, max_new_tokens=6, answer_trigger=(vocab,))
    # these runs never read the trigger, so it cannot refuse them
    assert len(decode([[1, 2, 3]], backend, cfg)[0].exact_rationale) == 6
    assert len(decode([[1, 2, 3]], backend, as_ar(cfg))[0].exact_rationale) == 6
    assert len(decode([[1, 2, 3], [4]], backend, cfg)) == 2
    calls = backend.calls
    with pytest.raises(ConfigError):
        decode([[1, 2, 3]], backend, cfg, answer=True)
    with pytest.raises(ConfigError):
        answer_phase([[1, 2, 3, 4]], backend, cfg)
    assert backend.calls == calls


def test_cache_holds_the_answer_only_for_runs_that_answer(monkeypatch):
    import glimpse.engine

    rows = []

    def spy(batch, max_len, spec):
        rows.append(max_len)
        return CacheBuffer(batch, max_len, spec)

    monkeypatch.setattr(glimpse.engine, "CacheBuffer", spy)
    backend = make_toy_transformer(1, small_toy_spec())
    cfg = DecodeConfig(window_len=2, max_new_tokens=10, answer_trigger=(1, 2, 3))
    decode([[1, 2, 3]], backend, cfg)
    decode([[1, 2, 3], [4, 5, 6, 7]], backend, cfg)
    decode([[1, 2, 3]], backend, as_ar(cfg))
    # 3 prompt tokens + 10 new - 1 + c (2, or 0 for AR), and 4 for the longer prompt
    assert rows == [14, 15, 12]
    rows.clear()
    decode([[1, 2, 3]], backend, cfg, answer=True)
    # the rationale's 14, then 3 trigger and 16 answer tokens
    assert rows == [14 + 3 + 16]


# ----------------------------------------------------------------------
# the context store
# ----------------------------------------------------------------------


@pytest.fixture
def context_rows(monkeypatch):
    """(length, row width, is a view of the store) of every context handed out."""
    seen = []
    original = BatchBuffers.context

    def spy(self, i):
        ctx = original(self, i)
        seen.append((len(ctx), self.store.shape[1], ctx.base is self.store))
        return ctx

    monkeypatch.setattr(BatchBuffers, "context", spy)
    return seen


def test_mixed_batch_reaches_max_context_exactly(counting_backend, context_rows):
    # The longest prompt's last forward starts with 16 exact tokens (commits
    # go 1, 4, 1, 4, ...) and sees 5 + (17 - 1) + 3 = 24 tokens.
    prompts = [[1], [2, 3, 4, 5, 6], [7, 8]]
    cfg = DecodeConfig(window_len=3, max_new_tokens=17)
    results = decode(prompts, counting_backend, cfg)
    assert [len(r.exact_rationale) for r in results] == [17, 17, 17]
    assert max(n for n, _, _ in context_rows) == 24
    assert {width for _, width, _ in context_rows} == {25}
    assert all(view and n <= width for n, width, view in context_rows)
    for prompt, res in zip(prompts, results):
        assert res.exact_rationale == decode([prompt], counting_backend, cfg)[0].exact_rationale


def test_truncated_commit_keeps_rows_equal_to_buffers(counting_backend):
    prompts = [[0], [4, 5, 6]]
    c, budget = 3, 8
    cfg = DecodeConfig(window_len=c, max_new_tokens=budget)
    pad, eos = counting_backend.spec.pad_id, counting_backend.spec.eos_id
    streams = [jacobi_reference(counting_backend, p, c, True, budget)[0] for p in prompts]
    bufs = BatchBuffers(prompts, c, counting_backend.spec, capacity=3 + budget + c)
    truncated = 0
    active = bufs.active_indices()
    while active:
        records = iterate_once(bufs, counting_backend, None, cfg, instances=active)
        for i, rec in zip(active, records):
            m = len(rec.committed)
            # commits go 1, 4, 1, 4: the fourth is cut to the 2 tokens left
            truncated += m < 1 + rec.match_len
            n_exact = rec.frontier - len(prompts[i])
            # a cut commit slides like any other: the rest of preds, then PAD
            slide = rec.predictions[m:] + [pad] * (m - 1)
            assert rec.window == slide
            assert bufs.context(i).tolist() == prompts[i] + streams[i][:n_exact] + slide
            if check_stop(rec, n_exact, eos, cfg):
                bufs.finished[i] = True
        active = bufs.active_indices()
    assert truncated == 2
    assert [len(bufs.context(i)) for i in range(2)] == [1 + budget + c, 3 + budget + c]
    with pytest.raises(CapacityError):
        update(bufs, 1, [0] * (c + 1), 1)


def test_answer_phase_rows_extend_the_rationale_cache(toy_backend, context_rows):
    cfg = DecodeConfig(window_len=3, max_new_tokens=10, answer_trigger=(2, 3), answer_max_tokens=6)
    res = decode([[4, 5, 6]], toy_backend, cfg, answer=True)[0]
    assert all(view and n <= width for n, width, view in context_rows)
    # The answer session's first context is prompt ‖ exact ‖ approx ‖ trigger.
    answer_start = 3 + len(res.exact_rationale) + len(res.approximate_tail) + 2
    first_answer = res.trace.iterations
    assert context_rows[first_answer][0] == answer_start
    assert context_rows[first_answer][1] == answer_start + cfg.answer_max_tokens
    [fresh] = answer_phase(
        [[4, 5, 6, *res.exact_rationale, *res.approximate_tail]], toy_backend, cfg
    )
    assert res.answer == fresh


def test_results_hold_python_ints(toy_backend, counting_backend):
    toy_cfg = DecodeConfig(window_len=3, max_new_tokens=12, answer_trigger=(2, 3))
    count_cfg = DecodeConfig(window_len=4, max_new_tokens=13)
    results = [
        decode([[4, 5, 6]], toy_backend, toy_cfg, answer=True)[0],
        decode([[4, 5, 6]], toy_backend, as_ar(toy_cfg))[0],
        truncated([9], toy_backend, toy_cfg, 5),
        *decode([[0], [1, 2, 3]], counting_backend, count_cfg),
        decode([np.array([1, 0])], counting_backend, count_cfg)[0],
    ]
    assert results[-1].trace.prompt == [1, 0]
    for res in results:
        res.trace.write_jsonl(io.StringIO())
        assert all(type(tok) is int for tok in res.trace.prompt)
        for seq in (res.exact_rationale, res.approximate_tail, res.answer):
            assert all(type(tok) is int for tok in seq)
        assert type(res.stop.value) is float
        assert res.trace.records
        for rec in res.trace.records:
            for name in ("iteration", "frontier_before", "frontier", "match_len"):
                assert type(getattr(rec, name)) is int
            for name in ("window_before", "predictions", "committed", "window"):
                assert all(type(tok) is int for tok in getattr(rec, name))


def test_prompt_ids_checked_like_contexts(counting_backend):
    cfg = DecodeConfig(window_len=2, max_new_tokens=5)
    vocab = counting_backend.spec.vocab_size
    bad_prompts = (
        [1.0, 2.0], [3.7], np.array([True, False]), [2, True], (np.bool_(False), 3),
        [0, vocab], [-1], [2**70], [],
    )
    for bad in bad_prompts:
        with pytest.raises(ContractError):
            decode([bad], counting_backend, cfg)
        with pytest.raises(ContractError):
            decode([[0], bad], counting_backend, cfg)
        with pytest.raises(ContractError):
            decode([bad], counting_backend, as_ar(cfg))


def test_empty_batch_refused(toy_backend, counting_backend):
    cfg = DecodeConfig(window_len=2, max_new_tokens=5, answer_trigger=(1,))
    for backend in (toy_backend, counting_backend):
        for answer in (False, True):
            with pytest.raises(ContractError, match="batch must be nonempty"):
                decode([], backend, cfg, answer=answer)
        with pytest.raises(ContractError, match="batch must be nonempty"):
            answer_phase([], backend, cfg)


@pytest.mark.parametrize("nan_at", [1, 3])
def test_non_finite_scores_rejected(counting_backend, nan_at):
    cfg = DecodeConfig(window_len=2, max_new_tokens=10, answer_max_tokens=4)
    with pytest.raises(ContractError):
        decode([[0]], _CountingForwards(counting_backend, nan_at), cfg)
    with pytest.raises(ContractError):
        decode([[0]], _CountingForwards(counting_backend, nan_at), as_ar(cfg))
    with pytest.raises(ContractError):
        answer_phase([[0, 1, 2]], _CountingForwards(counting_backend, nan_at), cfg)


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        DecodeConfig(window_len=-1)
    with pytest.raises(ConfigError):
        DecodeConfig(window_len=0, max_new_tokens=0)
    # a penalty is a finite float: inf, nan, and an int no float holds are refused
    for penalty in (0.9, float("inf"), float("nan"), 10**400):
        with pytest.raises(ConfigError):
            DecodeConfig(window_len=0, repetition_penalty=penalty)
    with pytest.raises(ConfigError):
        DecodeConfig.from_dict({"window_len": 1, "bogus": 2})
    with pytest.raises(ConfigError):
        DecodeConfig.from_dict({})
    cfg = DecodeConfig.from_dict({"window_len": 2, "answer_trigger": [4, 5]})
    assert cfg.answer_trigger == (4, 5)
    assert DecodeConfig.from_dict(cfg.to_dict()) == cfg
    # an integer is a number where a number is due
    cfg = DecodeConfig.from_dict({"window_len": 2, "repetition_penalty": 1})
    assert cfg.repetition_penalty == 1


def test_config_stores_plain_python_values(counting_backend):
    # a numpy scalar passes the type checks and is stored as the plain int or
    # float it holds, so the run's trace and its manifest can be written
    cfg = DecodeConfig(
        window_len=np.int64(2),
        max_new_tokens=np.int64(6),
        iteration_cap=np.int32(4),
        repetition_penalty=np.float32(1.5),
        answer_trigger=(np.int64(3), 4),
        answer_max_tokens=np.uint8(2),
    )
    for name in ("window_len", "max_new_tokens", "iteration_cap", "answer_max_tokens"):
        assert type(getattr(cfg, name)) is int
    assert type(cfg.repetition_penalty) is float
    assert list(map(type, cfg.answer_trigger)) == [int, int]
    assert cfg == DecodeConfig(
        window_len=2, max_new_tokens=6, iteration_cap=4, repetition_penalty=1.5,
        answer_trigger=(3, 4), answer_max_tokens=2,
    )
    json.dumps(cfg.to_dict())
    decode([[1]], counting_backend, cfg)[0].trace.write_jsonl(io.StringIO())
    # an integer penalty stays an integer, so a manifest keeps its bytes
    for penalty in (1, np.int64(2)):
        assert type(DecodeConfig(window_len=0, repetition_penalty=penalty).repetition_penalty) is int


@pytest.mark.parametrize(
    "bad",
    [
        {"window_len": 2.5},
        {"window_len": True},
        {"skip": "no"},
        {"skip": 1},
        {"max_new_tokens": "8"},
        {"iteration_cap": 1.5},
        {"iteration_cap": True},
        {"answer_max_tokens": None},
        {"repetition_penalty": None},
        {"repetition_penalty": float("nan")},
        {"answer_trigger": 5},
        {"answer_trigger": [4, 5.0]},
        {"answer_trigger": [True]},
        {"answer_max_tokens": 2.0},
    ],
)
def test_config_refuses_wrong_types(bad):
    # refused as a configuration error, never cast: 1.5 is not an iteration
    # cap of 2, nor "no" a true skip flag
    with pytest.raises(ConfigError):
        DecodeConfig.from_dict({"window_len": 2, **bad})
