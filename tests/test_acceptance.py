"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is single-machine, deterministic (timings aside), and
finishes well under the five-minute budget.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from glimpse.backends import (
    RetrievalScript,
    make_counting_backend,
    make_toy_transformer,
)
from glimpse.buffer import verify
from glimpse.cache import CacheBuffer
from glimpse.corruption import (
    make_scripted_tasks,
    run_overlap_experiment,
)
from glimpse.engine import DecodeConfig, decode
from glimpse.metrics import aggregate, window_hits

from conftest import as_ar, random_ngram_backend, random_prompt, small_toy_spec
from oracles import (
    greedy_ar_reference,
    hypergeometric_survival,
    jacobi_reference,
    replay_hit_report,
)


def verdict(n: int, name: str, ok: bool = True, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"\n[acceptance] criterion {n} {name}: {status}{suffix}")


# ----------------------------------------------------------------------
# 1. Losslessness suite
# ----------------------------------------------------------------------


def test_criterion_1_losslessness_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(20240817)
    counting = make_counting_backend(10)
    toys = [make_toy_transformer(s, small_toy_spec()) for s in (42, 43)]
    ngrams = [random_ngram_backend(s) for s in range(12)]

    cases = 0
    plan = [("counting", 500), ("ngram", 350), ("toy", 150)]
    for kind, count in plan:
        for _ in range(count):
            if kind == "counting":
                backend = counting
            elif kind == "ngram":
                backend = ngrams[int(rng.integers(0, len(ngrams)))]
            else:
                backend = toys[int(rng.integers(0, len(toys)))]
            c = int(rng.integers(0, 33))
            skip = bool(rng.integers(0, 2))
            prompt = random_prompt(rng, backend.spec.vocab_size)
            max_new = int(rng.integers(1, 13 if kind == "toy" else 25))
            cfg = DecodeConfig(window_len=c, skip=skip, max_new_tokens=max_new)
            got = decode([prompt], backend, cfg)[0].exact_rationale
            want = greedy_ar_reference(backend, prompt, max_new)
            assert got == want, (kind, prompt, c, skip, max_new, got, want)
            cases += 1
    elapsed = time.perf_counter() - started
    assert cases >= 1000
    assert elapsed < 60.0, f"losslessness suite took {elapsed:.1f}s"
    verdict(1, "losslessness suite", note=f"{cases} cases, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 2. Degenerate equivalence (c = 0)
# ----------------------------------------------------------------------


def test_criterion_2_degenerate_equivalence():
    # AR is the c=0 loop itself, so both are checked against the
    # independent greedy oracle rather than against each other.
    backends = [
        make_counting_backend(10),
        random_ngram_backend(5),
        make_toy_transformer(42, small_toy_spec()),
    ]
    rng = np.random.default_rng(2)
    for backend in backends:
        eos = backend.spec.eos_id
        for _ in range(5):
            prompt = random_prompt(rng, backend.spec.vocab_size)
            cfg = DecodeConfig(window_len=0, max_new_tokens=15)
            want = greedy_ar_reference(backend, prompt, 15, cfg.repetition_penalty)
            want_stop = "eos" if eos in want else "max_tokens"
            for res in (*decode([prompt], backend, cfg), *decode([prompt], backend, as_ar(cfg))):
                assert res.exact_rationale == want
                assert res.stop.reason == want_stop
                assert res.trace.iterations == len(want)
                for k, rec in enumerate(res.trace.records):
                    assert rec.frontier_before == len(prompt) + k
                    assert rec.frontier == len(prompt) + k + 1
                    assert rec.committed == [want[k]]
                    assert rec.window == []
    verdict(2, "c=0 trace-identical to the greedy oracle")


# ----------------------------------------------------------------------
# 3. Geometric skip yield
# ----------------------------------------------------------------------


def test_criterion_3_geometric_yield():
    rng = np.random.default_rng(3)
    iterations = 100_000
    for p in (0.2, 0.5, 0.8):
        for c in (5, 10):
            expected = 1.0 + sum(p**k for k in range(1, c + 1))
            matches = rng.random((iterations, c)) < p
            total = 0
            for row in matches:
                old = list(range(10, 10 + c))
                new = [old[j] if row[j] else old[j] + 100 for j in range(c)]
                new.append(7)
                total += 1 + verify(old, new).match_len
            mean = total / iterations
            assert abs(mean - expected) <= 0.03 * expected, (p, c, mean, expected)
    verdict(3, "geometric skip yield within 3%")


# ----------------------------------------------------------------------
# 4. Counting-backend savings vs the Jacobi trace oracle
# ----------------------------------------------------------------------

TOKENS_4 = 1000
C_4 = 7


def _counting_run(tokens: int = TOKENS_4, c: int = C_4):
    backend = make_counting_backend(10)
    cfg = DecodeConfig(window_len=c, skip=True, max_new_tokens=tokens)
    result = decode([[0]], backend, cfg)[0]
    oracle_exact, oracle_commits = jacobi_reference(backend, [0], c, True, tokens)
    return result, oracle_exact, oracle_commits


def test_criterion_4_counting_savings_oracle():
    result, oracle_exact, oracle_commits = _counting_run()
    commits = [len(r.committed) for r in result.trace.records]
    # engine trace equals the independent brute-force re-simulation exactly
    assert result.exact_rationale == oracle_exact
    assert commits == oracle_commits
    # steady state reaches full-window commits of c+1 and sustains them on
    # every other iteration (the refilled window must re-prime in between)
    steady = commits[2:-1]
    assert max(steady) == C_4 + 1
    assert all(a + b == C_4 + 2 for a, b in zip(steady, steady[1:]))
    # oracle-derived iteration bound: the two-phase cycle yields c+2 tokens
    # per two iterations
    bound = int(np.ceil(2 * TOKENS_4 / (C_4 + 2))) + 4
    assert result.trace.iterations <= bound
    assert result.trace.iterations == len(oracle_commits)
    verdict(
        4,
        "counting savings vs Jacobi oracle",
        note=f"{result.trace.iterations} iterations for {TOKENS_4} tokens",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated bound ceil(tokens/(c+1))+3 requires a steady-state mean of "
        "c+1 commits per iteration, but the PAD-refilled window caps the mean "
        "at (c+2)/2 for every backend (see decisions ledger); the achievable "
        "oracle-verified bound is asserted in the companion test"
    ),
)
def test_criterion_4_literal_iteration_bound():
    result, _, _ = _counting_run()
    bound = int(np.ceil(TOKENS_4 / (C_4 + 1))) + 3
    verdict(
        4,
        "literal iteration bound",
        ok=result.trace.iterations <= bound,
        note=f"{result.trace.iterations} iterations vs stated bound {bound}",
    )
    assert result.trace.iterations <= bound


# ----------------------------------------------------------------------
# 5. Cache and padding soundness
# ----------------------------------------------------------------------


def test_criterion_5_cache_and_padding_soundness():
    toy = make_toy_transformer(42, small_toy_spec())
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(3, 24))
        ctx = [int(t) for t in rng.integers(0, 64, size=n)]
        cached = int(rng.integers(1, n))
        block = int(rng.integers(1, n - cached + 1))
        cache = CacheBuffer(1, 64, toy.spec)
        toy.forward(ctx[:cached], 1, cache.slot(0))
        cache.write_back(0, ctx, 0, cached)
        fresh = toy.forward(ctx, block)
        warm = toy.forward(ctx, block, cache.slot(0))
        worst = max(worst, float(np.abs(fresh - warm).max()))
    assert worst < 1e-6, worst

    cfg = DecodeConfig(window_len=3, max_new_tokens=14)
    for batch_size in range(1, 9):
        prompts = [
            random_prompt(rng, 64, max_len=7) for _ in range(batch_size)
        ]
        solo = [decode([p], toy, cfg)[0] for p in prompts]
        batch = decode(prompts, toy, cfg)
        for s, b in zip(solo, batch):
            assert s.exact_rationale == b.exact_rationale
            assert [r.committed for r in s.trace.records] == [
                r.committed for r in b.trace.records
            ]
    verdict(5, "cache + padding soundness", note=f"max cached-vs-fresh diff {worst:.2e}")


# ----------------------------------------------------------------------
# 6. Metrics oracle equivalence
# ----------------------------------------------------------------------


def test_criterion_6_metrics_oracle_equivalence():
    import io

    rng = np.random.default_rng(6)
    counting = make_counting_backend(10)
    toy = make_toy_transformer(44, small_toy_spec())
    decodes = 0
    compared = 0
    backends = (
        [counting] * 40
        + [random_ngram_backend(int(s)) for s in rng.integers(0, 500, size=40)]
        + [toy] * 20
    )
    for backend in backends:
        prompt = random_prompt(rng, backend.spec.vocab_size, max_len=4)
        c = int(rng.integers(1, 7))
        cfg = DecodeConfig(window_len=c, max_new_tokens=16)
        res = decode([prompt], backend, cfg)[0]
        reference = greedy_ar_reference(backend, prompt, cfg.max_new_tokens + c)
        decodes += 1
        hits = window_hits(res.trace, reference)
        for rec in hits.values():
            assert rec.total_hit <= rec.occur_guess_in_ref
            assert rec.total_hit <= rec.occur_ref_in_guess
        buf = io.StringIO()
        res.trace.write_jsonl(buf)
        replay = replay_hit_report(buf.getvalue().splitlines(), reference)
        if not hits:
            assert replay["windows_evaluated"] == 0
            continue
        report = aggregate(hits.values())
        assert report.first_hit == replay["first_hit"]
        assert report.total_hit == replay["total_hit"]
        assert report.occur_guess_in_ref == replay["occur_guess_in_ref"]
        assert report.occur_ref_in_guess == replay["occur_ref_in_guess"]
        assert report.windows_evaluated == replay["windows_evaluated"]
        assert report.positions_evaluated == replay["positions_evaluated"]
        compared += 1
    assert decodes == 100
    assert compared >= 80
    verdict(6, "metrics equal JSONL replay oracle", note=f"{compared}/100 with coverage")


# ----------------------------------------------------------------------
# 7. Corruption curve vs hypergeometric oracle
# ----------------------------------------------------------------------


def test_criterion_7_corruption_curve():
    script = RetrievalScript(num_keys=1, rationale_len=20)
    cases, backend = make_scripted_tasks(6, seed=7, script=script)
    ratios = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    n_seeds = 40
    rows = run_overlap_experiment(cases, ratios, n_seeds, backend)
    length = script.rationale_len
    n = n_seeds * len(cases)
    for row in rows:
        kept = round(row.ratio * length)
        expected = hypergeometric_survival(length, kept, 1)
        sigma = np.sqrt(max(expected * (1 - expected), 1e-12) / n)
        assert abs(row.mean - expected) <= max(3 * sigma, 1e-9), (
            row.ratio,
            row.mean,
            expected,
        )
    assert rows[0].mean == 0.0  # floor anchors exactly
    assert rows[-1].mean == 1.0  # full-rationale ceiling anchors exactly
    means = [r.mean for r in rows]
    slack = 3 * np.sqrt(0.25 / n)
    assert all(b >= a - slack for a, b in zip(means, means[1:]))
    verdict(7, "corruption curve matches hypergeometric oracle")


# ----------------------------------------------------------------------
# 8. Wall-clock sanity and time-composition structure
# ----------------------------------------------------------------------


def test_criterion_8_wall_clock_sanity():
    backend = make_counting_backend(10)
    tokens = 2000
    cfg = DecodeConfig(window_len=7, skip=True, max_new_tokens=tokens)
    # warmup to stabilize allocator and interpreter caches
    decode([[0]], backend, replace(cfg, max_new_tokens=64))
    decode([[0]], backend, as_ar(replace(cfg, max_new_tokens=64)))

    fast = decode([[0]], backend, cfg)[0]
    ar = decode([[0]], backend, as_ar(cfg))[0]
    assert len(fast.exact_rationale) == tokens
    assert fast.exact_rationale == ar.exact_rationale

    assert ar.trace.breakdown.kv_cache == 0.0
    for trace in (fast.trace, ar.trace):
        assert trace.breakdown.total() <= trace.wall_s * 1.05
    ar_wall = ar.trace.wall_s - ar.trace.breakdown.stop_check
    assert fast.trace.wall_s < ar_wall, (fast.trace.wall_s, ar_wall)
    verdict(
        8,
        "wall-clock sanity",
        note=(
            f"parallel {fast.trace.wall_s:.3f}s vs ar {ar_wall:.3f}s "
            f"({ar_wall / fast.trace.wall_s:.2f}x), "
            f"{fast.trace.iterations} vs {ar.trace.iterations} iterations"
        ),
    )
