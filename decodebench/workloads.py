"""The benchmark's workloads: inputs drawn from a seed, the calls each request makes, and the checks on their outputs.

A workload is a fixed list of requests.  Each request is decoded twice:
once by the windowed decoder (``c > 0``) and once by the ``c = 0`` path
with the same prompts and budgets.  One pass over the list is a round; a
run repeats identical rounds, so every count in a round is exact and does
not depend on how fast the machine is.

Only the package's public API is called: ``decode_with_answer``,
``ar_baseline``, ``run_rationale_batch``, the backend constructors and
``DecodeTrace.write_jsonl``.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field, replace

import numpy as np

import checks
from glimpse import DecodeConfig, ar_baseline, decode_with_answer, run_rationale_batch
from glimpse.backends import default_toy_spec, make_counting_backend, make_toy_transformer
from oracles import greedy_ar_reference

#: Weights of the toy model are part of the system under test, not an input:
#: every seed decodes with the same model.
TOY_MODEL_SEED = 1
TOY_SPEC = dict(max_len=1024)
#: Length of the uncached oracle prefix checked per distinct prompt.  A full
#: 300-token uncached reference takes tens of seconds.
ORACLE_PREFIX = 24


@dataclass
class Call:
    """One timed call into the package and what it committed."""

    wall_s: float
    streams: list[list[int]]
    iterations: int
    answers: list[list[int]] = field(default_factory=list)
    approx: list[list[int]] = field(default_factory=list)
    jsonl: list[str] = field(default_factory=list)
    #: Program-reported wall time minus its reported phases (solo requests).
    untimed_s: float = 0.0
    #: ``wall_s`` at the steady machine speed; the runner sets it (speed.py).
    steady_s: float = 0.0

    @property
    def tokens(self) -> int:
        return sum(len(s) for s in self.streams)

    def same_output(self, other: "Call") -> bool:
        """Equal in everything but timing."""
        return (
            self.streams == other.streams
            and self.iterations == other.iterations
            and self.answers == other.answers
            and self.approx == other.approx
        )


def _timed(fn, *args) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _untimed(res) -> float:
    return res.trace.wall_s - res.trace.breakdown.total()


def _rng(name: str, seed: int) -> np.random.Generator:
    salt = sum(name.encode())
    return np.random.default_rng([salt, seed])


def _prompts(rng: np.random.Generator, n: int, low: int, high: int, vocab: int) -> list[list[int]]:
    """``n`` random prompts whose lengths are spread evenly over ``low..high``.

    The lengths are fixed and only their order and the tokens come from the
    seed, so the cost of a round does not hinge on how long the seed's
    prompts happen to be.
    """
    lengths = np.linspace(low, high, n).round().astype(int)
    return [[int(t) for t in rng.integers(0, vocab, size=k)] for k in rng.permutation(lengths)]


class ToyLong:
    """Solo toy prompts, several hundred tokens each, with an answer phase."""

    name = "toy-long"
    solo = True
    requests_per_round = 12
    prompt_len = (8, 32)
    budget = 300
    window = 8
    answer_tokens = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = _rng(self.name, seed)
        self.backend = make_toy_transformer(TOY_MODEL_SEED, default_toy_spec(**TOY_SPEC))
        spec = self.backend.spec
        ordinary = spec.vocab_size - 2  # PAD and EOS take the two top ids
        self.requests = _prompts(rng, self.requests_per_round, *self.prompt_len, ordinary)
        trigger = tuple(int(t) for t in rng.integers(0, ordinary, size=3))
        # Penalty 1.0: at the default 1.2 the toy emits EOS within ~40 tokens.
        self.cfg = DecodeConfig(
            window_len=self.window,
            max_new_tokens=self.budget,
            repetition_penalty=1.0,
            answer_trigger=trigger,
            answer_max_tokens=self.answer_tokens,
        )
        self.ar_cfg = replace(self.cfg, window_len=0)

    def parallel(self, prompt: list[int]) -> Call:
        wall, res = _timed(decode_with_answer, prompt, self.backend, self.cfg)
        return Call(
            wall,
            [res.exact_rationale],
            res.trace.iterations,
            answers=[res.answer],
            approx=[res.approximate_tail],
            untimed_s=_untimed(res),
        )

    def autoregressive(self, prompt: list[int]) -> Call:
        wall, res = _timed(ar_baseline, prompt, self.backend, self.ar_cfg)
        return Call(wall, [res.exact_rationale], res.trace.iterations)

    def check(self, prompt: list[int], par: Call, ar: Call) -> list[str]:
        spec = self.backend.spec
        ref = greedy_ar_reference(
            self.backend, prompt, ORACLE_PREFIX, self.cfg.repetition_penalty
        )
        seq = prompt + par.streams[0] + par.approx[0] + list(self.cfg.answer_trigger)
        fresh = ar_baseline(
            seq, self.backend, replace(self.ar_cfg, max_new_tokens=self.answer_tokens)
        )
        return [
            msg
            for msg in (
                checks.oracle_prefix(par.streams[0], ref),
                checks.answer(par.answers[0], fresh.exact_rationale, spec.eos_id),
            )
            if msg
        ]


class CountingLong:
    """Counting backend, thousands of tokens per request, JSONL trace per request."""

    name = "counting-long"
    solo = True
    requests_per_round = 4
    prompt_len = (1, 16)
    budget = 4000
    window = 7
    modulus = 10
    answer_tokens = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = _rng(self.name, seed)
        self.backend = make_counting_backend(self.modulus)
        self.requests = _prompts(rng, self.requests_per_round, *self.prompt_len, self.modulus)
        self.cfg = DecodeConfig(
            window_len=self.window,
            max_new_tokens=self.budget,
            answer_max_tokens=self.answer_tokens,
        )
        self.ar_cfg = replace(self.cfg, window_len=0)

    def _call(self, fn, prompt: list[int], cfg: DecodeConfig, answer: bool) -> Call:
        # The trace is written to memory inside the timed request, as
        # ``glimpse decode`` writes it to a file.
        def request():
            res = fn(prompt, self.backend, cfg)
            buf = io.StringIO()
            res.trace.write_jsonl(buf)
            return res, buf.getvalue()

        wall, (res, text) = _timed(request)
        return Call(
            wall,
            [res.exact_rationale],
            res.trace.iterations,
            answers=[res.answer] if answer else [],
            approx=[res.approximate_tail] if answer else [],
            jsonl=[text],
            untimed_s=_untimed(res),
        )

    def parallel(self, prompt: list[int]) -> Call:
        return self._call(decode_with_answer, prompt, self.cfg, answer=True)

    def autoregressive(self, prompt: list[int]) -> Call:
        return self._call(ar_baseline, prompt, self.ar_cfg, answer=False)

    def check(self, prompt: list[int], par: Call, ar: Call) -> list[str]:
        found = [
            checks.counting_stream(prompt, par.streams[0], self.modulus, self.budget),
            checks.iteration_bound(par.tokens, par.iterations, self.window),
            checks.trace_roundtrip(par.jsonl[0], par.streams[0]),
            checks.trace_roundtrip(ar.jsonl[0], ar.streams[0]),
        ]
        return [msg for msg in found if msg]


class ToyBatch:
    """Batches of eight mixed-length toy prompts decoded together."""

    name = "toy-batch"
    solo = False
    requests_per_round = 6
    batch = 8
    prompt_len = (4, 48)
    budget = 96
    window = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = _rng(self.name, seed)
        self.backend = make_toy_transformer(TOY_MODEL_SEED, default_toy_spec(**TOY_SPEC))
        ordinary = self.backend.spec.vocab_size - 2
        self.requests = [
            _prompts(rng, self.batch, *self.prompt_len, ordinary)
            for _ in range(self.requests_per_round)
        ]
        self.cfg = DecodeConfig(
            window_len=self.window, max_new_tokens=self.budget, repetition_penalty=1.0
        )
        self.ar_cfg = replace(self.cfg, window_len=0)

    def _call(self, prompts: list[list[int]], cfg: DecodeConfig) -> Call:
        wall, results = _timed(run_rationale_batch, prompts, self.backend, cfg)
        return Call(
            wall,
            [r.exact_rationale for r in results],
            sum(r.trace.iterations for r in results),
        )

    def parallel(self, prompts: list[list[int]]) -> Call:
        return self._call(prompts, self.cfg)

    def autoregressive(self, prompts: list[list[int]]) -> Call:
        return self._call(prompts, self.ar_cfg)

    def check(self, prompts: list[list[int]], par: Call, ar: Call) -> list[str]:
        found = []
        for i, (prompt, stream) in enumerate(zip(prompts, par.streams)):
            ref = greedy_ar_reference(
                self.backend, prompt, ORACLE_PREFIX, self.cfg.repetition_penalty
            )
            msg = checks.oracle_prefix(stream, ref)
            if msg:
                found.append(f"instance {i}: {msg}")
        return found


WORKLOADS = {w.name: w for w in (ToyLong, CountingLong, ToyBatch)}
