"""Rationale-corruption harness: accuracy versus kept-token ratio.

Replaces a seeded random subset of rationale tokens with PAD (length
preserved), answers from the corrupted rationale, and aggregates accuracy
per keep ratio across seeds.  On the scripted retrieval tasks the answer
survives iff every key token survives, so the expected curve is exactly
hypergeometric and anchors at the no-rationale floor (ratio 0) and the
uncorrupted ceiling (ratio 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from glimpse.backends.scripted import (
    Q_RANGE,
    TRIGGER,
    RetrievalScript,
    ScriptedBackend,
    make_scripted_backend,
)
from glimpse.engine import DecodeConfig, answer_phase, run_rationale_batch
from glimpse.errors import ConfigError, ContractError


@dataclass
class CorruptionSpec:
    """Experiment grid: keep ratios (ascending), distinct seeds, PAD token."""

    ratios: list[float]
    seeds: list[int]
    pad_id: int

    def __post_init__(self) -> None:
        if not self.ratios or not self.seeds:
            raise ConfigError("ratios and seeds must be nonempty")
        if any(not 0.0 <= r <= 1.0 for r in self.ratios):
            raise ConfigError("ratios must lie in [0, 1]")
        if sorted(self.ratios) != list(self.ratios):
            raise ConfigError("ratios must be sorted ascending")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")


@dataclass
class TaskCase:
    """One question: prompt, reference answer, full AR-decoded rationale."""

    prompt: list[int]
    reference: list[int]
    rationale: list[int]


@dataclass
class OverlapRow:
    ratio: float
    mean: float
    stddev: float
    n_seeds: int


def corrupt(
    rationale: Sequence[int], keep_ratio: float, seed: int, pad_id: int
) -> list[int]:
    """Keep a seeded uniform sample of positions; replace the rest with PAD.

    Keeps exactly ``round(keep_ratio * len)`` positions, chosen without
    replacement; identical arguments reproduce identical output.
    """
    if not 0.0 <= keep_ratio <= 1.0:
        raise ContractError("keep_ratio must lie in [0, 1]")
    n = len(rationale)
    keep = int(round(keep_ratio * n))
    rng = np.random.default_rng(seed)
    kept = set(rng.choice(n, size=keep, replace=False).tolist()) if keep else set()
    return [tok if i in kept else pad_id for i, tok in enumerate(rationale)]


def default_answer_config() -> DecodeConfig:
    return DecodeConfig(
        window_len=0,
        max_new_tokens=64,
        answer_trigger=TRIGGER,
        answer_max_tokens=4,
    )


def make_scripted_tasks(
    n: int,
    seed: int,
    script: RetrievalScript | None = None,
) -> tuple[list[TaskCase], ScriptedBackend]:
    """Generate ``n`` retrieval tasks whose answers hinge on key-token survival.

    Rationales come from an actual AR decode of the scripted backend, and
    each case is checked at build time: answering from the uncorrupted
    rationale must reproduce the reference answer.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    script = script or RetrievalScript()
    backend = make_scripted_backend(script)
    if n > Q_RANGE:
        raise ConfigError(f"at most {Q_RANGE} distinct questions available")
    rng = np.random.default_rng(seed)
    questions = rng.choice(Q_RANGE, size=n, replace=False).tolist()
    cfg = default_answer_config()
    prompts = [script.prompt(q) for q in questions]
    # The answer config has a zero-length window: its rationales are the AR streams.
    eos = backend.spec.eos_id
    rationales = [
        res.exact_rationale[:-1] if res.exact_rationale[-1:] == [eos] else res.exact_rationale
        for res in run_rationale_batch(prompts, backend, cfg)
    ]
    produced = answer_phase(
        [prompt + rationale for prompt, rationale in zip(prompts, rationales)], backend, cfg
    )
    cases: list[TaskCase] = []
    for q, prompt, rationale, answer in zip(questions, prompts, rationales, produced):
        reference = [script.answer_token(q)]
        if answer != reference:
            raise ContractError(
                f"task for question {q} does not answer correctly uncorrupted"
            )
        cases.append(TaskCase(prompt=prompt, reference=reference, rationale=rationale))
    return cases, backend


def run_overlap_experiment(
    cases: Sequence[TaskCase],
    spec: CorruptionSpec,
    backend: ScriptedBackend,
    cfg: DecodeConfig | None = None,
) -> list[OverlapRow]:
    """Accuracy table over (ratio, seed, case) cells.

    For each (ratio, seed) one answer phase answers every case's corrupted
    rationale, each scored by exact match; rows report the mean and
    standard deviation over per-seed accuracies.
    """
    if len(cases) == 0:
        raise ConfigError("need at least one task case")
    cfg = cfg or default_answer_config()
    rows: list[OverlapRow] = []
    for ratio in spec.ratios:
        per_seed: list[float] = []
        for seed in spec.seeds:
            contexts = [
                case.prompt + corrupt(case.rationale, ratio, seed, spec.pad_id) for case in cases
            ]
            answers = answer_phase(contexts, backend, cfg)
            hits = sum(answer == case.reference for answer, case in zip(answers, cases))
            per_seed.append(hits / len(cases))
        arr = np.asarray(per_seed)
        rows.append(
            OverlapRow(
                ratio=ratio,
                mean=float(arr.mean()),
                stddev=float(arr.std()),
                n_seeds=len(spec.seeds),
            )
        )
    return rows
