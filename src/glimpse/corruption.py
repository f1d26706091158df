"""Rationale-corruption harness: accuracy versus kept-token ratio.

Replaces a seeded random subset of rationale tokens with PAD (length
preserved), answers from the corrupted rationale, and aggregates accuracy
per keep ratio across seeds.  On the scripted retrieval tasks the answer
survives iff every key token survives, so the expected curve is exactly
hypergeometric and anchors at the no-rationale floor (ratio 0) and the
uncorrupted ceiling (ratio 1).  The experiment has one config, derived from
the script (:func:`task_config`); it takes no decode settings.
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
from glimpse.engine import DecodeConfig, answer_phase, decode
from glimpse.errors import ConfigError, ContractError


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


def check_grid(ratios: Sequence[float], n_seeds: int) -> None:
    """Refuse an empty ratio list, a ratio outside [0, 1] (NaN too), or no seeds."""
    if not ratios:
        raise ConfigError("need at least one keep ratio")
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise ConfigError(f"keep ratios must lie in [0, 1], got {list(ratios)}")
    if n_seeds < 1:
        raise ConfigError(f"n_seeds must be >= 1, got {n_seeds}")


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


def task_config(script: RetrievalScript) -> DecodeConfig:
    """The tasks' one config: greedy to the rationale's EOS, then answer token and EOS."""
    return DecodeConfig(
        window_len=0,
        max_new_tokens=script.rationale_len + 1,
        answer_trigger=TRIGGER,
        answer_max_tokens=2,
    )


def make_scripted_tasks(
    n: int, seed: int, script: RetrievalScript | None = None
) -> tuple[list[TaskCase], ScriptedBackend]:
    """Generate ``n`` retrieval tasks whose answers hinge on key-token survival.

    Rationales come from an actual AR decode of the scripted backend, and
    each case is checked at build time: answering from the uncorrupted
    rationale must reproduce the reference answer.
    """
    if not 1 <= n <= Q_RANGE:
        raise ConfigError(f"n must be in [1, {Q_RANGE}] (the distinct questions), got {n}")
    script = script or RetrievalScript()
    backend = make_scripted_backend(script)
    rng = np.random.default_rng(seed)
    questions = rng.choice(Q_RANGE, size=n, replace=False).tolist()
    prompts = [script.prompt(q) for q in questions]
    # A zero-length window: the rationales are the AR streams, each ending
    # in the EOS that the budget leaves room for.
    results = decode(prompts, backend, task_config(script), answer=True)
    cases: list[TaskCase] = []
    for q, prompt, res in zip(questions, prompts, results):
        reference = [script.answer_token(q)]
        if res.answer != reference:
            raise ContractError(f"task for question {q} does not answer correctly uncorrupted")
        cases.append(TaskCase(prompt, reference, res.exact_rationale[:-1]))
    return cases, backend


def run_overlap_experiment(
    cases: Sequence[TaskCase], ratios: Sequence[float], n_seeds: int, backend: ScriptedBackend
) -> list[OverlapRow]:
    """Accuracy table over (ratio, seed, case) cells, in ascending ratio order.

    The seeds are ``0 .. n_seeds - 1``.  For each (ratio, seed) one answer
    phase answers every case's corrupted rationale, each scored by exact
    match; rows report the mean and standard deviation over per-seed
    accuracies.
    """
    if len(cases) == 0:
        raise ConfigError("need at least one task case")
    check_grid(ratios, n_seeds)
    cfg = task_config(backend.script)
    pad = backend.spec.pad_id
    rows: list[OverlapRow] = []
    for ratio in sorted(ratios):
        per_seed: list[float] = []
        for seed in range(n_seeds):
            contexts = [case.prompt + corrupt(case.rationale, ratio, seed, pad) for case in cases]
            answers = answer_phase(contexts, backend, cfg)
            hits = sum(answer == case.reference for answer, case in zip(answers, cases))
            per_seed.append(hits / len(cases))
        arr = np.asarray(per_seed)
        rows.append(OverlapRow(ratio, float(arr.mean()), float(arr.std()), n_seeds))
    return rows
