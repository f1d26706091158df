import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from glimpse.backends import (
    NgramBackend,
    default_toy_spec,
    make_counting_backend,
    make_toy_transformer,
)
from glimpse.cli import _BENCH_METHODS


def as_ar(cfg):
    """``cfg`` as plain greedy decoding, full chain of thought: ``glimpse bench``'s ``ar``."""
    return replace(cfg, **_BENCH_METHODS["ar"])


def small_toy_spec(vocab_size=64, max_len=160):
    return default_toy_spec(
        vocab_size=vocab_size, n_layers=2, n_heads=4, model_dim=32, max_len=max_len
    )


@pytest.fixture(scope="session")
def toy_backend():
    return make_toy_transformer(42, small_toy_spec())


@pytest.fixture(scope="session")
def counting_backend():
    return make_counting_backend(10)


def random_ngram_backend(seed: int, vocab: int = 12, order: int = 2, eos_prob: float = 0.05):
    """Dense order-1 chain plus sparse order-2 overrides; occasional EOS."""
    rng = np.random.default_rng(seed)
    pad, eos = vocab - 2, vocab - 1
    table: dict[tuple[int, ...], int | list[float]] = {}
    for tok in range(vocab):
        if rng.random() < eos_prob:
            table[(tok,)] = eos
        else:
            table[(tok,)] = int(rng.integers(0, vocab - 2))
    if order >= 2:
        for _ in range(vocab):
            ctx = (int(rng.integers(0, vocab)), int(rng.integers(0, vocab)))
            if rng.random() < 0.5:
                table[ctx] = int(rng.integers(0, vocab - 2))
            else:
                table[ctx] = rng.normal(0, 1, size=vocab).tolist()
    return NgramBackend(table, vocab_size=vocab, pad_id=pad, eos_id=eos)


def random_prompt(rng, vocab: int, max_len: int = 6) -> list[int]:
    n = int(rng.integers(1, max_len + 1))
    return [int(t) for t in rng.integers(0, vocab, size=n)]
