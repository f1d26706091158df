"""Toy outputs pinned by digest.

A change to how the toy stores or reads its K/V may move logits by float
rounding, never the tokens a decode commits.  These digests of committed
streams, approximate tails, answers and stop reasons were recorded before
the K/V layout of ``glimpse.cache`` changed, and must not move with it.
"""

import hashlib
import json

import numpy as np

from glimpse.backends import default_toy_spec, make_toy_transformer
from glimpse.engine import DecodeConfig, decode_with_answer, run_rationale_batch


def _digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        row = [r.exact_rationale, r.approximate_tail, r.answer, r.stop.reason]
        h.update(json.dumps(row).encode())
    return h.hexdigest()


def _toy():
    return make_toy_transformer(1, default_toy_spec(max_len=1024))


def test_solo_answers_pinned():
    cfg = DecodeConfig(
        window_len=8,
        max_new_tokens=300,
        repetition_penalty=1.0,
        answer_trigger=(65, 66, 67),
        answer_max_tokens=8,
    )
    toy = _toy()
    prompts = [[10, 11, 12, 13], [200, 3, 77, 5, 91, 14, 8, 120, 33], [42]]
    results = [decode_with_answer(p, toy, cfg) for p in prompts]
    assert _digest(results) == "467668cff82e82083352eb88d985aa4dd382695fd7542611cb78d4c5be1ea954"


def test_batch_rationales_pinned():
    rng = np.random.default_rng(13)
    prompts = [
        [int(t) for t in rng.integers(0, 254, size=n)] for n in (8, 32, 15, 21, 9, 27, 12, 30)
    ]
    toy = _toy()
    digests = [
        _digest(
            run_rationale_batch(
                prompts, toy, DecodeConfig(window_len=c, max_new_tokens=300, repetition_penalty=1.0)
            )
        )
        for c in (4, 0)
    ]
    assert digests == [
        "0f72555d86497ce7eb6931809bbfce1fe22cf1b5bdb61f3c2f4cfe4fba4d2249",
        "5d267d1e22b66f6f27132c63032dc22e7570f2c760a58d654ebcfd1f9200c059",
    ]
