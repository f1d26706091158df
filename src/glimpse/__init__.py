"""Parallel decoding with verified exact commits and approximate lookahead.

One fused model call per iteration scores the next autoregressive token and
a window of lookahead positions simultaneously; guesses confirmed by the
fresh predictions commit as exact tokens, and the remaining window is
exposed as an approximate glimpse of the continuation that the answer phase
may consume before decoding finishes.
"""

__version__ = "0.1.0"

from glimpse.backends import (
    make_counting_backend,
    make_ngram_backend,
    make_scripted_backend,
    make_toy_transformer,
)
from glimpse.engine import (
    DecodeConfig,
    DecodeResult,
    answer_phase,
    ar_baseline,
    decode,
    decode_with_answer,
    run_rationale_batch,
)

__all__ = [
    "DecodeConfig",
    "DecodeResult",
    "answer_phase",
    "ar_baseline",
    "decode",
    "decode_with_answer",
    "make_counting_backend",
    "make_ngram_backend",
    "make_scripted_backend",
    "make_toy_transformer",
    "run_rationale_batch",
]
