"""Parallel decoding with verified exact commits and approximate lookahead.

One fused model call per iteration scores the next autoregressive token and
a window of lookahead positions simultaneously; guesses confirmed by the
fresh predictions commit as exact tokens, and the remaining window is
exposed as an approximate glimpse of the continuation that the answer phase
may consume before decoding finishes.
"""

__version__ = "0.1.0"

from glimpse.backends import (
    BackendSpec,
    make_counting_backend,
    make_ngram_backend,
    make_scripted_backend,
    make_toy_transformer,
)
from glimpse.buffer import BatchBuffers, VerifyOutcome, update, verify
from glimpse.cache import CacheBuffer, alloc, plan_input_padding, plan_kv_padding
from glimpse.engine import (
    DecodeConfig,
    DecodeResult,
    StopDecision,
    answer_phase,
    ar_baseline,
    check_stop,
    decode_with_answer,
    decode_with_answer_batch,
    iterate_once,
    run_rationale,
    run_rationale_batch,
)

__all__ = [
    "BackendSpec",
    "BatchBuffers",
    "CacheBuffer",
    "DecodeConfig",
    "DecodeResult",
    "StopDecision",
    "VerifyOutcome",
    "alloc",
    "answer_phase",
    "ar_baseline",
    "check_stop",
    "decode_with_answer",
    "decode_with_answer_batch",
    "iterate_once",
    "make_counting_backend",
    "make_ngram_backend",
    "make_scripted_backend",
    "make_toy_transformer",
    "plan_input_padding",
    "plan_kv_padding",
    "run_rationale",
    "run_rationale_batch",
    "update",
    "verify",
]
