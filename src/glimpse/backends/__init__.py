"""Deterministic causal-LM backends and the greedy token picker."""

from glimpse.backends.base import (
    Backend,
    BackendSpec,
    HistoryMask,
    SequentialBatchMixin,
    TokenSeq,
)
from glimpse.backends.counting import CountingBackend, make_counting_backend
from glimpse.backends.ngram import NgramBackend, make_ngram_backend
from glimpse.backends.scripted import (
    RetrievalScript,
    ScriptedBackend,
    make_scripted_backend,
)
from glimpse.backends.toy import ToyTransformer, default_toy_spec, make_toy_transformer

__all__ = [
    "Backend",
    "BackendSpec",
    "CountingBackend",
    "HistoryMask",
    "NgramBackend",
    "RetrievalScript",
    "ScriptedBackend",
    "SequentialBatchMixin",
    "TokenSeq",
    "ToyTransformer",
    "default_toy_spec",
    "make_counting_backend",
    "make_ngram_backend",
    "make_scripted_backend",
    "make_toy_transformer",
]
