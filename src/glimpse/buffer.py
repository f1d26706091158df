"""Token state of a batch: one row per instance, of which the exact prefix and the window are views.

Each instance's state is a single block, ``prompt ‖ exact ‖ window``, kept
in one row of a preallocated int64 array.  ``exact`` holds tokens proven
equal to greedy autoregressive output; ``window`` holds the current block
of unverified lookahead guesses; ``frontier`` is the absolute index of the
first guess (prompt length + committed count).  The window length ``c`` is
fixed per batch, so a context is always ``frontier + c`` tokens long.  A
run's progress (its iteration count and which instances are still
decoding) is the decode loop's, not kept here.

Verification compares the window's previous guesses against the fresh
predictions from the fused forward call and reports the length K of the
confirmed guess prefix.  The first fresh prediction is conditioned only on
exact context and is therefore always exact; each further prediction
inherits exactness while the guess it was conditioned on matches, so the
first ``1 + K`` predictions are exact.  How many of them commit (``1 + K``
with skip, else 1, cut at the token budget and after EOS) is the engine's
decision.  Commits are append-only and never re-verified.

Whatever the commit count ``m`` (a full match, a miss, a cut at the token
budget or at EOS), the next window is ``preds[m:] ‖ PAD^(m-1)``: the
uncommitted predictions slide forward and PAD fills the rest.  So one tail
write, ``preds ‖ PAD^(m-1)`` at the frontier, is the whole update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from glimpse.backends.base import BackendSpec, HistoryMask
from glimpse.errors import CapacityError, ContractError


@dataclass
class VerifyOutcome:
    """Result of one verification step: ``match_len`` leading window guesses confirmed."""

    match_len: int


def verify(window: Sequence[int], preds: Sequence[int]) -> VerifyOutcome:
    """Count the window guesses the fresh predictions confirm.

    ``match_len`` is the longest k with ``window[:k] == preds[:k]``.
    ``preds`` holds ``len(window) + 1`` picks: the engine's score-shape
    check and the block pick's row check refuse any other count.
    """
    c = len(window)
    k = 0
    while k < c and window[k] == preds[k]:
        k += 1
    return VerifyOutcome(match_len=k)


class BatchBuffers:
    """The decode state of a batch sharing one backend and one window length.

    Per instance: a row of ``store`` holding ``prompt ‖ exact ‖ window``
    (``capacity`` tokens wide, at least the initial context), its
    ``prompt_len`` and ``frontier``, and a :class:`HistoryMask` marking
    prompt ∪ exact.  Tokens only: the decode loop keeps the iteration
    count and the active set.  :meth:`context`, :meth:`exact` and
    :meth:`window` are views of the row: read them, do not keep them,
    since :func:`update` overwrites the tail.  Prompt ids must already be
    checked to lie in the vocabulary.
    """

    def __init__(
        self,
        prompts: Sequence[Sequence[int]],
        window_len: int,
        spec: BackendSpec,
        capacity: int,
    ) -> None:
        if len(prompts) == 0:
            raise ContractError("batch must be nonempty")
        if window_len < 0:
            raise ContractError("window length must be nonnegative")
        if min(len(p) for p in prompts) < 1:
            raise ContractError("prompt length must be >= 1")
        self.window_len = window_len
        self.pad_id = spec.pad_id
        self.prompt_len = [len(p) for p in prompts]
        self.frontier = list(self.prompt_len)
        need = max(self.prompt_len) + window_len
        if capacity < need:
            raise CapacityError(f"context of {need} tokens exceeds capacity {capacity}")
        # Zeros, not a PAD fill: pages past the decoded tokens stay untouched.
        self.store = np.zeros((len(prompts), capacity), dtype=np.int64)
        self.histories = [HistoryMask(spec.vocab_size) for _ in prompts]
        for row, mask, prompt in zip(self.store, self.histories, prompts):
            n = len(prompt)
            row[:n] = prompt
            row[n : n + window_len] = spec.pad_id
            mask.extend(row[:n])

    def context(self, i: int) -> np.ndarray:
        """Instance ``i``'s ``prompt ‖ exact ‖ window``."""
        return self.store[i, : self.frontier[i] + self.window_len]

    def exact(self, i: int) -> np.ndarray:
        return self.store[i, self.prompt_len[i] : self.frontier[i]]

    def window(self, i: int) -> np.ndarray:
        f = self.frontier[i]
        return self.store[i, f : f + self.window_len]


def update(buffers: BatchBuffers, i: int, preds: Sequence[int], m: int) -> None:
    """Commit ``preds[:m]`` for instance ``i`` and slide the rest into its window.

    Writes ``preds ‖ PAD^(m-1)`` at the frontier, marks ``preds[:m]`` in
    the history and advances the frontier by ``m``, so the next window is
    ``preds[m:] ‖ PAD^(m-1)``.  ``preds`` holds ``window_len + 1`` picks,
    as for :func:`verify`.
    """
    c = buffers.window_len
    if not 1 <= m <= c + 1:
        raise ContractError(f"commit of {m} tokens outside 1..{c + 1}")
    start = buffers.frontier[i]
    row = buffers.store[i]
    end = start + c + m
    if end > row.shape[0]:
        raise CapacityError(f"context of {end} tokens exceeds capacity {row.shape[0]}")
    row[start:end] = list(preds) + [buffers.pad_id] * (m - 1)
    buffers.histories[i].extend(row[start : start + m])
    buffers.frontier[i] = start + m
