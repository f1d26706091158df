"""Decode buffer: committed exact prefix, lookahead window, frontier index.

The buffer is the engine's central state.  ``exact`` holds tokens proven
equal to greedy autoregressive output; ``window`` holds the current block
of unverified lookahead guesses; ``frontier`` is the absolute context index
of the first guess (prompt length + committed count).

Verification compares the window's previous guesses against the fresh
predictions from the fused forward call.  The first fresh prediction is
conditioned only on exact context and is therefore always exact; each
further prediction inherits exactness while the guess it was conditioned
on matches.  Commits are append-only and never re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from glimpse.errors import CapacityError, ContractError


@dataclass
class DecodeBuffer:
    """Per-instance decode state.

    Invariants: ``frontier == prompt_len + len(exact)``; ``len(window)`` is
    at most the configured window size; ``exact`` only ever grows.
    """

    prompt_len: int
    exact: list[int] = field(default_factory=list)
    window: list[int] = field(default_factory=list)
    frontier: int = 0
    iteration: int = 0

    def check(self) -> None:
        if self.frontier != self.prompt_len + len(self.exact):
            raise ContractError(
                f"frontier {self.frontier} != prompt_len {self.prompt_len}"
                f" + exact {len(self.exact)}"
            )


@dataclass
class VerifyOutcome:
    """Result of one verification step.

    ``committed[0]`` is always the autoregressive token at the frontier;
    ``match_len`` counts how many leading window guesses the fresh
    predictions confirmed.
    """

    committed: list[int]
    match_len: int
    next_window: list[int]


def init_buffer(prompt_len: int, window_len: int, pad_id: int) -> DecodeBuffer:
    """Fresh buffer: empty exact prefix, PAD-filled window, frontier at prompt end."""
    if window_len < 0:
        raise ContractError("window length must be nonnegative")
    if prompt_len < 1:
        raise ContractError("prompt length must be >= 1")
    return DecodeBuffer(
        prompt_len=prompt_len,
        exact=[],
        window=[pad_id] * window_len,
        frontier=prompt_len,
        iteration=0,
    )


def verify(
    old_window: Sequence[int],
    new_predictions: Sequence[int],
    skip: bool,
    pad_id: int,
) -> VerifyOutcome:
    """Accept the guaranteed exact token plus any confirmed guess prefix.

    ``match_len`` is the longest k with ``old_window[:k] == new_predictions[:k]``.
    In skip mode ``1 + match_len`` tokens commit; otherwise exactly one.
    The uncommitted tail of the fresh predictions slides into the next
    window, right-padded with PAD to the fixed window length.
    """
    c = len(old_window)
    if len(new_predictions) != c + 1:
        raise ContractError(
            f"expected {c + 1} predictions for a window of {c}, got {len(new_predictions)}"
        )
    k = 0
    while k < c and old_window[k] == new_predictions[k]:
        k += 1
    commit = 1 + k if skip else 1
    committed = list(new_predictions[:commit])
    next_window = list(new_predictions[commit : c + 1])
    next_window += [pad_id] * (c - len(next_window))
    return VerifyOutcome(committed=committed, match_len=k, next_window=next_window)


def update(buffer: DecodeBuffer, outcome: VerifyOutcome) -> DecodeBuffer:
    """Apply a verification outcome: extend exact, advance frontier, slide window."""
    if len(outcome.next_window) != len(buffer.window):
        raise ContractError("outcome window length disagrees with buffer window")
    buffer.exact.extend(outcome.committed)
    buffer.frontier += len(outcome.committed)
    buffer.window = list(outcome.next_window)
    buffer.iteration += 1
    buffer.check()
    return buffer


class BatchBuffers:
    """Decode buffers for a batch sharing one backend and one config.

    Keeps each instance's ``prompt ‖ exact ‖ window`` in one row of a
    preallocated int64 array, ``capacity`` tokens wide (by default the
    longest initial context).  :meth:`context` is a view of the row and
    :meth:`write_tail` overwrites its tail in place, so neither copies the
    context.  Frontiers advance independently; finished instances are
    frozen while the rest continue.
    """

    def __init__(
        self,
        buffers: Sequence[DecodeBuffer],
        prompts: Sequence[Sequence[int]],
        capacity: int | None = None,
    ) -> None:
        if len(buffers) == 0:
            raise ContractError("batch must be nonempty")
        if len(prompts) != len(buffers):
            raise ContractError("one prompt per buffer required")
        for buf, prompt in zip(buffers, prompts):
            if buf.prompt_len != len(prompt):
                raise ContractError("buffer prompt_len disagrees with prompt")
        self.buffers = list(buffers)
        contexts = [[*p, *b.exact, *b.window] for p, b in zip(prompts, buffers)]
        self.lengths = [len(ctx) for ctx in contexts]
        if capacity is None:
            capacity = max(self.lengths)
        if capacity < max(self.lengths):
            raise CapacityError(
                f"context of {max(self.lengths)} tokens exceeds capacity {capacity}"
            )
        self.store = np.zeros((len(buffers), capacity), dtype=np.int64)
        for row, ctx in zip(self.store, contexts):
            row[: len(ctx)] = ctx
        self.finished = [False] * len(buffers)

    def context(self, i: int) -> np.ndarray:
        """A view of instance ``i``'s context; read it, do not keep it."""
        return self.store[i, : self.lengths[i]]

    def write_tail(self, i: int, start: int, tokens: Sequence[int]) -> None:
        """Replace instance ``i``'s context from ``start`` on with ``tokens``."""
        end = start + len(tokens)
        if not 0 <= start <= self.lengths[i]:
            raise ContractError(f"tail start {start} outside context of {self.lengths[i]}")
        if end > self.store.shape[1]:
            raise CapacityError(
                f"context of {end} tokens exceeds capacity {self.store.shape[1]}"
            )
        self.store[i, start:end] = tokens
        self.lengths[i] = end

    def __len__(self) -> int:
        return len(self.buffers)

    def __getitem__(self, i: int) -> DecodeBuffer:
        return self.buffers[i]

    @property
    def max_frontier(self) -> int:
        return max(b.frontier for b in self.buffers)

    def active_indices(self) -> list[int]:
        return [i for i, done in enumerate(self.finished) if not done]
