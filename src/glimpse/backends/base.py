"""Causal-LM backend interface and the greedy token picker.

A backend maps a token context to next-token score rows for the last
``block_len`` positions of the context.  ``block_len = 1`` is ordinary
autoregressive decoding; larger blocks score several consecutive positions
in one call, conditioning later positions on whatever tokens currently sit
in the context (the lookahead window).

All backends are deterministic: identical ``(context, block_len, cache
contents)`` produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from glimpse.errors import ContractError

if TYPE_CHECKING:
    from glimpse.cache import CacheSlot

TokenSeq = Sequence[int]


@dataclass(frozen=True)
class BackendSpec:
    """Static description of a backend.

    Attributes:
        vocab_size: Number of token ids; all ids are in ``[0, vocab_size)``.
        pad_id: Reserved padding token id.
        eos_id: Reserved end-of-sequence token id (distinct from ``pad_id``).
        n_layers / n_heads / model_dim / max_len: Transformer shape fields;
            zero for table- or rule-based backends.  The engine gives a
            backend with layers a key/value cache.
    """

    vocab_size: int
    pad_id: int
    eos_id: int
    n_layers: int = 0
    n_heads: int = 0
    model_dim: int = 0
    max_len: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size <= 0:
            raise ContractError("vocab_size must be positive")
        for name in ("pad_id", "eos_id"):
            tok = getattr(self, name)
            if not 0 <= tok < self.vocab_size:
                raise ContractError(f"{name}={tok} outside vocab of size {self.vocab_size}")
        if self.pad_id == self.eos_id:
            raise ContractError("pad_id and eos_id must be distinct")
        if self.n_heads and self.model_dim % self.n_heads != 0:
            raise ContractError("model_dim must divide evenly into heads")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.n_heads if self.n_heads else 0


@dataclass
class StepOutput:
    """Result of one forward call.

    Attributes:
        rows: ``[block_len, vocab_size]`` float array; ``rows[j]`` scores the
            token following context position ``split + j`` where
            ``split = len(context) - block_len``.
        attention_summary: Optional ``[block_len, len(context)]`` array of
            head-averaged attention weights from each queried position onto
            every visible context position; rows sum to 1 over unmasked
            positions.  ``None`` for backends without attention.
        new_kv: For cache-capable backends, per-layer ``(keys, values)``
            arrays for the context positions computed in this call, each
            shaped ``[n_new, n_heads, head_dim]``.  The caller decides which
            prefix of these to commit.  They are views of a cache buffer's
            scratch rows, from the valid length (the commit pointer)
            onwards: the slot's buffer, or a fresh one for a call without
            a slot.  Committing advances the pointer without a copy, and
            the next forward on the slot overwrites whatever was not
            committed, so read them before that call.
    """

    rows: np.ndarray
    attention_summary: np.ndarray | None = None
    new_kv: list[tuple[np.ndarray, np.ndarray]] | None = None


@runtime_checkable
class Backend(Protocol):
    """Anything that can score next tokens for the tail of a context."""

    spec: BackendSpec

    def forward(
        self,
        context: TokenSeq,
        block_len: int,
        cache: "CacheSlot | None" = None,
    ) -> StepOutput: ...

    def forward_batch(
        self,
        contexts: Sequence[TokenSeq],
        block_lens: Sequence[int],
        slots: Sequence["CacheSlot | None"] | None = None,
    ) -> list[StepOutput]: ...


class SequentialBatchMixin:
    """Default batch path: one independent forward per instance."""

    def forward_batch(
        self,
        contexts: Sequence[TokenSeq],
        block_lens: Sequence[int],
        slots: Sequence["CacheSlot | None"] | None = None,
    ) -> list[StepOutput]:
        if slots is None:
            slots = [None] * len(contexts)
        if not len(contexts) == len(block_lens) == len(slots):
            raise ContractError("forward_batch arguments must have equal lengths")
        return [
            self.forward(ctx, bl, slot)  # type: ignore[attr-defined]
            for ctx, bl, slot in zip(contexts, block_lens, slots)
        ]


_BOOLS = frozenset({bool, np.bool_})


def check_forward_args(
    spec: BackendSpec, context: TokenSeq, block_len: int
) -> np.ndarray:
    """Shared precondition checks for every backend's ``forward``.

    Returns the context as a 1-D int64 array, so that a backend converts
    it once; an int64 array (such as the engine's context view) is
    returned as is, without a copy.  Ids must be integers: floats and
    bools are refused, not cast, also a single bool in a list of ints.
    An array's checks are vectorized: their Python work does not grow
    with the context.
    """
    ids = np.asarray(context)
    if ids.ndim != 1:
        raise ContractError("context must be a 1-D token sequence")
    n = ids.shape[0]
    if n == 0:
        raise ContractError("context must be nonempty")
    if block_len < 1:
        raise ContractError("block_len must be >= 1")
    if block_len > n:
        raise ContractError(f"block_len {block_len} exceeds context length {n}")
    if ids.dtype.kind not in "iu":
        # Python ints past int64 arrive here too, as an object array.
        raise ContractError(
            f"token ids must be integers in [0, {spec.vocab_size}), got {ids.dtype} data"
        )
    if not isinstance(context, np.ndarray) and not _BOOLS.isdisjoint(map(type, context)):
        # numpy casts a bool among ints to 0 or 1; only a sequence can hide one.
        raise ContractError("token ids must be integers, got a bool")
    ids = ids.astype(np.int64, copy=False)
    # As uint64 a negative id wraps past every vocab size, so one max
    # checks both bounds.
    if ids.view(np.uint64).max() >= spec.vocab_size:
        bad = ids[(ids < 0) | (ids >= spec.vocab_size)][0]
        raise ContractError(f"token id {bad} outside vocab of size {spec.vocab_size}")
    return ids


def penalized_scores(
    scores: np.ndarray, history_mask: np.ndarray, penalty: float
) -> np.ndarray:
    """Apply a repetition penalty to ``scores``, returning a new array.

    For every token marked in ``history_mask``, a positive score is divided
    by ``penalty`` and a negative score multiplied by it; zeros are left
    alone.  ``penalty = 1`` is the identity.
    """
    if penalty == 1.0:
        return scores
    scores = np.asarray(scores, dtype=np.float64)
    # Zeros divide to zeros, so only the negatives need the product.
    adjusted = scores / penalty
    np.multiply(scores, penalty, out=adjusted, where=scores < 0)
    return np.where(history_mask, adjusted, scores)


def greedy_pick(row: np.ndarray, history: Iterable[int], penalty: float = 1.0) -> int:
    """Pick the argmax token from a score row under a repetition penalty.

    Ties break to the lowest token id so that decoding is platform
    independent.

    Args:
        row: 1-D array of ``vocab_size`` finite scores.
        history: Token ids already visible to this position; each id present
            gets penalized once regardless of multiplicity.
        penalty: Repetition penalty, ``>= 1``.
    """
    scores = np.asarray(row, dtype=np.float64)
    if scores.ndim != 1:
        raise ContractError("score row must be 1-D")
    if not np.all(np.isfinite(scores)):
        raise ContractError("score row contains non-finite values")
    if penalty < 1.0:
        raise ContractError("penalty must be >= 1")
    mask = HistoryMask(scores.shape[0])
    mask.extend([tok for tok in history if 0 <= tok < scores.shape[0]])
    return mask.pick(scores[None], penalty)[0]


@dataclass
class HistoryMask:
    """History membership mask for greedy picking, grown as tokens commit."""

    vocab_size: int
    mask: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.mask = np.zeros(self.vocab_size, dtype=bool)

    def extend(self, tokens: Sequence[int]) -> None:
        """Mark ``tokens``, ids in ``[0, vocab_size)``, with one indexed assignment."""
        self.mask[tokens] = True

    def pick(self, rows: np.ndarray, penalty: float, window: Sequence[int] = ()) -> list[int]:
        """Penalized argmax of each score row, ties to the lowest id.

        Like a backend's score rows, ``rows`` score the last positions of a
        block that follows the history and then ``window``: the last row is
        penalized under the history plus the whole window, and each earlier
        row under one window token fewer.  With ``len(window) == len(rows) - 1``,
        row ``j`` sees ``window[:j]``.  One penalty pass and one argmax
        cover the block.  See :func:`greedy_pick`.

        The rows are not checked for non-finite values: the engine checks
        each forward's scores once, before any pick.
        """
        scores = np.asarray(rows, dtype=np.float64)
        c = len(window)
        lead = c + 1 - scores.shape[0]
        if lead < 0:
            raise ContractError(
                f"{scores.shape[0]} score rows need at least {scores.shape[0] - 1}"
                f" window tokens, got {c}"
            )
        if penalty != 1.0:
            mask = self.mask
            if c:
                # seen[k] marks window[:k]: a cumulative one-hot.
                seen = np.zeros((c + 1, self.vocab_size), dtype=bool)
                seen[np.arange(1, c + 1), window] = True
                mask = np.logical_or.accumulate(seen)[lead:] | mask
            scores = penalized_scores(scores, mask, penalty)
        return scores.argmax(axis=-1).tolist()
