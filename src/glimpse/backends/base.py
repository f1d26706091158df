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
from functools import lru_cache
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

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


@runtime_checkable
class Backend(Protocol):
    """Anything that can score next tokens for the tail of a context.

    ``forward`` returns the ``[block_len, vocab_size]`` float64 score array:
    row ``j`` scores the token following context position ``split + j``,
    where ``split = len(context) - block_len``.  ``forward_batch`` stacks
    these into one ``[batch, block_len, vocab_size]`` array, for a nonempty
    batch of one block length (:func:`check_batch_args`).  The toy's
    forward also takes a cache slot: it writes the K/V of its new positions
    into the slot's rows past the valid length (the commit pointer), and
    :meth:`~glimpse.cache.CacheBuffer.write_back` commits them by moving
    the pointer.  Cacheless backends refuse a slot in :class:`SequentialBatchMixin`.
    """

    spec: BackendSpec

    def forward(self, context: TokenSeq, block_len: int) -> np.ndarray: ...

    def forward_batch(
        self,
        contexts: Sequence[TokenSeq],
        block_lens: Sequence[int],
        slots: Sequence["CacheSlot | None"] | None = None,
    ) -> np.ndarray: ...


def check_batch_args(
    contexts: Sequence[TokenSeq], block_lens: Sequence[int], slots: Sequence | None
) -> int:
    """The one block length of a nonempty ``forward_batch`` call, one entry per context."""
    n = len(contexts)
    if len(block_lens) != n or (slots is not None and len(slots) != n):
        raise ContractError("forward_batch arguments must have equal lengths")
    if n == 0:
        raise ContractError("a batch must be nonempty")
    if block_lens.count(block_lens[0]) != n:
        raise ContractError(f"a batch takes one block length, got {list(block_lens)}")
    return block_lens[0]


class SequentialBatchMixin:
    """Batch path of the cacheless backends: one forward per instance, stacked, and no cache slot."""

    def forward_batch(
        self,
        contexts: Sequence[TokenSeq],
        block_lens: Sequence[int],
        slots: Sequence["CacheSlot | None"] | None = None,
    ) -> np.ndarray:
        check_batch_args(contexts, block_lens, slots)
        if slots is not None and any(slot is not None for slot in slots):
            raise ContractError(f"{type(self).__name__} has no K/V cache: it takes no cache slot")
        rows = list(map(self.forward, contexts, block_lens))  # type: ignore[attr-defined]
        # A view for a batch of one: np.stack would copy the rows.
        return rows[0][None] if len(rows) == 1 else np.stack(rows)


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


def penalized_scores(scores: np.ndarray, penalty: float) -> np.ndarray:
    """``scores`` with every entry penalized, as a new array.

    A positive score is divided by ``penalty`` and a negative score
    multiplied by it; zeros are left alone.  A pick takes these scores for
    the tokens in its history and the rest unchanged.
    """
    # Zeros divide to zeros, so only the negatives need the product.
    adjusted = scores / penalty
    np.multiply(scores, penalty, out=adjusted, where=scores < 0)
    return adjusted


@lru_cache(maxsize=64)
def _window_cells(c: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, ks)``: each pair of a score row and a window index the row sees.

    In a block of ``c + 1`` rows after a window of ``c`` tokens, row ``j``
    sees ``window[:j]``.  The arrays are read-only, since every caller
    shares them.
    """
    rows = np.repeat(np.arange(c + 1), np.arange(c + 1))
    ks = np.concatenate([np.arange(j) for j in range(c + 1)])
    rows.flags.writeable = ks.flags.writeable = False
    return rows, ks


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

        Like a backend's score rows, ``rows`` score a block that follows
        the history and then ``window``: exactly ``len(window) + 1`` rows,
        of which row ``j`` is penalized under the history plus
        ``window[:j]``.  The block is penalized once under the history;
        then, in each row, only the cells of the window tokens that row
        sees take their penalized score.  One argmax covers the block.

        The rows are not checked for non-finite values: the engine checks
        each forward's scores once, before any pick.
        """
        scores = np.asarray(rows, dtype=np.float64)
        c = len(window)
        if scores.shape[0] != c + 1:
            raise ContractError(
                f"a window of {c} tokens needs {c + 1} score rows, got {scores.shape[0]}"
            )
        if penalty != 1.0:
            adjusted = penalized_scores(scores, penalty)
            picked = np.where(self.mask, adjusted, scores)
            if c:
                r, k = _window_cells(c)
                cols = np.asarray(window)[k]
                picked[r, cols] = adjusted[r, cols]
            scores = picked
        return scores.argmax(axis=-1).tolist()
