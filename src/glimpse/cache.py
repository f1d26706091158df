"""Preallocated key/value cache with batch padding plans.

The cache buffer is sized once, before decoding starts, and never grows:
per layer it holds a ``[batch, heads, head_dim, max_len]`` key array and a
``[batch, heads, max_len, head_dim]`` value array, the shapes attention
multiplies by, plus a per-instance valid length.

The valid length is the commit pointer.  Rows before it belong to committed
(exact) tokens and are never touched again.  Rows from it onwards are
scratch: a cache-aware forward writes the K/V of its new positions straight
there and attends over the rows in place, and the next call overwrites
them.  :meth:`CacheBuffer.write_back` commits a prefix of that scratch by
advancing the pointer, writing no K/V; lookahead-window rows stay
uncommitted because those tokens may still change.

Two padding plans size the padded layout a batched forward attends in,
when its instances progress unevenly:

* cache padding — pad the key/value length dimension to the longest valid
  length in the batch;
* input padding — pad uneven input blocks to the longest; the toy needs it
  only when uncached lengths differ (in the engine, a batch's first call).

A plan only counts the padded slots.  The toy runs its row-wise layers
over the real rows alone and pads only inside attention, where it hides
the padded slots from every real query (see :mod:`glimpse.backends.toy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from glimpse.backends.base import BackendSpec
from glimpse.errors import CapacityError, ConfigError, ContractError


@dataclass
class PadPlan:
    """How a ragged per-instance quantity maps onto one rectangular tensor.

    Attributes:
        target_len: Padded length (the batch maximum).
        pad_counts: Per-instance number of padded slots, which follow the
            instance's real slots.
    """

    target_len: int
    pad_counts: list[int]


def plan_kv_padding(valid_lens: Sequence[int]) -> PadPlan:
    """Plan cache-length padding to the largest valid length in the batch."""
    if len(valid_lens) == 0:
        raise ContractError("batch must be nonempty")
    if min(valid_lens) < 0:
        raise ContractError("valid lengths must be nonnegative")
    target = max(valid_lens)
    return PadPlan(target_len=target, pad_counts=[target - v for v in valid_lens])


def plan_input_padding(block_lens: Sequence[int]) -> PadPlan:
    """Plan right-padding of uneven input blocks to the longest in the batch."""
    if len(block_lens) == 0:
        raise ContractError("batch must be nonempty")
    if min(block_lens) < 1:
        raise ContractError("input blocks must be nonempty")
    target = max(block_lens)
    return PadPlan(target_len=target, pad_counts=[target - n for n in block_lens])


class CacheBuffer:
    """Fixed-capacity per-layer K/V storage for a batch of decode sessions.

    Storage is zero-initialized at construction and mutated strictly in
    place afterwards.  Only a backend with layers has K/V to cache.
    Position is the last axis of ``keys[l]`` and the second last of
    ``values[l]``, so the score and value products read both as plain
    matrices.
    """

    def __init__(self, batch: int, max_len: int, spec: BackendSpec) -> None:
        if batch <= 0 or max_len <= 0:
            raise ConfigError("batch and max_len must be positive")
        if spec.n_layers < 1:
            raise ConfigError("backend spec has no layers to cache")
        self.batch = batch
        self.max_len = max_len
        self.spec = spec
        heads, hd = spec.n_heads, spec.head_dim
        self.keys = [np.zeros((batch, heads, hd, max_len)) for _ in range(spec.n_layers)]
        self.values = [np.zeros((batch, heads, max_len, hd)) for _ in range(spec.n_layers)]
        self.tokens = np.zeros((batch, max_len), dtype=np.int64)
        self.valid_len = np.zeros(batch, dtype=np.int64)

    def slot(self, instance: int) -> "CacheSlot":
        if not 0 <= instance < self.batch:
            raise ContractError(f"instance {instance} outside batch of {self.batch}")
        return CacheSlot(self, instance)

    def write_back(
        self, instance: int, context: Sequence[int], start: int, count: int
    ) -> None:
        """Commit positions ``[start, start + count)`` of ``context``.

        The commit writes their token ids and advances the pointer; it
        writes no K/V.  A forward on this instance's slot has already
        written their K/V into the rows past the valid length, and
        committing keeps them there.  ``start`` must equal the instance's
        current valid length: committed positions are contiguous, with no
        overlap and no gap.
        """
        if count == 0:
            return
        if count < 0:
            raise ContractError("write_back count must be nonnegative")
        if start != int(self.valid_len[instance]):
            raise ContractError(
                f"write_back at {start} but valid length is {int(self.valid_len[instance])}"
            )
        if start + count > self.max_len:
            raise CapacityError(
                f"cache capacity {self.max_len} exceeded at position {start + count}"
            )
        if start + count > len(context):
            raise ContractError(
                f"write_back of {count} positions at {start} overruns a context of {len(context)}"
            )
        self.tokens[instance, start : start + count] = context[start : start + count]
        self.valid_len[instance] = start + count


@dataclass
class CacheSlot:
    """One instance's view of a cache buffer; owned by a single session."""

    buffer: CacheBuffer
    instance: int

    @property
    def valid_len(self) -> int:
        return int(self.buffer.valid_len[self.instance])
