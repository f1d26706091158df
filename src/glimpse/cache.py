"""Preallocated key/value cache with batch padding plans.

The cache buffer is sized once, before decoding starts, and never grows:
per layer it holds ``[batch, max_len, heads, head_dim]`` key and value
arrays plus a per-instance valid length.

The valid length is the commit pointer.  Rows before it belong to committed
(exact) tokens and are never touched again.  Rows from it onwards are
scratch: a cache-aware forward writes the K/V of its new positions straight
there and attends over the rows in place, and the next call overwrites
them.  :meth:`CacheBuffer.write_back` commits a prefix of that scratch by
advancing the pointer; lookahead-window rows stay uncommitted because those
tokens may still change.

Two padding plans support batches whose instances progress unevenly:

* cache padding — pad the key/value length dimension to the longest valid
  length in the batch;
* input padding — right-pad uneven input-id blocks with PAD.

A plan only counts the padded slots; the forward that uses it hides them
from every real query (see :mod:`glimpse.backends.toy`).
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
    if any(v < 0 for v in valid_lens):
        raise ContractError("valid lengths must be nonnegative")
    target = max(valid_lens)
    return PadPlan(target_len=target, pad_counts=[target - v for v in valid_lens])


def plan_input_padding(
    blocks: Sequence[Sequence[int]], pad_id: int
) -> tuple[PadPlan, np.ndarray]:
    """Right-pad uneven input-id blocks to the batch maximum.

    Returns the plan and the padded ``[batch, target_len]`` int array.
    Padded slots carry ``pad_id`` and follow each instance's real slots.
    """
    if len(blocks) == 0:
        raise ContractError("batch must be nonempty")
    lengths = [len(b) for b in blocks]
    if any(n == 0 for n in lengths):
        raise ContractError("input blocks must be nonempty")
    target = max(lengths)
    padded = np.full((len(blocks), target), pad_id, dtype=np.int64)
    for i, block in enumerate(blocks):
        padded[i, : lengths[i]] = block
    return PadPlan(target_len=target, pad_counts=[target - n for n in lengths]), padded


class CacheBuffer:
    """Fixed-capacity per-layer K/V storage for a batch of decode sessions.

    Storage is zero-initialized at construction and mutated strictly in
    place afterwards.  Only a backend with layers has K/V to cache.
    """

    def __init__(self, batch: int, max_len: int, spec: BackendSpec) -> None:
        if batch <= 0 or max_len <= 0:
            raise ConfigError("batch and max_len must be positive")
        if spec.n_layers < 1:
            raise ConfigError("backend spec has no layers to cache")
        self.batch = batch
        self.max_len = max_len
        self.spec = spec
        shape = (batch, max_len, spec.n_heads, spec.head_dim)
        self.keys = [np.zeros(shape) for _ in range(spec.n_layers)]
        self.values = [np.zeros(shape) for _ in range(spec.n_layers)]
        self.tokens = np.zeros((batch, max_len), dtype=np.int64)
        self.valid_len = np.zeros(batch, dtype=np.int64)

    def slot(self, instance: int) -> "CacheSlot":
        if not 0 <= instance < self.batch:
            raise ContractError(f"instance {instance} outside batch of {self.batch}")
        return CacheSlot(self, instance)

    def write_back(
        self,
        instance: int,
        new_kv: Sequence[tuple[np.ndarray, np.ndarray]],
        start: int,
        count: int,
        tokens: Sequence[int],
    ) -> None:
        """Commit K/V (and token ids) for ``count`` positions from ``start``.

        ``start`` must equal the instance's current valid length: committed
        positions are contiguous, with no overlap and no gap.  K/V that a
        forward already wrote ahead into these rows are views of them, and
        numpy skips an assignment of a view onto itself, so they cost no
        copy; other arrays (say, from a forward without slots, which
        attends in a fresh buffer of its own) are copied in.
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
        if len(new_kv) != self.spec.n_layers:
            raise ContractError("write_back expects one (k, v) pair per layer")
        if len(tokens) != count:
            raise ContractError("write_back token count mismatch")
        for li, (k, v) in enumerate(new_kv):
            if k.shape[0] < count or v.shape[0] < count:
                raise ContractError("write_back K/V shorter than count")
            self.keys[li][instance, start : start + count] = k[:count]
            self.values[li][instance, start : start + count] = v[:count]
        self.tokens[instance, start : start + count] = np.asarray(tokens, dtype=np.int64)
        self.valid_len[instance] = start + count


@dataclass
class CacheSlot:
    """One instance's view of a cache buffer; owned by a single session."""

    buffer: CacheBuffer
    instance: int

    @property
    def valid_len(self) -> int:
        return int(self.buffer.valid_len[self.instance])

    @property
    def tokens(self) -> np.ndarray:
        return self.buffer.tokens[self.instance, : self.valid_len]


def alloc(batch: int, max_len: int, spec: BackendSpec) -> CacheBuffer:
    """Allocate the whole cache up front; see :class:`CacheBuffer`."""
    return CacheBuffer(batch, max_len, spec)
