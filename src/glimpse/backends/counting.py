"""Arithmetic-sequence backend: the next token continues a digit chain.

The model emits ``(d + gap) mod modulus`` where ``d`` is the most recent
digit token in the context and ``gap`` is the number of positions since it.
On digit-only contexts this is exactly ``next = (last + 1) mod modulus``;
non-digit tokens (PAD, EOS) preserve the position count instead of
restarting it, so the chain keeps counting across masked-out filler.  A
context with no digit at all scores token 0.

Deterministic and cheap, which makes it the workhorse for long-generation
benchmarks and loop-convergence tests.
"""

from __future__ import annotations

import numpy as np

from glimpse.backends.base import (
    BackendSpec,
    SequentialBatchMixin,
    TokenSeq,
    check_forward_args,
)
from glimpse.errors import ContractError


def _last_digit(ids: np.ndarray, end: int, modulus: int) -> int:
    """Index of the last digit in ``ids[: end + 1]``, or -1 if there is none.

    Scans backwards in doubling chunks, so the work is proportional to the
    distance of that digit from ``end``, not to the length of ``ids``.
    """
    hi, step = end + 1, 16
    while hi > 0:
        lo = max(hi - step, 0)
        hits = (ids[lo:hi] < modulus).nonzero()[0]
        if hits.size:
            return lo + int(hits[-1])
        hi, step = lo, 2 * step
    return -1


class CountingBackend(SequentialBatchMixin):
    def __init__(self, modulus: int = 10) -> None:
        if modulus < 2:
            raise ContractError("modulus must be >= 2")
        self.modulus = modulus
        self.spec = BackendSpec(
            vocab_size=modulus + 2,
            pad_id=modulus,
            eos_id=modulus + 1,
        )

    def forward(self, context: TokenSeq, block_len: int) -> np.ndarray:
        ids = check_forward_args(self.spec, context, block_len)
        m = self.modulus
        n = ids.shape[0]
        split = n - block_len
        # Only the tail from the last digit at or before the block's first
        # position matters: every later digit search stops there.
        start = max(_last_digit(ids, split, m), 0)
        # last_pos[s]: index of the most recent digit at or before position
        # start + s; -1 when none exists.
        idx = np.where(ids[start:] < m, np.arange(start, n), -1)
        last_pos = np.maximum.accumulate(idx)
        rows = np.zeros((block_len, self.spec.vocab_size), dtype=np.float64)
        ends = np.arange(split, n)
        pos = last_pos[split - start :]
        has_digit = pos >= 0
        # Predicting position end+1, so the gap from the last digit is
        # (end + 1) - its position.
        gap = ends + 1 - np.where(has_digit, pos, 0)
        digits = np.where(has_digit, (ids[np.maximum(pos, 0)] + gap) % m, 0)
        rows[np.arange(block_len), digits] = 1.0
        return rows


def make_counting_backend(modulus: int = 10) -> CountingBackend:
    return CountingBackend(modulus)
