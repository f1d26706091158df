"""Arithmetic-sequence backend: the next token continues a digit chain.

The model emits ``(d + gap) mod modulus`` where ``d`` is the most recent
digit token in the context and ``gap`` is the number of positions since it.
On digit-only contexts this is exactly ``next = (last + 1) mod modulus``;
non-digit tokens (PAD, EOS) preserve the position count instead of
restarting it, so the chain keeps counting across masked-out filler.  A
context with no digit at all scores token 0.

A forward finds the last digit at or before the block's first position,
by a vectorized scan backwards when that position holds no digit, then
walks the block in Python, so its Python work grows with ``block_len``
only, not with the context or a filler run.  It writes each one-hot row's
1 as the walk reaches the row, into zeros sized to the block, so its
memory grows with the block, not with the square of the vocabulary.
Deterministic and cheap, which makes it the workhorse for long-generation
benchmarks and loop-convergence tests.
"""

from __future__ import annotations

import numbers

import numpy as np

from glimpse.backends.base import BackendSpec, SequentialBatchMixin, TokenSeq, check_forward_args
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
        if isinstance(modulus, bool) or not isinstance(modulus, numbers.Integral):
            raise ContractError(f"modulus must be an integer, got {modulus!r}")
        if modulus < 2:
            raise ContractError("modulus must be >= 2")
        self.modulus = modulus = int(modulus)
        self.spec = BackendSpec(
            vocab_size=modulus + 2,
            pad_id=modulus,
            eos_id=modulus + 1,
        )

    def forward(self, context: TokenSeq, block_len: int) -> np.ndarray:
        ids = check_forward_args(self.spec, context, block_len)
        m = self.modulus
        split = ids.shape[0] - block_len
        block = ids[split:].tolist()
        # (pos, val): the last digit at or before the current position;
        # pos is -1 while there is none.  The scan runs only when the
        # block does not start with a digit.
        if block[0] < m:
            pos, val = split, block[0]
        else:
            pos = _last_digit(ids, split, m)
            val = int(ids[pos]) if pos >= 0 else 0
        rows = np.zeros((block_len, self.spec.vocab_size))
        for j, tok in enumerate(block):
            end = split + j
            if tok < m:
                pos, val = end, tok
            # Predicting position end + 1, so the gap from the last digit
            # is end + 1 - pos.
            rows[j, (val + end + 1 - pos) % m if pos >= 0 else 0] = 1.0
        return rows


def make_counting_backend(modulus: int = 10) -> CountingBackend:
    return CountingBackend(modulus)
