"""Scripted task backend: key-token retrieval over a fixed token layout.

The script family emulates reasoning traces whose answer depends on a
small number of specific tokens surviving in the visible context.  The
token space is partitioned into ranges::

    0 PAD   1 EOS   2 UNK   3 QSTART   4,5 answer trigger
    16..79   question ids        (64)
    80..143  key "share" tokens  (64)
    144..207 answer tokens       (64)
    208..255 filler tokens       (48)

A prompt is ``[QSTART, question]``.  In rationale mode the model emits a
deterministic schedule of filler tokens, with ``num_keys`` share tokens
embedded at question-dependent positions, then EOS.  Once the context ends
with the two trigger tokens, the model answers: it collects every share
token visible anywhere in the context and, if exactly ``num_keys`` are
present, emits the answer token derived from their sum; otherwise UNK.
After the answer token it emits EOS.

Everything is a pure function of the visible context, so corrupting the
rationale (replacing tokens with PAD) degrades the answer in an exactly
analyzable way: the answer survives iff every share token survives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from glimpse.backends.base import BackendSpec, SequentialBatchMixin, TokenSeq, check_forward_args
from glimpse.errors import ConfigError

PAD = 0
EOS = 1
UNK = 2
QSTART = 3
TRIGGER = (4, 5)
Q_BASE, Q_RANGE = 16, 64
SHARE_BASE, SHARE_RANGE = 80, 64
ANS_BASE, ANS_RANGE = 144, 64
FILL_BASE, FILL_RANGE = 208, 48
VOCAB = 256


@dataclass(frozen=True)
class RetrievalScript:
    """Task family parameters.

    Attributes:
        num_keys: Share tokens the rationale embeds (all must survive for
            the answer to be recoverable).
        rationale_len: Rationale length in tokens, EOS excluded.
    """

    num_keys: int = 1
    rationale_len: int = 24

    def __post_init__(self) -> None:
        if self.rationale_len < 1:
            raise ConfigError("rationale_len must be >= 1")
        if not 1 <= self.num_keys <= self.rationale_len:
            raise ConfigError("num_keys must be in [1, rationale_len]")

    def key_positions(self, question: int) -> list[int]:
        """Question-dependent rationale indices that carry share tokens."""
        length, k = self.rationale_len, self.num_keys
        stride = length // k
        start = (question * 5 + 7) % length
        return sorted((start + i * stride) % length for i in range(k))

    def share_value(self, question: int, index: int) -> int:
        return (question * 13 + index * 29 + 5) % SHARE_RANGE

    def answer_token(self, question: int) -> int:
        total = sum(self.share_value(question, i) for i in range(self.num_keys))
        return ANS_BASE + total % ANS_RANGE

    def rationale_token(self, question: int, index: int) -> int:
        positions = self.key_positions(question)
        if index in positions:
            return SHARE_BASE + self.share_value(question, positions.index(index))
        return FILL_BASE + (question * 31 + index * 17) % FILL_RANGE

    def rationale(self, question: int) -> list[int]:
        return [self.rationale_token(question, d) for d in range(self.rationale_len)]

    def prompt(self, question: int) -> list[int]:
        if not 0 <= question < Q_RANGE:
            raise ConfigError(f"question must be in [0, {Q_RANGE})")
        return [QSTART, Q_BASE + question]


class ScriptedBackend(SequentialBatchMixin):
    """Deterministic rule model over :class:`RetrievalScript` tasks."""

    def __init__(self, script: RetrievalScript) -> None:
        self.script = script
        self.spec = BackendSpec(vocab_size=VOCAB, pad_id=PAD, eos_id=EOS)

    def _next_token(self, prefix: list[int]) -> int:
        last = prefix[-1]
        if last == EOS:
            return EOS
        if len(prefix) >= 2 and tuple(prefix[-2:]) == TRIGGER:
            shares = [t - SHARE_BASE for t in prefix if SHARE_BASE <= t < ANS_BASE]
            if len(shares) != self.script.num_keys:
                return UNK
            return ANS_BASE + sum(shares) % ANS_RANGE
        if ANS_BASE <= last < ANS_BASE + ANS_RANGE or last == UNK:
            return EOS
        # Rationale mode: schedule indexed by distance past the question.
        q_pos = -1
        for i in range(len(prefix) - 1, -1, -1):
            if Q_BASE <= prefix[i] < Q_BASE + Q_RANGE:
                q_pos = i
                break
        if q_pos < 0:
            return UNK
        question = prefix[q_pos] - Q_BASE
        d = len(prefix) - 1 - q_pos
        if d >= self.script.rationale_len:
            return EOS
        return self.script.rationale_token(question, d)

    def forward(self, context: TokenSeq, block_len: int) -> np.ndarray:
        ctx = check_forward_args(self.spec, context, block_len).tolist()
        split = len(ctx) - block_len
        rows = np.zeros((block_len, VOCAB), dtype=np.float64)
        for j in range(block_len):
            rows[j, self._next_token(ctx[: split + j + 1])] = 1.0
        return rows


def make_scripted_backend(script: RetrievalScript | None = None) -> ScriptedBackend:
    return ScriptedBackend(script or RetrievalScript())
