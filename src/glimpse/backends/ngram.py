"""Deterministic n-gram table backend with longest-suffix backoff.

The table maps fixed-length token contexts to either a single successor
(scored as a one-hot row) or a full score vector.  A query consults the
longest matching context suffix, so the model's order is the table's longest
context; contexts with no match back off to a fixed uniform row (all
zeros), which the greedy picker resolves to token 0.

Table file format, one record per line::

    vocab 16 pad 14 eos 15        # optional header (defaults derived)
    5 7 -> 9                      # context tokens -> successor token
    3 -> 0.5 1.0 0.0 ...          # or -> full score vector (vocab_size long)

Blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from glimpse.backends.base import BackendSpec, SequentialBatchMixin, TokenSeq, check_forward_args
from glimpse.errors import ContractError, TableParseError


def _table_row(
    ctx: tuple[int, ...], entry: "int | Sequence[float]", vocab_size: int
) -> np.ndarray:
    """The score row of one table record, checked against the vocabulary."""
    if not ctx:
        raise ContractError("empty context")
    for tok in ctx:
        if not 0 <= tok < vocab_size:
            raise ContractError(f"context token {tok} outside vocab")
    if isinstance(entry, (int, np.integer)):
        if not 0 <= entry < vocab_size:
            raise ContractError(f"successor {entry} outside vocab")
        row = np.zeros(vocab_size, dtype=np.float64)
        row[entry] = 1.0
        return row
    row = np.asarray(entry, dtype=np.float64)
    if row.shape != (vocab_size,):
        raise ContractError(f"score vector has length {row.shape[0]}, expected {vocab_size}")
    if not np.all(np.isfinite(row)):
        raise ContractError("score vector contains non-finite values")
    return row


class NgramBackend(SequentialBatchMixin):
    """N-gram lookup model over integer token ids.

    Args:
        table: Mapping from nonempty context tuples to either an int
            successor or a score vector of length ``vocab_size``.  The
            longest context is the model's order.
        vocab_size / pad_id / eos_id: Token space; PAD and EOS default to
            the two highest ids.
    """

    def __init__(
        self,
        table: Mapping[tuple[int, ...], "int | Sequence[float]"],
        vocab_size: int,
        pad_id: int | None = None,
        eos_id: int | None = None,
    ) -> None:
        if pad_id is None:
            pad_id = vocab_size - 2
        if eos_id is None:
            eos_id = vocab_size - 1
        self.spec = BackendSpec(vocab_size=vocab_size, pad_id=pad_id, eos_id=eos_id)
        self._rows = {
            tuple(ctx): _table_row(tuple(ctx), entry, vocab_size) for ctx, entry in table.items()
        }
        self.order = max(map(len, self._rows), default=0)
        self._uniform = np.zeros(vocab_size, dtype=np.float64)

    def _row_for(self, prefix: Sequence[int]) -> np.ndarray:
        for k in range(min(self.order, len(prefix)), 0, -1):
            row = self._rows.get(tuple(prefix[-k:]))
            if row is not None:
                return row
        return self._uniform

    def forward(self, context: TokenSeq, block_len: int) -> np.ndarray:
        ids = check_forward_args(self.spec, context, block_len)
        # No lookup reaches further back than ``order`` tokens before the block.
        lo = max(len(ids) - block_len + 1 - self.order, 0)
        tail = ids[lo:].tolist()
        split = len(tail) - block_len
        rows = np.empty((block_len, self.spec.vocab_size), dtype=np.float64)
        for j in range(block_len):
            rows[j] = self._row_for(tail[: split + j + 1])
        return rows


def _parse_header(parts: list[str], line_no: int) -> BackendSpec:
    fields = {}
    if len(parts) % 2 != 0:
        raise TableParseError(line_no, "header must be key/value pairs")
    for key, value in zip(parts[::2], parts[1::2]):
        if key not in ("vocab", "pad", "eos"):
            raise TableParseError(line_no, f"unknown header key {key!r}")
        try:
            fields[key] = int(value)
        except ValueError:
            raise TableParseError(line_no, f"bad header value {value!r}") from None
    if "vocab" not in fields:
        raise TableParseError(line_no, "header must define vocab")
    vocab = fields["vocab"]
    try:
        return BackendSpec(
            vocab_size=vocab,
            pad_id=fields.get("pad", vocab - 2),
            eos_id=fields.get("eos", vocab - 1),
        )
    except ContractError as exc:
        raise TableParseError(line_no, str(exc)) from exc


def make_ngram_backend(table_file: "str | Path") -> NgramBackend:
    """Load an n-gram backend from a table file.

    Raises:
        TableParseError: On any malformed record, with its line number.
    """
    path = Path(table_file)
    # Each context's entry and the line of its (last) record.
    raw: dict[tuple[int, ...], tuple["int | list[float]", int]] = {}
    spec: BackendSpec | None = None
    max_id = -1
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if spec is None and not raw and parts[0] == "vocab":
                spec = _parse_header(parts, line_no)
                continue
            if "->" not in parts:
                raise TableParseError(line_no, "record missing '->' separator")
            arrow = parts.index("->")
            left, right = parts[:arrow], parts[arrow + 1 :]
            if not left:
                raise TableParseError(line_no, "empty context")
            if not right:
                raise TableParseError(line_no, "empty successor")
            try:
                ctx = tuple(int(t) for t in left)
            except ValueError:
                raise TableParseError(line_no, "context tokens must be integers") from None
            try:
                if len(right) == 1:
                    entry: "int | list[float]" = int(right[0])
                    max_id = max(max_id, entry)
                else:
                    entry = [float(v) for v in right]
            except ValueError:
                raise TableParseError(line_no, "bad successor or score vector") from None
            max_id = max(max_id, *ctx)
            raw[ctx] = (entry, line_no)
    if spec is None:
        # Leave room for the two reserved ids above every table id.
        spec = BackendSpec(vocab_size=max_id + 3, pad_id=max_id + 1, eos_id=max_id + 2)
    rows = {}
    for ctx, (entry, line_no) in raw.items():
        try:
            rows[ctx] = _table_row(ctx, entry, spec.vocab_size)
        except ContractError as exc:
            raise TableParseError(line_no, str(exc)) from exc
    return NgramBackend(rows, spec.vocab_size, spec.pad_id, spec.eos_id)
