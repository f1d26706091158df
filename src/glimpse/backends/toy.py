"""Seed-deterministic toy transformer with KV-cache and batched masking.

A small pre-LN causal transformer whose weights are drawn from a documented
pseudo-random scheme: every tensor comes from a single
``numpy.random.default_rng(seed)`` stream in a fixed order (token embedding,
position embedding, then per layer wq/wk/wv/wo/w1/w2, then the output head),
each entry i.i.d. normal with std ``1/sqrt(fan_in)`` (0.5 for embeddings).
Two constructions from the same seed are therefore identical, and forward
passes are pure functions of ``(context, block_len, cache contents)``.

All math runs in float64 so that batched, cached, and from-scratch paths
agree to well below argmax-flipping noise.

Every call attends over a :class:`~glimpse.cache.CacheBuffer`: the one its
slots share, or a fresh one when it is given none.  It writes the K/V of
its new positions straight into each slot's rows past the valid length (the
commit pointer) and attends over them in place; committing them is the
caller's :meth:`~glimpse.cache.CacheBuffer.write_back`.  One visibility
rule covers causality and all padding: key ``t`` is visible to query ``j``
of an instance iff ``t <= valid_len + j``.

The batched path consumes the two padding plans from :mod:`glimpse.cache`:
cache-length padding pads each instance's key range ``[0, valid_len + n)``
to the longest in the batch, and input padding right-pads uneven input
blocks with PAD, so every batched instance reproduces its solo output.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from glimpse.backends.base import (
    BackendSpec,
    StepOutput,
    TokenSeq,
    check_forward_args,
)
from glimpse.cache import CacheBuffer, CacheSlot, alloc, plan_input_padding, plan_kv_padding
from glimpse.errors import CacheMismatchError, CapacityError, ContractError

_NEG = -1e30  # masked attention score; exp() underflows to exactly 0.0


def default_toy_spec(
    vocab_size: int = 256,
    n_layers: int = 2,
    n_heads: int = 4,
    model_dim: int = 64,
    max_len: int = 512,
) -> BackendSpec:
    """Byte-level default shape: PAD and EOS take the two top ids."""
    return BackendSpec(
        vocab_size=vocab_size,
        pad_id=vocab_size - 2,
        eos_id=vocab_size - 1,
        n_layers=n_layers,
        n_heads=n_heads,
        model_dim=model_dim,
        max_len=max_len,
    )


def _layer_norm(x: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance rows (eps 1e-5), in one fresh array."""
    n = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(np.square(xc), axis=-1, keepdims=True)
    var *= 1.0 / n
    var += 1e-5
    xc /= np.sqrt(var, out=var)
    return xc


class ToyTransformer:
    """Deterministic desk-scale causal transformer backend."""

    def __init__(self, seed: int, spec: BackendSpec | None = None) -> None:
        if spec is None:
            spec = default_toy_spec()
        if min(spec.n_layers, spec.n_heads, spec.model_dim, spec.max_len) < 1:
            raise ContractError("toy transformer needs layers, heads, model_dim and max_len")
        self.spec = spec
        d, v = spec.model_dim, spec.vocab_size
        rng = np.random.default_rng(seed)

        def draw(*shape: int, std: float) -> np.ndarray:
            return rng.normal(0.0, std, size=shape)

        proj = 1.0 / np.sqrt(d)
        self.wte = draw(v, d, std=0.5)
        self.wpe = draw(spec.max_len, d, std=0.5)
        self.layers = []
        for _ in range(spec.n_layers):
            wq, wk, wv = (draw(d, d, std=proj) for _ in range(3))
            self.layers.append(
                {
                    # Fused query/key/value projection, one matmul instead of
                    # three, with the 1/sqrt(head_dim) score scale folded
                    # into the query columns.
                    "wqkv": np.concatenate([wq / np.sqrt(spec.head_dim), wk, wv], axis=1),
                    "wo": draw(d, d, std=proj),
                    "w1": draw(d, 4 * d, std=proj),
                    "w2": draw(4 * d, d, std=1.0 / np.sqrt(4 * d)),
                }
            )
        self.lm_head = draw(d, v, std=proj)
        # Debug statistic: attention score reads (query x key pairs summed
        # over layers).  Advisory only; outputs never depend on it.
        self.score_reads = 0

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------

    def forward(
        self, context: TokenSeq, block_len: int, cache: CacheSlot | None = None
    ) -> StepOutput:
        return self.forward_batch([context], [block_len], [cache])[0]

    def forward_batch(
        self,
        contexts: Sequence[TokenSeq],
        block_lens: Sequence[int],
        slots: Sequence[CacheSlot | None] | None = None,
    ) -> list[StepOutput]:
        if slots is None:
            slots = [None] * len(contexts)
        if not len(contexts) == len(block_lens) == len(slots):
            raise ContractError("forward_batch arguments must have equal lengths")
        if len(contexts) == 0:
            return []

        spec = self.spec
        valid_lens: list[int] = []
        blocks: list[np.ndarray] = []
        for ctx, bl, slot in zip(contexts, block_lens, slots):
            ids = check_forward_args(spec, ctx, bl)
            if len(ids) > spec.max_len:
                raise CapacityError(
                    f"context length {len(ids)} exceeds max_len {spec.max_len}"
                )
            v = 0
            if slot is not None:
                v = slot.valid_len
                if v > len(ids) - bl:
                    raise CacheMismatchError(
                        f"cache holds {v} positions but only "
                        f"{len(ids) - bl} may precede the queried block"
                    )
                # Both are int64, so equal bytes mean equal tokens; at toy
                # lengths this is several times cheaper than np.array_equal.
                if slot.tokens.tobytes() != ids[:v].tobytes():
                    raise CacheMismatchError("cached tokens disagree with context prefix")
            valid_lens.append(v)
            blocks.append(ids[v:])

        in_plan, padded = plan_input_padding(blocks, spec.pad_id)
        batch, n_max = padded.shape
        n_lens = [n_max - p for p in in_plan.pad_counts]
        # Instance b attends over its store rows [0, valid_len + n_b); the
        # key length pads to the longest of these.
        kv_plan = plan_kv_padding([v + n for v, n in zip(valid_lens, n_lens)])
        key_len = kv_plan.target_len
        d, heads, hd = spec.model_dim, spec.n_heads, spec.head_dim

        # Input slot j of instance b sits at absolute position valid_len + j,
        # which is also the store row its K/V are written to.
        new_rows = np.asarray(valid_lens)[:, None] + np.arange(n_max)[None, :]
        x = self.wte[padded] + self.wpe[np.minimum(new_rows, spec.max_len - 1)]
        # One visibility rule: key t is visible to query j iff t <= valid_len + j.
        # Keys before the smallest valid length pass it for every query, so
        # the additive bias only covers the keys from there on.
        v_min = min(valid_lens)
        bias = np.where(np.arange(v_min, key_len) <= new_rows[:, :, None], 0.0, _NEG)[:, None]
        self.score_reads += len(self.layers) * sum(
            n * (v + n) for v, n in zip(valid_lens, n_lens)
        )

        buf, store_rows = self._kv_store(slots, max(valid_lens) + n_max)
        keys, values = buf.keys, buf.values
        write_at = (np.asarray(store_rows)[:, None], new_rows)
        first = store_rows[0]
        if store_rows == list(range(first, first + batch)):
            read: slice | list[int] = slice(first, first + batch)  # a view, no gather
        else:
            read = store_rows
        weights = sums = np.empty(0)
        for layer, k_store, v_store in zip(self.layers, keys, values):
            qkv = (_layer_norm(x) @ layer["wqkv"]).reshape(batch, n_max, 3, heads, hd)
            q = qkv[:, :, 0].transpose(0, 2, 1, 3).copy()  # [batch, heads, n_max, hd]
            k_store[write_at] = qkv[:, :, 1]
            v_store[write_at] = qkv[:, :, 2]
            k_all = k_store[read, :key_len]
            v_all = v_store[read, :key_len]
            # Softmax over [batch, heads, n_max, key_len], normalized after
            # the value product, where it is n_max x hd instead of n_max x key_len.
            weights = q @ k_all.transpose(0, 2, 3, 1)
            weights[..., v_min:] += bias
            weights -= np.maximum.reduce(weights, axis=-1, keepdims=True)
            np.exp(weights, out=weights)
            sums = np.add.reduce(weights, axis=-1, keepdims=True)
            attn = weights @ v_all.transpose(0, 2, 1, 3)
            attn /= sums
            x = x + attn.transpose(0, 2, 1, 3).reshape(batch, n_max, d) @ layer["wo"]
            h2 = _layer_norm(x)
            x = x + np.maximum(h2 @ layer["w1"], 0.0) @ layer["w2"]

        logits = _layer_norm(x) @ self.lm_head
        # Head average of the last layer's normalized weights, as one
        # weighted sum over heads per query: [batch, n_max, key_len].
        head_scale = (1.0 / (sums * heads)).transpose(0, 2, 3, 1)  # [batch, n_max, 1, heads]
        head_avg = (head_scale @ weights.transpose(0, 2, 1, 3))[:, :, 0]

        outputs: list[StepOutput] = []
        for b, (bl, v_len, n_b) in enumerate(zip(block_lens, valid_lens, n_lens)):
            row = store_rows[b]
            new = slice(v_len, v_len + n_b)
            outputs.append(
                StepOutput(
                    rows=logits[b, n_b - bl : n_b],
                    # One column per visible context position.
                    attention_summary=head_avg[b, n_b - bl : n_b, : v_len + n_b],
                    new_kv=[(k[row, new], v[row, new]) for k, v in zip(keys, values)],
                )
            )
        return outputs

    def _kv_store(
        self, slots: Sequence[CacheSlot | None], n_rows: int
    ) -> tuple[CacheBuffer, list[int]]:
        """The cache buffer one call writes and attends in, and each instance's row.

        The slots must be distinct instances of one buffer with ``n_rows``
        rows of room; a call without slots gets a fresh buffer of that size.
        """
        if all(s is None for s in slots):
            return alloc(len(slots), n_rows, self.spec), list(range(len(slots)))
        buf = slots[0].buffer if slots[0] is not None else None
        rows = [s.instance for s in slots if s is not None and s.buffer is buf]
        if len(rows) != len(slots) or len(set(rows)) != len(rows):
            raise ContractError("cache slots must be distinct instances of one buffer")
        if n_rows > buf.max_len:
            raise CapacityError(f"cache capacity {buf.max_len} exceeded at position {n_rows}")
        return buf, rows


def make_toy_transformer(seed: int, spec: BackendSpec | None = None) -> ToyTransformer:
    return ToyTransformer(seed, spec)
