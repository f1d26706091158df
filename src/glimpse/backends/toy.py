"""Seed-deterministic toy transformer with KV-cache and batched masking.

A small pre-LN causal transformer whose weights are drawn from a documented
pseudo-random scheme: every tensor comes from a single
``numpy.random.default_rng(seed)`` stream in a fixed order (token embedding,
position embedding, then per layer wq/wk/wv/wo/w1/w2, then the output head),
each entry i.i.d. normal with std ``1/sqrt(fan_in)`` (0.5 for embeddings).
Two constructions from the same seed are therefore identical, and forward
passes are pure functions of ``(context, block_len, cache contents)``.

All math runs in float64 so that batched, cached, and from-scratch paths
agree to well below argmax-flipping noise.  The residual stream is centred
after the draw: each row of the token and position embeddings has its mean
subtracted, and ``wo`` and ``w2`` have zero row sums, so every row of ``x``
has mean 0 up to rounding.  A layer norm ignores each row's mean, so this
moves the textbook model's logits by float rounding only, and the norm
need not subtract it.  A layer norm (eps 1e-5) is folded into the matmul
it feeds, ``norm(x) @ W = x @ (sqrt(d) W) / sqrt(|x|^2 + d eps)``, so the
QKV, first MLP and head weights hold ``sqrt(d)``.  As ``|x| < sqrt(|x|^2 +
d eps)``, head ``h``'s scores are at most ``sigma_max(Wq_h)
sigma_max(Wk_h)`` of its stored weights in magnitude.  Construction bounds
each ``sigma_max^2`` by Gershgorin on the Gram matrix ``W_h^T W_h`` and
keeps the largest product as ``score_bound`` (about 59 for the default
shape).  Softmax subtracts no row max while that bound is at most
:data:`EXP_LIMIT`; masked scores (-1e30) still exponentiate to 0, and key 0
is visible to every query.

Every call attends over a :class:`~glimpse.cache.CacheBuffer`: the one its
slots share, or a fresh one when it is given none.  Per head, the buffer
keeps keys as ``[head_dim, len]`` and values as ``[len, head_dim]``
matrices, which the score and value products read in place.  A call writes
the K/V of its new positions straight into each slot's rows past the valid
length (the commit pointer) and attends over them there; the caller's
:meth:`~glimpse.cache.CacheBuffer.write_back` commits them by moving the
pointer.  A call without slots attends in a fresh buffer of its own, which
it discards.  A call returns only its score rows.  One visibility rule
covers causality and all padding: key ``t`` is visible to query ``j`` of
an instance iff ``t <= valid_len + j``.

A call runs its row-wise layers (embedding, QKV, ``wo``, MLP, residual
adds and head) over one ``[rows, d]`` matrix that holds only the
instances' real rows: instance ``b`` owns ``rows[off_b : off_b + n_b]``.
Only attention has per-instance ``[batch, heads, n_max, key_len]``
shapes, sized by the two padding plans of :mod:`glimpse.cache`: the key
range ``[0, valid_len + n)`` pads to the longest in the batch, and the
queries pad to the longest block.  At equal block lengths (every solo
call, and every batched call after a batch's first) the rows reshape to
that layout for free; otherwise each layer scatters its QKV rows into a
zeroed padded layout before attention and gathers the real rows after it.
The visibility rule hides every padded slot from every real query, so
each batched instance reproduces its solo output.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from glimpse.backends.base import BackendSpec, TokenSeq, check_forward_args
from glimpse.cache import CacheBuffer, CacheSlot, plan_input_padding, plan_kv_padding
from glimpse.errors import CacheMismatchError, CapacityError, ContractError

_NEG = -1e30  # masked attention score; exp() underflows to exactly 0.0
#: Largest score bound at which softmax skips the row max: exp() then stays
#: in [e^-500, e^500], far from float64 underflow and overflow (e^+-709).
EXP_LIMIT = 500.0


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


class ToyTransformer:
    """Deterministic desk-scale causal transformer backend."""

    def __init__(self, seed: int, spec: BackendSpec | None = None) -> None:
        if spec is None:
            spec = default_toy_spec()
        if min(spec.n_layers, spec.n_heads, spec.model_dim, spec.max_len) < 1:
            raise ContractError("toy transformer needs layers, heads, model_dim and max_len")
        self.spec = spec
        d, v, heads, hd = spec.model_dim, spec.vocab_size, spec.n_heads, spec.head_dim
        rng = np.random.default_rng(seed)

        def draw(*shape: int, std: float) -> np.ndarray:
            return rng.normal(0.0, std, size=shape)

        def centred(w: np.ndarray) -> np.ndarray:
            w -= w.mean(axis=1, keepdims=True)
            return w

        proj = 1.0 / np.sqrt(d)
        # The residual stream's rows have mean 0 (see the module docstring).
        self.wte = centred(draw(v, d, std=0.5))
        self.wpe = centred(draw(spec.max_len, d, std=0.5))
        self.layers = []
        for _ in range(spec.n_layers):
            # Weights a norm feeds hold its sqrt(d), so they draw at std 1, not 1/sqrt(d).
            wq, wk, wv = (draw(d, d, std=1.0) for _ in range(3))
            self.layers.append(
                {
                    # Fused QKV projection, one matmul instead of three, with
                    # the 1/sqrt(head_dim) score scale folded into the query columns.
                    "wqkv": np.concatenate([wq / np.sqrt(hd), wk, wv], axis=1),
                    "wo": centred(draw(d, d, std=proj)),
                    "w1": draw(d, 4 * d, std=1.0),
                    "w2": centred(draw(4 * d, d, std=1.0 / np.sqrt(4 * d))),
                }
            )
        self.lm_head = draw(d, v, std=1.0)
        self._ones = np.ones((spec.max_len, 1))
        # The score bound of the module docstring: one Gram product per layer.
        qk = [layer["wqkv"][:, : 2 * d].reshape(d, 2 * heads, hd) for layer in self.layers]
        lam = np.abs([w.transpose(1, 2, 0) @ w.transpose(1, 0, 2) for w in qk]).sum(-1).max(-1)
        self.score_bound = float(np.sqrt(lam[:, :heads] * lam[:, heads:]).max())

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------

    def forward(
        self, context: TokenSeq, block_len: int, cache: CacheSlot | None = None
    ) -> np.ndarray:
        return self.forward_batch([context], [block_len], [cache])[0]

    def forward_batch(
        self,
        contexts: Sequence[TokenSeq],
        block_lens: Sequence[int],
        slots: Sequence[CacheSlot | None] | None = None,
    ) -> list[np.ndarray]:
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

        batch, lens = len(blocks), [len(b) for b in blocks]
        # Instance b owns rows [off_b, off_b + n_b) of the call's [rows, d]
        # matrix.  Attention alone runs in a padded [batch, n_max] layout:
        # a free reshape at equal block lengths, else one scatter before
        # it and one gather after it (``real`` marks the real slots).
        n_max, real = lens[0], None
        if min(lens) != max(lens):
            n_max = plan_input_padding(lens).target_len
            real = np.arange(n_max) < np.asarray(lens)[:, None]
        # Instance b attends over its store rows [0, valid_len + n_b); the
        # key length pads to the longest of these.
        key_len = plan_kv_padding([v + n for v, n in zip(valid_lens, lens)]).target_len
        d, heads, hd = spec.model_dim, spec.n_heads, spec.head_dim
        buf, store_rows = self._kv_store(slots, max(valid_lens) + n_max)
        first = store_rows[0]
        in_order = store_rows == list(range(first, first + batch))
        read = slice(first, first + batch) if in_order else store_rows  # a slice is a view

        # Input slot j of instance b sits at absolute position valid_len + j,
        # which is also the store row its K/V are written to.  At equal
        # valid lengths these rows are one slice for every instance.
        v_min = min(valid_lens)
        if v_min == max(valid_lens):
            new_rows = v_min + np.arange(n_max)
            pos = self.wpe[v_min : v_min + n_max]
            write_at: tuple = (read, slice(v_min, v_min + n_max))
        else:
            new_rows = np.asarray(valid_lens)[:, None, None] + np.arange(n_max)  # [batch, 1, n]
            pos = self.wpe[np.minimum(new_rows[:, 0], spec.max_len - 1)]
            write_at = (np.asarray(store_rows)[:, None], new_rows[:, 0])
        ids = np.concatenate(blocks)
        rows = len(ids)
        if real is None:
            x = (self.wte[ids.reshape(batch, n_max)] + pos).reshape(rows, d)
        else:
            x = self.wte[ids] + np.broadcast_to(pos, (batch, n_max, d))[real]
        # One visibility rule: key t is visible to query j iff t <= valid_len + j.
        # Keys before the smallest valid length pass it for every query, so
        # the additive bias only covers the keys from there on: at equal
        # valid lengths an n x n causal block, and none for single queries.
        # It also hides the padded slots, whose Q/K/V are zero, from every
        # real query.
        bias = None
        if key_len - 1 > v_min:
            bias = np.where(np.arange(v_min, key_len) <= new_rows[..., None], 0.0, _NEG)

        for layer, k_store, v_store in zip(self.layers, buf.keys, buf.values):
            qkv = self._normed_matmul(x, layer["wqkv"])
            if real is not None:
                qkv, packed = np.zeros((batch, n_max, 3 * d)), qkv
                qkv[real] = packed
            qkv = qkv.reshape(batch, n_max, 3, heads, hd)
            q = qkv[:, :, 0].transpose(0, 2, 1, 3)  # [batch, heads, n_max, hd], a view
            # Written through [batch, max_len, heads, hd] views of the stores.
            k_store.transpose(0, 3, 1, 2)[write_at] = qkv[:, :, 1]
            v_store.transpose(0, 2, 1, 3)[write_at] = qkv[:, :, 2]
            # Softmax over [batch, heads, n_max, key_len], normalized after
            # the value product, where it is n_max x hd instead of n_max x key_len.
            weights = q @ k_store[read, ..., :key_len]
            if bias is not None:
                weights[..., v_min:] += bias
            if self.score_bound > EXP_LIMIT:
                weights -= np.maximum.reduce(weights, axis=-1, keepdims=True)
            np.exp(weights, out=weights)
            attn = weights @ v_store[read, :, :key_len]
            attn /= weights @ self._ones[:key_len]
            attn = attn.transpose(0, 2, 1, 3)  # [batch, n_max, heads, hd]
            attn = (attn if real is None else attn[real]).reshape(rows, d)
            # x is this call's own array, so the residual adds and the ReLU run in place.
            x += attn @ layer["wo"]
            h = self._normed_matmul(x, layer["w1"])
            x += np.maximum(h, 0.0, out=h) @ layer["w2"]

        logits = self._normed_matmul(x, self.lm_head)
        return [logits[end - bl : end] for end, bl in zip(accumulate(lens), block_lens)]

    def _normed_matmul(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Layer norm of ``x``'s rows times ``w / sqrt(d)``, in one fresh array.

        The rows are centred (see the module docstring), so the norm
        subtracts no mean.
        """
        s = np.vecdot(x, x, keepdims=True) + self.spec.model_dim * 1e-5
        out = x @ w
        out /= np.sqrt(s, out=s)
        return out

    def _kv_store(
        self, slots: Sequence[CacheSlot | None], n_rows: int
    ) -> tuple[CacheBuffer, list[int]]:
        """The cache buffer one call writes and attends in, and each instance's row.

        The slots must be distinct instances of one buffer with ``n_rows``
        rows of room; a call without slots gets a fresh buffer of that size.
        """
        if all(s is None for s in slots):
            return CacheBuffer(len(slots), n_rows, self.spec), list(range(len(slots)))
        buf = slots[0].buffer if slots[0] is not None else None
        rows = [s.instance for s in slots if s is not None and s.buffer is buf]
        if len(rows) != len(slots) or len(set(rows)) != len(rows):
            raise ContractError("cache slots must be distinct instances of one buffer")
        if n_rows > buf.max_len:
            raise CapacityError(f"cache capacity {buf.max_len} exceeded at position {n_rows}")
        return buf, rows


def make_toy_transformer(seed: int, spec: BackendSpec | None = None) -> ToyTransformer:
    return ToyTransformer(seed, spec)
