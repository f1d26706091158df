"""Independent reference implementations the tests check the engine against.

Nothing here imports engine internals beyond the backend forward surface;
each oracle re-derives its answer from first principles (plain greedy loop,
re-simulated lookahead trace, closed-form combinatorics, JSONL replay).
"""

from __future__ import annotations

import json
from math import comb

import numpy as np


def penalized_argmax(row, history, penalty: float) -> int:
    """Reference greedy pick: divide positive / multiply negative, lowest-id ties."""
    scores = np.asarray(row, dtype=np.float64).copy()
    for tok in set(history):
        if 0 <= tok < scores.shape[0]:
            if scores[tok] > 0:
                scores[tok] /= penalty
            elif scores[tok] < 0:
                scores[tok] *= penalty
    return int(np.argmax(scores))


def greedy_ar_reference(backend, prompt, max_new: int, penalty: float = 1.2) -> list[int]:
    """Brute-force greedy decode: one uncached full-context forward per token."""
    seq = list(prompt)
    out: list[int] = []
    for _ in range(max_new):
        step = backend.forward(seq, 1)
        tok = penalized_argmax(step[0], seq, penalty)
        out.append(tok)
        seq.append(tok)
        if tok == backend.spec.eos_id:
            break
    return out


def jacobi_reference(
    backend,
    prompt,
    window_len: int,
    skip: bool,
    max_new: int,
    penalty: float = 1.2,
) -> tuple[list[int], list[int]]:
    """Re-simulated lookahead trace with plain uncached forwards.

    Returns (exact stream, per-iteration commit sizes).
    """
    pad, eos = backend.spec.pad_id, backend.spec.eos_id
    c = window_len
    exact: list[int] = []
    window = [pad] * c
    commits: list[int] = []
    while True:
        ctx = list(prompt) + exact + window
        step = backend.forward(ctx, c + 1)
        split = len(ctx) - (c + 1)
        preds = [
            penalized_argmax(step[j], ctx[: split + j + 1], penalty)
            for j in range(c + 1)
        ]
        k = 0
        while k < c and window[k] == preds[k]:
            k += 1
        m = 1 + k if skip else 1
        committed = preds[:m]
        tail = preds[m : c + 1]
        remaining = max_new - len(exact)
        cut = min(len(committed), remaining)
        head = committed[:cut]
        if eos in head:
            cut = head.index(eos) + 1
        dropped = committed[cut:]
        committed = committed[:cut]
        window = (dropped + tail + [pad] * c)[:c]
        exact.extend(committed)
        commits.append(len(committed))
        if eos in committed or len(exact) >= max_new:
            return exact, commits


class ToyReference:
    """Textbook forward of the toy transformer, for checking its arithmetic.

    Re-draws the weights from ``default_rng(seed)`` in the order the toy's
    module docstring documents: token embedding, position embedding, per
    layer wq/wk/wv/wo/w1/w2, then the output head; std 0.5 for embeddings
    and ``1/sqrt(fan_in)`` otherwise.  Then runs a pre-LN causal transformer
    over the whole context, uncached: a mean/variance layer norm (eps 1e-5),
    one loop per head, and a softmax that subtracts each row's maximum.
    """

    def __init__(self, seed: int, spec) -> None:
        self.spec = spec
        d, v = spec.model_dim, spec.vocab_size
        rng = np.random.default_rng(seed)
        self.wte = rng.normal(0.0, 0.5, size=(v, d))
        self.wpe = rng.normal(0.0, 0.5, size=(spec.max_len, d))
        self.layers = []
        for _ in range(spec.n_layers):
            layer = {w: rng.normal(0.0, d**-0.5, size=(d, d)) for w in ("wq", "wk", "wv", "wo")}
            layer["w1"] = rng.normal(0.0, d**-0.5, size=(d, 4 * d))
            layer["w2"] = rng.normal(0.0, (4 * d) ** -0.5, size=(4 * d, d))
            self.layers.append(layer)
        self.lm_head = rng.normal(0.0, d**-0.5, size=(d, v))

    @staticmethod
    def _norm(x):
        mean = x.mean(axis=-1, keepdims=True)
        var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
        return (x - mean) / np.sqrt(var + 1e-5)

    def logits(self, context) -> np.ndarray:
        """``[len(context), vocab]``: row ``t`` scores the token after position ``t``."""
        n, heads = len(context), self.spec.n_heads
        hd = self.spec.model_dim // heads
        x = self.wte[np.asarray(context)] + self.wpe[:n]
        visible = np.tril(np.ones((n, n), dtype=bool))
        for layer in self.layers:
            h = self._norm(x)
            q, k, v = h @ layer["wq"], h @ layer["wk"], h @ layer["wv"]
            out = []
            for i in range(heads):
                cols = slice(i * hd, (i + 1) * hd)
                scores = np.where(visible, q[:, cols] @ k[:, cols].T / np.sqrt(hd), -np.inf)
                p = np.exp(scores - scores.max(axis=-1, keepdims=True))
                out.append(p / p.sum(axis=-1, keepdims=True) @ v[:, cols])
            x = x + np.concatenate(out, axis=1) @ layer["wo"]
            x = x + np.maximum(self._norm(x) @ layer["w1"], 0.0) @ layer["w2"]
        return self._norm(x) @ self.lm_head


def hypergeometric_survival(length: int, kept: int, keys: int) -> float:
    """P(all ``keys`` marked positions kept) when ``kept`` of ``length`` survive."""
    if kept < keys:
        return 0.0
    return comb(length - keys, kept - keys) / comb(length, kept)


def replay_hit_report(trace_lines: list[str], reference: list[int]) -> dict:
    """Recompute first/total-hit and both occurrence counts from raw JSONL."""
    header = json.loads(trace_lines[0])
    assert header["type"] == "header"
    prompt_len = len(header["prompt"])
    fh = th = o_gr = o_rg = windows = positions = 0
    for line in trace_lines[1:]:
        obj = json.loads(line)
        if obj.get("type") != "iteration":
            continue
        guesses = obj["window_before"]
        if not guesses:
            continue
        start = obj["frontier_before"] - prompt_len
        if start < 0 or start + len(guesses) > len(reference):
            continue
        ref = reference[start : start + len(guesses)]
        windows += 1
        positions += len(guesses)
        fh += int(guesses[0] == ref[0])
        th += sum(1 for a, b in zip(guesses, ref) if a == b)
        ref_set, guess_set = set(ref), set(guesses)
        o_gr += sum(1 for t in guesses if t in ref_set)
        o_rg += sum(1 for t in ref if t in guess_set)
    return {
        "first_hit": fh,
        "total_hit": th,
        "occur_guess_in_ref": o_gr,
        "occur_ref_in_guess": o_rg,
        "windows_evaluated": windows,
        "positions_evaluated": positions,
    }
