"""The toy's arithmetic against an independent textbook forward.

``oracles.ToyReference`` re-draws the toy's weights from its seed and runs a
plain per-head transformer over the whole context.  The toy folds its layer
norms into the matmuls they feed, caches K/V, pads batches and, while its
score bound allows, exponentiates scores without subtracting the row max;
none of that may move a logit by more than float rounding.
"""

import copy
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from glimpse.backends import default_toy_spec, make_toy_transformer
from glimpse.backends import toy as toy_module
from glimpse.cache import CacheBuffer

from conftest import small_toy_spec
from oracles import ToyReference

TOL = 1e-12
SPECS = {
    "small": (42, small_toy_spec()),
    "default-1024": (1, default_toy_spec(max_len=1024)),
}


def _toy_calls(toy):
    """Rows of five kinds of call, each with the context and block length it scored.

    Uncached (solo and a slotless batch), cached with a window (over the
    scratch rows a rejected window left), a batch's first call (fresh slots,
    prompts of uneven lengths), batched at uneven valid lengths over the
    K/V that first call wrote, and the same batch over out-of-order slots.
    """
    spec = toy.spec
    rng = np.random.default_rng(7)

    def ids(n):
        return [int(t) for t in rng.integers(0, spec.vocab_size, size=n)]

    calls = [(c, bl, toy.forward(c, bl)) for c, bl in [(ids(1), 1), (ids(23), 1), (ids(23), 6)]]
    ctxs = [ids(5), ids(17), ids(9)]
    calls += [(c, 4, rows) for c, rows in zip(ctxs, toy.forward_batch(ctxs, [4] * 3))]

    buf = CacheBuffer(1, spec.max_len, spec)
    slot = buf.slot(0)
    prompt = ids(12)
    toy.forward(prompt, 1, slot)
    buf.write_back(0, prompt, 0, len(prompt))
    ctx = prompt + ids(5)
    calls.append((ctx, 5, toy.forward(ctx, 5, slot)))
    buf.write_back(0, ctx, 12, 2)
    ctx = ctx[:14] + ids(5)
    calls.append((ctx, 5, toy.forward(ctx, 5, slot)))

    buf = CacheBuffer(3, spec.max_len, spec)
    prompts = [ids(n) for n in (4, 19, 10)]
    steps = toy.forward_batch(prompts, [2] * 3, [buf.slot(i) for i in range(3)])
    calls += [(p, 2, rows) for p, rows in zip(prompts, steps)]
    for i, p in enumerate(prompts):
        buf.write_back(i, p, 0, len(p))
    # 2, 4 and 6 uncached positions behind valid lengths 4, 19 and 10
    for order in ([0, 1, 2], [2, 0, 1]):
        ctxs = [prompts[i] + ids(2 + 2 * i) for i in order]
        steps = toy.forward_batch(ctxs, [2] * 3, [buf.slot(i) for i in order])
        calls += [(c, 2, rows) for c, rows in zip(ctxs, steps)]
    return calls


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("row_max", [False, True], ids=["raw-exp", "row-max"])
def test_toy_matches_textbook_forward(name, row_max, monkeypatch):
    seed, spec = SPECS[name]
    if row_max:
        monkeypatch.setattr(toy_module, "EXP_LIMIT", 0.0)
    toy, ref = make_toy_transformer(seed, spec), ToyReference(seed, spec)
    for ctx, bl, rows in _toy_calls(toy):
        assert rows.shape == (bl, spec.vocab_size)
        np.testing.assert_allclose(rows, ref.logits(ctx)[-bl:], rtol=0, atol=TOL)


@pytest.mark.parametrize("name", SPECS)
def test_both_softmax_paths_agree(name, monkeypatch):
    seed, spec = SPECS[name]
    fast = _toy_calls(make_toy_transformer(seed, spec))
    monkeypatch.setattr(toy_module, "EXP_LIMIT", 0.0)
    slow = _toy_calls(make_toy_transformer(seed, spec))
    for (ctx_a, _, rows_a), (ctx_b, _, rows_b) in zip(fast, slow):
        assert ctx_a == ctx_b
        np.testing.assert_allclose(rows_a, rows_b, rtol=0, atol=TOL)


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("row_max", [False, True], ids=["raw-exp", "row-max"])
def test_toy_calls_raise_no_floating_point_exception(name, row_max, monkeypatch):
    """Hidden keys never reach exp as huge negatives, so nothing underflows.

    A row-max softmax may underflow legitimately, so that path ignores
    underflow alone.
    """
    seed, spec = SPECS[name]
    errors = {"all": "raise"}
    if row_max:
        monkeypatch.setattr(toy_module, "EXP_LIMIT", 0.0)
        errors["under"] = "ignore"
    toy = make_toy_transformer(seed, spec)
    with np.errstate(**errors):
        _toy_calls(toy)


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("row_max", [False, True], ids=["raw-exp", "row-max"])
def test_batch_that_is_mostly_padding(name, row_max, monkeypatch):
    """Eight instances, valid lengths 2..120, blocks of 5, slots out of order.

    Row 4 of the buffer sits out, and each prefill leaves 8 scratch
    positions past the committed prompt, so most keys of the short
    instances are padding or scratch that the visibility rule must hide.
    """
    seed, spec = SPECS[name]
    if row_max:
        monkeypatch.setattr(toy_module, "EXP_LIMIT", 0.0)
    toy, ref = make_toy_transformer(seed, spec), ToyReference(seed, spec)
    rng = np.random.default_rng(11)

    def ids(n):
        return [int(t) for t in rng.integers(0, spec.vocab_size, size=n)]

    buf = CacheBuffer(9, spec.max_len, spec)
    order = [7, 0, 5, 2, 8, 1, 6, 3]
    ctxs = []
    for i, v in zip(order, np.linspace(2, 120, len(order)).astype(int)):
        prefill = ids(v + 8)
        toy.forward(prefill, 1, buf.slot(i))
        buf.write_back(i, prefill, 0, v)
        ctxs.append(prefill[:v] + ids(5))
    steps = toy.forward_batch(ctxs, [5] * len(order), [buf.slot(i) for i in order])
    for ctx, rows in zip(ctxs, steps):
        np.testing.assert_allclose(rows, toy.forward(ctx, 5), rtol=0, atol=TOL)
        np.testing.assert_allclose(rows, ref.logits(ctx)[-5:], rtol=0, atol=TOL)


_BATCHES = {"solo": (9,), "equal-batch": (9, 9, 9), "uneven-batch": (4, 13, 9)}


@pytest.mark.parametrize("kind", _BATCHES)
@pytest.mark.parametrize("row_max", [False, True], ids=["raw-exp", "row-max"])
def test_cached_masks_give_the_bytes_of_a_first_call(kind, row_max, monkeypatch):
    """Window calls at random block lengths 1..17, each compared with the
    same call made first on a fresh copy of the cache, with no mask cached."""
    seed, spec = SPECS["small"]
    if row_max:
        monkeypatch.setattr(toy_module, "EXP_LIMIT", 0.0)
    toy, rng = make_toy_transformer(seed, spec), np.random.default_rng(5)

    def ids(n):
        return [int(t) for t in rng.integers(0, spec.vocab_size, size=n)]

    batch = len(_BATCHES[kind])
    buf = CacheBuffer(batch, spec.max_len, spec)
    prompts = [ids(n) for n in _BATCHES[kind]]
    for i, p in enumerate(prompts):
        toy.forward(p, len(p), buf.slot(i))
        buf.write_back(i, p, 0, len(p))
    for bl in (int(n) for n in rng.integers(1, 18, size=12)):
        ctxs = [p + ids(bl) for p in prompts]
        fresh = copy.deepcopy(buf)
        with monkeypatch.context() as m:
            m.setattr(toy_module, "_hidden_triangle", toy_module._hidden_triangle.__wrapped__)
            first = toy.forward_batch(ctxs, [bl] * batch, [fresh.slot(i) for i in range(batch)])
        rows = toy.forward_batch(ctxs, [bl] * batch, [buf.slot(i) for i in range(batch)])
        assert rows.tobytes() == first.tobytes(), bl
        # Commit a few positions, the same count for every instance of an equal batch.
        commits = rng.integers(0, min(bl, 4) + 1, size=1 if kind == "equal-batch" else batch)
        for i, k in enumerate(np.broadcast_to(commits, batch)):
            buf.write_back(i, ctxs[i], len(prompts[i]), int(k))
            prompts[i] = ctxs[i][: len(prompts[i]) + int(k)]


def test_cached_mask_is_read_only_and_states_the_rule():
    mask = toy_module._hidden_triangle(6)
    assert mask is toy_module._hidden_triangle(6)
    assert np.array_equal(mask, np.arange(6) > np.arange(6)[:, None])
    with pytest.raises(ValueError):
        mask[0, 1] = False


def _benchmark_toy(monkeypatch):
    """The toy ``decodebench/workloads.py`` decodes with."""
    bench_dir = Path(__file__).resolve().parents[1] / "decodebench"
    monkeypatch.syspath_prepend(str(bench_dir))
    spec = importlib.util.spec_from_file_location("bench_workloads", bench_dir / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return make_toy_transformer(workloads.TOY_MODEL_SEED, default_toy_spec(**workloads.TOY_SPEC))


def test_score_bound_holds_and_keeps_the_row_max_off(monkeypatch):
    toys = [make_toy_transformer(seed, spec) for seed, spec in SPECS.values()]
    for toy, (seed, spec) in zip(toys, SPECS.values()):
        # A bound: at least the exact sigma_max product of some head.
        d, hd, ref = spec.model_dim, spec.head_dim, ToyReference(seed, spec)
        exact = max(
            np.linalg.norm(layer["wq"][:, h * hd : (h + 1) * hd], 2)
            * np.linalg.norm(layer["wk"][:, h * hd : (h + 1) * hd], 2)
            * d / np.sqrt(hd)
            for layer in ref.layers
            for h in range(spec.n_heads)
        )
        assert exact <= toy.score_bound
    # The tests' and the benchmark's toys run softmax without the row max.
    for toy in toys[:1] + [_benchmark_toy(monkeypatch)]:
        assert toy.score_bound < toy_module.EXP_LIMIT
