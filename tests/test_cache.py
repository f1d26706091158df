import numpy as np
import pytest

from glimpse.backends import BackendSpec, make_counting_backend, make_toy_transformer
from glimpse.cache import CacheBuffer, plan_input_padding, plan_kv_padding
from glimpse.engine import DecodeConfig, decode
from glimpse.errors import CapacityError, ConfigError, ContractError

from conftest import as_ar, small_toy_spec


@pytest.fixture(scope="module")
def toy():
    return make_toy_transformer(5, small_toy_spec())


def test_alloc_initial_state(toy):
    cache = CacheBuffer(2, 128, toy.spec)
    assert cache.valid_len.tolist() == [0, 0]
    assert len(cache.keys) == toy.spec.n_layers
    heads, hd = toy.spec.n_heads, toy.spec.head_dim
    assert [k.shape for k in cache.keys] == [(2, heads, hd, 128)] * toy.spec.n_layers
    assert [v.shape for v in cache.values] == [(2, heads, 128, hd)] * toy.spec.n_layers


def test_alloc_rejects_bad_sizes(toy):
    with pytest.raises(ConfigError):
        CacheBuffer(0, 128, toy.spec)
    with pytest.raises(ConfigError):
        CacheBuffer(2, 0, toy.spec)


def test_alloc_refuses_a_spec_without_layers():
    # a backend has K/V to cache exactly when it has layers
    with pytest.raises(ConfigError):
        CacheBuffer(1, 8, make_counting_backend(10).spec)


def test_toy_takes_a_hand_built_spec():
    # the shape alone makes a transformer: there are no capability flags
    spec = BackendSpec(
        vocab_size=32, pad_id=30, eos_id=31, n_layers=1, n_heads=2, model_dim=16, max_len=64
    )
    toy = make_toy_transformer(3, spec)
    cfg = DecodeConfig(window_len=2, max_new_tokens=10)
    result = decode([[4, 5]], toy, cfg)[0]
    assert result.exact_rationale == decode([[4, 5]], toy, as_ar(cfg))[0].exact_rationale
    assert toy.forward([4, 5, 6], 2).shape == (2, 32)


def test_plan_kv_padding_masks_shorter_instances():
    plan = plan_kv_padding([8, 11])
    assert plan.target_len == 11
    assert plan.pad_counts == [3, 0]


def test_plan_kv_padding_noop_cases():
    assert plan_kv_padding([7, 7]).pad_counts == [0, 0]
    assert plan_kv_padding([5]).pad_counts == [0]


def test_plan_input_padding_widths():
    plan = plan_input_padding([4, 2])
    assert plan.target_len == 4
    assert plan.pad_counts == [0, 2]


def test_plan_input_padding_identity():
    plan = plan_input_padding([2, 2])
    assert plan.pad_counts == [0, 0]


def test_write_back_advances_valid_len(toy):
    cache = CacheBuffer(1, 32, toy.spec)
    ctx = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
    toy.forward(ctx[:8], 1, cache.slot(0))
    cache.write_back(0, ctx, 0, 8)
    assert cache.valid_len.tolist() == [8]
    # contiguity: writing 3 more positions lands at valid 11
    toy.forward(ctx, 3, cache.slot(0))
    cache.write_back(0, ctx, 8, 3)
    assert cache.valid_len.tolist() == [11]
    assert cache.tokens[0, :11].tolist() == ctx


def test_write_back_rejects_gap_and_overlap(toy):
    cache = CacheBuffer(1, 32, toy.spec)
    ctx = [1, 2, 3, 4]
    toy.forward(ctx, 1, cache.slot(0))
    with pytest.raises(ContractError):
        cache.write_back(0, ctx, 1, 3)  # gap
    cache.write_back(0, ctx, 0, 4)
    with pytest.raises(ContractError):
        cache.write_back(0, ctx, 2, 2)  # overlap


def test_write_back_refuses_positions_past_the_context(toy):
    # the committed tokens are read from the context, so it must hold them
    cache = CacheBuffer(1, 32, toy.spec)
    ctx = [1, 2, 3, 4, 5]
    toy.forward(ctx, 1, cache.slot(0))
    cache.write_back(0, ctx, 0, 2)
    with pytest.raises(ContractError):
        cache.write_back(0, ctx, 2, 4)
    assert cache.valid_len.tolist() == [2]
    assert cache.tokens[0].tolist() == [1, 2] + [0] * 30


def test_capacity_error_not_silent_wrap(toy):
    cache = CacheBuffer(1, 6, toy.spec)
    ctx = [1, 2, 3, 4, 5, 6, 7]
    toy.forward(ctx[:5], 1, cache.slot(0))
    cache.write_back(0, ctx, 0, 5)
    with pytest.raises(CapacityError):
        toy.forward(ctx, 2, cache.slot(0))
    with pytest.raises(CapacityError):
        cache.write_back(0, ctx, 5, 2)
    assert cache.valid_len.tolist() == [5]


def test_no_reallocation_during_decode(toy, monkeypatch):
    # the engine allocates one cache per run (the answer phase extends the
    # rationale's); storage arrays never change identity
    import glimpse.engine as engine_mod

    captured = []
    original = engine_mod.CacheBuffer

    def spy(batch, max_len, spec):
        buf = original(batch, max_len, spec)
        captured.append((buf, [id(a) for a in buf.keys + buf.values]))
        return buf

    monkeypatch.setattr(engine_mod, "CacheBuffer", spy)
    cfg = DecodeConfig(window_len=4, max_new_tokens=24, answer_trigger=(4, 5))
    for run_cfg, answer in ((cfg, False), (as_ar(cfg), False), (cfg, True)):
        captured.clear()
        decode([[1, 2, 3]], toy, run_cfg, answer=answer)
        [(buf, ids)] = captured
        assert [id(a) for a in buf.keys + buf.values] == ids


def test_cache_sound_after_mixed_iterations(toy):
    # dozens of engine iterations with uneven commits, then compare against
    # a from-scratch forward on the full exact context
    cfg = DecodeConfig(window_len=3, max_new_tokens=50)
    total_iters = 0
    for prompt in ([9, 4, 7], [1, 2], [30, 31, 32, 33]):
        result = decode([prompt], toy, cfg)[0]
        total_iters += result.trace.iterations
        ctx = prompt + result.exact_rationale
        fresh = toy.forward(ctx, 1)
        cache = CacheBuffer(1, 128, toy.spec)
        toy.forward(ctx[:-1], 1, cache.slot(0))
        cache.write_back(0, ctx, 0, len(ctx) - 1)
        warm = toy.forward(ctx, 1, cache.slot(0))
        assert np.abs(fresh - warm).max() < 1e-6
    assert total_iters >= 20


def test_batched_forward_matches_solo(toy):
    # mixed valid lengths (cache padding) and mixed block widths (input padding)
    rng = np.random.default_rng(3)
    contexts = [
        [int(t) for t in rng.integers(0, 64, size=n)] for n in (5, 9, 12, 7)
    ]
    cache = CacheBuffer(len(contexts), 64, toy.spec)
    cached_lens = [2, 0, 7, 3]
    for i, (ctx, cl) in enumerate(zip(contexts, cached_lens)):
        if cl:
            toy.forward(ctx[:cl], 1, cache.slot(i))
            cache.write_back(i, ctx, 0, cl)
    block_lens = [2, 4, 3, 1]
    slots = [cache.slot(i) for i in range(len(contexts))]
    batched = toy.forward_batch(contexts, block_lens, slots)
    for i, (ctx, bl) in enumerate(zip(contexts, block_lens)):
        solo = toy.forward(ctx, bl, slots[i])
        assert np.abs(batched[i] - solo).max() < 1e-6

    # one query per instance at equal valid lengths, as in a batched AR
    # step: every query sees every key, and the call builds no mask
    contexts = [[int(t) for t in rng.integers(0, 64, size=7)] for _ in range(3)]
    cache = CacheBuffer(len(contexts), 64, toy.spec)
    for i, ctx in enumerate(contexts):
        toy.forward(ctx[:6], 1, cache.slot(i))
        cache.write_back(i, ctx, 0, 6)
    slots = [cache.slot(i) for i in range(len(contexts))]
    batched = toy.forward_batch(contexts, [1] * len(contexts), slots)
    for i, ctx in enumerate(contexts):
        assert np.abs(batched[i] - toy.forward(ctx, 1)).max() < 1e-6


def _committed_state(cache, instance):
    v = int(cache.valid_len[instance])
    return (
        v,
        cache.tokens[instance, :v].copy(),
        [k[instance, ..., :v].copy() for k in cache.keys]
        + [val[instance, :, :v].copy() for val in cache.values],
    )


def _assert_same_state(a, b):
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])
    assert all(np.array_equal(x, y) for x, y in zip(a[2], b[2]))


def test_write_ahead_scratch_never_leaks(toy):
    # a rejected window leaves scratch rows past the commit pointer; the next
    # forward on the same slot must overwrite them and see only committed rows
    rng = np.random.default_rng(11)
    for _ in range(10):
        prefix = [int(t) for t in rng.integers(0, 62, size=int(rng.integers(2, 12)))]
        cache = CacheBuffer(1, 64, toy.spec)
        toy.forward(prefix, 1, cache.slot(0))
        cache.write_back(0, prefix, 0, len(prefix) - 1)
        rejected = prefix + [int(t) for t in rng.integers(0, 62, size=6)]
        accepted = prefix + [int(t) for t in rng.integers(0, 62, size=3)]
        for ctx in (rejected, accepted):
            before = _committed_state(cache, 0)
            warm = toy.forward(ctx, len(ctx) - len(prefix) + 1, cache.slot(0))
            _assert_same_state(before, _committed_state(cache, 0))
        fresh = toy.forward(accepted, len(accepted) - len(prefix) + 1)
        assert np.abs(fresh - warm).max() < 1e-6


def test_forward_writes_ahead_into_the_cache(toy):
    # a forward on a slot writes its K/V into the slot's rows past the valid
    # length, so a commit only advances the pointer
    cache = CacheBuffer(2, 32, toy.spec)
    ctx = [5, 6, 7, 8, 9]
    toy.forward(ctx[:3], 1, cache.slot(1))
    cache.write_back(1, ctx, 0, 3)
    toy.forward(ctx, 2, cache.slot(1))
    # reference: the whole context in one call on a fresh cache's slot
    ref = CacheBuffer(1, 32, toy.spec)
    toy.forward(ctx, 5, ref.slot(0))
    for keys, values, ref_keys, ref_values in zip(cache.keys, cache.values, ref.keys, ref.values):
        assert np.abs(keys[1, ..., 3:5] - ref_keys[0, ..., 3:5]).max() < 1e-9
        assert np.abs(values[1, :, 3:5] - ref_values[0, :, 3:5]).max() < 1e-9
    kv_bytes = [a.tobytes() for a in cache.keys + cache.values]
    cache.write_back(1, ctx, 3, 2)
    assert cache.valid_len.tolist() == [0, 5]
    assert cache.tokens[1, :5].tolist() == ctx
    assert [a.tobytes() for a in cache.keys + cache.values] == kv_bytes


def test_batched_forward_matches_solo_on_any_slot_layout(toy):
    # instances out of buffer order (a gathered read) reproduce the solo outputs
    rng = np.random.default_rng(4)
    contexts = [[int(t) for t in rng.integers(0, 62, size=n)] for n in (6, 11, 8)]
    cached_lens = [3, 9, 5]
    block_lens = [3, 2, 1]
    cache = CacheBuffer(3, 48, toy.spec)
    slots = [cache.slot(2), cache.slot(0), cache.slot(1)]
    for slot, ctx, cl in zip(slots, contexts, cached_lens):
        toy.forward(ctx[:cl], 1, slot)
        cache.write_back(slot.instance, ctx, 0, cl)
    batched = toy.forward_batch(contexts, block_lens, slots)
    for out, ctx, bl in zip(batched, contexts, block_lens):
        fresh = toy.forward(ctx, bl)
        assert np.abs(out - fresh).max() < 1e-6


def test_forward_refuses_slots_it_cannot_attend_in(toy):
    # the slots of one call must be distinct instances of one buffer: no
    # second buffer, no repeated instance, no mix of slots and None
    cache, other = CacheBuffer(2, 16, toy.spec), CacheBuffer(1, 16, toy.spec)
    contexts = [[1, 2, 3], [4, 5]]
    for slots in (
        [cache.slot(0), other.slot(0)],
        [cache.slot(1), cache.slot(1)],
        [cache.slot(0), None],
        [None, cache.slot(0)],
    ):
        with pytest.raises(ContractError):
            toy.forward_batch(contexts, [1, 1], slots)


def test_block_past_capacity_refused_before_any_write(toy):
    ctx = [3, 1, 4, 1, 5, 9, 2, 6]
    cache = CacheBuffer(2, 8, toy.spec)
    for i, cached in enumerate((6, 2)):
        toy.forward(ctx[:cached], 1, cache.slot(i))
        cache.write_back(i, ctx, 0, cached)
    before = [_committed_state(cache, i) for i in range(2)]
    slots = [cache.slot(0), cache.slot(1)]
    # each block fits on its own, but the padded block writes rows 6..9
    # for instance 0
    toy.forward(ctx[:7], 1, slots[0])
    toy.forward(ctx[:6], 4, slots[1])
    with pytest.raises(CapacityError):
        toy.forward_batch([ctx[:7], ctx[:6]], [1, 4], slots)
    with pytest.raises(CapacityError):
        toy.forward(ctx + [5], 4, slots[1])
    assert cache.valid_len.tolist() == [6, 2]
    for i in range(2):
        _assert_same_state(before[i], _committed_state(cache, i))


def test_cached_work_quadratic_not_cubic(monkeypatch):
    # count attention score reads (query x key pairs summed over layers) from
    # the calls made, not wall clock: a call computes n = len(context) -
    # valid_len new positions per instance, each reading valid_len + n keys
    from glimpse.backends.base import HistoryMask
    from glimpse.backends.toy import ToyTransformer

    reads = [0]
    original = ToyTransformer.forward_batch

    def spy(self, contexts, block_lens, slots=None):
        for ctx, slot in zip(contexts, slots or [None] * len(contexts)):
            v = slot.valid_len if slot is not None else 0
            n = len(ctx) - v
            reads[0] += len(self.layers) * n * (v + n)
        return original(self, contexts, block_lens, slots)

    monkeypatch.setattr(ToyTransformer, "forward_batch", spy)

    def decode_reads(n_tokens, cached):
        backend = make_toy_transformer(3, small_toy_spec(max_len=512))
        cfg = DecodeConfig(window_len=0, max_new_tokens=n_tokens)
        reads[0] = 0
        if cached:
            decode([[1]], backend, cfg)
        else:
            # same decode, cache disabled: every step recomputes the context
            seq = [1]
            mask = HistoryMask(backend.spec.vocab_size)
            mask.extend(seq)
            for _ in range(n_tokens):
                out = backend.forward(seq, 1)
                tok = mask.pick(out, cfg.repetition_penalty)[0]
                seq.append(tok)
                mask.extend([tok])
        return reads[0]

    small, big = 24, 48
    for cached, lo, hi in ((True, 3.0, 5.5), (False, 5.5, 11.0)):
        growth = decode_reads(big, cached) / decode_reads(small, cached)
        # doubling n should ~4x quadratic work and ~8x cubic work
        assert lo <= growth <= hi, (cached, growth)
    assert decode_reads(big, True) < decode_reads(big, False) / 4


def test_batched_forward_runs_row_wise_layers_over_real_rows_only(toy, monkeypatch):
    # Uneven blocks pad only inside attention: QKV, MLP and head see the
    # instances' real rows packed together, sum n_b rows, not batch x n_max.
    from glimpse.backends.toy import ToyTransformer

    rows = []
    original = ToyTransformer._normed_matmul

    def spy(self, x, w):
        rows.append(x.size // x.shape[-1])
        return original(self, x, w)

    monkeypatch.setattr(ToyTransformer, "_normed_matmul", spy)
    contexts = [[1, 2, 3, 4, 5, 6], [7, 8], [9, 10, 11, 12]]
    cache = CacheBuffer(3, 16, toy.spec)
    for i, cached in enumerate((2, 0, 1)):
        if cached:
            toy.forward(contexts[i][:cached], 1, cache.slot(i))
            cache.write_back(i, contexts[i], 0, cached)
    slots = [cache.slot(i) for i in range(3)]
    rows.clear()
    batched = toy.forward_batch(contexts, [2, 1, 3], slots)
    # blocks of 4, 2 and 3 rows: 9 real rows against 3 x 4 padded ones
    assert rows == [9] * (2 * len(toy.layers) + 1)
    for out, ctx, bl in zip(batched, contexts, (2, 1, 3)):
        assert np.abs(out - toy.forward(ctx, bl)).max() < 1e-6
