import numpy as np
import pytest

from glimpse.backends import BackendSpec, make_counting_backend, make_toy_transformer
from glimpse.cache import alloc, plan_input_padding, plan_kv_padding
from glimpse.engine import DecodeConfig, ar_baseline, decode_with_answer, run_rationale
from glimpse.errors import CapacityError, ConfigError, ContractError

from conftest import small_toy_spec


@pytest.fixture(scope="module")
def toy():
    return make_toy_transformer(5, small_toy_spec())


def test_alloc_initial_state(toy):
    cache = alloc(2, 128, toy.spec)
    assert cache.valid_len.tolist() == [0, 0]
    assert len(cache.keys) == toy.spec.n_layers
    assert cache.keys[0].shape == (2, 128, toy.spec.n_heads, toy.spec.head_dim)


def test_alloc_rejects_bad_sizes(toy):
    with pytest.raises(ConfigError):
        alloc(0, 128, toy.spec)
    with pytest.raises(ConfigError):
        alloc(2, 0, toy.spec)


def test_alloc_refuses_a_spec_without_layers():
    # a backend has K/V to cache exactly when it has layers
    with pytest.raises(ConfigError):
        alloc(1, 8, make_counting_backend(10).spec)


def test_toy_takes_a_hand_built_spec():
    # the shape alone makes a transformer: there are no capability flags
    spec = BackendSpec(
        vocab_size=32, pad_id=30, eos_id=31, n_layers=1, n_heads=2, model_dim=16, max_len=64
    )
    toy = make_toy_transformer(3, spec)
    cfg = DecodeConfig(window_len=2, max_new_tokens=10)
    result = run_rationale([4, 5], toy, cfg)
    assert result.exact_rationale == ar_baseline([4, 5], toy, cfg).exact_rationale
    assert toy.forward([4, 5, 6], 2).attention_summary.shape == (2, 3)


def test_plan_kv_padding_masks_shorter_instances():
    plan = plan_kv_padding([8, 11])
    assert plan.target_len == 11
    assert plan.pad_counts == [3, 0]


def test_plan_kv_padding_noop_cases():
    assert plan_kv_padding([7, 7]).pad_counts == [0, 0]
    assert plan_kv_padding([5]).pad_counts == [0]


def test_plan_input_padding_widths():
    plan, padded = plan_input_padding([[1, 2, 3, 4], [5, 6]], pad_id=0)
    assert plan.target_len == 4
    assert plan.pad_counts == [0, 2]
    assert padded.shape == (2, 4)
    assert padded[1].tolist() == [5, 6, 0, 0]


def test_plan_input_padding_identity():
    plan, padded = plan_input_padding([[1, 2], [3, 4]], pad_id=0)
    assert plan.pad_counts == [0, 0]
    assert padded.tolist() == [[1, 2], [3, 4]]


def test_write_back_advances_valid_len(toy):
    cache = alloc(1, 32, toy.spec)
    step = toy.forward([1, 2, 3, 4, 5, 6, 7, 8], 1)
    cache.write_back(0, step.new_kv, 0, 8, [1, 2, 3, 4, 5, 6, 7, 8])
    assert cache.valid_len.tolist() == [8]
    # contiguity: writing 3 more positions lands at valid 11
    step2 = toy.forward([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 3, cache.slot(0))
    cache.write_back(0, step2.new_kv, 8, 3, [9, 10, 11])
    assert cache.valid_len.tolist() == [11]


def test_write_back_rejects_gap_and_overlap(toy):
    cache = alloc(1, 32, toy.spec)
    step = toy.forward([1, 2, 3, 4], 1)
    with pytest.raises(ContractError):
        cache.write_back(0, step.new_kv, 1, 3, [2, 3, 4])  # gap
    cache.write_back(0, step.new_kv, 0, 4, [1, 2, 3, 4])
    with pytest.raises(ContractError):
        cache.write_back(0, step.new_kv, 2, 2, [3, 4])  # overlap


def test_capacity_error_not_silent_wrap(toy):
    cache = alloc(1, 6, toy.spec)
    step = toy.forward([1, 2, 3, 4, 5], 1)
    cache.write_back(0, step.new_kv, 0, 5, [1, 2, 3, 4, 5])
    with pytest.raises(CapacityError):
        toy.forward([1, 2, 3, 4, 5, 6, 7], 2, cache.slot(0))
    with pytest.raises(CapacityError):
        cache.write_back(0, step.new_kv, 5, 2, [6, 7])
    assert cache.valid_len.tolist() == [5]


def test_no_reallocation_during_decode(toy, monkeypatch):
    # the engine allocates one cache per run (the answer phase extends the
    # rationale's); storage arrays never change identity
    import glimpse.engine as engine_mod

    captured = []
    original_alloc = engine_mod.alloc

    def spy(batch, max_len, spec):
        buf = original_alloc(batch, max_len, spec)
        captured.append((buf, [id(a) for a in buf.keys + buf.values]))
        return buf

    monkeypatch.setattr(engine_mod, "alloc", spy)
    cfg = DecodeConfig(window_len=4, max_new_tokens=24, answer_trigger=(4, 5))
    for decode in (run_rationale, ar_baseline, decode_with_answer):
        captured.clear()
        decode([1, 2, 3], toy, cfg)
        [(buf, ids)] = captured
        assert [id(a) for a in buf.keys + buf.values] == ids


def test_cache_sound_after_mixed_iterations(toy):
    # dozens of engine iterations with uneven commits, then compare against
    # a from-scratch forward on the full exact context
    cfg = DecodeConfig(window_len=3, max_new_tokens=50)
    total_iters = 0
    for prompt in ([9, 4, 7], [1, 2], [30, 31, 32, 33]):
        result = run_rationale(prompt, toy, cfg)
        total_iters += result.trace.iterations
        ctx = prompt + result.exact_rationale
        fresh = toy.forward(ctx, 1)
        cache = alloc(1, 128, toy.spec)
        pre = toy.forward(ctx[:-1], 1, cache.slot(0))
        cache.write_back(0, pre.new_kv, 0, len(ctx) - 1, ctx[:-1])
        warm = toy.forward(ctx, 1, cache.slot(0))
        assert np.abs(fresh.rows - warm.rows).max() < 1e-6
    assert total_iters >= 20


def test_batched_forward_matches_solo(toy):
    # mixed valid lengths (cache padding) and mixed block widths (input padding)
    rng = np.random.default_rng(3)
    contexts = [
        [int(t) for t in rng.integers(0, 64, size=n)] for n in (5, 9, 12, 7)
    ]
    cache = alloc(len(contexts), 64, toy.spec)
    cached_lens = [2, 0, 7, 3]
    for i, (ctx, cl) in enumerate(zip(contexts, cached_lens)):
        if cl:
            pre = toy.forward(ctx[:cl], 1, cache.slot(i))
            cache.write_back(i, pre.new_kv, 0, cl, ctx[:cl])
    block_lens = [2, 4, 3, 1]
    slots = [cache.slot(i) for i in range(len(contexts))]
    batched = toy.forward_batch(contexts, block_lens, slots)
    for i, (ctx, bl) in enumerate(zip(contexts, block_lens)):
        solo = toy.forward(ctx, bl, slots[i])
        assert np.abs(batched[i].rows - solo.rows).max() < 1e-6
        assert np.abs(
            batched[i].attention_summary - solo.attention_summary
        ).max() < 1e-6


def _committed_state(cache, instance):
    v = int(cache.valid_len[instance])
    return (
        v,
        cache.tokens[instance, :v].copy(),
        [k[instance, :v].copy() for k in cache.keys + cache.values],
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
        cache = alloc(1, 64, toy.spec)
        pre = toy.forward(prefix, 1, cache.slot(0))
        cache.write_back(0, pre.new_kv, 0, len(prefix) - 1, prefix[:-1])
        rejected = prefix + [int(t) for t in rng.integers(0, 62, size=6)]
        accepted = prefix + [int(t) for t in rng.integers(0, 62, size=3)]
        for ctx in (rejected, accepted):
            before = _committed_state(cache, 0)
            warm = toy.forward(ctx, len(ctx) - len(prefix) + 1, cache.slot(0))
            _assert_same_state(before, _committed_state(cache, 0))
        fresh = toy.forward(accepted, len(accepted) - len(prefix) + 1)
        assert np.abs(fresh.rows - warm.rows).max() < 1e-6
        assert np.abs(fresh.attention_summary - warm.attention_summary).max() < 1e-6


def test_forward_writes_ahead_into_the_cache(toy):
    # new K/V are views of the slot's rows past its valid length, so a
    # commit advances the pointer without a copy
    cache = alloc(2, 32, toy.spec)
    ctx = [5, 6, 7, 8, 9]
    pre = toy.forward(ctx[:3], 1, cache.slot(1))
    cache.write_back(1, pre.new_kv, 0, 3, ctx[:3])
    step = toy.forward(ctx, 2, cache.slot(1))
    for li, (k, v) in enumerate(step.new_kv):
        assert k.shape == (2, toy.spec.n_heads, toy.spec.head_dim)
        assert np.shares_memory(k, cache.keys[li][1, 3:5])
        assert np.shares_memory(v, cache.values[li][1, 3:5])
    cache.write_back(1, step.new_kv, 3, 2, ctx[3:])
    fresh = toy.forward(ctx, 5)
    for li, (k, v) in enumerate(fresh.new_kv):
        assert np.abs(cache.keys[li][1, :5] - k).max() < 1e-9
        assert np.abs(cache.values[li][1, :5] - v).max() < 1e-9


def test_batched_forward_matches_solo_on_any_slot_layout(toy):
    # instances out of buffer order (a gathered read) reproduce the solo outputs
    rng = np.random.default_rng(4)
    contexts = [[int(t) for t in rng.integers(0, 62, size=n)] for n in (6, 11, 8)]
    cached_lens = [3, 9, 5]
    block_lens = [3, 2, 1]
    cache = alloc(3, 48, toy.spec)
    slots = [cache.slot(2), cache.slot(0), cache.slot(1)]
    for slot, ctx, cl in zip(slots, contexts, cached_lens):
        pre = toy.forward(ctx[:cl], 1, slot)
        cache.write_back(slot.instance, pre.new_kv, 0, cl, ctx[:cl])
    batched = toy.forward_batch(contexts, block_lens, slots)
    for out, ctx, bl in zip(batched, contexts, block_lens):
        fresh = toy.forward(ctx, bl)
        assert np.abs(out.rows - fresh.rows).max() < 1e-6
        assert np.abs(out.attention_summary - fresh.attention_summary).max() < 1e-6


def test_forward_refuses_slots_it_cannot_attend_in(toy):
    # the slots of one call must be distinct instances of one buffer: no
    # second buffer, no repeated instance, no mix of slots and None
    cache, other = alloc(2, 16, toy.spec), alloc(1, 16, toy.spec)
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
    cache = alloc(2, 8, toy.spec)
    for i, cached in enumerate((6, 2)):
        pre = toy.forward(ctx[:cached], 1, cache.slot(i))
        cache.write_back(i, pre.new_kv, 0, cached, ctx[:cached])
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


def test_cached_work_quadratic_not_cubic():
    # count attention score reads (instrumented backend), not wall clock
    from glimpse.backends import make_toy_transformer

    def decode_reads(n_tokens, cached):
        backend = make_toy_transformer(3, small_toy_spec(max_len=512))
        cfg = DecodeConfig(window_len=0, max_new_tokens=n_tokens)
        if cached:
            run_rationale([1], backend, cfg)
        else:
            # same decode, cache disabled: every step recomputes the context
            seq = [1]
            from glimpse.backends.base import HistoryMask

            mask = HistoryMask(backend.spec.vocab_size)
            mask.extend(seq)
            for _ in range(n_tokens):
                out = backend.forward(seq, 1)
                tok = mask.pick(out.rows, cfg.repetition_penalty)[0]
                seq.append(tok)
                mask.extend([tok])
        return backend.score_reads

    small, big = 24, 48
    for cached, lo, hi in ((True, 3.0, 5.5), (False, 5.5, 11.0)):
        growth = decode_reads(big, cached) / decode_reads(small, cached)
        # doubling n should ~4x quadratic work and ~8x cubic work
        assert lo <= growth <= hi, (cached, growth)
    assert decode_reads(big, True) < decode_reads(big, False) / 4
