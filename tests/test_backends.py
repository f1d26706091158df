import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glimpse.backends import (
    NgramBackend,
    make_counting_backend,
    make_ngram_backend,
    make_scripted_backend,
    make_toy_transformer,
    RetrievalScript,
)
from glimpse.backends.scripted import (
    ANS_BASE,
    EOS,
    PAD,
    SHARE_BASE,
    TRIGGER,
    UNK,
)
from glimpse.backends.base import HistoryMask, check_forward_args, penalized_scores
from glimpse.cache import CacheBuffer
from glimpse.engine import DecodeConfig
from glimpse.errors import (
    CacheMismatchError,
    CapacityError,
    ConfigError,
    ContractError,
    TableParseError,
)

from conftest import random_ngram_backend, small_toy_spec
from oracles import penalized_argmax


# ----------------------------------------------------------------------
# greedy picks: HistoryMask.pick
# ----------------------------------------------------------------------


def pick_one(row, history, penalty):
    """The single-row pick of ``row`` under ``history``."""
    mask = HistoryMask(len(row))
    mask.extend(history)
    return mask.pick(np.array([row]), penalty)[0]


def test_greedy_plain_argmax():
    assert pick_one([2.0, 1.5], [], 1.2) == 0


def test_greedy_penalty_keeps_leader():
    # 2.0 / 1.2 = 1.667 still beats 1.5
    assert pick_one([2.0, 1.5], [0], 1.2) == 0


def test_greedy_tie_breaks_to_lowest_id():
    assert pick_one([1.0, 1.0, 0.5], [], 1.0) == 0


def test_greedy_penalty_can_flip_argmax():
    assert pick_one([1.5, 1.4], [0], 1.2) == 1


def test_greedy_negative_scores_multiplied():
    # -1 * 2 = -2 ties with -2: lowest id wins
    assert pick_one([-1.0, -2.0], [0], 2.0) == 0


def test_greedy_rejects_bad_inputs():
    # a penalty below 1 never reaches a pick: the config refuses it
    with pytest.raises(ConfigError):
        DecodeConfig(window_len=0, repetition_penalty=0.5)
    # two score rows are conditioned on one window token, and none is given
    with pytest.raises(ContractError):
        HistoryMask(2).pick(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.2)


def test_greedy_history_multiplicity_irrelevant():
    row = [3.0, 2.0]
    assert pick_one(row, [0], 1.2) == pick_one(row, [0, 0, 0], 1.2)


_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.2, -1.2, 2.0, -2.0, 2.4, -2.4]),
    st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
)


def _penalized_loop(row, mask, penalty):
    """Elementwise reference: divide marked positives, multiply marked negatives."""
    out = [float(x) for x in row]
    for tok, marked in enumerate(mask):
        if marked and out[tok] > 0:
            out[tok] /= penalty
        elif marked and out[tok] < 0:
            out[tok] *= penalty
    return out


@settings(max_examples=400, deadline=None)
@given(
    row=st.lists(_SCORES, min_size=1, max_size=24),
    penalty=st.sampled_from([1.0, 1.2, 1.3, 2.0]),
    data=st.data(),
)
def test_penalized_pick_matches_oracle(row, penalty, data):
    # The sampled scores make zeros and ties common, and a penalty can make
    # new ties (2.4 / 2.0 == 1.2) that must still break to the lowest id.
    vocab = len(row)
    mask = data.draw(st.lists(st.booleans(), min_size=vocab, max_size=vocab))
    history = [tok for tok, marked in enumerate(mask) if marked]
    scores = np.asarray(row, dtype=np.float64)
    adjusted = penalized_scores(scores, np.asarray(mask), penalty)
    reference = _penalized_loop(row, mask, penalty)
    assert adjusted.tolist() == reference
    assert np.array_equal(np.signbit(adjusted), np.signbit(reference))
    assert pick_one(scores, history, penalty) == penalized_argmax(row, history, penalty)

    # A block picked at once: row j is penalized under history + window[:j].
    n = data.draw(st.integers(1, 9))
    rows = [row] + data.draw(
        st.lists(st.lists(_SCORES, min_size=vocab, max_size=vocab), min_size=n - 1, max_size=n - 1)
    )
    # Windows repeat tokens and hold PAD (the last id) and tokens already in the history.
    pad = vocab - 1
    token = st.one_of(st.just(pad), st.sampled_from(history or [pad]), st.integers(0, min(vocab, 3) - 1))
    window = data.draw(st.lists(token, min_size=n - 1, max_size=n - 1))
    hist = HistoryMask(vocab)
    hist.extend(history)
    block = np.asarray(rows, dtype=np.float64)
    picks = hist.pick(block, penalty, window)
    assert picks == [penalized_argmax(rows[j], history + window[:j], penalty) for j in range(n)]
    # Rows score the block's last positions: without row 0, row j still sees window[:j + 1].
    assert hist.pick(block[1:], penalty, window) == picks[1:]
    assert hist.mask.tolist() == mask
    if n > 1:
        with pytest.raises(ContractError):
            hist.pick(block, penalty, window[:-1])


# ----------------------------------------------------------------------
# counting backend
# ----------------------------------------------------------------------


def test_counting_next_digit(counting_backend):
    assert counting_backend.forward([3], 1)[0].argmax() == 4


def test_counting_wraps(counting_backend):
    assert counting_backend.forward([9], 1)[0].argmax() == 0


def test_counting_pad_preserves_position(counting_backend):
    pad = counting_backend.spec.pad_id
    # digits would be 0,1,2 at positions 0,1,2 -> position 3 is 3
    assert counting_backend.forward([0, pad, pad], 1)[0].argmax() == 3


def test_counting_block_rows(counting_backend):
    pad = counting_backend.spec.pad_id
    out = counting_backend.forward([5, pad, pad], 3)
    assert [r.argmax() for r in out] == [6, 7, 8]


def test_counting_deterministic(counting_backend):
    a = counting_backend.forward([1, 2, 3], 2)
    b = counting_backend.forward([1, 2, 3], 2)
    assert np.array_equal(a, b)


def test_counting_rejects_oversized_block(counting_backend):
    with pytest.raises(ContractError):
        counting_backend.forward([1], 2)


def _counting_closed_form(ctx, block_len, modulus):
    """Next digit after each block position, by a backwards scan in Python."""
    out = []
    for end in range(len(ctx) - block_len, len(ctx)):
        last = next((p for p in range(end, -1, -1) if ctx[p] < modulus), None)
        out.append(0 if last is None else (ctx[last] + end + 1 - last) % modulus)
    return out


def _counting_contexts(pad, eos):
    rng = np.random.default_rng(7)
    yield [pad] * 50  # no digit at all
    yield [eos]
    yield [pad, eos] * 40 + [pad] * 9
    yield [7] + [pad] * 100  # a digit only at position 0
    yield [7] + [eos] * 37 + [pad] * 60
    yield [3, 4] + [pad] * 200 + [5] + [eos] * 70  # runs far longer than any window
    for _ in range(40):
        n = int(rng.integers(1, 90))
        p_digit = float(rng.choice([0.02, 0.3, 0.9]))
        yield [
            int(rng.integers(0, 10)) if rng.random() < p_digit else int(rng.choice([pad, eos]))
            for _ in range(n)
        ]


def test_counting_tail_forward_matches_closed_form(counting_backend):
    spec = counting_backend.spec
    for ctx in _counting_contexts(spec.pad_id, spec.eos_id):
        for block_len in sorted({1, 2, 8, len(ctx)} & set(range(1, len(ctx) + 1))):
            rows = counting_backend.forward(ctx, block_len)
            assert rows.shape == (block_len, spec.vocab_size)
            assert (rows.sum(axis=1) == 1.0).all()
            want = _counting_closed_form(ctx, block_len, 10)
            assert rows.argmax(axis=1).tolist() == want, (ctx, block_len)
            # The engine hands the backend an int64 view; same rows.
            assert np.array_equal(counting_backend.forward(np.asarray(ctx), block_len), rows)


@st.composite
def _counting_cases(draw):
    """A modulus, a context of digit and filler runs, and a block length.

    Filler runs (PAD and EOS) reach past 16 tokens, the first chunk of the
    backwards scan, so its doubling steps run.
    """
    m = draw(st.sampled_from([2, 3, 10, 37]))
    digits = st.lists(st.integers(0, m - 1), min_size=1, max_size=6)
    filler = st.integers(1, 120).flatmap(
        lambda n: st.lists(st.sampled_from([m, m + 1]), min_size=n, max_size=n)
    )
    runs = draw(st.lists(st.one_of(digits, filler), min_size=1, max_size=6))
    ctx = [tok for run in runs for tok in run]
    return m, ctx, draw(st.integers(1, len(ctx)))


@settings(max_examples=300, deadline=None)
@given(case=_counting_cases(), as_array=st.booleans())
def test_counting_forward_matches_closed_form_property(case, as_array):
    m, ctx, block_len = case
    backend = make_counting_backend(m)
    context = np.asarray(ctx, dtype=np.int64) if as_array else ctx
    rows = backend.forward(context, block_len)
    want = np.zeros((block_len, m + 2))
    want[np.arange(block_len), _counting_closed_form(ctx, block_len, m)] = 1.0
    assert rows.dtype == np.float64
    assert np.array_equal(rows, want)


def test_counting_refuses_a_modulus_that_is_not_an_integer():
    for modulus in (2.5, 10.0, True, "10", None):
        with pytest.raises(ContractError, match="modulus must be an integer"):
            make_counting_backend(modulus)
    # a numpy integer is an integer, kept as a Python int
    backend = make_counting_backend(np.int64(7))
    assert type(backend.modulus) is int and backend.spec.vocab_size == 9


# ----------------------------------------------------------------------
# ngram backend
# ----------------------------------------------------------------------


def test_ngram_lookup_and_backoff():
    b = NgramBackend({(5,): 7}, vocab_size=10)
    assert b.forward([5], 1)[0].argmax() == 7
    # unseen context backs off to the uniform row; greedy resolves to 0
    assert b.forward([3], 1)[0].argmax() == 0
    assert HistoryMask(10).pick(b.forward([3], 1), 1.0) == [0]


def test_ngram_longest_suffix_wins():
    b = NgramBackend({(5,): 7, (2, 5): 9}, vocab_size=12)
    assert b.forward([2, 5], 1)[0].argmax() == 9
    assert b.forward([4, 5], 1)[0].argmax() == 7


def test_ngram_score_vector_rows():
    row = [0.0] * 8
    row[3] = 2.5
    b = NgramBackend({(1,): row}, vocab_size=8)
    assert b.forward([1], 1)[0].argmax() == 3


def test_ngram_file_roundtrip(tmp_path):
    table = tmp_path / "table.txt"
    table.write_text(
        "vocab 12 pad 10 eos 11\n"
        "# comment line\n"
        "5 -> 7\n"
        "5 7 -> 9\n"
        "1 -> 0.0 0.0 3.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0\n"
    )
    b = make_ngram_backend(table)
    assert b.spec.vocab_size == 12
    assert b.spec.pad_id == 10 and b.spec.eos_id == 11
    assert b.forward([5], 1)[0].argmax() == 7
    assert b.forward([5, 7], 1)[0].argmax() == 9
    assert b.forward([1], 1)[0].argmax() == 2


def test_ngram_file_defaults_vocab(tmp_path):
    table = tmp_path / "t.txt"
    table.write_text("5 -> 7\n")
    b = make_ngram_backend(table)
    assert b.spec.vocab_size == 10  # max id 7 + reserved pad/eos on top
    assert b.spec.pad_id == 8 and b.spec.eos_id == 9


@pytest.mark.parametrize(
    "content,bad_line",
    [
        ("5 -> 7\n5 7 9\n", 2),
        ("x -> 7\n", 1),
        ("5 ->\n", 1),
        ("5 -> a\n", 1),
        ("vocab x\n", 1),
        # found once the vocabulary is known, after the last record
        ("1 2 -> 3\n-1 -> 3\n", 2),
        ("vocab 6\n1 -> 9\n", 2),
        ("vocab 6\n1 -> 0.5 0.5\n", 2),
    ],
)
def test_ngram_file_errors_carry_line_number(tmp_path, content, bad_line):
    table = tmp_path / "bad.txt"
    table.write_text(content)
    with pytest.raises(TableParseError) as err:
        make_ngram_backend(table)
    assert err.value.line_no == bad_line


# ----------------------------------------------------------------------
# toy transformer
# ----------------------------------------------------------------------


def test_toy_same_seed_identical():
    a = make_toy_transformer(42, small_toy_spec())
    b = make_toy_transformer(42, small_toy_spec())
    ctx = [1, 2, 3, 4, 5]
    assert np.array_equal(a.forward(ctx, 3), b.forward(ctx, 3))


def test_toy_different_seeds_differ():
    a = make_toy_transformer(42, small_toy_spec())
    b = make_toy_transformer(43, small_toy_spec())
    ctx = [1, 2, 3, 4, 5]
    assert not np.array_equal(a.forward(ctx, 3), b.forward(ctx, 3))


def test_toy_causality(toy_backend):
    rng = np.random.default_rng(0)
    for _ in range(10):
        ctx = [int(t) for t in rng.integers(0, 64, size=10)]
        block = 4
        base = toy_backend.forward(ctx, block)
        for j in range(block):
            split = len(ctx) - block
            mutated = list(ctx)
            for later in range(split + j + 1, len(ctx)):
                mutated[later] = int((mutated[later] + 13) % 64)
            out = toy_backend.forward(mutated, block)
            assert np.array_equal(base[j], out[j])


def test_toy_block_one_equals_last_row(toy_backend):
    ctx = [3, 1, 4, 1, 5, 9, 2, 6]
    single = toy_backend.forward(ctx, 1)[0]
    multi = toy_backend.forward(ctx, 5)[-1]
    assert np.array_equal(single, multi)


def test_toy_cache_matches_fresh(toy_backend):
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(4, 20))
        ctx = [int(t) for t in rng.integers(0, 64, size=n)]
        cached_len = int(rng.integers(1, n - 1))
        block = int(rng.integers(1, n - cached_len + 1))
        cache = CacheBuffer(1, 64, toy_backend.spec)
        toy_backend.forward(ctx[:cached_len], 1, cache.slot(0))
        cache.write_back(0, ctx, 0, cached_len)
        fresh = toy_backend.forward(ctx, block)
        warm = toy_backend.forward(ctx, block, cache.slot(0))
        assert np.abs(fresh - warm).max() < 1e-6


def test_toy_cache_mismatch_detected(toy_backend):
    ctx = [1, 2, 3, 4, 5, 6]
    cache = CacheBuffer(1, 32, toy_backend.spec)
    toy_backend.forward(ctx[:4], 1, cache.slot(0))
    cache.write_back(0, ctx, 0, 4)
    with pytest.raises(CacheMismatchError):
        toy_backend.forward([9, 9, 9, 9, 5, 6], 2, cache.slot(0))
    with pytest.raises(CacheMismatchError):
        # only 1 uncached position but a block of 3 queried
        toy_backend.forward(ctx[:5], 3, cache.slot(0))


def test_toy_context_capacity(toy_backend):
    too_long = [1] * (toy_backend.spec.max_len + 1)
    with pytest.raises(CapacityError):
        toy_backend.forward(too_long, 1)


def test_toy_rejects_contract_violations(toy_backend):
    with pytest.raises(ContractError):
        toy_backend.forward([], 1)
    with pytest.raises(ContractError):
        toy_backend.forward([1, 2], 3)
    with pytest.raises(ContractError):
        toy_backend.forward([1, 999], 1)


# ----------------------------------------------------------------------
# scripted backend
# ----------------------------------------------------------------------


def test_scripted_schedule_and_answer():
    script = RetrievalScript(num_keys=1, rationale_len=8)
    backend = make_scripted_backend(script)
    q = 3
    prompt = script.prompt(q)
    # model reproduces the schedule token by token
    seq = list(prompt)
    for d in range(script.rationale_len):
        tok = backend.forward(seq, 1)[0].argmax()
        assert tok == script.rationale_token(q, d)
        seq.append(int(tok))
    assert backend.forward(seq, 1)[0].argmax() == EOS
    # trigger elicits the key's derived answer
    ctx = prompt + script.rationale(q) + list(TRIGGER)
    assert backend.forward(ctx, 1)[0].argmax() == script.answer_token(q)


def test_scripted_missing_key_gives_unk():
    script = RetrievalScript(num_keys=1, rationale_len=8)
    backend = make_scripted_backend(script)
    q = 7
    rationale = script.rationale(q)
    key_pos = script.key_positions(q)[0]
    assert SHARE_BASE <= rationale[key_pos] < ANS_BASE
    # key replaced by PAD -> no share token visible -> UNK
    damaged = list(rationale)
    damaged[key_pos] = PAD
    ctx = script.prompt(q) + damaged + list(TRIGGER)
    assert backend.forward(ctx, 1)[0].argmax() == UNK
    # no rationale at all -> UNK
    ctx = script.prompt(q) + list(TRIGGER)
    assert backend.forward(ctx, 1)[0].argmax() == UNK


def test_scripted_filler_corruption_harmless():
    script = RetrievalScript(num_keys=1, rationale_len=8)
    backend = make_scripted_backend(script)
    q = 11
    rationale = script.rationale(q)
    key_pos = script.key_positions(q)[0]
    damaged = [PAD if i != key_pos else tok for i, tok in enumerate(rationale)]
    ctx = script.prompt(q) + damaged + list(TRIGGER)
    assert backend.forward(ctx, 1)[0].argmax() == script.answer_token(q)


def test_scripted_eos_after_answer():
    script = RetrievalScript()
    backend = make_scripted_backend(script)
    q = 2
    ctx = script.prompt(q) + script.rationale(q) + list(TRIGGER) + [script.answer_token(q)]
    assert backend.forward(ctx, 1)[0].argmax() == EOS


def test_scripted_multi_key_requires_all():
    script = RetrievalScript(num_keys=3, rationale_len=9)
    backend = make_scripted_backend(script)
    q = 4
    rationale = script.rationale(q)
    positions = script.key_positions(q)
    assert len(positions) == 3
    ctx = script.prompt(q) + rationale + list(TRIGGER)
    assert backend.forward(ctx, 1)[0].argmax() == script.answer_token(q)
    damaged = list(rationale)
    damaged[positions[1]] = PAD
    ctx = script.prompt(q) + damaged + list(TRIGGER)
    assert backend.forward(ctx, 1)[0].argmax() == UNK


# ----------------------------------------------------------------------
# contract checks shared by every backend
# ----------------------------------------------------------------------


_BACKENDS = {
    "counting": lambda: make_counting_backend(10),
    "ngram": lambda: random_ngram_backend(3),
    "scripted": make_scripted_backend,
    "toy": lambda: make_toy_transformer(42, small_toy_spec()),
}


@pytest.mark.parametrize("kind", sorted(_BACKENDS))
@pytest.mark.parametrize("bad", ["vocab", -1, -(2**70), 2**70, 3.7])
@pytest.mark.parametrize("where", [0, 20])
def test_out_of_vocab_anywhere_in_context_rejected(kind, bad, where):
    backend = _BACKENDS[kind]()
    spec = backend.spec
    bad = spec.vocab_size if bad == "vocab" else bad
    ctx = [spec.pad_id] * 40
    ctx[where] = bad  # position 0 is far before the 2-token block
    with pytest.raises(ContractError):
        backend.forward(ctx, 2)
    with pytest.raises(ContractError):
        backend.forward_batch([[spec.pad_id] * 4, ctx], [1, 2])
    ctx[where] = spec.pad_id
    backend.forward(ctx, 2)  # the same context with the id replaced is fine
    # Ids are refused, not cast, when they are not integers.
    for dtype in (np.float64, bool):
        with pytest.raises(ContractError):
            backend.forward(np.asarray(ctx, dtype=dtype), 2)
    # A bool among ints would be upcast to 0 or 1, so it is refused too.
    for flag in (True, np.bool_(True)):
        for mixed in ([flag, 2], (2, flag), [flag] + ctx[1:]):
            with pytest.raises(ContractError):
                backend.forward(mixed, 2)
            with pytest.raises(ContractError):
                backend.forward_batch([[spec.pad_id] * 4, mixed], [1, 2])
    view = np.asarray([ctx, ctx], dtype=np.int64)[1, :30]
    assert check_forward_args(spec, view, 2) is view  # an int64 view is not copied


@pytest.mark.parametrize("kind", sorted(_BACKENDS))
def test_empty_context_and_bad_block_rejected(kind):
    backend = _BACKENDS[kind]()
    pad = backend.spec.pad_id
    with pytest.raises(ContractError):
        backend.forward([], 1)
    for block_len in (0, -1, 4):
        with pytest.raises(ContractError):
            backend.forward([pad] * 3, block_len)


@pytest.mark.parametrize("kind", ["counting", "ngram", "scripted"])
def test_the_sequential_batch_path_refuses_a_cache_slot(kind):
    import inspect

    backend = _BACKENDS[kind]()
    assert list(inspect.signature(backend.forward).parameters) == ["context", "block_len"]
    pad = backend.spec.pad_id
    slot = CacheBuffer(2, 8, small_toy_spec()).slot(1)
    with pytest.raises(ContractError, match=f"^{type(backend).__name__} has no K/V cache"):
        backend.forward_batch([[pad], [pad]], [1, 1], [None, slot])
    # no slots, or only None ones, is the cacheless call
    for slots in (None, [None, None]):
        rows = backend.forward_batch([[pad], [pad, pad]], [1, 2], slots)
        assert [r.shape[0] for r in rows] == [1, 2]
