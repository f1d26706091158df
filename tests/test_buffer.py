import numpy as np
import pytest

from glimpse.backends.base import BackendSpec
from glimpse.buffer import BatchBuffers, update, verify
from glimpse.errors import CapacityError, ContractError

PAD = 99
SPEC = BackendSpec(vocab_size=100, pad_id=PAD, eos_id=98)


def _state(b, i=0):
    return b.exact(i).tolist(), b.window(i).tolist(), b.frontier[i]


def _slide(preds, m):
    """(committed, next window) of one update from a fresh one-token prompt."""
    b = BatchBuffers([[1]], len(preds) - 1, SPEC, capacity=len(preds) + m)
    update(b, 0, preds, m)
    return b.exact(0).tolist(), b.window(0).tolist()


def test_init_pure_ar_mode():
    b = BatchBuffers([list(range(10))], 0, SPEC, capacity=10)
    assert _state(b) == ([], [], 10)
    assert b.context(0).tolist() == list(range(10))


def test_init_window_filled_with_pad():
    b = BatchBuffers([list(range(10))], 3, SPEC, capacity=13)
    assert _state(b) == ([], [PAD, PAD, PAD], 10)
    assert b.histories[0].mask.nonzero()[0].tolist() == list(range(10))


def test_init_rejects_negative_window():
    with pytest.raises(ContractError):
        BatchBuffers([list(range(10))], -1, SPEC, capacity=10)


def test_verify_skip_commits_matched_prefix():
    out = verify([5, 7, 9], [5, 7, 8, 4])
    assert out.match_len == 2
    assert _slide([5, 7, 8, 4], 3) == ([5, 7, 8], [4, PAD, PAD])


def test_verify_skip_first_guess_misses():
    out = verify([5, 7, 9], [6, 7, 9, 4])
    assert out.match_len == 0
    assert _slide([6, 7, 9, 4], 1) == ([6], [7, 9, 4])


def test_verify_no_skip_commits_one():
    # verify reports the match; the engine commits one token without skip
    out = verify([5, 7, 9], [5, 7, 8, 4])
    assert out.match_len == 2
    assert _slide([5, 7, 8, 4], 1) == ([5], [7, 8, 4])


def test_verify_empty_window():
    out = verify([], [3])
    assert out.match_len == 0
    assert _slide([3], 1) == ([3], [])


def test_verify_full_match_refills_with_pad():
    out = verify([1, 2], [1, 2, 3])
    assert out.match_len == 2
    assert _slide([1, 2, 3], 3) == ([1, 2, 3], [PAD, PAD])


def test_update_advances_frontier_and_iteration():
    b = BatchBuffers([list(range(10))], 3, SPEC, capacity=20)
    preds = [4, 5, 6, 7]
    update(b, 0, preds, 1 + verify(b.window(0), preds).match_len)
    # PAD window: only the AR token commits
    assert _state(b) == ([4], [5, 6, 7], 11)
    preds = b.window(0).tolist() + [8]
    update(b, 0, preds, 1 + verify(b.window(0), preds).match_len)
    # full match commits 1 + 3
    assert _state(b) == ([4, 5, 6, 7, 8], [PAD, PAD, PAD], 15)
    assert b.histories[0].mask[[4, 5, 6, 7, 8]].all()
    assert not b.histories[0].mask[PAD]


def test_verify_properties_random():
    rng = np.random.default_rng(0)
    for _ in range(500):
        c = int(rng.integers(0, 8))
        old = [int(t) for t in rng.integers(0, 5, size=c)]
        new = [int(t) for t in rng.integers(0, 5, size=c + 1)]
        out = verify(old, new)
        # match_len is the longest equal prefix
        k = 0
        while k < c and old[k] == new[k]:
            k += 1
        assert out.match_len == k
        assert out.match_len <= c
        # any commit count up to 1 + match_len, cut or not, slides the rest
        # into the window
        for m in range(1, k + 2):
            committed, window = _slide(new, m)
            assert committed == new[:m]
            assert window == new[m:] + [PAD] * (m - 1)


def test_exact_stream_append_only():
    rng = np.random.default_rng(1)
    b = BatchBuffers([[1, 2, 3, 4]], 4, SPEC, capacity=4 + 50 * 5 + 4)
    seen: list[int] = []
    for _ in range(50):
        preds = [int(t) for t in rng.integers(0, 6, size=5)]
        out = verify(b.window(0), preds)
        update(b, 0, preds, 1 + out.match_len)
        exact = b.exact(0).tolist()
        assert exact[: len(seen)] == seen
        assert b.frontier[0] == 4 + len(exact)
        seen = exact


def test_batch_buffers_contract():
    batch = BatchBuffers([[1, 2], [3, 4, 5, 6]], 3, SPEC, capacity=7)
    assert batch.context(1).tolist() == [3, 4, 5, 6, PAD, PAD, PAD]
    assert batch.store.shape == (2, 7)
    with pytest.raises(ContractError):
        BatchBuffers([[1, 2], []], 3, SPEC, capacity=7)
    with pytest.raises(ContractError):
        BatchBuffers([], 3, SPEC, capacity=7)
    with pytest.raises(CapacityError):
        BatchBuffers([[1, 2], [3, 4, 5, 6]], 3, SPEC, capacity=6)
    batch = BatchBuffers([[1, 2], [3, 4, 5, 6]], 3, SPEC, capacity=9)
    update(batch, 0, [7, 8, 9, 9], 1)
    assert batch.context(0).tolist() == [1, 2, 7, 8, 9, 9]
    assert batch.context(1).tolist() == [3, 4, 5, 6, PAD, PAD, PAD]
    with pytest.raises(CapacityError):
        update(batch, 1, [1] * 4, 3)  # 4 + 3 + 3 > 9
    for m in (0, 5):
        with pytest.raises(ContractError):
            update(batch, 1, [1] * 4, m)
    assert _state(batch, 1) == ([], [PAD, PAD, PAD], 4)
