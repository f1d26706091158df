import numpy as np
import pytest

from glimpse.buffer import BatchBuffers, init_buffer, update, verify
from glimpse.errors import CapacityError, ContractError

PAD = 99


def test_init_pure_ar_mode():
    buf = init_buffer(10, 0, PAD)
    assert buf.window == []
    assert buf.frontier == 10
    assert buf.iteration == 0


def test_init_window_filled_with_pad():
    buf = init_buffer(10, 3, PAD)
    assert buf.window == [PAD, PAD, PAD]
    assert buf.frontier == 10
    assert buf.exact == []


def test_init_rejects_negative_window():
    with pytest.raises(ContractError):
        init_buffer(10, -1, PAD)


def test_verify_skip_commits_matched_prefix():
    out = verify([5, 7, 9], [5, 7, 8, 4], skip=True, pad_id=PAD)
    assert out.committed == [5, 7, 8]
    assert out.match_len == 2
    assert out.next_window == [4, PAD, PAD]


def test_verify_skip_first_guess_misses():
    out = verify([5, 7, 9], [6, 7, 9, 4], skip=True, pad_id=PAD)
    assert out.committed == [6]
    assert out.match_len == 0
    assert out.next_window == [7, 9, 4]


def test_verify_no_skip_commits_one():
    out = verify([5, 7, 9], [5, 7, 8, 4], skip=False, pad_id=PAD)
    assert out.committed == [5]
    assert out.match_len == 2
    assert out.next_window == [7, 8, 4]


def test_verify_empty_window():
    out = verify([], [3], skip=True, pad_id=PAD)
    assert out.committed == [3]
    assert out.match_len == 0
    assert out.next_window == []


def test_verify_full_match_refills_with_pad():
    out = verify([1, 2], [1, 2, 3], skip=True, pad_id=PAD)
    assert out.committed == [1, 2, 3]
    assert out.next_window == [PAD, PAD]


def test_verify_length_mismatch_rejected():
    with pytest.raises(ContractError):
        verify([1, 2, 3], [1, 2, 3], skip=True, pad_id=PAD)


def test_update_advances_frontier_and_iteration():
    buf = init_buffer(10, 3, PAD)
    out = verify(buf.window, [4, 5, 6, 7], skip=True, pad_id=PAD)
    update(buf, out)
    assert buf.frontier == 11  # PAD window: only the AR token commits
    assert buf.iteration == 1
    assert len(buf.window) == 3
    out2 = verify(buf.window, list(buf.window) + [8], skip=True, pad_id=PAD)
    update(buf, out2)
    assert buf.frontier == 15  # full match commits 1 + 3
    assert buf.iteration == 2
    assert len(buf.window) == 3


def test_verify_properties_random():
    rng = np.random.default_rng(0)
    for _ in range(500):
        c = int(rng.integers(0, 8))
        skip = bool(rng.integers(0, 2))
        old = [int(t) for t in rng.integers(0, 5, size=c)]
        new = [int(t) for t in rng.integers(0, 5, size=c + 1)]
        out = verify(old, new, skip=skip, pad_id=PAD)
        # committed[0] is always the frontier prediction
        assert out.committed[0] == new[0]
        # match_len is the longest equal prefix
        k = 0
        while k < c and old[k] == new[k]:
            k += 1
        assert out.match_len == k
        assert len(out.committed) == (1 + k if skip else 1)
        assert out.match_len <= c
        assert len(out.next_window) == c
        m = len(out.committed)
        assert out.next_window[: c + 1 - m] == new[m:]


def test_exact_stream_append_only():
    rng = np.random.default_rng(1)
    buf = init_buffer(4, 4, PAD)
    seen: list[int] = []
    for _ in range(50):
        preds = [int(t) for t in rng.integers(0, 6, size=5)]
        out = verify(buf.window, preds, skip=True, pad_id=PAD)
        update(buf, out)
        assert buf.exact[: len(seen)] == seen
        seen = list(buf.exact)
        buf.check()


def test_batch_buffers_contract():
    bufs = [init_buffer(2, 3, PAD), init_buffer(4, 3, PAD)]
    batch = BatchBuffers(bufs, [[1, 2], [3, 4, 5, 6]])
    assert batch.max_frontier == 4
    assert batch.active_indices() == [0, 1]
    assert batch.context(1).tolist() == [3, 4, 5, 6, PAD, PAD, PAD]
    with pytest.raises(ContractError):
        BatchBuffers(bufs, [[1, 2]])
    with pytest.raises(ContractError):
        BatchBuffers([], [])
    with pytest.raises(CapacityError):
        BatchBuffers(bufs, [[1, 2], [3, 4, 5, 6]], capacity=6)
    batch = BatchBuffers(bufs, [[1, 2], [3, 4, 5, 6]], capacity=9)
    batch.write_tail(0, 2, [7, 8, 9, 9, 9])
    assert batch.context(0).tolist() == [1, 2, 7, 8, 9, 9, 9]
    assert batch.context(1).tolist() == [3, 4, 5, 6, PAD, PAD, PAD]
    with pytest.raises(CapacityError):
        batch.write_tail(1, 5, [1] * 5)
    with pytest.raises(ContractError):
        batch.write_tail(1, 8, [1])  # would leave a gap after the context
