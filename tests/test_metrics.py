import io
import time

import numpy as np
import pytest

from glimpse.engine import DecodeConfig, ar_baseline, run_rationale
from glimpse.errors import ContractError, InstrumentationError
from glimpse.metrics import HitReport, aggregate, hit_report, score_window, window_hits
from glimpse.trace import PhaseTimer

from oracles import greedy_ar_reference, replay_hit_report


# ----------------------------------------------------------------------
# score_window / aggregate
# ----------------------------------------------------------------------


def test_score_window_mixed():
    a, b, c, x = 20, 21, 22, 30
    rec = score_window([a, b, c], [a, x, b])
    assert rec.first_hit == 1
    assert rec.total_hit == 1
    assert rec.occur_guess_in_ref == 2  # a and b occur in the reference
    assert rec.occur_ref_in_guess == 2  # a and b occur among the guesses


def test_score_window_identity_and_disjoint():
    rec = score_window([1, 2, 3], [1, 2, 3])
    assert (rec.first_hit, rec.total_hit) == (1, 3)
    assert rec.occur_guess_in_ref == rec.occur_ref_in_guess == 3
    rec = score_window([1, 2, 3], [4, 5, 6])
    assert (rec.first_hit, rec.total_hit) == (0, 0)
    assert rec.occur_guess_in_ref == rec.occur_ref_in_guess == 0


def test_score_window_misaligned_rejected():
    with pytest.raises(ContractError):
        score_window([1, 2], [1, 2, 3])


def test_aggregate_ratio_denominators():
    # 2 windows of width 3, first hits {1, 0}, total hits {2, 1}
    w1 = score_window([1, 2, 9], [1, 2, 3])
    w2 = score_window([8, 5, 9], [4, 5, 9])
    assert (w1.first_hit, w1.total_hit) == (1, 2)
    assert (w2.first_hit, w2.total_hit) == (0, 2)
    # adjust: build the exact counts from the statement instead
    w2 = score_window([8, 5, 7], [4, 5, 9])
    assert (w2.first_hit, w2.total_hit) == (0, 1)
    report = aggregate([w1, w2])
    assert report.windows_evaluated == 2
    assert report.positions_evaluated == 6
    assert report.first_hit == 1 and report.first_hit_ratio == pytest.approx(0.5)
    assert report.total_hit == 3 and report.total_hit_ratio == pytest.approx(0.5)


def test_aggregate_single_window_echoes_record():
    rec = score_window([1, 2], [1, 3])
    rep = aggregate([rec])
    assert rep.first_hit == rec.first_hit
    assert rep.total_hit == rec.total_hit
    assert rep.windows_evaluated == 1


def test_aggregate_of_no_windows_is_zero():
    assert aggregate([]) == HitReport(0, 0.0, 0, 0.0, 0, 0.0, 0, 0.0, 0, 0)


def test_aggregate_order_independent():
    rng = np.random.default_rng(2)
    recs = [
        score_window(
            [int(t) for t in rng.integers(0, 6, size=4)],
            [int(t) for t in rng.integers(0, 6, size=4)],
        )
        for _ in range(20)
    ]
    fwd = aggregate(recs)
    rev = aggregate(list(reversed(recs)))
    assert fwd == rev


def test_hit_never_exceeds_occurrences_random():
    rng = np.random.default_rng(3)
    for _ in range(300):
        width = int(rng.integers(1, 8))
        rec = score_window(
            [int(t) for t in rng.integers(0, 5, size=width)],
            [int(t) for t in rng.integers(0, 5, size=width)],
        )
        assert rec.total_hit <= rec.occur_guess_in_ref
        assert rec.total_hit <= rec.occur_ref_in_guess
        assert rec.first_hit <= rec.total_hit


# ----------------------------------------------------------------------
# trace alignment / replay oracle
# ----------------------------------------------------------------------


def test_engine_report_matches_jsonl_replay(counting_backend, toy_backend):
    rng = np.random.default_rng(4)
    covered = 0
    for backend in (counting_backend, toy_backend):
        for _ in range(5):
            prompt = [int(t) for t in rng.integers(0, 9, size=3)]
            cfg = DecodeConfig(window_len=4, max_new_tokens=16)
            res = run_rationale(prompt, backend, cfg)
            reference = greedy_ar_reference(
                backend, prompt, cfg.max_new_tokens + cfg.window_len
            )
            buf = io.StringIO()
            res.trace.write_jsonl(buf)
            replay = replay_hit_report(buf.getvalue().splitlines(), reference)
            if not window_hits(res.trace, reference):
                # early EOS can leave the reference too short for any window
                assert replay["windows_evaluated"] == 0
                continue
            covered += 1
            engine_report = hit_report(res.trace, reference)
            assert engine_report.first_hit == replay["first_hit"]
            assert engine_report.total_hit == replay["total_hit"]
            assert engine_report.occur_guess_in_ref == replay["occur_guess_in_ref"]
            assert engine_report.occur_ref_in_guess == replay["occur_ref_in_guess"]
            assert engine_report.windows_evaluated == replay["windows_evaluated"]
            assert engine_report.positions_evaluated == replay["positions_evaluated"]
    assert covered >= 6


def test_first_hit_implies_multi_commit_in_skip_mode(counting_backend):
    cfg = DecodeConfig(window_len=5, skip=True, max_new_tokens=40)
    res = run_rationale([0], counting_backend, cfg)
    reference = greedy_ar_reference(counting_backend, [0], 60)
    by_iter = {rec.iteration: rec for rec in res.trace.records}
    checked = 0
    for iteration, hit in window_hits(res.trace, reference).items():
        rec = by_iter[iteration]
        if hit.first_hit and len(rec.committed) + len(
            res.trace.prompt
        ) < cfg.max_new_tokens:
            assert len(rec.committed) >= 2
            checked += 1
    assert checked > 0


# ----------------------------------------------------------------------
# phase timing
# ----------------------------------------------------------------------


def test_record_phase_accumulates():
    timer = PhaseTimer()
    with timer.phase("infer"):
        time.sleep(0.003)
    with timer.phase("infer"):
        time.sleep(0.003)
    with timer.phase("decode"):
        pass
    assert timer.get("infer") >= 0.005
    bd = timer.breakdown()
    assert bd.infer == timer.get("infer")


def test_phase_overlap_rejected():
    timer = PhaseTimer()
    timer.begin("infer")
    with pytest.raises(InstrumentationError):
        timer.begin("decode")
    timer.end("infer")
    with pytest.raises(InstrumentationError):
        timer.end("infer")


def test_unclosed_phase_rejected():
    timer = PhaseTimer()
    timer.begin("infer")
    with pytest.raises(InstrumentationError):
        timer.breakdown()


def test_trace_jsonl_roundtrip(counting_backend):
    from glimpse.trace import read_jsonl

    cfg = DecodeConfig(window_len=3, max_new_tokens=10)
    res = run_rationale([0], counting_backend, cfg)
    buf = io.StringIO()
    res.trace.write_jsonl(buf)
    buf.seek(0)
    back = read_jsonl(buf)
    assert back.prompt == res.trace.prompt
    assert back.window_len == res.trace.window_len
    assert back.records == res.trace.records
    assert back.breakdown == res.trace.breakdown


def test_trace_jsonl_schema(toy_backend):
    import json
    from dataclasses import fields

    from glimpse.engine import decode_with_answer
    from glimpse.trace import PHASES, IterationRecord, read_jsonl

    cfg = DecodeConfig(window_len=3, max_new_tokens=10, answer_trigger=(4, 5), answer_max_tokens=3)
    trace = decode_with_answer([5, 6], toy_backend, cfg).trace
    buf = io.StringIO()
    trace.write_jsonl(buf)
    header, *iterations, summary = (json.loads(line) for line in buf.getvalue().splitlines())
    assert (header["type"], summary["type"]) == ("header", "summary")
    assert len(iterations) == trace.iterations
    for obj in iterations:
        assert list(obj) == [f.name for f in fields(IterationRecord)] + ["type"]
    assert list(summary["breakdown"]) == list(PHASES)

    buf.seek(0)
    back = read_jsonl(buf)
    assert back == trace
    # an iteration line with a key the record lacks does not read back
    old = buf.getvalue().replace('"type": "iteration"', '"probe_score": 0.0, "type": "iteration"')
    with pytest.raises(ValueError, match="trace line 2"):
        read_jsonl(io.StringIO(old))


def _edit(line: str, **changes) -> str:
    """``line``'s object with ``changes`` applied; a change to None drops the key."""
    import json

    obj = json.loads(line)
    for key, value in changes.items():
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    return json.dumps(obj)


# Each fault: the stream's lines made from a valid trace's, and the bad line's number.
_TRACE_FAULTS = {
    "second-header": lambda h, it, s: ([h, *it, s, h, *it, s], len(it) + 3),
    "not-json": lambda h, it, s: ([h, "{", *it, s], 2),
    "not-an-object": lambda h, it, s: ([h, "[1]", *it, s], 2),
    "no-type": lambda h, it, s: ([h, "{}", *it, s], 2),
    "unknown-type": lambda h, it, s: ([h, '{"type": "probe"}', *it, s], 2),
    "iteration-before-header": lambda h, it, s: ([*it, s], 1),
    "summary-before-header": lambda h, it, s: ([s], 1),
    "header-missing-field": lambda h, it, s: ([_edit(h, skip=None), *it, s], 1),
    "header-extra-field": lambda h, it, s: ([_edit(h, records=[]), *it, s], 1),
    "iteration-missing-field": lambda h, it, s: ([h, _edit(it[0], window=None), *it[1:], s], 2),
    "summary-without-breakdown": lambda h, it, s: ([h, *it, _edit(s, breakdown=None)], len(it) + 2),
    "summary-extra-field": lambda h, it, s: ([h, *it, _edit(s, tokens=3)], len(it) + 2),
    "breakdown-missing-phase": lambda h, it, s: (
        [h, *it, _edit(s, breakdown={"infer": 0.0})], len(it) + 2
    ),
    "breakdown-not-an-object": lambda h, it, s: ([h, *it, _edit(s, breakdown=3)], len(it) + 2),
}


@pytest.mark.parametrize("fault", list(_TRACE_FAULTS))
def test_a_malformed_trace_line_is_refused_with_its_number(counting_backend, fault):
    from glimpse.trace import read_jsonl

    trace = run_rationale([0], counting_backend, DecodeConfig(window_len=3, max_new_tokens=6)).trace
    buf = io.StringIO()
    trace.write_jsonl(buf)
    header, *iterations, summary = buf.getvalue().splitlines()
    lines, number = _TRACE_FAULTS[fault](header, iterations, summary)
    with pytest.raises(ValueError, match=f"^trace line {number}: "):
        read_jsonl(io.StringIO("\n".join(lines) + "\n"))


def test_iteration_record_json_bytes_pinned(counting_backend, toy_backend):
    import json
    from dataclasses import asdict

    from glimpse.trace import IterationRecord

    records = run_rationale([0], counting_backend, DecodeConfig(window_len=3, max_new_tokens=12)).trace.records
    records += run_rationale(
        [5, 6], toy_backend, DecodeConfig(window_len=2, max_new_tokens=6)
    ).trace.records
    records.append(IterationRecord(7, 3, 5, [1, 2], [1, 2, 9], 1, [1, 2], [9, 0]))
    for rec in records:
        want = json.dumps({**asdict(rec), "type": "iteration"})
        assert json.dumps(rec.to_json()) == want
    buf = io.StringIO()
    trace = run_rationale([0], counting_backend, DecodeConfig(window_len=3, max_new_tokens=12)).trace
    trace.write_jsonl(buf)
    lines = buf.getvalue().splitlines()[1:-1]
    assert lines == [json.dumps({**asdict(rec), "type": "iteration"}) for rec in trace.records]


def test_ar_breakdown_structure(counting_backend):
    cfg = DecodeConfig(window_len=0, max_new_tokens=300)
    res = ar_baseline([0], counting_backend, cfg)
    bd = res.trace.breakdown
    assert bd.kv_cache == 0.0
    assert bd.total() <= res.trace.wall_s * 1.05


def test_breakdown_repeat_stability(counting_backend):
    cfg = DecodeConfig(window_len=0, max_new_tokens=800)
    ar_baseline([0], counting_backend, cfg)  # warmup

    # Two sets of seven runs, interleaved so that a drift in CPU speed
    # reaches both sets alike; min-of-7 filters scheduler noise, and a few
    # seconds of a slower CPU, out of the smoke check.
    runs: tuple[list, list] = ([], [])
    for _ in range(7):
        for out in runs:
            out.append(ar_baseline([0], counting_backend, cfg).trace.breakdown)
    a, b = (
        {name: min(getattr(r, name) for r in out) for name in ("infer", "decode")}
        for out in runs
    )
    for name in ("infer", "decode"):
        hi, lo = max(a[name], b[name]), min(a[name], b[name])
        # repeated measurements agree within 20% (absolute floor so
        # micro-timings cannot trip it)
        assert hi - lo <= max(0.2 * hi, 0.01)
