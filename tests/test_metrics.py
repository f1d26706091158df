import io
import json

import numpy as np
import pytest

from glimpse.engine import DecodeConfig, decode
from glimpse.errors import ContractError
from glimpse.metrics import HitReport, aggregate, score_window, window_hits

from conftest import as_ar
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
    report = aggregate([w1, w2]).as_dict()
    assert report["windows_evaluated"] == 2
    assert report["positions_evaluated"] == 6
    assert report["first_hit"] == 1 and report["first_hit_ratio"] == pytest.approx(0.5)
    assert report["total_hit"] == 3 and report["total_hit_ratio"] == pytest.approx(0.5)


def test_aggregate_single_window_echoes_record():
    rec = score_window([1, 2], [1, 3])
    rep = aggregate([rec])
    assert rep.first_hit == rec.first_hit
    assert rep.total_hit == rec.total_hit
    assert rep.windows_evaluated == 1


def test_aggregate_of_no_windows_is_zero():
    assert aggregate([]) == HitReport()
    # the ten keys of a sweep row, each count and ratio 0
    counts = ["first_hit", "total_hit", "occur_guess_in_ref", "occur_ref_in_guess"]
    assert HitReport().as_dict() == dict.fromkeys(
        [*counts, *(f"{c}_ratio" for c in counts), "windows_evaluated", "positions_evaluated"], 0
    )


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
            res = decode([prompt], backend, cfg)[0]
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
            engine_report = aggregate(window_hits(res.trace, reference).values())
            assert engine_report.first_hit == replay["first_hit"]
            assert engine_report.total_hit == replay["total_hit"]
            assert engine_report.occur_guess_in_ref == replay["occur_guess_in_ref"]
            assert engine_report.occur_ref_in_guess == replay["occur_ref_in_guess"]
            assert engine_report.windows_evaluated == replay["windows_evaluated"]
            assert engine_report.positions_evaluated == replay["positions_evaluated"]
    assert covered >= 6


def test_first_hit_implies_multi_commit_in_skip_mode(counting_backend):
    cfg = DecodeConfig(window_len=5, skip=True, max_new_tokens=40)
    res = decode([[0]], counting_backend, cfg)[0]
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


def test_phases_cover_the_decode_loop(counting_backend, toy_backend):
    # Each segment of an iteration is timed, so the phases leave out of
    # wall_s only set-up and result assembly: counting runs of 4000 tokens
    # plus an answer, and a toy batch of eight.  Best of three runs, so that
    # one scheduler pause does not decide it.
    rng = np.random.default_rng(0)
    batch = [[int(t) for t in rng.integers(0, 62, size=k)] for k in range(4, 48, 6)]
    runs = [(True, [[3]], counting_backend, DecodeConfig(c, max_new_tokens=4000)) for c in (7, 0)]
    toy_cfg = DecodeConfig(window_len=0, max_new_tokens=96, repetition_penalty=1.0)
    runs.append((False, batch, toy_backend, toy_cfg))
    for answer, prompts, backend, cfg in runs:
        traces = [decode(prompts, backend, cfg, answer=answer)[0].trace for _ in range(3)]
        best = max(trace.breakdown.total() / trace.wall_s for trace in traces)
        assert best >= 0.9, (answer, cfg.window_len, best)


def test_trace_jsonl_roundtrip(counting_backend, toy_backend):
    from glimpse.trace import read_jsonl

    cfg = DecodeConfig(window_len=3, max_new_tokens=10)
    res = decode([[0]], counting_backend, cfg)[0]
    buf = io.StringIO()
    res.trace.write_jsonl(buf)
    buf.seek(0)
    back = read_jsonl(buf)
    assert back.prompt == res.trace.prompt
    assert back.window_len == res.trace.window_len
    assert back.records == res.trace.records
    assert back.breakdown == res.trace.breakdown
    # the committed stream reads back as the exact rationale: solo, batch
    # and answering runs
    answering = DecodeConfig(
        window_len=3, max_new_tokens=10, answer_trigger=(4, 5), answer_max_tokens=3
    )
    batch = decode([[5, 6], [1, 2, 3, 4, 5], [9]], toy_backend, cfg)
    answer = decode([[5, 6]], toy_backend, answering, answer=True)[0]
    for run in (res, *batch, answer):
        buf = io.StringIO()
        run.trace.write_jsonl(buf)
        buf.seek(0)
        assert read_jsonl(buf).committed_stream() == run.exact_rationale


def test_read_traces_starts_a_trace_at_each_header(counting_backend):
    from glimpse.trace import read_traces

    cfg = DecodeConfig(window_len=3, max_new_tokens=6)
    traces = [decode([prompt], counting_backend, cfg)[0].trace for prompt in ([0], [5], [1, 2])]
    buf = io.StringIO()
    for trace in traces:
        trace.write_jsonl(buf)
    assert read_traces(io.StringIO(buf.getvalue())) == traces
    # a malformed line in a later trace is named by its line in the stream
    lines = buf.getvalue().splitlines()
    bad = len(lines) - 1
    lines[bad - 1] = "{"
    with pytest.raises(ValueError, match=f"^trace line {bad}: "):
        read_traces(io.StringIO("\n".join(lines) + "\n"))
    # a trace without its summary: the next header, moved up to its line, is refused
    lines = buf.getvalue().splitlines()
    summary = traces[0].iterations + 2
    del lines[summary - 1]
    with pytest.raises(ValueError, match=f"^trace line {summary}: header before the previous"):
        read_traces(io.StringIO("\n".join(lines) + "\n"))


def test_trace_jsonl_schema(toy_backend):
    from dataclasses import fields

    from glimpse.trace import PHASES, IterationRecord, read_jsonl

    cfg = DecodeConfig(window_len=3, max_new_tokens=10, answer_trigger=(4, 5), answer_max_tokens=3)
    trace = decode([[5, 6]], toy_backend, cfg, answer=True)[0].trace
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


def _edit(line: str, drop: tuple[str, ...] = (), **changes) -> str:
    """``line``'s object without the keys in ``drop`` and with ``changes`` applied."""
    obj = json.loads(line)
    for key in drop:
        del obj[key]
    return json.dumps({**obj, **changes})


# Each fault: the stream's lines made from a valid trace's, and the bad line's number.
_TRACE_FAULTS = {
    "second-header": lambda h, it, s: ([h, *it, s, h, *it, s], len(it) + 3),
    "not-json": lambda h, it, s: ([h, "{", *it, s], 2),
    "not-an-object": lambda h, it, s: ([h, "[1]", *it, s], 2),
    "no-type": lambda h, it, s: ([h, "{}", *it, s], 2),
    "unknown-type": lambda h, it, s: ([h, '{"type": "probe"}', *it, s], 2),
    "iteration-before-header": lambda h, it, s: ([*it, s], 1),
    "summary-before-header": lambda h, it, s: ([s], 1),
    "header-missing-field": lambda h, it, s: ([_edit(h, drop=("skip",)), *it, s], 1),
    "header-extra-field": lambda h, it, s: ([_edit(h, records=[]), *it, s], 1),
    "iteration-missing-field": lambda h, it, s: ([h, _edit(it[0], drop=("window",)), *it[1:], s], 2),
    "summary-without-breakdown": lambda h, it, s: ([h, *it, _edit(s, drop=("breakdown",))], len(it) + 2),
    "summary-extra-field": lambda h, it, s: ([h, *it, _edit(s, tokens=3)], len(it) + 2),
    "breakdown-missing-phase": lambda h, it, s: (
        [h, *it, _edit(s, breakdown={"infer": 0.0})], len(it) + 2
    ),
    "breakdown-not-an-object": lambda h, it, s: ([h, *it, _edit(s, breakdown=3)], len(it) + 2),
    # a value of the wrong type: JSON's true is no int, 1.0 no token
    "method-not-a-string": lambda h, it, s: ([_edit(h, method=3), *it, s], 1),
    "prompt-holds-a-bool": lambda h, it, s: ([_edit(h, prompt=[0, True]), *it, s], 1),
    "window-len-a-float": lambda h, it, s: ([_edit(h, window_len=3.0), *it, s], 1),
    "skip-not-a-bool": lambda h, it, s: ([_edit(h, skip=1), *it, s], 1),
    "iteration-a-string": lambda h, it, s: ([h, _edit(it[0], iteration="one"), *it[1:], s], 2),
    "iteration-a-bool": lambda h, it, s: ([h, it[0], _edit(it[1], iteration=True), *it[2:], s], 3),
    "match-len-null": lambda h, it, s: ([h, _edit(it[0], match_len=None), *it[1:], s], 2),
    "committed-a-string": lambda h, it, s: ([h, _edit(it[0], committed="ab"), *it[1:], s], 2),
    "committed-holds-a-float": lambda h, it, s: ([h, _edit(it[0], committed=[1.0]), *it[1:], s], 2),
    "window-holds-a-list": lambda h, it, s: ([h, *it[:-1], _edit(it[-1], window=[[1]]), s], len(it) + 1),
    "predictions-an-object": lambda h, it, s: ([h, _edit(it[0], predictions={}), *it[1:], s], 2),
    "wall-s-a-string": lambda h, it, s: ([h, *it, _edit(s, wall_s="fast")], len(it) + 2),
    "wall-s-a-bool": lambda h, it, s: ([h, *it, _edit(s, wall_s=False)], len(it) + 2),
    "breakdown-phase-a-string": lambda h, it, s: (
        [h, *it, _edit(s, breakdown={**json.loads(s)["breakdown"], "decode": "0.1"})], len(it) + 2
    ),
    # no line to name: a stream of blank lines holds no trace
    "empty": lambda h, it, s: ([""], None),
    # cut short or reordered: read back, each would be a shorter or longer run
    "no-summary": lambda h, it, s: ([h, *it], len(it) + 1),
    "cut-after-the-first-iteration": lambda h, it, s: ([h, it[0]], 2),
    "two-summaries": lambda h, it, s: ([h, *it, s, s], len(it) + 3),
    "an-iteration-twice": lambda h, it, s: ([h, *it, it[-1], s], len(it) + 2),
    "summary-before-the-iterations": lambda h, it, s: ([h, s, *it], 3),
    "iterations-swapped": lambda h, it, s: ([h, it[1], it[0], *it[2:], s], 2),
    "first-iteration-missing": lambda h, it, s: ([h, *it[1:], s], 2),
}


@pytest.mark.parametrize("fault", list(_TRACE_FAULTS))
def test_a_malformed_trace_line_is_refused_with_its_number(counting_backend, fault):
    from glimpse.trace import read_jsonl

    trace = decode([[0]], counting_backend, DecodeConfig(window_len=3, max_new_tokens=6))[0].trace
    buf = io.StringIO()
    trace.write_jsonl(buf)
    header, *iterations, summary = buf.getvalue().splitlines()
    lines, number = _TRACE_FAULTS[fault](header, iterations, summary)
    match = f"^trace line {number}: " if number else "^empty trace stream$"
    with pytest.raises(ValueError, match=match):
        read_jsonl(io.StringIO("\n".join(lines) + "\n"))


def _traces_of_every_kind(monkeypatch, counting_backend, toy_backend):
    """Windowed, AR and answer-phase traces of the counting, toy, n-gram and scripted backends."""
    from dataclasses import replace

    from glimpse import engine
    from glimpse.backends import make_scripted_backend
    from glimpse.backends.scripted import RetrievalScript
    from glimpse.corruption import task_config

    from conftest import random_ngram_backend

    traces = []
    loop = engine._decode

    def keep(*args, **kwargs):
        results = loop(*args, **kwargs)
        traces.extend(r.trace for r in results)
        return results

    # every run's traces, the answer phase's (an "ar" run) among them
    monkeypatch.setattr(engine, "_decode", keep)
    decode([[0]], counting_backend, DecodeConfig(window_len=3, max_new_tokens=12))
    decode([[4]], counting_backend, as_ar(DecodeConfig(window_len=0, max_new_tokens=12)))
    decode([[5, 6]], toy_backend, DecodeConfig(window_len=2, max_new_tokens=6), answer=True)
    decode([[5, 6]], toy_backend, as_ar(DecodeConfig(window_len=0, max_new_tokens=6)))
    decode([[1, 2]], random_ngram_backend(3), DecodeConfig(window_len=4, max_new_tokens=20))
    script = RetrievalScript()
    scripted, cfg = make_scripted_backend(script), task_config(script)
    for window_len in (0, 3):
        decode([script.prompt(3)], scripted, replace(cfg, window_len=window_len), answer=True)
    assert {t.method for t in traces} == {"parallel", "ar"}
    return traces


def test_iteration_record_json_bytes_pinned(monkeypatch, counting_backend, toy_backend):
    from dataclasses import asdict

    from glimpse.trace import DecodeTrace, IterationRecord

    traces = _traces_of_every_kind(monkeypatch, counting_backend, toy_backend)
    assert any(rec.window == [] for t in traces for rec in t.records)  # AR records
    by_hand = DecodeTrace(method="parallel", prompt=[1], window_len=2, skip=True)
    by_hand.records += [
        IterationRecord(7, 3, 5, [1, 2], [1, 2, 9], 1, [1, 2], [9, 0]),
        IterationRecord(-1, -20, 0, [-3, 0], [-1], -5, [], [-10**30, 2**63]),
        IterationRecord(2**64, 10**40, -(2**70), [], [0, -0, 10**19], 0, [0], []),
    ]
    for trace in [*traces, by_hand]:
        buf = io.StringIO()
        trace.write_jsonl(buf)
        lines = buf.getvalue().splitlines()[1:-1]
        assert lines == [json.dumps({**asdict(rec), "type": "iteration"}) for rec in trace.records]

    # anything but an int writes no line: read_jsonl would refuse or misread it
    for bad in (True, np.int64(3), np.bool_(False), 1.0, "1", None):
        for record in (
            IterationRecord(bad, 0, 1, [], [1], 0, [1], []),
            IterationRecord(1, 0, bad, [], [1], 0, [1], []),
            IterationRecord(1, 0, 1, [], [1], bad, [1], []),
            IterationRecord(1, 0, 1, [2, bad], [1], 0, [1], []),
            IterationRecord(1, 0, 1, [], [1], 0, [1], [0, 0, bad]),
        ):
            trace = DecodeTrace(method="ar", prompt=[1], window_len=0, skip=True, records=[record])
            buf = io.StringIO()
            with pytest.raises(TypeError):
                trace.write_jsonl(buf)
            assert '"iteration"}' not in buf.getvalue()


def test_ar_breakdown_structure(counting_backend):
    cfg = DecodeConfig(window_len=0, max_new_tokens=300)
    res = decode([[0]], counting_backend, as_ar(cfg))[0]
    bd = res.trace.breakdown
    assert bd.kv_cache == 0.0
    assert bd.total() <= res.trace.wall_s * 1.05


def test_breakdown_repeat_stability(counting_backend):
    cfg = DecodeConfig(window_len=0, max_new_tokens=800)
    decode([[0]], counting_backend, as_ar(cfg))[0]  # warmup

    # Two sets of seven runs, interleaved so that a drift in CPU speed
    # reaches both sets alike; min-of-7 filters scheduler noise, and a few
    # seconds of a slower CPU, out of the smoke check.
    runs: tuple[list, list] = ([], [])
    for _ in range(7):
        for out in runs:
            out.append(decode([[0]], counting_backend, as_ar(cfg))[0].trace.breakdown)
    a, b = (
        {name: min(getattr(r, name) for r in out) for name in ("infer", "decode")}
        for out in runs
    )
    for name in ("infer", "decode"):
        hi, lo = max(a[name], b[name]), min(a[name], b[name])
        # repeated measurements agree within 20% (absolute floor so
        # micro-timings cannot trip it)
        assert hi - lo <= max(0.2 * hi, 0.01)
