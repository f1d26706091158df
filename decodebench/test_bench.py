"""Tests of the benchmark's own helpers: statistics, speed correction, output checks and the tracer.

    python3 -m pytest decodebench -q
"""

import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
from glimpse import DecodeConfig, decode_with_answer, make_counting_backend  # noqa: E402
from glimpse.backends.base import HistoryMask  # noqa: E402
from glimpse.engine import verify  # noqa: E402
from glimpse.trace import DecodeTrace, IterationRecord  # noqa: E402


# ---------------------------------------------------------------- statistics


def test_median_reports_value_and_count():
    assert stats.median([3.0, 1.0, 2.0]) == stats.Stat(2.0, 3)
    assert stats.median([4, 1, 3, 2]) == stats.Stat(2.5, 4)
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_is_nearest_rank():
    vals = list(range(1, 11))
    assert stats.percentile(vals, 50) == stats.Stat(5.0, 10)
    assert stats.percentile(vals, 90) == stats.Stat(9.0, 10)
    assert stats.percentile(vals, 91) == stats.Stat(10.0, 10)
    assert stats.percentile(vals, 100) == stats.Stat(10.0, 10)
    with pytest.raises(ValueError):
        stats.percentile(vals, 0)


def test_tail_needs_forty_samples_and_ten_beyond():
    assert stats.tail(range(39)) is None
    q, stat = stats.tail(range(1, 101))
    assert (q, stat) == (90.0, stats.Stat(90.0, 100))
    q, stat = stats.tail(range(1, 1001))
    assert (q, stat) == (99.0, stats.Stat(990.0, 1000))
    q, _ = stats.tail(range(1, 10001))
    assert q == 99.9


def test_quartile_spread_matches_statistics_quantiles():
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == stats.Stat(1.0, 5)
    assert stats.quartile_spread([10.0] * 10) == stats.Stat(0.0, 10)
    with pytest.raises(ValueError):
        stats.quartile_spread([1.0])


def test_steady_scales_by_the_bracketing_probes():
    ref = speed.REFERENCE_S
    assert speed.steady(0.8, ref, ref) == pytest.approx(0.8)
    # Probes twice as slow as the reference: the machine ran at half speed.
    assert speed.steady(0.8, 2 * ref, 2 * ref) == pytest.approx(0.4)
    assert speed.steady(0.8, ref, 3 * ref) == pytest.approx(0.4)
    assert 0.0 < speed.probe() < 1.0


# ------------------------------------------------------------- output checks


def test_counting_stream_closed_form():
    assert checks.counting_stream([7, 3], [4, 5, 6, 7, 8], 10, 5) is None
    assert checks.counting_stream([9], [0, 1, 2], 10, 3) is None
    assert checks.counting_stream([7, 3], [4, 5, 0, 7, 8], 10, 5)
    assert checks.counting_stream([7, 3], [4, 5, 6, 7], 10, 5)


def test_iteration_bound():
    # ceil(2 * 100 / 9) + 4 = 27
    assert checks.iteration_bound(100, 27, 7) is None
    assert checks.iteration_bound(100, 28, 7)


def _trace(stream):
    trace = DecodeTrace(method="parallel", prompt=[1], window_len=1, skip=True)
    for i, tok in enumerate(stream):
        trace.records.append(
            IterationRecord(
                iteration=i + 1, frontier_before=1 + i, frontier=2 + i, window_before=[0],
                predictions=[tok, 0], match_len=0, committed=[tok], window=[0],
            )
        )
    buf = io.StringIO()
    trace.write_jsonl(buf)
    return buf.getvalue()


def test_trace_roundtrip():
    text = _trace([2, 3, 4])
    assert checks.trace_roundtrip(text, [2, 3, 4]) is None
    assert checks.trace_roundtrip(text, [2, 3, 5])
    assert checks.trace_roundtrip(text.replace('"committed": [3]', '"committed": [9]'), [2, 3, 4])
    assert checks.trace_roundtrip("", [2, 3, 4])


def test_lossless_and_oracle_prefix():
    assert checks.lossless([1, 2, 3], [1, 2, 3]) is None
    assert checks.lossless([1, 2, 4], [1, 2, 3])
    assert checks.lossless([1, 2], [1, 2, 3])
    assert checks.oracle_prefix([1, 2, 3, 4], [1, 2]) is None
    assert checks.oracle_prefix([1, 5, 3, 4], [1, 2])
    assert checks.oracle_prefix([1], [1, 2])


def test_answer_is_cut_at_eos():
    eos = 9
    assert checks.answer([4, 5], [4, 5, eos, 6], eos) is None
    assert checks.answer([4, 5], [4, 5], eos) is None
    assert checks.answer([4, 6], [4, 5, eos], eos)
    assert checks.answer([4, 5, eos], [4, 5, eos], eos)


# -------------------------------------------------------------------- tracer


def test_tracer_attributes_every_second_and_restores_names():
    import glimpse.engine as engine

    originals = (engine.verify, HistoryMask.pick, engine.IterationRecord)
    backend = make_counting_backend(10)
    cfg = DecodeConfig(window_len=3, max_new_tokens=40, answer_max_tokens=2)
    tr = tracer.Tracer()
    with tracer.installed(tr):
        with tr.request("0.par"):
            res = decode_with_answer([1, 2], backend, cfg)
    assert (engine.verify, HistoryMask.pick, engine.IterationRecord) == originals
    assert engine.verify is verify

    iterations = res.trace.iterations
    assert tr.calls["engine.iterate"] == iterations
    assert tr.calls["trace.record"] == iterations
    assert tr.calls["base.pick"] == iterations * 4 + 2  # c+1 per iteration, one per answer token
    assert tr.calls[tracer.REQUEST] == 1
    wall = tr.total_s[tracer.REQUEST]
    assert sum(tr.self_s.values()) == pytest.approx(wall, rel=1e-9)
    assert all(span[5] == "0.par" for span in tr.spans)

    metrics = tracer.layer_metrics(tr, untimed_s=0.0, trace_bytes=0)
    assert metrics["trace.records"] == iterations
    assert metrics["buffer.context_tokens"] > 0
    assert metrics["toy.forward_calls"] == 0
    offered = tr.counts["buffer.guesses_offered"]
    assert offered == 3 * iterations
    assert 0.0 < metrics["buffer.accept_ratio"] <= 1.0


def test_reported_metrics_match_benchmark_json():
    import json

    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = list(tracer.layer_metrics(tracer.Tracer(), 0.0, 0))
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    for m in spec["per_layer"]:
        assert m["unit"] == run._unit(m["name"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
