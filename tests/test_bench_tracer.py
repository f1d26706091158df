"""The benchmark tracer's hooks still find the names they wrap.

``decodebench/tracer.py`` attributes time and work by replacing public
names of the program (``ToyTransformer.forward_batch``,
``CacheBuffer.write_back``, the padding plans the toy calls, ...).  A
rename or a changed signature would silently zero its per-layer metrics;
these tests run it over tiny decodes so that shows up here.
"""

import importlib.util
from pathlib import Path

import pytest

from glimpse.backends import default_toy_spec, make_counting_backend, make_toy_transformer
from glimpse.engine import DecodeConfig, decode

_TRACER_PATH = Path(__file__).resolve().parents[1] / "decodebench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("decodebench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_layer_and_restores_names(tracer):
    def wrapped_names():
        return {
            (owner, attr): owner.__dict__[attr]
            for owner, attr, _, _ in tracer._targets(tracer.Tracer())
        }

    originals = wrapped_names()
    toy = make_toy_transformer(1, default_toy_spec(vocab_size=64, model_dim=32, max_len=96))
    cfg = DecodeConfig(window_len=3, max_new_tokens=12, answer_trigger=(4, 5), answer_max_tokens=3)
    tr = tracer.Tracer()
    with tracer.installed(tr):
        decode([[7, 8, 9]], toy, cfg, answer=True)
        decode([[1, 2, 3, 4, 5], [6, 7]], toy, cfg)
        decode([[0]], make_counting_backend(10), cfg, answer=True)
    assert wrapped_names() == originals

    metrics = tracer.layer_metrics(tr, untimed_s=0.0, trace_bytes=0)
    for name in (
        "toy.forward_calls",
        "cache.positions_written",
        "cache.kv_pad_ratio",
        "cache.input_pad_ratio",
        "base.pick_calls",
        "counting.context_tokens",
        "trace.records",
        "engine.answer_phase_s",
        "engine.check_stop_s",
        # The window/AR split reads forward_batch's block lengths per instance.
        "toy.window_call_ratio",
        "buffer.accept_ratio",
    ):
        assert metrics[name] > 0, name
    # one block pick per iteration, answer iterations included
    assert metrics["base.pick_calls"] == metrics["trace.records"]


def test_tracer_times_the_batched_answer_phase(tracer):
    # A pipeline that answered or checked stops under another name would
    # zero these per-layer metrics without failing anything else.
    toy = make_toy_transformer(1, default_toy_spec(vocab_size=64, model_dim=32, max_len=96))
    cfg = DecodeConfig(window_len=3, max_new_tokens=12, answer_trigger=(4, 5), answer_max_tokens=3)
    tr = tracer.Tracer()
    with tracer.installed(tr):
        decode([[3, 4], [5, 6, 7, 8], [9]], toy, cfg, answer=True)
    metrics = tracer.layer_metrics(tr, untimed_s=0.0, trace_bytes=0)
    assert metrics["engine.answer_phase_s"] > 0
    assert metrics["engine.check_stop_s"] > 0
    assert tr.calls["engine.answer_phase"] == 1


def test_tracer_counts_the_positions_write_back_commits(tracer):
    # The tracer reads write_back's count positionally; an argument order
    # that put another integer there would miscount without failing above.
    # Each instance's cache ends one short of its exact context: the last
    # committed token is the next forward's input.
    toy = make_toy_transformer(1, default_toy_spec(vocab_size=64, model_dim=32, max_len=96))
    prompts = [[1, 2, 3, 4, 5], [6, 7]]
    tr = tracer.Tracer()
    with tracer.installed(tr):
        results = decode(prompts, toy, DecodeConfig(window_len=3, max_new_tokens=12))
    metrics = tracer.layer_metrics(tr, untimed_s=0.0, trace_bytes=0)
    expected = sum(len(p) + len(r.exact_rationale) - 1 for p, r in zip(prompts, results))
    assert metrics["cache.positions_written"] == expected == 29


@pytest.mark.parametrize("answer", [False, True], ids=["rationale", "answer"])
def test_tracer_sees_every_check_and_plan_of_a_solo_toy_decode(tracer, answer):
    # Each toy forward checks its one context and plans its key padding
    # through the module names the tracer wraps; a refactor that bound one
    # of them locally would zero its per-layer metric without failing above.
    toy = make_toy_transformer(1, default_toy_spec(vocab_size=64, model_dim=32, max_len=96))
    cfg = DecodeConfig(window_len=3, max_new_tokens=12, answer_trigger=(4, 5), answer_max_tokens=3)
    tr = tracer.Tracer()
    with tracer.installed(tr):
        decode([[7, 8, 9]], toy, cfg, answer=answer)
    assert tr.calls["base.check_args"] == tr.calls["cache.plan"] == tr.calls["toy.forward"] > 0
