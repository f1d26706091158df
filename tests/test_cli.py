import csv
import io
import json
import shlex
import sys
from pathlib import Path

import oracles
import pytest

from glimpse.backends import default_toy_spec, make_counting_backend, make_toy_transformer
from glimpse.cli import _BENCH_METHODS, _READERS, main
from glimpse.engine import DecodeConfig, decode

from conftest import as_ar


def run_cli(*argv):
    return main(list(argv))


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0].removeprefix("# manifest: "))
    rows = list(csv.DictReader(lines[1:]))
    return manifest, rows


def test_decode_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "decode",
        "--backend", "counting",
        "--prompt", "0",
        "--window", "3",
        "--max-new-tokens", "10",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["manifest"]["command"] == "decode"
    assert payload["results"][0]["exact_rationale"] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 0]
    assert (out / "trace.jsonl").exists()
    assert (out / "tokens.txt").exists()


def test_decode_trace_file_reads_back_one_trace_per_prompt(tmp_path):
    from glimpse.trace import read_traces

    out = tmp_path / "run"
    args = ["--prompt", "0", "--prompt", "5", "--prompt", "3,4", "--window", "3"]
    assert run_cli("decode", "--backend", "counting", *args, "--out", str(out)) == 0
    results = json.loads((out / "result.json").read_text())["results"]
    with (out / "trace.jsonl").open() as fh:
        traces = read_traces(fh)
    assert [t.prompt for t in traces] == [[0], [5], [3, 4]]
    assert [t.committed_stream() for t in traces] == [r["exact_rationale"] for r in results]


def test_a_failing_decode_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys):
    import glimpse.cli

    def fail(prompts, backend, cfg, *, answer=False):
        raise RuntimeError("backend went away")

    monkeypatch.setattr(glimpse.cli, "decode", fail)
    out = tmp_path / "o"
    assert run_cli("decode", "--backend", "counting", "--prompt", "0", "--out", str(out)) == 1
    assert "error: backend went away" in capsys.readouterr().err
    assert not out.exists()


def test_decode_missing_config_exits_2(tmp_path):
    code = run_cli(
        "decode",
        "--config", str(tmp_path / "nope.json"),
        "--backend", "counting",
        "--prompt", "0",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2


def test_decode_no_backend_exits_2(tmp_path):
    code = run_cli("decode", "--prompt", "0", "--out", str(tmp_path / "o"))
    assert code == 2


def test_decode_over_capacity_exits_2(tmp_path):
    # 3 + (600 - 1) + 4 context tokens exceed the toy's default max_len of 512
    code = run_cli(
        "decode",
        "--backend", "toy",
        "--prompt", "1,2,3",
        "--window", "4",
        "--max-new-tokens", "600",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2


def test_decode_rerun_identical_tokens(tmp_path):
    args = [
        "decode",
        "--backend", "toy",
        "--seed", "11",
        "--prompt", "1,2,3",
        "--window", "4",
        "--max-new-tokens", "12",
    ]
    run_cli(*args, "--out", str(tmp_path / "a"))
    run_cli(*args, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a/tokens.txt").read_bytes() == (
        tmp_path / "b/tokens.txt"
    ).read_bytes()
    assert (tmp_path / "a/result.json").read_bytes() == (
        tmp_path / "b/result.json"
    ).read_bytes()


def test_window_zero_matches_ar_byte_identical(tmp_path):
    # decode at --window 0 runs the loop that AR runs
    prompts, budget = [[1, 2, 3], [9, 8]], 40
    code = run_cli(
        "decode",
        "--backend", "toy",
        "--seed", "11",
        *[arg for p in prompts for arg in ("--prompt", ",".join(map(str, p)))],
        "--window", "0",
        "--max-new-tokens", str(budget),
        "--out", str(tmp_path / "p"),
    )
    assert code == 0
    backend = make_toy_transformer(11, default_toy_spec())
    cfg = DecodeConfig(window_len=0, max_new_tokens=budget)
    solo = [decode([p], backend, as_ar(cfg))[0] for p in prompts]
    expected = [" ".join(map(str, r.exact_rationale)) for r in solo]
    assert (tmp_path / "p/tokens.txt").read_text().splitlines()[1:] == expected


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "decode": {"window_len": 2, "max_new_tokens": 6},
                "backend": {"kind": "counting"},
            }
        )
    )
    out = tmp_path / "o"
    code = run_cli(
        "decode", "--config", str(cfg), "--prompt", "5", "--out", str(out)
    )
    assert code == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["results"][0]["exact_rationale"] == [6, 7, 8, 9, 0, 1]
    # CLI flag overrides the file value
    code = run_cli(
        "decode",
        "--config", str(cfg),
        "--prompt", "5",
        "--max-new-tokens", "3",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["results"][0]["exact_rationale"] == [6, 7, 8]


def test_bench_report_shape(tmp_path):
    out = tmp_path / "bench"
    code = run_cli(
        "bench",
        "--backend", "counting",
        "--prompt", "0",
        "--prompt", "5",
        "--window", "4",
        "--max-new-tokens", "40",
        "--out", str(out),
    )
    assert code == 0
    manifest, rows = read_csv(out / "bench.csv")
    assert manifest["command"] == "bench"
    assert len(rows) == 2 * 4  # (methods) x (prompts)
    by_key = {(r["method"], r["prompt_id"]): r for r in rows}
    for pid in ("0", "1"):
        skip_iters = int(by_key[("parallel_skip", pid)]["iterations"])
        noskip_iters = int(by_key[("parallel_noskip", pid)]["iterations"])
        assert skip_iters <= noskip_iters
        assert int(by_key[("ar", pid)]["iterations"]) == int(
            by_key[("ar", pid)]["exact_tokens"]
        )
        # truncated pairs with the no-skip run: same exact-token count
        assert (
            by_key[("truncated", pid)]["exact_tokens"]
            == by_key[("parallel_noskip", pid)]["exact_tokens"]
        )
    report = json.loads((out / "bench_report.json").read_text())
    assert {r["method"] for r in report["rows"]} == {
        "ar",
        "truncated",
        "parallel_noskip",
        "parallel_skip",
    }


@pytest.mark.parametrize("methods", ["", "ar,ar", "ar,truncated,ar"])
def test_bench_takes_each_method_once(tmp_path, methods):
    common = ["bench", "--backend", "counting", "--prompt", "0", "--max-new-tokens", "8"]
    out = tmp_path / "o"
    assert run_cli(*common, "--methods", methods, "--out", str(out)) == 2
    assert not out.exists()
    assert run_cli(*common, "--methods", "ar,truncated", "--out", str(out)) == 0
    report = json.loads((out / "bench_report.json").read_text())
    assert [r["method"] for r in report["rows"]] == ["ar", "truncated"]


def test_bench_unknown_method_exits_2(tmp_path):
    code = run_cli(
        "bench",
        "--backend", "counting",
        "--prompt", "0",
        "--methods", "warp",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2


def test_sweep_window_rows(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep-window",
        "--backend", "counting",
        "--prompt", "0",
        "--windows", "0,3",
        "--max-new-tokens", "18",
        "--out", str(out),
    )
    assert code == 0
    _, rows = read_csv(out / "sweep.csv")
    keys = [(r["window_len"], r["iteration"]) for r in rows]
    assert len(keys) == len(set(keys))  # exactly one row per (c, iteration)
    c0 = [r for r in rows if r["window_len"] == "0"]
    assert len(c0) == 18  # c=0 is the AR baseline: one iteration per token
    assert all(r["windows"] == "0" for r in c0)
    c3 = [r for r in rows if r["window_len"] == "3"]
    assert any(int(r["total_hit"]) > 0 for r in c3)


def test_sweep_hit_counts_nondecreasing_in_window(tmp_path):
    out = tmp_path / "sweep2"
    code = run_cli(
        "sweep-window",
        "--backend", "counting",
        "--prompt", "0",
        "--windows", "2,4",
        "--max-new-tokens", "24",
        "--out", str(out),
    )
    assert code == 0
    _, rows = read_csv(out / "sweep.csv")
    th = {}
    for r in rows:
        th.setdefault(r["window_len"], {})[int(r["iteration"])] = int(r["total_hit"])
    shared = set(th["2"]) & set(th["4"])
    assert shared
    assert all(th["4"][i] >= th["2"][i] for i in shared)
    assert sum(th["4"].values()) > sum(th["2"].values())


def test_toy_backend_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "decode": {"window_len": 2, "max_new_tokens": 6},
                "backend": {
                    "kind": "toy",
                    "seed": 9,
                    "vocab_size": 32,
                    "n_layers": 1,
                    "n_heads": 2,
                    "model_dim": 16,
                    "max_len": 64,
                },
            }
        )
    )
    out = tmp_path / "o"
    code = run_cli("decode", "--config", str(cfg), "--prompt", "3,4", "--out", str(out))
    assert code == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["manifest"]["backend"]["vocab_size"] == 32
    assert len(payload["results"][0]["exact_rationale"]) == 6


def test_corrupt_curve_endpoints(tmp_path):
    out = tmp_path / "corr"
    code = run_cli(
        "corrupt",
        "--tasks", "4",
        "--n-seeds", "8",
        "--ratios", "0,0.5,1.0",
        "--rationale-len", "12",
        "--out", str(out),
    )
    assert code == 0
    _, rows = read_csv(out / "corruption.csv")
    assert len(rows) == 3
    assert float(rows[0]["mean"]) == 0.0
    assert float(rows[-1]["mean"]) == 1.0
    assert rows[0]["n"] == "8"


def test_glimpse_log_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GLIMPSE_LOG", "DEBUG")
    code = run_cli(
        "decode",
        "--backend", "counting",
        "--prompt", "1",
        "--window", "0",
        "--max-new-tokens", "3",
        "--out", str(tmp_path / "o"),
    )
    assert code == 0


def test_config_file_values_not_hidden_by_flag_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"backend": {"kind": "scripted", "num_keys": 3, "rationale_len": 12}})
    )
    out = tmp_path / "o"
    assert run_cli("decode", "--config", str(cfg), "--prompt", "3 20", "--out", str(out)) == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["manifest"]["backend"] == {
        "kind": "scripted",
        "num_keys": 3,
        "rationale_len": 12,
    }
    # 12 rationale tokens, then EOS
    assert len(payload["results"][0]["exact_rationale"]) == 13
    # a flag still wins over the file
    code = run_cli(
        "decode", "--config", str(cfg), "--prompt", "3 20", "--keys", "2", "--out", str(out)
    )
    assert code == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["manifest"]["backend"]["num_keys"] == 2

    cfg.write_text(json.dumps({"backend": {"kind": "counting", "modulus": 7}}))
    for flags, modulus in (([], 7), (["--modulus", "5"], 5)):
        code = run_cli("decode", "--config", str(cfg), "--prompt", "0", *flags, "--out", str(out))
        assert code == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["manifest"]["backend"]["modulus"] == modulus


def test_corrupt_reads_no_decode_settings(tmp_path):
    from glimpse.backends import RetrievalScript
    from glimpse.corruption import task_config

    common = ["corrupt", "--tasks", "2", "--n-seeds", "2", "--ratios", "1.0"]
    assert run_cli(*common, "--out", str(tmp_path / "d")) == 0
    manifest, rows = read_csv(tmp_path / "d/corruption.csv")
    assert manifest["config"] == task_config(RetrievalScript()).to_dict()
    assert rows[0]["mean"] == "1.000000"

    # The budget is the script's: a rationale longer than 64 tokens is whole.
    out = tmp_path / "long"
    code = run_cli(
        "corrupt", "--tasks", "8", "--n-seeds", "2", "--rationale-len", "100", "--ratios", "1",
        "--out", str(out),
    )
    assert code == 0
    manifest, rows = read_csv(out / "corruption.csv")
    assert manifest["config"] == task_config(RetrievalScript(rationale_len=100)).to_dict()
    assert manifest["config"]["max_new_tokens"] == 101
    assert rows[0]["mean"] == "1.000000"


def test_bench_csv_is_the_report_in_print(tmp_path):
    from glimpse.trace import PHASES

    out = tmp_path / "bench"
    code = run_cli(
        "bench",
        "--backend", "toy",
        "--prompt", "1,2,3",
        "--prompt", "9,8",
        "--window", "4",
        "--max-new-tokens", "30",
        "--out", str(out),
    )
    assert code == 0
    csv_manifest, rows = read_csv(out / "bench.csv")
    report = json.loads((out / "bench_report.json").read_text())
    assert csv_manifest == report["manifest"]
    assert list(rows[0]) == [
        "method", "prompt_id", "iterations", "exact_tokens", "wall_s",
        *(f"{phase}_s" for phase in PHASES), "speedup_vs_ar", "answer_matches_full",
    ]
    assert len(rows) == len(report["rows"]) == 2 * 4
    for row, entry in zip(rows, report["rows"]):
        expected = {
            "method": entry["method"],
            "prompt_id": str(entry["prompt_id"]),
            "iterations": str(entry["iterations"]),
            "exact_tokens": str(entry["exact_tokens"]),
            "wall_s": f"{entry['wall_s']:.6f}",
            **{f"{p}_s": f"{entry['breakdown'][p]:.6f}" for p in PHASES},
            "speedup_vs_ar": f"{entry['speedup_vs_ar']:.4f}",
            "answer_matches_full": str(int(entry["answer_matches_full"])),
        }
        assert row == expected
        assert type(entry["answer_matches_full"]) is bool


def test_bench_decodes_each_distinct_config_once(tmp_path, monkeypatch):
    import glimpse.cli

    decodes = []

    def spy(prompts, backend, cfg, *, answer=False):
        assert answer and len(prompts) == 1
        decodes.append((cfg.window_len, cfg.skip, cfg.iteration_cap))
        return decode(prompts, backend, cfg, answer=answer)

    monkeypatch.setattr(glimpse.cli, "decode", spy)
    common = ["bench", "--backend", "counting", "--prompt", "0", "--window", "7"]
    common += ["--max-new-tokens", "200"]
    everything = ",".join(_BENCH_METHODS)
    ar, noskip, skip = (0, False, None), (7, False, None), (7, True, None)
    capped = [ar, (0, False, 5), (7, False, 5), (7, True, 5)]
    rows = {}
    for methods, cap, want in (
        ("ar,parallel_skip", (), [ar, skip]),
        # without a cap, truncated CoT is the ar run
        ("truncated", (), [ar]),
        (everything, (), [ar, noskip, skip]),
        # with one, it is its own capped run
        (everything, ("--max-iters", "5"), capped),
    ):
        decodes.clear()
        out = tmp_path / f"{methods.replace(',', '_')}{len(cap)}"
        assert run_cli(*common, *cap, "--methods", methods, "--out", str(out)) == 0
        assert decodes == want
        report = json.loads((out / "bench_report.json").read_text())
        untimed = ("prompt_id", "iterations", "exact_tokens", "answer_matches_full")
        rows[methods, cap] = {r["method"]: [r[key] for key in untimed] for r in report["rows"]}
        if methods == "truncated":
            assert report["rows"][0]["speedup_vs_ar"] == 1.0
    # the rows of the methods asked for are those of a run of all four, timing aside
    full = rows[everything, ()]
    assert rows["ar,parallel_skip", ()] == {m: full[m] for m in ("ar", "parallel_skip")}
    assert rows["truncated", ()] == {"truncated": full["truncated"]} == {"truncated": full["ar"]}
    # a capped truncated row is AR at the cap: one exact token per iteration
    assert rows[everything, ("--max-iters", "5")]["truncated"] == [0, 5, 5, False]


def test_bench_answers_match_full_cot_where_the_rationale_resolves(tmp_path):
    # Scripted retrieval: an answer needs every key token in its context.
    # Within the cap of 8 iterations the skip run commits the whole
    # 24-token rationale, keys included; truncated CoT commits one token per
    # iteration, too few to hold every key.
    prompts = [f"3,{q}" for q in range(16, 80, 8)]
    out = tmp_path / "bench"
    code = run_cli(
        "bench",
        "--backend", "scripted",
        "--keys", "2",
        *[arg for p in prompts for arg in ("--prompt", p)],
        "--window", "4",
        "--max-iters", "8",
        "--answer-trigger", "4,5",
        "--out", str(out),
    )
    assert code == 0
    rows = json.loads((out / "bench_report.json").read_text())["rows"]
    matches = {
        m: [r["answer_matches_full"] for r in rows if r["method"] == m] for m in _BENCH_METHODS
    }
    assert matches["ar"] == [True] * len(prompts)
    assert matches["parallel_skip"] == [True] * len(prompts)
    assert matches["truncated"] == [False] * len(prompts)


def test_decode_frees_each_chunk_before_the_next(tmp_path, monkeypatch):
    import gc
    import weakref

    import glimpse.cli

    chunks, alive = [], []

    def spy(prompts, backend, cfg, *, answer=False):
        gc.collect()
        # the first chunk's results still alive as this chunk starts
        alive.append(sum(ref() is not None for ref in chunks[0]) if chunks else 0)
        results = decode(prompts, backend, cfg, answer=answer)
        chunks.append([weakref.ref(result) for result in results])
        return results

    monkeypatch.setattr(glimpse.cli, "decode", spy)
    chunk = glimpse.cli.DECODE_CHUNK
    prompts = tmp_path / "prompts.json"
    prompts.write_text(json.dumps([[1 + i % 60] * (1 + i % 3) for i in range(2 * chunk + 3)]))
    argv = ["decode", "--backend", "toy", "--prompts-file", str(prompts), "--window", "4",
            "--max-new-tokens", "6", "--answer-trigger", "4,5", "--out", str(tmp_path / "o")]
    assert run_cli(*argv) == 0
    assert len(chunks) == 3
    assert alive[2] == 0, alive


def test_decode_runs_its_prompts_as_one_batch(tmp_path, monkeypatch):
    import glimpse.cli
    import glimpse.engine

    allocs, pipelines, answers = [], [], []
    cache = glimpse.engine.CacheBuffer
    answer_phase = glimpse.engine.answer_phase

    def alloc_spy(batch, max_len, spec):
        allocs.append(batch)
        return cache(batch, max_len, spec)

    def run_spy(prompts, *args, **kwargs):
        pipelines.append(len(prompts))
        return decode(prompts, *args, **kwargs)

    def answer_spy(contexts, *args, **kwargs):
        answers.append(len(contexts))
        return answer_phase(contexts, *args, **kwargs)

    monkeypatch.setattr(glimpse.engine, "CacheBuffer", alloc_spy)
    monkeypatch.setattr(glimpse.cli, "decode", run_spy)
    monkeypatch.setattr(glimpse.engine, "answer_phase", answer_spy)
    prompts = ["1,2,3", "9,8,7,6,5", "40", "11,12"]
    code = run_cli(
        "decode",
        "--backend", "toy",
        *[arg for p in prompts for arg in ("--prompt", p)],
        "--window", "4",
        "--max-new-tokens", "12",
        "--answer-trigger", "4,5",
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    # one cache with a row per prompt, one pipeline and one answer phase
    assert (allocs, pipelines, answers) == ([4], [4], [4])


def test_decode_allocates_one_cache_per_chunk(tmp_path, monkeypatch):
    import glimpse.cli
    import glimpse.engine

    allocs = []
    cache = glimpse.engine.CacheBuffer

    def alloc_spy(batch, max_len, spec):
        allocs.append(batch)
        return cache(batch, max_len, spec)

    monkeypatch.setattr(glimpse.engine, "CacheBuffer", alloc_spy)
    chunk = glimpse.cli.DECODE_CHUNK
    prompts = tmp_path / "prompts.json"
    prompts.write_text(json.dumps([[1 + i % 60] * (1 + i % 3) for i in range(2 * chunk + 3)]))

    def run(out):
        argv = ["decode", "--backend", "toy", "--prompts-file", str(prompts), "--window", "4",
                "--max-new-tokens", "6", "--answer-trigger", "4,5", "--out", str(out)]
        assert run_cli(*argv) == 0
        return [(out / name).read_bytes() for name in ("result.json", "tokens.txt")]

    chunked = run(tmp_path / "chunked")
    # one cache, and so one batch, per chunk; the last chunk holds the rest
    assert allocs == [chunk, chunk, 3]
    monkeypatch.setattr(glimpse.cli, "DECODE_CHUNK", 2 * chunk + 3)
    allocs.clear()
    # the chunks write what one batch of every prompt writes
    assert run(tmp_path / "whole") == chunked
    assert allocs == [2 * chunk + 3]


def test_sweep_window_decodes_one_reference_per_prompt(tmp_path, monkeypatch):
    import glimpse.cli

    calls = []

    def spy(prompts, backend, cfg, *, answer=False):
        calls.append((prompts, cfg.window_len, cfg.skip))
        return decode(prompts, backend, cfg, answer=answer)

    monkeypatch.setattr(glimpse.cli, "decode", spy)
    code = run_cli(
        "sweep-window",
        "--backend", "counting",
        "--prompt", "0",
        "--prompt", "4,2",
        "--windows", "0,2,4,8",
        "--max-new-tokens", "20",
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    # per prompt, a rationale run per window size, then one greedy reference
    want = []
    for prompt in ([0], [4, 2]):
        want += [([prompt], c, True) for c in (0, 2, 4, 8)] + [([prompt], 0, False)]
    assert calls == want


@pytest.mark.parametrize(
    "backend_args, make_backend, prompts",
    [
        (["--backend", "counting"], lambda: make_counting_backend(10), [[0], [4, 2]]),
        (
            ["--backend", "toy", "--seed", "1"],
            lambda: make_toy_transformer(1, default_toy_spec()),
            [[1, 2, 3], [7, 8]],
        ),
    ],
)
def test_sweep_hits_match_replayed_traces(tmp_path, backend_args, make_backend, prompts):
    windows, budget = (0, 2, 4, 8), 40
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep-window",
        *backend_args,
        *[arg for p in prompts for arg in ("--prompt", ",".join(map(str, p)))],
        "--windows", ",".join(map(str, windows)),
        "--max-new-tokens", str(budget),
        "--out", str(out),
    )
    assert code == 0
    _, rows = read_csv(out / "sweep.csv")
    # Each count's column and its oracle key.
    columns = {
        "windows": "windows_evaluated",
        "first_hit": "first_hit",
        "total_hit": "total_hit",
        "occur_guess_in_ref": "occur_guess_in_ref",
        "occur_ref_in_guess": "occur_ref_in_guess",
    }
    backend = make_backend()
    for c in windows:
        cfg = DecodeConfig(window_len=c, max_new_tokens=budget)
        expected = dict.fromkeys(("first_hit", "total_hit", "windows_evaluated"), 0)
        # Per iteration: the oracle over the header and that iteration's
        # line, summed over the prompts.
        per_iteration: dict[str, dict[str, int]] = {}
        for prompt in prompts:
            fh = io.StringIO()
            decode([prompt], backend, cfg)[0].trace.write_jsonl(fh)
            reference = oracles.greedy_ar_reference(
                backend, prompt, budget + c + 1, cfg.repetition_penalty
            )
            trace_lines = fh.getvalue().splitlines()
            replay = oracles.replay_hit_report(trace_lines, reference)
            for key in expected:
                expected[key] += replay[key]
            header, *lines = trace_lines
            for line in lines:
                obj = json.loads(line)
                if obj["type"] != "iteration":
                    continue
                one = oracles.replay_hit_report([header, line], reference)
                sums = per_iteration.setdefault(str(obj["iteration"]), dict.fromkeys(columns, 0))
                for column, key in columns.items():
                    sums[column] += one[key]
        mine = [r for r in rows if r["window_len"] == str(c)]
        assert mine
        assert {
            "first_hit": sum(int(r["first_hit"]) for r in mine),
            "total_hit": sum(int(r["total_hit"]) for r in mine),
            "windows_evaluated": sum(int(r["windows"]) for r in mine),
        } == expected
        assert {r["iteration"]: {col: int(r[col]) for col in columns} for r in mine} == per_iteration
    assert expected["windows_evaluated"] > 0


def test_readme_quick_start_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("glimpse ")]
    outputs = {
        "decode": ["result.json", "trace.jsonl", "tokens.txt"],
        "bench": ["bench_report.json", "bench.csv"],
        "sweep-window": ["sweep.csv", "sweep.json"],
        "corrupt": ["corruption.csv"],
    }
    assert [argv[1] for argv in commands] == list(outputs)
    for argv in commands:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
        assert main(argv[1:]) == 0, argv
        for name in outputs[argv[1]]:
            assert (Path(argv[at]) / name).exists(), (argv, name)


def test_sweep_window_runs_no_answer_phase(tmp_path):
    # The rationale (8 + 39 + 4 tokens) and its reference fit max_len 64;
    # the answer after it (+ 2 trigger + 16 answer tokens) would not.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": {"kind": "toy", "seed": 1, "max_len": 64}}))
    common = ["--config", str(cfg), "--prompt", "10,11,12,13,14,15,16,17"]
    common += ["--max-new-tokens", "40", "--out", str(tmp_path / "o")]
    assert run_cli("decode", *common, "--window", "4", "--answer-trigger", "4,5") == 2
    assert run_cli("sweep-window", *common, "--windows", "4") == 0


def test_sweep_reference_fits_where_the_rationale_fits(tmp_path):
    # The c=4 rationale (8 prompt + 53 exact tokens) needs contexts of 64
    # tokens; its last window ends at most 53 + 4 - 1 tokens in, so the
    # reference fits max_len 64 as well.
    prompt, c, budget = list(range(10, 18)), 4, 53
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"backend": {"kind": "toy", "seed": 1, "max_len": 64}}))
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep-window",
        "--config", str(cfg_path),
        "--prompt", ",".join(map(str, prompt)),
        "--windows", str(c),
        "--max-new-tokens", str(budget),
        "--out", str(out),
    )
    assert code == 0
    _, rows = read_csv(out / "sweep.csv")
    # The same counts from a reference as long as any window of the run
    # can reach, replayed over the rationale's trace.
    backend = make_toy_transformer(1, default_toy_spec(max_len=64))
    cfg = DecodeConfig(window_len=c, max_new_tokens=budget)
    result = decode([prompt], backend, cfg)[0]
    fh = io.StringIO()
    result.trace.write_jsonl(fh)
    reference = oracles.greedy_ar_reference(backend, prompt, budget + c - 1, cfg.repetition_penalty)
    replay = oracles.replay_hit_report(fh.getvalue().splitlines(), reference)
    assert replay["windows_evaluated"] == result.trace.iterations
    assert {
        "first_hit": sum(int(r["first_hit"]) for r in rows),
        "total_hit": sum(int(r["total_hit"]) for r in rows),
        "windows_evaluated": sum(int(r["windows"]) for r in rows),
    } == {k: replay[k] for k in ("first_hit", "total_hit", "windows_evaluated")}


@pytest.mark.parametrize(
    "content",
    ['[[1, "a"]]', "[[1, 2.7]]", "[[1, true]]", "[1, 2]", '"12"', "7", '{"prompts": [[0], [1.0]]}',
     '{"prompts": [[0]]}'],
)
def test_prompts_file_takes_only_integer_lists(tmp_path, content):
    # refused, not cast: [1, 2.7] is not the prompt [1, 2], nor true a 1
    path = tmp_path / "prompts.json"
    path.write_text(content)
    out = tmp_path / "o"
    code = run_cli(
        "decode", "--backend", "counting", "--prompts-file", str(path), "--out", str(out)
    )
    assert code == 2
    assert not out.exists()


def test_a_prompts_file_that_is_not_a_list_drops_no_prompt(tmp_path):
    # an object is refused, not read as a list under some key
    path = tmp_path / "prompts.json"
    path.write_text('{"prompt": [[5, 6]]}')
    out = tmp_path / "o"
    argv = ["decode", "--backend", "counting", "--prompt", "1", "--prompts-file", str(path)]
    assert run_cli(*argv, "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "ratios, n_seeds, seed",
    [("0.5,x", "1", "0"), ("0.5,1.5", "1", "0"), ("nan", "1", "0"), ("0.5", "0", "0"),
     ("0.5", "1", "-1")],
    ids=["0.5,x-1", "0.5,1.5-1", "nan-1", "0.5-0", "seed-1"],
)
def test_corrupt_refuses_a_bad_grid_before_any_work(tmp_path, monkeypatch, ratios, n_seeds, seed):
    import glimpse.cli

    def no_tasks(*args):
        raise AssertionError("tasks built before the grid was checked")

    monkeypatch.setattr(glimpse.cli, "make_scripted_tasks", no_tasks)
    out = tmp_path / "o"
    code = run_cli(
        "corrupt", "--tasks", "1", "--n-seeds", n_seeds, "--ratios", ratios, "--seed", seed,
        "--out", str(out),
    )
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "section",
    [
        {"window_len": 2.5},
        {"answer_trigger": 5},
        {"skip": "no"},
        {"iteration_cap": 1.5},
        # the answer phase reuses the cache it is given; there is no switch
        {"reuse_cache_for_answer": True},
        # a penalty no float holds: inf would reach the manifest as Infinity,
        # which is not JSON, and a 401-digit int would overflow mid-decode
        {"repetition_penalty": float("inf")},
        {"repetition_penalty": float("nan")},
        {"repetition_penalty": 10**400},
    ],
)
def test_bad_decode_section_exits_2(tmp_path, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"decode": section}))
    out = tmp_path / "o"
    code = run_cli(
        "decode", "--config", str(cfg), "--backend", "counting", "--prompt", "0",
        "--max-new-tokens", "20", "--out", str(out),
    )
    assert code == 2
    assert not out.exists()


# Each command's arguments besides its config file and output directory.
_ARGS = {
    "decode": ["--backend", "counting", "--prompt", "0"],
    "bench": ["--backend", "counting", "--prompt", "0"],
    "sweep-window": ["--backend", "counting", "--prompt", "0", "--windows", "0,2"],
    "corrupt": ["--tasks", "1", "--n-seeds", "1", "--ratios", "1"],
}


@pytest.mark.parametrize(
    "command, section",
    [
        ("sweep-window", {"window_len": 5, "answer_trigger": [4, 5], "answer_max_tokens": 3}),
        ("sweep-window", {"window_len": 5}),
        ("sweep-window", {"answer_trigger": [4, 5]}),
        ("sweep-window", {"answer_max_tokens": 3}),
        ("bench", {"skip": False}),
        ("corrupt", {"window_len": 0}),
        ("corrupt", {"skip": True}),
        ("corrupt", {"iteration_cap": 2}),
        ("corrupt", {"max_new_tokens": 5}),
        ("decode", {"probe_threshold": 0.5}),
        ("corrupt", {"answer_trigger": [4, 5]}),
        ("corrupt", {"repetition_penalty": 1.0}),
        ("corrupt", {"answer_max_tokens": 3}),
    ],
)
def test_a_decode_key_the_command_does_not_read_exits_2(tmp_path, command, section):
    # keys of the command's own config that its run never reads, and one no run reads
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"decode": section}))
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), *_ARGS[command], "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, section, output",
    [
        (
            "decode",
            {
                "window_len": 2, "skip": False, "max_new_tokens": 10, "iteration_cap": 5,
                "repetition_penalty": 1.0, "answer_trigger": [4, 5], "answer_max_tokens": 3,
            },
            "result.json",
        ),
        (
            "bench",
            {
                "window_len": 2, "max_new_tokens": 10, "iteration_cap": 5,
                "repetition_penalty": 1.0, "answer_trigger": [4, 5], "answer_max_tokens": 3,
            },
            "bench_report.json",
        ),
        (
            "sweep-window",
            {"skip": False, "max_new_tokens": 10, "iteration_cap": 5, "repetition_penalty": 1.0},
            "sweep.json",
        ),
    ],
)
def test_a_decode_key_the_command_reads_enters_the_manifest(tmp_path, command, section, output):
    # every decode key the command reads
    read = {key for key, commands in _READERS.items() if command in commands}
    assert set(section) == read & set(DecodeConfig.__dataclass_fields__)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"decode": section}))
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), *_ARGS[command], "--out", str(out)) == 0
    manifest = json.loads((out / output).read_text())["manifest"]
    assert {key: manifest["config"][key] for key in section} == section


@pytest.mark.parametrize(
    "command, flag",
    [
        ("bench", ["--skip"]),
        ("sweep-window", ["--window", "5"]),
        ("sweep-window", ["--answer-trigger", "4,5"]),
        ("corrupt", ["--backend", "scripted"]),
        ("corrupt", ["--window", "3"]),
        ("corrupt", ["--no-skip"]),
        ("corrupt", ["--max-iters", "1"]),
        ("corrupt", ["--prompt", "0"]),
        ("corrupt", ["--max-new-tokens", "5"]),
        ("corrupt", ["--table", "t.txt"]),
        ("corrupt", ["--prompts-file", "p.json"]),
        ("corrupt", ["--modulus", "3"]),
        ("corrupt", ["--answer-trigger", "4,5"]),
    ],
)
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, command, flag):
    # each of these was accepted, written to the manifest and ignored
    rest = _ARGS[command]
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *rest, *flag, "--out", str(out))
    assert exc.value.code == 2
    assert not out.exists()
    assert run_cli(command, *rest, "--out", str(out)) == 0


def _subparsers():
    import argparse

    from glimpse.cli import build_parser

    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_readme_flag_table_is_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Flags per command", 1)[1].split("\n#", 1)[0]
    lines = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("|")]
    head, _, *rows = lines
    commands = [cell.strip() for cell in head[2:]]
    documented = {c: set() for c in commands}
    for flags, _, *ticks in rows:
        for command, tick in zip(commands, ticks):
            if tick.strip():
                documented[command].update(flags.replace("`", "").replace(",", " ").split())
    parsers = _subparsers()
    assert commands == list(parsers)
    accepted = {
        command: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
        for command, p in parsers.items()
    }
    assert documented == accepted
    # one setting per dest: --skip and --no-skip are one
    assert sum(len({a.dest for a in p._actions} - {"help"}) for p in parsers.values()) == 52


@pytest.mark.parametrize(
    "command, args",
    [
        ("decode", ["--backend", "counting", "--prompt", ""]),
        ("decode", ["--backend", "counting", "--prompt", "12"]),
        ("decode", ["--backend", "counting", "--prompt", "0", "--prompt", "3,12"]),
        ("bench", ["--backend", "counting", "--prompt", "12"]),
        ("sweep-window", ["--backend", "counting", "--prompt", "12", "--windows", "2"]),
        ("sweep-window", ["--backend", "counting", "--prompt", "", "--windows", "2"]),
        # over capacity: refused by the decode itself, before anything is written
        ("decode", ["--backend", "toy", "--seed", "1", "--prompt", "1", "--max-new-tokens", "600"]),
        # the first prompt and its 16-token answer fit 1 + 495 + 16 = 512 tokens
        # and are decoded; the second prompt does not fit
        (
            "decode",
            ["--backend", "toy", "--window", "0", "--prompt", "1", "--prompt", "1,2",
             "--max-new-tokens", "496"],
        ),
    ],
)
def test_a_refused_prompt_writes_nothing(tmp_path, command, args):
    out = tmp_path / "o"
    assert run_cli(command, *args, "--out", str(out)) == 2
    assert not out.exists()


def test_a_refused_later_chunk_writes_nothing(tmp_path, monkeypatch):
    import glimpse.cli

    # The first chunk is decoded and its trace spooled; the second does not fit.
    monkeypatch.setattr(glimpse.cli, "DECODE_CHUNK", 1)
    out = tmp_path / "o"
    args = ["--backend", "toy", "--window", "0", "--prompt", "1", "--prompt", "1,2"]
    assert run_cli("decode", *args, "--max-new-tokens", "496", "--out", str(out)) == 2
    assert not out.exists()


# A size that no numpy array can hold, in a config file or a flag.
_HUGE = 99999999999999999999


@pytest.mark.parametrize(
    "command, flags, section",
    [
        ("decode", ["--max-new-tokens", str(_HUGE)], {}),
        ("decode", ["--window", str(_HUGE)], {}),
        ("decode", [], {"answer_max_tokens": _HUGE}),
        ("sweep-window", ["--windows", str(_HUGE)], {}),
        # each row fits, the two of a batch do not
        ("decode", ["--prompt", "4", "--max-new-tokens", str(sys.maxsize // 8 - 20)], {}),
    ],
)
def test_a_size_no_array_holds_exits_2_and_writes_nothing(
    tmp_path, capsys, command, flags, section
):
    # the counting backend has no max_len to refuse it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"decode": section}))
    out = tmp_path / "o"
    args = ["--config", str(cfg), "--backend", "counting", "--prompt", "3", *flags]
    assert run_cli(command, *args, "--out", str(out)) == 2
    assert "more than an array holds" in capsys.readouterr().err
    assert not out.exists()


def test_a_budget_no_machine_can_allocate_exits_2_and_writes_nothing(tmp_path, capsys):
    # The rows fit numpy's index but take 8 EiB, which the allocator refuses
    # at once, before any page is touched.
    budget = 1152921504606846956
    out = tmp_path / "o"
    args = ["--backend", "counting", "--prompt", "3", "--max-new-tokens", str(budget)]
    assert run_cli("decode", *args, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"a budget of {budget} new tokens" in err and "can allocate" in err
    assert not out.exists()


def test_a_toy_shape_no_machine_can_allocate_exits_2_and_writes_nothing(tmp_path, capsys):
    # The position table alone takes hundreds of TiB, which the allocator
    # refuses at once, before any page is touched.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": {"kind": "toy", "max_len": 10**12}}))
    out = tmp_path / "o"
    assert run_cli("decode", "--config", str(cfg), "--prompt", "3", "--out", str(out)) == 2
    assert "Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, flags",
    [
        ([1, 2], []),
        ({"decode": [1]}, []),
        ({"backend": "toy"}, []),
        ({"backend": {"kind": ["toy"]}}, []),
        ({}, ["--backend", "counting", "--modulus", "1"]),
        ({"backend": {"kind": "toy", "n_heads": 3}}, []),
        ({"backend": {"kind": "toy", "max_len": 0}}, []),
        ({"backend": {"kind": "toy", "max_len": "x"}}, []),
        ({"backend": {"kind": "toy", "model_dim": 0}}, []),
        ({"backend": {"kind": "toy", "seed": -1}}, []),
        ({"backend": {"kind": "toy", "n_layers": 1.0}}, []),
        ({"backend": {"kind": "counting", "modulus": "7"}}, []),
        ({"backend": {"kind": "counting", "modulus": True}}, []),
        ({"backend": {"kind": "ngram", "table": 5}}, []),
        ({}, ["--backend", "ngram", "--table", "MISSING_TABLE"]),
        ({}, ["--backend", "ngram", "--table", "BAD_TABLE"]),
        # the n-gram order is the table's longest context, not a setting
        ({"backend": {"kind": "ngram", "order": 2}}, ["--table", "GOOD_TABLE"]),
    ],
)
def test_bad_backend_settings_and_config_shapes_exit_2(tmp_path, config, flags):
    (tmp_path / "BAD_TABLE.txt").write_text("5 -> 6\n6 ->\n")  # line 2 has no successor
    (tmp_path / "GOOD_TABLE.txt").write_text("5 -> 6\n")
    subst = {
        name: str(tmp_path / f"{name}.txt") for name in ("BAD_TABLE", "GOOD_TABLE", "MISSING_TABLE")
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    for command in ("decode", "bench"):
        argv = [command, "--config", str(cfg), "--prompt", "5", "--out", str(out)]
        assert run_cli(*argv, *[subst.get(f, f) for f in flags]) == 2
        assert not out.exists()


def test_readme_backend_table_is_the_cli_table():
    from glimpse.cli import _BACKENDS

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Backends", 1)[1].split("\n#", 1)[0]
    lines = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("|")]
    head, _, *rows = lines
    assert [cell.strip() for cell in head[:2]] == ["kind", "settings"]
    documented = {}
    for kind, settings, *_ in rows:
        # each setting is `name`, or `name` = default
        items = [item.split("=") for item in settings.replace("`", "").split(",")]
        documented[kind.strip(" `")] = {
            item[0].strip(): json.loads(item[1]) if len(item) > 1 else None for item in items
        }
    assert documented == {kind: defaults for kind, (defaults, _) in _BACKENDS.items()}


# The backend kind that reads each setting, and a value it takes.
_SETTINGS = {
    "seed": ("toy", 3),
    "vocab_size": ("toy", 64),
    "n_layers": ("toy", 1),
    "n_heads": ("toy", 2),
    "model_dim": ("toy", 16),
    "max_len": ("toy", 64),
    "table": ("ngram", "TABLE"),
    "num_keys": ("scripted", 2),
    "rationale_len": ("scripted", 12),
    "modulus": ("counting", 7),
}
_FLAG_OF = {
    "seed": "--seed",
    "table": "--table",
    "num_keys": "--keys",
    "rationale_len": "--rationale-len",
    "modulus": "--modulus",
}
_KINDS = ("toy", "ngram", "scripted", "counting")


def _decode_line(tmp_path, kind):
    """A decode of ``kind`` that exits 0, and the output directory it writes."""
    table = tmp_path / "table.txt"
    table.write_text("5 -> 6\n6 -> 7\n")
    extra = ["--table", str(table)] if kind == "ngram" else []
    out = tmp_path / "o"
    argv = ["decode", "--backend", kind, *extra, "--prompt", "5", "--max-new-tokens", "4"]
    return [*argv, "--out", str(out)], out


@pytest.mark.parametrize(
    "kind, flag, value",
    [
        (kind, _FLAG_OF[key], str(value))
        for key, (reader, value) in _SETTINGS.items()
        if key in _FLAG_OF
        for kind in _KINDS
        if kind != reader
    ],
)
def test_a_backend_flag_the_kind_does_not_read_exits_2(tmp_path, kind, flag, value):
    # each was accepted, written nowhere and ignored
    argv, out = _decode_line(tmp_path, kind)
    assert run_cli(*argv, flag, value) == 2
    assert not out.exists()
    assert run_cli(*argv) == 0


@pytest.mark.parametrize(
    "section",
    [
        *(
            {"kind": kind, key: value}
            for key, (reader, value) in _SETTINGS.items()
            for kind in _KINDS
            if kind != reader
        ),
        {"kind": "counting", "modulos": 7},
        {"kind": "toy", "window_len": 2},
        {"kind": "scripted", "prompt": [1]},
    ],
)
def test_a_backend_key_the_kind_does_not_read_exits_2(tmp_path, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": section}))
    argv, out = _decode_line(tmp_path, section["kind"])
    assert run_cli(*argv, "--config", str(cfg)) == 2
    assert not out.exists()
    cfg.write_text(json.dumps({"backend": {"kind": section["kind"]}}))
    assert run_cli(*argv, "--config", str(cfg)) == 0


def test_a_backend_flag_reads_its_setting_and_the_manifest_records_it(tmp_path):
    for key, (kind, value) in _SETTINGS.items():
        argv, out = _decode_line(tmp_path, kind)
        cfg = tmp_path / "cfg.json"
        value = str(tmp_path / "table.txt") if key == "table" else value
        cfg.write_text(json.dumps({"backend": {"kind": kind, key: value}}))
        assert run_cli(*argv, "--config", str(cfg)) == 0, key
        manifest = json.loads((out / "result.json").read_text())["manifest"]
        assert manifest["backend"][key] == value
        if key in _FLAG_OF:
            flag_value = value if key == "table" else value + 1
            assert run_cli(*argv, "--config", str(cfg), _FLAG_OF[key], str(flag_value)) == 0
            manifest = json.loads((out / "result.json").read_text())["manifest"]
            assert manifest["backend"][key] == flag_value


def test_a_flag_kind_refuses_the_file_settings_of_another(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": {"kind": "toy", "seed": 3}}))
    argv, out = _decode_line(tmp_path, "counting")
    assert run_cli(*argv, "--config", str(cfg)) == 2
    assert not out.exists()
    cfg.write_text(json.dumps({"backend": {"kind": "toy"}}))
    assert run_cli(*argv, "--config", str(cfg)) == 0


@pytest.mark.parametrize("section", [{"kind": "toy"}, {"kind": "counting"}, {"modulus": 7}])
def test_corrupt_reads_only_scripted_settings(tmp_path, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": section}))
    out = tmp_path / "o"
    argv = ["corrupt", "--tasks", "1", "--n-seeds", "1", "--ratios", "1", "--out", str(out)]
    assert run_cli(*argv, "--config", str(cfg)) == 2
    assert not out.exists()
    cfg.write_text(json.dumps({"backend": {"kind": "scripted", "seed": 2, "num_keys": 2}}))
    assert run_cli(*argv, "--config", str(cfg)) == 0
    manifest, _ = read_csv(out / "corruption.csv")
    assert manifest["backend"] == {
        "kind": "scripted", "num_keys": 2, "rationale_len": 24, "tasks": 1, "task_seed": 2,
    }


@pytest.mark.parametrize(
    "case", ["config is a directory", "prompts file is a directory", "config is not UTF-8"]
)
def test_a_file_the_cli_cannot_read_exits_2(tmp_path, case):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"backend": {"kind": "counting"}, "decode": {"window_len": "\xff"}}')
    prompts = tmp_path / "prompts.json"
    prompts.write_text("[[0]]")
    files = {
        "config is a directory": ["--config", str(tmp_path)],
        "prompts file is a directory": ["--prompts-file", str(tmp_path)],
        "config is not UTF-8": ["--config", str(cfg)],
    }[case]
    out = tmp_path / "o"
    argv = ["decode", "--backend", "counting", "--prompts-file", str(prompts), *files]
    assert run_cli(*argv, "--out", str(out)) == 2
    assert not out.exists()
