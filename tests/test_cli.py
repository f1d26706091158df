import csv
import json
from pathlib import Path

from glimpse.cli import main


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
    common = [
        "--backend", "counting",
        "--prompt", "2",
        "--window", "0",
        "--max-new-tokens", "15",
    ]
    run_cli("decode", *common, "--method", "parallel", "--out", str(tmp_path / "p"))
    run_cli("decode", *common, "--method", "ar", "--out", str(tmp_path / "a"))
    assert (tmp_path / "p/tokens.txt").read_bytes() == (
        tmp_path / "a/tokens.txt"
    ).read_bytes()


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
