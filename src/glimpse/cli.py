"""Command-line entry point: decode, bench, sweep-window, corrupt.

Every command reads an optional JSON config (each setting comes from its
flag if given, else from the file, else a default), builds a deterministic
backend, and writes machine-readable outputs (JSON report, JSONL traces,
CSV tables).  Each output embeds the run manifest so results are
replayable; reruns with the same manifest produce identical token outputs
(wall-clock fields excepted).

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
Set GLIMPSE_LOG=DEBUG|INFO|WARNING for log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence, TextIO

from glimpse import __version__
from glimpse.backends import (
    Backend,
    RetrievalScript,
    default_toy_spec,
    make_counting_backend,
    make_ngram_backend,
    make_scripted_backend,
    make_toy_transformer,
)
from glimpse.backends.scripted import PAD
from glimpse.corruption import (
    CorruptionSpec,
    default_answer_config,
    make_scripted_tasks,
    run_overlap_experiment,
)
from glimpse.engine import (
    DecodeConfig,
    ar_baseline,
    decode_with_answer,
    run_rationale,
    truncated_cot,
)
from glimpse.errors import ConfigError
from glimpse.metrics import (
    PHASES,
    HitReport,
    WindowRecord,
    aggregate,
    iteration_savings,
    score_window,
    snapshots_from_trace,
)

log = logging.getLogger("glimpse")


def _manifest(command: str, cfg: DecodeConfig, backend_desc: dict, names: list[str]) -> dict:
    """Identity of one CLI run, embedded in every output file.

    ``names`` are basenames only: identical runs into different
    directories stay byte-identical.
    """
    return {
        "command": command,
        "config": cfg.to_dict(),
        "config_digest": hashlib.sha256(cfg.digest_payload().encode()).hexdigest(),
        "backend": backend_desc,
        "version": __version__,
        "outputs": names,
    }


def _parse_tokens(text: str) -> list[int]:
    parts = text.replace(",", " ").split()
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad token list {text!r}") from exc


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _pick(flag, section: dict, key: str, default=None):
    """A setting's value: the flag if given, else the config file's, else ``default``."""
    return flag if flag is not None else section.get(key, default)


def _build_config(
    args: argparse.Namespace, file_cfg: dict, base: dict | None = None
) -> DecodeConfig:
    """``base`` (default: ``window_len`` 0), then the file's ``decode`` section, then flags."""
    data = {**(base or {"window_len": 0}), **file_cfg.get("decode", {})}
    flags = {
        "window_len": args.window,
        "skip": args.skip,
        "iteration_cap": args.max_iters,
        "probe_threshold": args.probe_threshold,
        "max_new_tokens": args.max_new_tokens,
    }
    data.update({k: v for k, v in flags.items() if v is not None})
    if args.answer_trigger is not None:
        data["answer_trigger"] = _parse_tokens(args.answer_trigger)
    return DecodeConfig.from_dict(data)


def _script(args: argparse.Namespace, section: dict) -> RetrievalScript:
    return RetrievalScript(
        num_keys=_pick(args.keys, section, "num_keys", 1),
        rationale_len=_pick(args.rationale_len, section, "rationale_len", 24),
    )


def _build_backend(args: argparse.Namespace, file_cfg: dict) -> tuple[Backend, dict]:
    section = dict(file_cfg.get("backend", {}))
    kind = _pick(args.backend, section, "kind")
    if kind is None:
        raise ConfigError("no backend selected (use --backend or config)")
    seed = _pick(args.seed, section, "seed", 0)
    if kind == "toy":
        spec_kwargs = {
            k: section[k]
            for k in ("vocab_size", "n_layers", "n_heads", "model_dim", "max_len")
            if k in section
        }
        backend: Backend = make_toy_transformer(seed, default_toy_spec(**spec_kwargs))
        desc = {"kind": "toy", "seed": seed, **spec_kwargs}
    elif kind == "ngram":
        table = _pick(args.table, section, "table")
        if table is None:
            raise ConfigError("ngram backend needs --table")
        order = _pick(args.order, section, "order", 2)
        backend = make_ngram_backend(order, table)
        desc = {"kind": "ngram", "table": str(table), "order": order}
    elif kind == "scripted":
        script = _script(args, section)
        backend = make_scripted_backend(script)
        desc = {
            "kind": "scripted",
            "num_keys": script.num_keys,
            "rationale_len": script.rationale_len,
        }
    elif kind == "counting":
        modulus = _pick(args.modulus, section, "modulus", 10)
        backend = make_counting_backend(modulus)
        desc = {"kind": "counting", "modulus": modulus}
    else:
        raise ConfigError(f"unknown backend {kind!r}")
    return backend, desc


def _prompts_from_args(args: argparse.Namespace) -> list[list[int]]:
    prompts: list[list[int]] = []
    if args.prompt:
        prompts.extend(_parse_tokens(p) for p in args.prompt)
    if args.prompts_file:
        data = _load_json(args.prompts_file)
        if isinstance(data, dict):
            data = data.get("prompts", [])
        # JSON integers only, as the backends take ids: no floats, bools or strings.
        if not isinstance(data, list) or not all(
            isinstance(p, list) and all(type(t) is int for t in p) for p in data
        ):
            raise ConfigError(f"{args.prompts_file}: prompts must be lists of integers")
        prompts.extend(data)
    if not prompts:
        raise ConfigError("no prompts given (use --prompt or --prompts-file)")
    return prompts


def _setup(
    args: argparse.Namespace, command: str, names: list[str]
) -> tuple[DecodeConfig, Backend, list[list[int]], list[Path], dict]:
    """Config, backend, prompts, output paths and manifest of a decoding command.

    The output directory is made by the first write (``_open``), so a
    configuration error leaves nothing on disk.
    """
    file_cfg = _load_json(args.config) if args.config else {}
    cfg = _build_config(args, file_cfg)
    backend, desc = _build_backend(args, file_cfg)
    prompts = _prompts_from_args(args)
    out = Path(args.out or "out")
    return cfg, backend, prompts, [out / n for n in names], _manifest(command, cfg, desc, names)


def _open(path: Path) -> TextIO:
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", newline="")


def _header(manifest: dict) -> str:
    return f"# manifest: {json.dumps(manifest, sort_keys=True)}\n"


def _write_json(path: Path, manifest: dict, key: str, rows: list[dict]) -> None:
    with _open(path) as fh:
        json.dump({"manifest": manifest, key: rows}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: Path, manifest: dict, header: list[str], rows: list[list]) -> None:
    with _open(path) as fh:
        fh.write(_header(manifest))
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_decode(args: argparse.Namespace) -> int:
    cfg, backend, prompts, paths, manifest = _setup(
        args, "decode", ["result.json", "trace.jsonl", "tokens.txt"]
    )
    result_path, trace_path, tokens_path = paths
    decode = ar_baseline if args.method == "ar" else decode_with_answer
    payloads = []
    token_lines = []
    with _open(trace_path) as tf:
        for prompt in prompts:
            result = decode(prompt, backend, cfg)
            payloads.append(
                {
                    "prompt": prompt,
                    "method": args.method,
                    "exact_rationale": result.exact_rationale,
                    "approximate_tail": result.approximate_tail,
                    "answer": result.answer,
                    "stop": {"reason": result.stop.reason, "value": result.stop.value},
                    "iterations": result.trace.iterations,
                    "exact_tokens": len(result.exact_rationale),
                }
            )
            token_lines.append(" ".join(str(t) for t in result.exact_rationale))
            result.trace.write_jsonl(tf)
    _write_json(result_path, manifest, "results", payloads)
    # Exact-token file: the method flag is deliberately not part of the
    # manifest, so equivalent runs (c=0 vs the AR baseline) compare equal
    # byte for byte.
    with _open(tokens_path) as fh:
        fh.write(_header(manifest) + "\n".join(token_lines) + "\n")
    log.info("wrote %s, %s and %s", result_path, trace_path, tokens_path)
    print(f"decode: {len(prompts)} prompt(s) -> {result_path}")
    return 0


_BENCH_METHODS = ("ar", "truncated", "parallel_noskip", "parallel_skip")


def cmd_bench(args: argparse.Namespace) -> int:
    cfg, backend, prompts, (report_path, csv_path), manifest = _setup(
        args, "bench", ["bench_report.json", "bench.csv"]
    )
    methods = list(args.methods.split(",")) if args.methods else list(_BENCH_METHODS)
    for m in methods:
        if m not in _BENCH_METHODS:
            raise ConfigError(f"unknown method {m!r} (choose from {_BENCH_METHODS})")

    report: list[dict] = []
    for pid, prompt in enumerate(prompts):
        # Every method is measured against AR; truncated CoT gets as many
        # iterations as the no-skip run took.
        noskip = decode_with_answer(prompt, backend, replace(cfg, skip=False))
        ar = ar_baseline(prompt, backend, cfg)
        for method in methods:
            if method == "truncated":
                res = truncated_cot(prompt, backend, cfg, noskip.trace.iterations)
            elif method == "parallel_skip":
                res = decode_with_answer(prompt, backend, replace(cfg, skip=True))
            else:
                res = noskip if method == "parallel_noskip" else ar
            wall = res.trace.wall_s
            entry = {
                "method": method,
                "prompt_id": pid,
                "iterations": res.trace.iterations,
                "exact_tokens": len(res.exact_rationale),
                "wall_s": wall,
                "breakdown": res.trace.breakdown.as_dict(),
                "stop_check_s": res.trace.stop_check_s,
                "speedup_vs_ar": ar.trace.wall_s / wall if wall > 0 else 0.0,
            }
            if method in ("parallel_noskip", "parallel_skip"):
                entry["savings"] = iteration_savings(res.trace, ar.trace).as_dict()
            report.append(entry)
    _write_csv(
        csv_path,
        manifest,
        ["method", "prompt_id", "iterations", "exact_tokens", "wall_s"]
        + [f"{phase}_s" for phase in PHASES]
        + ["speedup_vs_ar"],
        [
            [e["method"], e["prompt_id"], e["iterations"], e["exact_tokens"], f"{e['wall_s']:.6f}"]
            + [f"{e['breakdown'][phase]:.6f}" for phase in PHASES]
            + [f"{e['speedup_vs_ar']:.4f}"]
            for e in report
        ],
    )
    _write_json(report_path, manifest, "rows", report)
    print(f"bench: {len(prompts)} prompt(s) x {len(methods)} methods -> {csv_path}")
    return 0


# The hit report of an iteration in which no window was scored.
_NO_WINDOWS = HitReport(0, 0.0, 0, 0.0, 0, 0.0, 0, 0.0, 0, 0).as_dict()


def cmd_sweep_window(args: argparse.Namespace) -> int:
    cfg, backend, prompts, (csv_path, json_path), manifest = _setup(
        args, "sweep-window", ["sweep.csv", "sweep.json"]
    )
    windows = sorted({int(w) for w in _parse_tokens(args.windows)})
    if len(windows) == 0:
        raise ConfigError("no window sizes given")

    # Per window size and iteration: the scored windows, and each run's
    # rationale wall time per iteration.
    scored: dict[int, dict[int, list[WindowRecord]]] = {c: {} for c in windows}
    calls: dict[int, dict[int, list[float]]] = {c: {} for c in windows}
    for prompt in prompts:
        runs = {c: run_rationale(prompt, backend, replace(cfg, window_len=c)) for c in windows}
        # One greedy reference covers every window span of every run (a
        # larger budget only extends the greedy stream).  A window starts at
        # most len(exact) - 1 tokens in, so it ends by len(exact) + c - 1.
        budget = max(1, *(len(res.exact_rationale) + c - 1 for c, res in runs.items()))
        reference = ar_baseline(prompt, backend, replace(cfg, max_new_tokens=budget))
        for c, res in runs.items():
            for snap in snapshots_from_trace(res.trace, reference.exact_rationale):
                scored[c].setdefault(snap.iteration, []).append(score_window(snap))
            mean_call = res.trace.wall_s / res.trace.iterations if res.trace.iterations else 0.0
            for rec in res.trace.records:
                calls[c].setdefault(rec.iteration, []).append(mean_call)
    payload = []
    for c in windows:
        for iteration, means in sorted(calls[c].items()):
            recs = scored[c].get(iteration)
            payload.append(
                {
                    "window_len": c,
                    "iteration": iteration,
                    **(aggregate(recs).as_dict() if recs else _NO_WINDOWS),
                    "mean_call_s": sum(means) / len(means),
                }
            )
    _write_csv(
        csv_path,
        manifest,
        [
            "window_len",
            "iteration",
            "windows",
            "first_hit",
            "first_hit_ratio",
            "total_hit",
            "total_hit_ratio",
            "occur_guess_in_ref",
            "occur_ref_in_guess",
            "mean_call_s",
        ],
        [
            [
                r["window_len"],
                r["iteration"],
                r["windows_evaluated"],
                r["first_hit"],
                f"{r['first_hit_ratio']:.4f}",
                r["total_hit"],
                f"{r['total_hit_ratio']:.4f}",
                r["occur_guess_in_ref"],
                r["occur_ref_in_guess"],
                f"{r['mean_call_s']:.6f}",
            ]
            for r in payload
        ],
    )
    _write_json(json_path, manifest, "rows", payload)
    print(f"sweep-window: {len(windows)} window size(s) -> {csv_path}")
    return 0


def cmd_corrupt(args: argparse.Namespace) -> int:
    # The grid is checked before the tasks are built, which decodes every task.
    try:
        ratios = [float(r) for r in args.ratios.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad ratio list {args.ratios!r}") from exc
    spec = CorruptionSpec(ratios=sorted(ratios), seeds=list(range(args.n_seeds)), pad_id=PAD)
    file_cfg = _load_json(args.config) if args.config else {}
    section = file_cfg.get("backend", {})
    cfg = _build_config(args, file_cfg, default_answer_config().to_dict())
    script = _script(args, section)
    task_seed = _pick(args.seed, section, "seed", 0)
    cases, backend = make_scripted_tasks(args.tasks, task_seed, script)
    rows = run_overlap_experiment(cases, spec, backend, cfg)
    csv_path = Path(args.out or "out") / "corruption.csv"
    desc = {
        "kind": "scripted",
        "num_keys": script.num_keys,
        "rationale_len": script.rationale_len,
        "tasks": args.tasks,
        "task_seed": task_seed,
    }
    _write_csv(
        csv_path,
        _manifest("corrupt", cfg, desc, [csv_path.name]),
        ["ratio", "mean", "stddev", "n"],
        [[f"{r.ratio:.4f}", f"{r.mean:.6f}", f"{r.stddev:.6f}", r.n_seeds] for r in rows],
    )
    print(f"corrupt: {len(rows)} ratio row(s) -> {csv_path}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument(
        "--backend", choices=["toy", "ngram", "scripted", "counting"], default=None
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--window", type=int, default=None, help="lookahead window size")
    skip = p.add_mutually_exclusive_group()
    skip.add_argument("--skip", dest="skip", action="store_true", default=None)
    skip.add_argument("--no-skip", dest="skip", action="store_false")
    p.add_argument("--max-iters", type=int, default=None, help="iteration cap")
    p.add_argument("--probe-threshold", type=float, default=None)
    p.add_argument("--max-new-tokens", type=int, default=None)
    p.add_argument("--answer-trigger", default=None, help="token list, e.g. '4,5'")
    p.add_argument("--table", help="ngram table file")
    p.add_argument("--order", type=int, default=None, help="ngram order")
    p.add_argument("--keys", type=int, default=None, help="scripted key tokens")
    p.add_argument("--rationale-len", type=int, default=None)
    p.add_argument("--modulus", type=int, default=None, help="counting modulus")
    p.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glimpse",
        description="Parallel decoding engine with verified exact commits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="run one decode per prompt")
    _add_common(p)
    p.add_argument("--prompt", action="append", help="inline token list")
    p.add_argument("--prompts-file", help="JSON list of prompts")
    p.add_argument(
        "--method", choices=["parallel", "ar"], default="parallel"
    )
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bench", help="compare decode methods per prompt")
    _add_common(p)
    p.add_argument("--prompt", action="append")
    p.add_argument("--prompts-file")
    p.add_argument("--methods", help="comma list of methods", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep-window", help="hit metrics per window size")
    _add_common(p)
    p.add_argument("--prompt", action="append")
    p.add_argument("--prompts-file")
    p.add_argument("--windows", required=True, help="window sizes, e.g. '0,2,4,8'")
    p.set_defaults(func=cmd_sweep_window)

    p = sub.add_parser("corrupt", help="accuracy vs kept-token ratio")
    _add_common(p)
    p.add_argument("--tasks", type=int, default=8)
    p.add_argument("--n-seeds", type=int, default=40)
    p.add_argument(
        "--ratios", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"
    )
    p.set_defaults(func=cmd_corrupt)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("GLIMPSE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract
        log.exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
