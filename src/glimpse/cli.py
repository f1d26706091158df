"""Command-line entry point: decode, bench, sweep-window, corrupt.

Every command reads an optional JSON config (each setting comes from its
flag if given, else from the file, else a default), builds a deterministic
backend, and writes machine-readable outputs (JSON report, JSONL traces,
CSV tables).  Each output embeds the run manifest so results are
replayable; reruns with the same manifest produce identical token outputs
(wall-clock fields excepted).  The methods that ``bench`` compares are
configs of one decode loop, and each distinct config decodes once per prompt.

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
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence, TextIO

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
from glimpse.backends.base import check_forward_args
from glimpse.corruption import check_grid, make_scripted_tasks, run_overlap_experiment, task_config
from glimpse.engine import DecodeConfig, decode
from glimpse.errors import ConfigError
from glimpse.metrics import HitReport, aggregate, window_hits
from glimpse.trace import PHASES

log = logging.getLogger("glimpse")


def _manifest(command: str, cfg: DecodeConfig, backend_desc: dict, names: list[str]) -> dict:
    """Identity of one CLI run, embedded in every output file.

    ``names`` are basenames only: identical runs into different
    directories stay byte-identical.
    """
    config = cfg.to_dict()
    return {
        "command": command,
        "config": config,
        "config_digest": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
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


def _load_json(path: str) -> object:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_config(path: str | None) -> dict:
    """The config file: an object whose ``decode`` and ``backend`` are objects."""
    data = _load_json(path) if path else {}
    if not isinstance(data, dict) or not all(
        isinstance(data.get(key, {}), dict) for key in ("decode", "backend")
    ):
        raise ConfigError(f"{path}: the config and its decode and backend sections must be objects")
    return data


# The decode settings a flag can give; each flag's dest is the key it sets.
_DECODE_FLAGS = ("window_len", "skip", "iteration_cap", "max_new_tokens")


def _build_config(args: argparse.Namespace, file_cfg: dict) -> DecodeConfig:
    """``window_len`` 0, then the file's ``decode`` section, then flags.

    The file may set only the decode keys that the command reads.
    """
    section = file_cfg.get("decode", {})
    unread = sorted(key for key in section if args.command not in _READERS.get(key, ()))
    if unread:
        raise ConfigError(f"{args.command} does not read decode {', '.join(unread)}")
    data = {"window_len": 0, **section}
    flags = vars(args)
    data.update({key: flags[key] for key in _DECODE_FLAGS if flags.get(key) is not None})
    if flags.get("answer_trigger") is not None:
        data["answer_trigger"] = _parse_tokens(args.answer_trigger)
    return DecodeConfig.from_dict(data)


def _ngram(table: str | None = None) -> Backend:
    if table is None:
        raise ConfigError("ngram backend needs --table")
    return make_ngram_backend(table)


# Each backend kind: the settings it reads with their defaults, and its
# constructor, called with them.  A default of None is the backend's own
# and enters the manifest only when given.  Every setting but the n-gram
# table is a JSON integer (README, "Backends").
_BACKENDS: dict[str, tuple[dict, Callable[..., Backend]]] = {
    "toy": (
        {"seed": 0, **dict.fromkeys(("vocab_size", "n_layers", "n_heads", "model_dim", "max_len"))},
        lambda seed, **shape: make_toy_transformer(seed, default_toy_spec(**shape)),
    ),
    "ngram": ({"table": None}, _ngram),
    "scripted": (
        {"num_keys": 1, "rationale_len": 24},
        lambda **script: make_scripted_backend(RetrievalScript(**script)),
    ),
    "counting": ({"modulus": 10}, make_counting_backend),
}
# Every backend setting; a flag that gives one has it as its dest.
_BACKEND_KEYS = {key for defaults, _ in _BACKENDS.values() for key in defaults}


def _backend_settings(args: argparse.Namespace, section: dict, kind: str, defaults: dict) -> dict:
    """Each setting of a ``kind`` backend: its flag, else the file's, else ``defaults``.

    Settings left at None are dropped.  A setting that the kind does not
    read is refused, from a flag or from the file.
    """
    flags = vars(args)
    given = {key: value for key, value in section.items() if key != "kind"}
    given.update({key: flags[key] for key in _BACKEND_KEYS if flags.get(key) is not None})
    unread = sorted(set(given) - set(defaults))
    if unread:
        raise ConfigError(f"the {kind} backend does not read {', '.join(unread)}")
    for key, value in given.items():
        want = str if key == "table" else int
        if type(value) is not want:
            raise ConfigError(f"backend {key} must be {want.__name__}, got {value!r}")
    return {key: value for key, value in {**defaults, **given}.items() if value is not None}


def _build_backend(args: argparse.Namespace, file_cfg: dict) -> tuple[Backend, dict]:
    section = file_cfg.get("backend", {})
    kind = args.backend or section.get("kind")
    if kind is None:
        raise ConfigError("no backend selected (use --backend or config)")
    if not isinstance(kind, str) or kind not in _BACKENDS:
        raise ConfigError(f"unknown backend {kind!r}")
    defaults, make = _BACKENDS[kind]
    settings = _backend_settings(args, section, kind, defaults)
    return make(**settings), {"kind": kind, **settings}


def _prompts_from_args(args: argparse.Namespace) -> list[list[int]]:
    prompts: list[list[int]] = []
    if args.prompt:
        prompts.extend(_parse_tokens(p) for p in args.prompt)
    if args.prompts_file:
        data = _load_json(args.prompts_file)
        if not isinstance(data, list):
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
    file_cfg = _load_config(args.config)
    cfg = _build_config(args, file_cfg)
    try:  # a bad seed, shape, modulus or table file, or a shape no machine can allocate
        backend, desc = _build_backend(args, file_cfg)
    except (ValueError, OSError, MemoryError) as exc:
        raise ConfigError(str(exc)) from exc
    prompts = _prompts_from_args(args)
    for prompt in prompts:
        try:  # the backends' own check: a nonempty list of integer ids in the vocabulary
            check_forward_args(backend.spec, prompt, 1)
        except ValueError as exc:  # numpy's, for a ragged list, too
            raise ConfigError(f"prompt {prompt!r}: {exc}") from exc
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


#: ``decode`` runs its prompts as batches of at most this many, so that its
#: memory (one K/V cache row per prompt of a batch) does not grow with the
#: prompts file.
DECODE_CHUNK = 16


def cmd_decode(args: argparse.Namespace) -> int:
    cfg, backend, prompts, paths, manifest = _setup(
        args, "decode", ["result.json", "trace.jsonl", "tokens.txt"]
    )
    result_path, trace_path, tokens_path = paths
    # Every chunk is decoded before the first write, so a refused run writes
    # nothing; every trace carries its chunk's totals.  A chunk's results
    # are dropped once its payloads and token lines are taken and its traces
    # are spooled to an anonymous file, so of each prompt only its payload
    # and token line are kept, not its trace or K/V cache.
    payloads: list[dict] = []
    lines: list[str] = []
    with tempfile.TemporaryFile("w+", newline="") as spool:
        for start in range(0, len(prompts), DECODE_CHUNK):
            chunk = prompts[start : start + DECODE_CHUNK]
            for prompt, result in zip(chunk, decode(chunk, backend, cfg, answer=True)):
                payloads.append(
                    {
                        "prompt": prompt,
                        "exact_rationale": result.exact_rationale,
                        "approximate_tail": result.approximate_tail,
                        "answer": result.answer,
                        "stop": {"reason": result.stop.reason, "value": result.stop.value},
                        "iterations": result.trace.iterations,
                        "exact_tokens": len(result.exact_rationale),
                    }
                )
                lines.append(" ".join(str(t) for t in result.exact_rationale))
                result.trace.write_jsonl(spool)
        _write_json(result_path, manifest, "results", payloads)
        spool.seek(0)
        with _open(trace_path) as tf:
            shutil.copyfileobj(spool, tf)
    with _open(tokens_path) as fh:
        fh.write(_header(manifest) + "\n".join(lines) + "\n")
    log.info("wrote %s, %s and %s", result_path, trace_path, tokens_path)
    print(f"decode: {len(prompts)} prompt(s) -> {result_path}")
    return 0


# Each bench method as overrides of the run's config (``ar`` is also sweep-window's
# reference).  ``truncated`` is AR at the run's own iteration cap, so without one it
# is the ``ar`` run: full CoT.
_BENCH_METHODS = {
    "ar": {"window_len": 0, "skip": False, "iteration_cap": None},
    "truncated": {"window_len": 0, "skip": False},
    "parallel_noskip": {"skip": False},
    "parallel_skip": {"skip": True},
}


def cmd_bench(args: argparse.Namespace) -> int:
    cfg, backend, prompts, (report_path, csv_path), manifest = _setup(
        args, "bench", ["bench_report.json", "bench.csv"]
    )
    methods = args.methods.split(",") if args.methods is not None else list(_BENCH_METHODS)
    for m in methods:
        if m not in _BENCH_METHODS:
            raise ConfigError(f"unknown method {m!r} (choose from {tuple(_BENCH_METHODS)})")
    if len(set(methods)) < len(methods):
        raise ConfigError(f"each method at most once, got {args.methods!r}")

    report: list[dict] = []
    for pid, prompt in enumerate(prompts):
        # Every row is one run of the pipeline, answer included, measured
        # against full CoT; each distinct config decodes once.
        configs = {m: replace(cfg, **_BENCH_METHODS[m]) for m in ("ar", *methods)}
        distinct = dict.fromkeys(configs.values())
        runs = {c: decode([prompt], backend, c, answer=True)[0] for c in distinct}
        full = runs[configs["ar"]]
        for method in methods:
            res = runs[configs[method]]
            wall = res.trace.wall_s
            entry = {
                "method": method,
                "prompt_id": pid,
                "iterations": res.trace.iterations,
                "exact_tokens": len(res.exact_rationale),
                "wall_s": wall,
                "breakdown": res.trace.breakdown.as_dict(),
                "speedup_vs_ar": full.trace.wall_s / wall if wall > 0 else 0.0,
                "answer_matches_full": res.answer == full.answer,
            }
            report.append(entry)
    _write_csv(
        csv_path,
        manifest,
        ["method", "prompt_id", "iterations", "exact_tokens", "wall_s"]
        + [f"{phase}_s" for phase in PHASES]
        + ["speedup_vs_ar", "answer_matches_full"],
        [
            [e["method"], e["prompt_id"], e["iterations"], e["exact_tokens"], f"{e['wall_s']:.6f}"]
            + [f"{e['breakdown'][phase]:.6f}" for phase in PHASES]
            + [f"{e['speedup_vs_ar']:.4f}", int(e["answer_matches_full"])]
            for e in report
        ],
    )
    _write_json(report_path, manifest, "rows", report)
    print(f"bench: {len(prompts)} prompt(s) x {len(methods)} methods -> {csv_path}")
    return 0


# sweep.csv's columns: each one's header, the row key it prints and that
# value's format spec.
_SWEEP_COLUMNS = (
    ("window_len", "window_len", ""),
    ("iteration", "iteration", ""),
    ("windows", "windows_evaluated", ""),
    ("first_hit", "first_hit", ""),
    ("first_hit_ratio", "first_hit_ratio", ".4f"),
    ("total_hit", "total_hit", ""),
    ("total_hit_ratio", "total_hit_ratio", ".4f"),
    ("occur_guess_in_ref", "occur_guess_in_ref", ""),
    ("occur_ref_in_guess", "occur_ref_in_guess", ""),
    ("mean_call_s", "mean_call_s", ".6f"),
)


def cmd_sweep_window(args: argparse.Namespace) -> int:
    cfg, backend, prompts, (csv_path, json_path), manifest = _setup(
        args, "sweep-window", ["sweep.csv", "sweep.json"]
    )
    windows = sorted({int(w) for w in _parse_tokens(args.windows)})
    if len(windows) == 0:
        raise ConfigError("no window sizes given")

    # Per (window size, iteration): the windows scored there, and each
    # run's rationale wall time per iteration.
    cells: dict[tuple[int, int], tuple[list[HitReport], list[float]]] = {}
    for prompt in prompts:
        runs = {c: decode([prompt], backend, replace(cfg, window_len=c))[0] for c in windows}
        # One greedy reference covers every window span of every run (a
        # larger budget only extends the greedy stream).  A window starts at
        # most len(exact) - 1 tokens in, so it ends by len(exact) + c - 1.
        budget = max(1, *(len(res.exact_rationale) + c - 1 for c, res in runs.items()))
        ar = replace(cfg, **_BENCH_METHODS["ar"], max_new_tokens=budget)
        reference = decode([prompt], backend, ar)[0]
        for c, res in runs.items():
            hits = window_hits(res.trace, reference.exact_rationale)
            mean_call = res.trace.wall_s / res.trace.iterations if res.trace.iterations else 0.0
            for rec in res.trace.records:
                scored, means = cells.setdefault((c, rec.iteration), ([], []))
                if rec.iteration in hits:
                    scored.append(hits[rec.iteration])
                means.append(mean_call)
    payload = [
        {
            "window_len": c,
            "iteration": iteration,
            **aggregate(scored).as_dict(),
            "mean_call_s": sum(means) / len(means),
        }
        for (c, iteration), (scored, means) in sorted(cells.items())
    ]
    _write_csv(
        csv_path,
        manifest,
        [header for header, _, _ in _SWEEP_COLUMNS],
        [[format(r[key], spec) for _, key, spec in _SWEEP_COLUMNS] for r in payload],
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
    check_grid(ratios, args.n_seeds)
    file_cfg = _load_config(args.config)
    # The tasks' config is the script's own (corruption.task_config).
    if file_cfg.get("decode"):
        raise ConfigError(f"corrupt reads no decode settings, got {sorted(file_cfg['decode'])}")
    section = file_cfg.get("backend", {})
    if section.get("kind", "scripted") != "scripted":
        raise ConfigError(f"corrupt runs scripted tasks, not kind {section['kind']!r}")
    defaults = {**_BACKENDS["scripted"][0], "seed": 0}  # the seed of the tasks
    settings = _backend_settings(args, section, "scripted", defaults)
    task_seed = settings.pop("seed")
    if task_seed < 0:  # the tasks' numpy generator takes no negative seed
        raise ConfigError(f"seed {task_seed}: expected non-negative integer")
    script = RetrievalScript(**settings)
    cases, backend = make_scripted_tasks(args.tasks, task_seed, script)
    rows = run_overlap_experiment(cases, ratios, args.n_seeds, backend)
    csv_path = Path(args.out or "out") / "corruption.csv"
    desc = {"kind": "scripted", **settings, "tasks": args.tasks, "task_seed": task_seed}
    _write_csv(
        csv_path,
        _manifest("corrupt", task_config(script), desc, [csv_path.name]),
        ["ratio", "mean", "stddev", "n"],
        [[f"{r.ratio:.4f}", f"{r.mean:.6f}", f"{r.stddev:.6f}", r.n_seeds] for r in rows],
    )
    print(f"corrupt: {len(rows)} ratio row(s) -> {csv_path}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


_DECODING = "decode bench sweep-window"
_ALL = "decode bench sweep-window corrupt"

# Each flag, its argparse settings and the commands that read it: a command
# accepts exactly the flags that change its run (README, "Flags per command").
_FLAGS: list[tuple[tuple[str, ...], dict, str]] = [
    (("--config",), {"help": "JSON config file"}, _ALL),
    (("--backend",), {"choices": list(_BACKENDS)}, _DECODING),
    (("--seed",), {"type": int}, _ALL),
    (("--window",), {"type": int, "dest": "window_len"}, "decode bench"),
    (("--skip", "--no-skip"), {}, "decode sweep-window"),
    (("--max-iters",), {"type": int, "dest": "iteration_cap"}, _DECODING),
    (("--max-new-tokens",), {"type": int}, _DECODING),
    (("--answer-trigger",), {"help": "token list, e.g. '4,5'"}, "decode bench"),
    (("--table",), {"help": "ngram table file"}, _DECODING),
    (("--keys",), {"type": int, "dest": "num_keys", "help": "scripted key tokens"}, _ALL),
    (("--rationale-len",), {"type": int}, _ALL),
    (("--modulus",), {"type": int, "help": "counting modulus"}, _DECODING),
    (("--out",), {"default": "out", "help": "output directory"}, _ALL),
    (("--prompt",), {"action": "append", "help": "inline token list"}, _DECODING),
    (("--prompts-file",), {"help": "JSON list of prompts"}, _DECODING),
    (("--methods",), {"help": "comma list of methods"}, "bench"),
    (("--windows",), {"required": True, "help": "window sizes, e.g. '0,2,4,8'"}, "sweep-window"),
    (("--tasks",), {"type": int, "default": 8}, "corrupt"),
    (("--n-seeds",), {"type": int, "default": 40}, "corrupt"),
    (("--ratios",), {"default": "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"}, "corrupt"),
]

# The commands that read each decode key: those of the flag that sets it,
# and for the two keys that no flag sets, every decoding command (each pick
# reads the penalty) and the commands that answer.  A config file's
# ``decode`` section may set only the keys that its command reads; corrupt
# reads none, as its config is the script's (corruption.task_config).
_READERS = {
    dest: commands.split()
    for names, kwargs, commands in _FLAGS
    if (dest := kwargs.get("dest", names[0][2:].replace("-", "_")))
    in DecodeConfig.__dataclass_fields__
} | {"repetition_penalty": _DECODING.split(), "answer_max_tokens": "decode bench".split()}

_COMMANDS = {
    "decode": (cmd_decode, "decode the prompts, in batches"),
    "bench": (cmd_bench, "compare decode methods per prompt"),
    "sweep-window": (cmd_sweep_window, "hit metrics per window size"),
    "corrupt": (cmd_corrupt, "accuracy vs kept-token ratio"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glimpse",
        description="Parallel decoding engine with verified exact commits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text) in _COMMANDS.items():
        # No abbreviations: a prefix of a flag, such as --window for
        # --windows, would be a flag the command does not take.
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        for names, kwargs, commands in _FLAGS:
            if command not in commands.split():
                continue
            if names == ("--skip", "--no-skip"):
                skip = p.add_mutually_exclusive_group()
                skip.add_argument("--skip", dest="skip", action="store_true", default=None)
                skip.add_argument("--no-skip", dest="skip", action="store_false")
            else:
                p.add_argument(*names, **kwargs)
        p.set_defaults(func=func)
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
