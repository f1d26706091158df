"""Decode benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 decodebench/run.py --workload toy-long --seed 1 --seconds 20 --trace 0
    python3 decodebench/run.py --seed 1 --seconds 20          # every workload in turn

Run from the root of a source checkout: the package is imported from
``src/`` and the greedy oracle from ``tests/oracles.py``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, and the
span dump goes to ``decodebench/out/``.  See README.md in this directory.
"""

import os

# One BLAS thread: on two cores a second OpenBLAS thread nearly doubles the
# spread of toy request times.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("toy-long", "counting-long", "toy-batch")
#: Builds timed for ``setup_s`` before the first round; the median is reported.
SETUP_BUILDS = 5

END_TO_END_UNITS = {
    "tokens_per_s": "tok/s",
    "ar_tokens_per_s": "tok/s",
    "request_p50_s": "s",
    "tokens_per_iteration": "tokens",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "trace.bytes":
        return "bytes"
    if name.endswith("_tokens") or name == "toy.positions_scored":
        return "tokens"
    return "count"


def _import_package():
    """Import the package from this checkout's ``src/`` and the benchmark modules."""
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]
    import glimpse

    if not Path(glimpse.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"glimpse imported from {glimpse.__file__}, not from {ROOT / 'src'}")
    import speed
    import stats
    import tracer
    import workloads

    return speed, stats, tracer, workloads


class Run:
    """Outputs and failures of one workload run."""

    def __init__(self, wl, speed) -> None:
        self.wl = wl
        self.speed = speed
        self.first = None  # first round's (parallel, autoregressive) calls
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def round(self, tr=None) -> list:
        """Decode every request through both paths; check and return the pairs.

        A speed probe runs before the first call and after every call, so
        each call is bracketed by two probes and its ``steady_s`` is set.
        """
        gc.collect()
        pairs = []
        before = self.speed.probe()
        for i, req in enumerate(self.wl.requests):
            pair = []
            for kind, fn in (("par", self.wl.parallel), ("ar", self.wl.autoregressive)):
                self.attempted += 1
                scope = tr.request(f"{i}.{kind}") if tr else contextlib.nullcontext()
                call = None
                try:
                    with scope:
                        call = fn(req)
                except Exception:  # one failed operation must not end the run
                    traceback.print_exc()
                    self.failed += 1
                after = self.speed.probe()
                if call is not None:
                    call.steady_s = self.speed.steady(call.wall_s, before, after)
                before = after
                pair.append(call)
            pairs.append(tuple(pair))
        self._check(pairs)
        return pairs

    def _check(self, pairs) -> None:
        import checks

        if self.first is None:
            self.first = pairs
        for i, (par, ar) in enumerate(pairs):
            if par is None or ar is None:
                continue
            for j, (a, b) in enumerate(zip(par.streams, ar.streams)):
                msg = checks.lossless(a, b)
                if msg:
                    self.problems.append(f"request {i} instance {j}: {msg}")
            first = self.first[i]
            if None not in first and not (par.same_output(first[0]) and ar.same_output(first[1])):
                self.problems.append(f"request {i}: output differs from the first round")

    def deep_checks(self) -> None:
        """Oracle, closed-form and answer checks on the first round, untimed."""
        for i, (req, (par, ar)) in enumerate(zip(self.wl.requests, self.first)):
            if par is not None and ar is not None:
                self.problems += [f"request {i}: {msg}" for msg in self.wl.check(req, par, ar)]


def _go_on(start: float, seconds: float, done: int) -> bool:
    """Start another step while it is likely to end within the run length.

    Whole rounds only, at least one: a step starts while the time left
    exceeds half of an average step.
    """
    if done == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


def _build(cls, seed: int, speed) -> float:
    """Set-up time of one build, at the steady machine speed."""
    gc.collect()
    before = speed.probe()
    t0 = time.perf_counter()
    cls(seed)
    wall = time.perf_counter() - t0
    return speed.steady(wall, before, speed.probe())


def _drop_traces(pairs) -> None:
    for pair in pairs:
        for call in pair:
            if call is not None:
                call.jsonl = []


def _round_time(pairs) -> float:
    return sum(c.steady_s for pair in pairs for c in pair if c is not None)


def _rate(calls, wall_clock: bool = False) -> float:
    """Tokens per second at the steady machine speed, or by the wall clock."""
    calls = [c for c in calls if c is not None]
    secs = sum(c.wall_s if wall_clock else c.steady_s for c in calls)
    return sum(c.tokens for c in calls) / secs if secs else 0.0


def end_to_end(wl, setup, seconds, stats, speed) -> tuple[Run, dict, list[str]]:
    run = Run(wl, speed)
    rounds = []
    start = time.perf_counter()
    while _go_on(start, seconds, len(rounds)):
        rounds.append(run.round())
        if len(rounds) > 1:
            _drop_traces(rounds[-1])  # keep memory flat however many rounds run
        # One more build per round spreads the set-up samples over the run,
        # so a slow spell of the machine at start does not decide setup_s.
        setup.append(_build(type(wl), wl.seed, speed))
    run.deep_checks()

    par_rates = [_rate(p for p, _ in r) for r in rounds]
    ar_rates = [_rate(a for _, a in r) for r in rounds]
    tps = _rate(p for r in rounds for p, _ in r)
    ar_tps = _rate(a for r in rounds for _, a in r)
    times = [p.steady_s for r in rounds for p, _ in r if p is not None]
    clock_tps = _rate((p for r in rounds for p, _ in r), wall_clock=True)
    clock_ar_tps = _rate((a for r in rounds for _, a in r), wall_clock=True)
    first_par = [p for p, _ in run.first if p is not None]
    iterations = sum(p.iterations for p in first_par)
    p50 = stats.median(times)
    setup_med = stats.median(setup)
    metrics = {
        "tokens_per_s": tps,
        "ar_tokens_per_s": ar_tps,
        "request_p50_s": p50.value,
        "tokens_per_iteration": sum(p.tokens for p in first_par) / iterations if iterations else 0.0,
        "setup_s": setup_med.value,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"rounds: {len(rounds)} of {len(wl.requests)} requests; tok/s summed over all of them",
        f"times are at the steady machine speed (probe {speed.REFERENCE_S * 1e3:g} ms); "
        f"by the wall clock: tokens_per_s {clock_tps:.1f}, ar_tokens_per_s {clock_ar_tps:.1f}",
        f"tokens_per_s by round: {' '.join(f'{r:.1f}' for r in par_rates)}",
        f"ar_tokens_per_s by round: {' '.join(f'{r:.1f}' for r in ar_rates)}",
        f"request_p50_s: median of {p50.samples} windowed requests"
        + (f"; p{t[0]:g} = {t[1].value:.6f} s" if (t := stats.tail(times)) else " (too few for a tail)"),
        f"tokens_per_iteration: {sum(p.tokens for p in first_par)} tokens / {iterations} iterations per round",
        f"setup_s: median of {setup_med.samples} builds, {SETUP_BUILDS} before the first round and one after each",
        f"parallel / AR speed: {tps / ar_tps:.3f}x" if ar_tps else "",
    ]
    return run, metrics, notes


def traced(wl, seed, seconds, stats, speed, tracer_mod) -> tuple[Run, dict, list[str]]:
    run = Run(wl, speed)
    plain_times, traced_times, per_round = [], [], []
    first = None  # the first traced round's tracer: its spans are dumped
    start = time.perf_counter()
    while _go_on(start, seconds, len(per_round)):
        plain = run.round()
        plain_times.append(_round_time(plain))
        untimed = sum(p.untimed_s for p, _ in plain if p is not None) if wl.solo else 0.0
        tr = tracer_mod.Tracer()
        with tracer_mod.installed(tr):
            pairs = run.round(tr)
        traced_times.append(_round_time(pairs))
        trace_bytes = sum(len(t) for pair in pairs for c in pair if c is not None for t in c.jsonl)
        per_round.append(tracer_mod.layer_metrics(tr, untimed, trace_bytes))
        _drop_traces(pairs)
        if plain is not run.first:
            _drop_traces(plain)
        if first is None:
            first = tr
    run.deep_checks()

    metrics = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        # Counts of work repeat exactly; trace.bytes does not, because the
        # JSONL summary line prints wall times with a varying number of digits.
        if _unit(name) in ("count", "tokens") and len(set(values)) > 1:
            run.problems.append(f"count {name} differs between identical rounds: {values}")
        metrics[name] = stats.median(values).value

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    with spans_path.open("w") as fh:
        first.write_spans(fh)

    plain = stats.median(plain_times).value
    with_trace = stats.median(traced_times).value
    wall = first.total_s[tracer_mod.REQUEST]
    layers = sorted(
        ((n, s) for n, s in first.self_s.items() if n != tracer_mod.REQUEST),
        key=lambda kv: -kv[1],
    )
    attributed = sum(s for _, s in layers)
    notes = [
        f"traced rounds: {len(per_round)} (each after an untraced round); per-layer values are per round",
        f"tracing overhead: {with_trace - plain:+.4f} s per round "
        f"({(with_trace / plain - 1) * 100:+.1f}% of {plain:.4f} s untraced, at the steady machine speed)",
        "self time by span, first traced round (wall clock):",
        *(f"  {n:<22} {s:10.6f} s  {first.calls[n]:>8} calls" for n, s in layers),
        f"request wall time {wall:.6f} s; layer self times sum to {attributed:.6f} s; "
        f"unattributed (engine code outside any traced name) {wall - attributed:.6f} s",
        f"window guesses offered: {first.counts['buffer.guesses_offered']:.0f} "
        f"(base of buffer.accept_ratio)",
        f"spans: {len(first.spans)} written to {spans_path.relative_to(ROOT)}",
    ]
    return run, metrics, notes


def run_one(args) -> int:
    try:
        speed, stats, tracer_mod, workloads = _import_package()
    except ImportError as exc:
        print(f"decodebench: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    setup = [_build(cls, args.seed, speed) for _ in range(SETUP_BUILDS)]
    wl = cls(args.seed)
    wl.parallel(wl.requests[0])  # warm-up, untimed
    wl.autoregressive(wl.requests[0])

    if args.trace:
        run, metrics, notes = traced(wl, args.seed, args.seconds, stats, speed, tracer_mod)
    else:
        run, metrics, notes = end_to_end(wl, setup, args.seconds, stats, speed)

    print(f"== {wl.name} seed={args.seed} trace={args.trace}")
    for note in notes:
        if note:
            print(note)
    for name, value in metrics.items():
        unit = END_TO_END_UNITS.get(name) or _unit(name)
        print(f"  {name:<26} {value:>16.6f} {unit}")
    print(f"operations: {run.attempted} attempted, {run.failed} failed")
    print("checks: " + ("all passed" if not run.problems else f"{len(run.problems)} FAILED"))
    for msg in run.problems[:20]:
        print(f"  {msg}")

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS.get(name) or _unit(name)}
            for name, value in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0 if not run.problems else 1


def run_all(args) -> int:
    """Run every workload, each in its own process, and print all results."""
    results, code = {}, 0
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps({"workloads": results}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, help="omit to run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
