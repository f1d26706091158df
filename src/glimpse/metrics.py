"""Approximate-token quality metrics and iteration savings.

Window quality is scored against the autoregressive continuation of the
same prompt (which losslessness guarantees equals the committed stream):

* first hit — the window's first guess equals the next AR token;
* total hit — positionwise matches across the window;
* occurrences, guesses->reference — guesses (with multiplicity) that
  appear anywhere in the aligned reference region;
* occurrences, reference->guesses — reference tokens (with multiplicity)
  that appear anywhere among the guesses.

First-hit ratios are per window, the other three per window position, so
the first-hit percentage can exceed the total-hit percentage.  A positional
match is also an occurrence in both directions, so total hit never exceeds
either occurrence count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from glimpse.errors import ContractError
from glimpse.trace import DecodeTrace


@dataclass
class WindowSnapshot:
    """One iteration's window guesses aligned with the AR reference.

    ``reference`` must cover exactly the window span (same length, same
    absolute positions starting at ``frontier``).
    """

    iteration: int
    frontier: int
    guesses: list[int]
    reference: list[int]


@dataclass
class WindowRecord:
    first_hit: int
    total_hit: int
    occur_guess_in_ref: int
    occur_ref_in_guess: int
    positions: int


@dataclass
class HitReport:
    first_hit: int
    first_hit_ratio: float
    total_hit: int
    total_hit_ratio: float
    occur_guess_in_ref: int
    occur_guess_in_ref_ratio: float
    occur_ref_in_guess: int
    occur_ref_in_guess_ratio: float
    windows_evaluated: int
    positions_evaluated: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def score_window(snap: WindowSnapshot) -> WindowRecord:
    """Score one window against its aligned reference span."""
    g, r = snap.guesses, snap.reference
    if len(g) != len(r):
        raise ContractError(
            f"window of {len(g)} misaligned with reference of {len(r)}"
        )
    ref_set = set(r)
    guess_set = set(g)
    return WindowRecord(
        first_hit=int(bool(g) and g[0] == r[0]),
        total_hit=sum(1 for a, b in zip(g, r) if a == b),
        occur_guess_in_ref=sum(1 for t in g if t in ref_set),
        occur_ref_in_guess=sum(1 for t in r if t in guess_set),
        positions=len(g),
    )


def aggregate(records: Sequence[WindowRecord]) -> HitReport:
    """Sum window records into one report with the two ratio denominators."""
    if len(records) == 0:
        raise ContractError("cannot aggregate zero records")
    windows = len(records)
    positions = sum(rec.positions for rec in records)
    fh = sum(rec.first_hit for rec in records)
    th = sum(rec.total_hit for rec in records)
    o_gr = sum(rec.occur_guess_in_ref for rec in records)
    o_rg = sum(rec.occur_ref_in_guess for rec in records)
    pos_div = positions if positions else 1
    return HitReport(
        first_hit=fh,
        first_hit_ratio=fh / windows,
        total_hit=th,
        total_hit_ratio=th / pos_div,
        occur_guess_in_ref=o_gr,
        occur_guess_in_ref_ratio=o_gr / pos_div,
        occur_ref_in_guess=o_rg,
        occur_ref_in_guess_ratio=o_rg / pos_div,
        windows_evaluated=windows,
        positions_evaluated=positions,
    )


def snapshots_from_trace(
    trace: DecodeTrace, reference_tokens: Sequence[int]
) -> list[WindowSnapshot]:
    """Align each iteration's pre-forward window with the AR continuation.

    ``reference_tokens`` is the greedy AR stream for the same prompt.  Only
    windows whose full span the reference covers are returned.
    """
    prompt_len = len(trace.prompt)
    snaps: list[WindowSnapshot] = []
    for rec in trace.records:
        width = len(rec.window_before)
        if width == 0:
            continue
        start = rec.frontier_before - prompt_len
        if start < 0 or start + width > len(reference_tokens):
            continue
        snaps.append(
            WindowSnapshot(
                iteration=rec.iteration,
                frontier=rec.frontier_before,
                guesses=list(rec.window_before),
                reference=list(reference_tokens[start : start + width]),
            )
        )
    return snaps


def hit_report(trace: DecodeTrace, reference_tokens: Sequence[int]) -> HitReport:
    """End-to-end: snapshot a trace against the AR reference and aggregate."""
    snaps = snapshots_from_trace(trace, reference_tokens)
    return aggregate([score_window(s) for s in snaps])


@dataclass
class SavingsSummary:
    iterations: int
    exact_tokens: int
    ar_iterations: int
    saved_iterations: int
    wall_ratio: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def iteration_savings(parallel_trace: DecodeTrace, ar_trace: DecodeTrace) -> SavingsSummary:
    """Iterations saved and wall-clock ratio versus the AR run of the same prompt."""
    if parallel_trace.prompt != ar_trace.prompt:
        raise ContractError("traces come from different prompts")
    ar_tokens = ar_trace.iterations
    iterations = parallel_trace.iterations
    wall_ratio = (
        ar_trace.wall_s / parallel_trace.wall_s if parallel_trace.wall_s > 0 else 0.0
    )
    return SavingsSummary(
        iterations=iterations,
        exact_tokens=len(parallel_trace.committed_stream()),
        ar_iterations=ar_tokens,
        saved_iterations=ar_tokens - iterations,
        wall_ratio=wall_ratio,
    )
