"""Approximate-token quality metrics.

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


def score_window(guesses: Sequence[int], reference: Sequence[int]) -> WindowRecord:
    """Score one window's guesses against the reference span they align with."""
    g, r = guesses, reference
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
    """Sum window records into one report with the two ratio denominators.

    No records give the all-zero report.
    """
    windows = len(records)
    positions = sum(rec.positions for rec in records)
    fh = sum(rec.first_hit for rec in records)
    th = sum(rec.total_hit for rec in records)
    o_gr = sum(rec.occur_guess_in_ref for rec in records)
    o_rg = sum(rec.occur_ref_in_guess for rec in records)
    pos_div = positions if positions else 1
    return HitReport(
        first_hit=fh,
        first_hit_ratio=fh / windows if windows else 0.0,
        total_hit=th,
        total_hit_ratio=th / pos_div,
        occur_guess_in_ref=o_gr,
        occur_guess_in_ref_ratio=o_gr / pos_div,
        occur_ref_in_guess=o_rg,
        occur_ref_in_guess_ratio=o_rg / pos_div,
        windows_evaluated=windows,
        positions_evaluated=positions,
    )


def window_hits(trace: DecodeTrace, reference_tokens: Sequence[int]) -> dict[int, WindowRecord]:
    """Each iteration whose whole window the AR reference covers, scored.

    ``reference_tokens`` is the greedy AR stream for the same prompt; an
    iteration's window aligns with it from ``frontier_before - len(prompt)``.
    Iterations with an empty or uncovered window are left out.
    """
    prompt_len = len(trace.prompt)
    hits: dict[int, WindowRecord] = {}
    for rec in trace.records:
        width = len(rec.window_before)
        start = rec.frontier_before - prompt_len
        if width and 0 <= start and start + width <= len(reference_tokens):
            reference = reference_tokens[start : start + width]
            hits[rec.iteration] = score_window(rec.window_before, reference)
    return hits


def hit_report(trace: DecodeTrace, reference_tokens: Sequence[int]) -> HitReport:
    """End-to-end: score a trace's windows against the AR reference and sum them."""
    return aggregate(list(window_hits(trace, reference_tokens).values()))
