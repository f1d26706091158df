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

A window's score and a sum of scores are one type, :class:`HitReport`,
whose ratios are computed only when it is written out.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Iterable, Sequence

from glimpse.errors import ContractError
from glimpse.trace import DecodeTrace


@dataclass(frozen=True)
class HitReport:
    """Hit counts over some windows; ``+`` sums two reports.

    One scored window is a report with ``windows_evaluated == 1``, and the
    empty report ``HitReport()`` scores no window.
    """

    first_hit: int = 0
    total_hit: int = 0
    occur_guess_in_ref: int = 0
    occur_ref_in_guess: int = 0
    windows_evaluated: int = 0
    positions_evaluated: int = 0

    def __add__(self, other: "HitReport") -> "HitReport":
        return HitReport(*(a + b for a, b in zip(astuple(self), astuple(other))))

    def as_dict(self) -> dict:
        """The counts and their four ratios, each 0 where its denominator is 0."""
        windows = max(self.windows_evaluated, 1)
        positions = max(self.positions_evaluated, 1)
        return {
            **self.__dict__,
            "first_hit_ratio": self.first_hit / windows,
            "total_hit_ratio": self.total_hit / positions,
            "occur_guess_in_ref_ratio": self.occur_guess_in_ref / positions,
            "occur_ref_in_guess_ratio": self.occur_ref_in_guess / positions,
        }


def score_window(guesses: Sequence[int], reference: Sequence[int]) -> HitReport:
    """Score one window's guesses against the reference span they align with."""
    g, r = guesses, reference
    if len(g) != len(r):
        raise ContractError(
            f"window of {len(g)} misaligned with reference of {len(r)}"
        )
    ref_set = set(r)
    guess_set = set(g)
    return HitReport(
        first_hit=int(bool(g) and g[0] == r[0]),
        total_hit=sum(1 for a, b in zip(g, r) if a == b),
        occur_guess_in_ref=sum(1 for t in g if t in ref_set),
        occur_ref_in_guess=sum(1 for t in r if t in guess_set),
        windows_evaluated=1,
        positions_evaluated=len(g),
    )


def aggregate(reports: Iterable[HitReport]) -> HitReport:
    """Sum reports into one; no reports give the empty report."""
    return sum(reports, HitReport())


def window_hits(trace: DecodeTrace, reference_tokens: Sequence[int]) -> dict[int, HitReport]:
    """Each iteration whose whole window the AR reference covers, scored.

    ``reference_tokens`` is the greedy AR stream for the same prompt; an
    iteration's window aligns with it from ``frontier_before - len(prompt)``.
    Iterations with an empty or uncovered window are left out.
    """
    prompt_len = len(trace.prompt)
    hits: dict[int, HitReport] = {}
    for rec in trace.records:
        width = len(rec.window_before)
        start = rec.frontier_before - prompt_len
        if width and 0 <= start and start + width <= len(reference_tokens):
            reference = reference_tokens[start : start + width]
            hits[rec.iteration] = score_window(rec.window_before, reference)
    return hits
