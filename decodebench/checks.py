"""Output checks.  Each returns None when the output is right, else a message.

The checks compare against computations made apart from the engine (a
closed form, the greedy oracle in ``tests/oracles.py``, a fresh-cache
decode) or against properties the method must have (losslessness against
the ``c=0`` path, the iteration bound, a lossless JSONL round trip).  None
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import io
import math
from typing import Sequence


def first_mismatch(got: Sequence[int], want: Sequence[int]) -> str | None:
    """Describe where two token streams first differ, or None if equal."""
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"token {i}: got {a}, expected {b}"
    if len(got) != len(want):
        return f"length {len(got)}, expected {len(want)}"
    return None


def counting_stream(prompt: Sequence[int], stream: Sequence[int], modulus: int, budget: int) -> str | None:
    """The counting model continues a digit prompt as ``(d + k) mod m``.

    ``d`` is the prompt's last digit and ``k`` counts from 1.  A digit-only
    stream never emits EOS, so it runs to the full budget.
    """
    d = prompt[-1]
    want = [(d + k) % modulus for k in range(1, budget + 1)]
    diff = first_mismatch(stream, want)
    return None if diff is None else f"closed form (d + k) mod {modulus}: {diff}"


def iteration_bound(tokens: int, iterations: int, window: int) -> str | None:
    """Skip-mode commits average at most ``(c+2)/2`` per iteration once primed."""
    bound = math.ceil(2 * tokens / (window + 2)) + 4
    if iterations > bound:
        return f"{iterations} iterations for {tokens} tokens exceeds ceil(2n/(c+2))+4 = {bound}"
    return None


def trace_roundtrip(jsonl: str, stream: Sequence[int]) -> str | None:
    """Reading the JSONL trace back must give the committed stream."""
    from glimpse.trace import read_jsonl

    try:
        replay = read_jsonl(io.StringIO(jsonl)).committed_stream()
    except (ValueError, TypeError, KeyError) as exc:
        return f"trace does not read back: {exc}"
    diff = first_mismatch(replay, stream)
    return None if diff is None else f"trace round trip: {diff}"


def lossless(windowed: Sequence[int], autoregressive: Sequence[int]) -> str | None:
    """The windowed decoder must commit exactly the ``c=0`` stream."""
    diff = first_mismatch(windowed, autoregressive)
    return None if diff is None else f"windowed != c=0: {diff}"


def oracle_prefix(stream: Sequence[int], reference: Sequence[int]) -> str | None:
    """The stream starts with the uncached greedy reference."""
    diff = first_mismatch(stream[: len(reference)], reference)
    return None if diff is None else f"oracle prefix: {diff}"


def answer(got: Sequence[int], fresh: Sequence[int], eos_id: int) -> str | None:
    """The answer equals a fresh-cache greedy decode, cut before its EOS."""
    want = list(fresh)
    if eos_id in want:
        want = want[: want.index(eos_id)]
    diff = first_mismatch(got, want)
    return None if diff is None else f"answer with cache reuse != fresh-cache decode: {diff}"
