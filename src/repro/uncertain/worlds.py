"""Possible-world enumeration over uncertain strings.

These are the *reference* semantics: every filtering/verification component
in the library is tested against quantities computed by brute force here.
Enumeration is lazy (generators) so callers can stop early, but the number
of worlds is exponential in the number of uncertain positions — use
:func:`world_count` to budget before iterating.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import product
from typing import Iterator

from repro.uncertain.string import UncertainString

#: Guard rail: enumeration helpers refuse beyond this many worlds by default.
DEFAULT_WORLD_LIMIT = 5_000_000


def world_count(string: UncertainString) -> int:
    """Number of possible worlds of ``string``."""
    return string.world_count()


def enumerate_worlds(
    string: UncertainString, limit: int | None = DEFAULT_WORLD_LIMIT
) -> Iterator[tuple[str, float]]:
    """Yield ``(instance, probability)`` for every possible world.

    The whole-string :func:`window_worlds`: worlds come in the
    deterministic order induced by each position's most-probable-first
    alternative ordering, the last position varying fastest, and their
    probabilities sum to 1. Only the string's weighted positions
    (``probs != (1.0,)``, :meth:`UncertainString.heavy_form`) vary and
    enter the product; certain positions at exactly 1.0 are text.

    Raises ``ValueError`` when the world count exceeds ``limit`` (pass
    ``limit=None`` to disable the guard).
    """
    if limit is not None:
        count = string.world_count()
        if count > limit:
            raise ValueError(
                f"refusing to enumerate {count} worlds (limit {limit}); "
                "pass limit=None to override"
            )
    return window_worlds(string, 0, len(string))


def window_worlds(
    string: UncertainString, start: int, length: int
) -> Iterator[tuple[str, float]]:
    """Yield ``(word, probability)`` for every world of the window
    ``string[start : start + length]``, without building the window.

    Reads the string's :meth:`~UncertainString.heavy_form`. A window with
    no weighted position is one slice of the heavy text at weight 1.0;
    otherwise only its weighted positions vary, and each probability is
    their product taken left to right from ``1.0``. Leaving the other
    positions out is exact (their one probability is exactly 1.0). A
    single alternative read back verbatim at ``1 - 2**-53`` is certain
    but weighted, so its factor is multiplied in. Raises ``ValueError``
    on first use when the window leaves the string.
    """
    end = start + length
    text, weighted = string.heavy_form()
    if start < 0 or length < 0 or end > len(text):
        raise ValueError(
            f"window [{start}, {end}) out of range for length {len(text)}"
        )
    lo = bisect_left(weighted, start)
    hi = bisect_left(weighted, end, lo)
    if lo == hi:  # the common certain window: one world, no product
        yield text[start:end], 1.0
        return
    indices = weighted[lo:hi]
    positions = string.positions
    chars = list(text[start:end])
    offsets = [index - start for index in indices]
    for choice in product(*(positions[index].items() for index in indices)):
        prob = 1.0
        for offset, (char, char_prob) in zip(offsets, choice):
            chars[offset] = char
            prob *= char_prob
        yield "".join(chars), prob


def enumerate_joint_worlds(
    left: UncertainString,
    right: UncertainString,
    limit: int | None = DEFAULT_WORLD_LIMIT,
) -> Iterator[tuple[str, str, float]]:
    """Yield ``(r_instance, s_instance, joint_probability)`` over ``R × S``.

    ``R`` and ``S`` are independent, so the joint probability is the product
    ``p(r_i) * p(s_j)`` — the paper's ``pw_{i,j}`` (Section 3.2).
    """
    if limit is not None:
        count = left.world_count() * right.world_count()
        if count > limit:
            raise ValueError(
                f"refusing to enumerate {count} joint worlds (limit {limit}); "
                "pass limit=None to override"
            )
    for left_text, left_prob in enumerate_worlds(left, limit=None):
        for right_text, right_prob in enumerate_worlds(right, limit=None):
            yield left_text, right_text, left_prob * right_prob


def sample_world(string: UncertainString, rng: random.Random) -> str:
    """Draw one world of ``string``; alias of :meth:`UncertainString.sample`."""
    return string.sample(rng)
