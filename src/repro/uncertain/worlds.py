"""Possible-world enumeration over uncertain strings.

These are the *reference* semantics: every filtering/verification component
in the library is tested against quantities computed by brute force here.
Enumeration is lazy (generators) so callers can stop early, but the number
of worlds is exponential in the number of uncertain positions — use
:func:`world_count` to budget before iterating.
"""

from __future__ import annotations

import random
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

    Worlds are emitted in the deterministic order induced by each position's
    most-probable-first alternative ordering, the last position varying
    fastest. Probabilities sum to 1.

    Each probability is the product of the positions' probabilities taken
    left to right from ``1.0``. Positions whose only alternative has
    probability exactly ``1.0`` are skipped: multiplying by ``1.0`` is
    exact, so skipping them changes no word, no order and no float. The
    skip keys on ``probs == (1.0,)`` rather than ``is_certain``: a single
    alternative read back verbatim (:meth:`UncertainPosition.from_normalized`)
    may carry ``1 - ulp``, and that factor must still be multiplied in.

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
    return _worlds(string)


def _worlds(string: UncertainString) -> Iterator[tuple[str, float]]:
    chars: list[str] = []
    indices: list[int] = []
    alternatives: list[Iterator[tuple[str, float]]] = []
    for index, pos in enumerate(string):
        chars.append(pos.top)
        if pos.probs != (1.0,):
            indices.append(index)
            alternatives.append(pos.items())
    if not indices:  # the common certain window: one world, no product
        yield "".join(chars), 1.0
        return
    for choice in product(*alternatives):
        prob = 1.0
        for index, (char, char_prob) in zip(indices, choice):
            chars[index] = char
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
