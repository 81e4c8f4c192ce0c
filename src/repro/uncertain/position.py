"""A single uncertain character: a discrete pdf over the alphabet.

Formally (paper Section 1): ``S[i] = {(c_j, p_i(c_j)) | c_j != c_m for
j != m, and sum_j p_i(c_j) = 1}``.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, Mapping

#: Probabilities must sum to 1 within this tolerance at construction time.
PROBABILITY_TOLERANCE = 1e-6


class UncertainPosition:
    """An immutable discrete distribution over single characters.

    Alternatives are stored sorted by descending probability (ties broken by
    character) so that iteration order — and therefore world enumeration
    order — is deterministic.
    """

    __slots__ = ("_chars", "_probs", "_pdf")

    def __init__(self, alternatives: Mapping[str, float] | Iterable[tuple[str, float]]) -> None:
        self._set(alternatives, normalize=True)

    @classmethod
    def from_normalized(
        cls, alternatives: Mapping[str, float] | Iterable[tuple[str, float]]
    ) -> "UncertainPosition":
        """A position whose probabilities are already normalized.

        For text written by ``format_uncertain`` at full precision: the
        same validity checks as the constructor, but the floats are kept
        verbatim. Normalized floats often sum to 1 ± 1 ulp, so dividing
        by the sum again could move each of them on every round trip.
        """
        position = cls.__new__(cls)
        position._set(alternatives, normalize=False)
        return position

    def _set(
        self,
        alternatives: Mapping[str, float] | Iterable[tuple[str, float]],
        normalize: bool,
    ) -> None:
        if isinstance(alternatives, Mapping):
            items = list(alternatives.items())
        else:
            items = list(alternatives)
        if not items:
            raise ValueError("an uncertain position needs at least one alternative")
        seen: dict[str, float] = {}
        for char, prob in items:
            if not isinstance(char, str) or len(char) != 1:
                raise ValueError(f"alternative {char!r} is not a single character")
            if not isinstance(prob, (int, float)) or not math.isfinite(prob):
                raise ValueError(f"non-finite probability {prob!r} for {char!r}")
            if prob < 0:
                raise ValueError(f"negative probability {prob!r} for {char!r}")
            if char in seen:
                raise ValueError(f"duplicate alternative {char!r}")
            seen[char] = float(prob)
        total = sum(seen.values())
        if abs(total - 1.0) > PROBABILITY_TOLERANCE:
            raise ValueError(f"probabilities must sum to 1 (got {total!r})")
        # Normalize exactly so downstream products stay well-scaled (unless
        # the caller vouches the floats already are), then drop
        # zero-probability alternatives (they are not possible worlds).
        if not normalize:
            total = 1.0
        normalized = [
            (char, prob / total) for char, prob in seen.items() if prob > 0.0
        ]
        normalized.sort(key=lambda item: (-item[1], item[0]))
        self._chars = tuple(char for char, _ in normalized)
        self._probs = tuple(prob for _, prob in normalized)
        self._pdf = dict(normalized)

    @classmethod
    def certain(cls, char: str) -> "UncertainPosition":
        """The deterministic position ``char`` with probability 1.

        Most positions of most strings are certain, so there is one
        shared instance per character: positions are immutable and
        compare by value, and parsing a string then costs no object or
        pdf dict per certain character.
        """
        try:
            return _CERTAIN[char]
        except (KeyError, TypeError):  # new, or unhashable: validate
            pass
        if not isinstance(char, str) or len(char) != 1:
            raise ValueError(f"alternative {char!r} is not a single character")
        position = cls.__new__(cls)
        position._chars = (char,)
        position._probs = (1.0,)
        position._pdf = {char: 1.0}
        return _CERTAIN.setdefault(char, position)

    @property
    def chars(self) -> tuple[str, ...]:
        """Support of the distribution, most probable first."""
        return self._chars

    @property
    def probs(self) -> tuple[float, ...]:
        """Probabilities aligned with :attr:`chars`."""
        return self._probs

    @property
    def is_certain(self) -> bool:
        """True when exactly one character has probability 1."""
        return len(self._chars) == 1

    @property
    def top(self) -> str:
        """The most probable character."""
        return self._chars[0]

    @property
    def pdf(self) -> dict[str, float]:
        """The char → probability mapping (treat as read-only).

        Exposed so batch consumers (the CDF-bound DP) can hoist the dict
        once instead of calling :meth:`probability` per lookup.
        """
        return self._pdf

    def probability(self, char: str) -> float:
        """``Pr(position = char)`` (0 for characters outside the support)."""
        return self._pdf.get(char, 0.0)

    def agreement(self, other: "UncertainPosition") -> float:
        """``Pr(self = other)`` for independent positions.

        This is ``p1`` in the CDF-bound DP (Theorem 4):
        ``sum_c Pr(self = c) * Pr(other = c)``.
        """
        if len(self._chars) > len(other._chars):
            return other.agreement(self)
        return sum(
            prob * other._pdf.get(char, 0.0)
            for char, prob in zip(self._chars, self._probs)
        )

    def sample(self, rng: random.Random) -> str:
        """Draw one character according to the distribution."""
        roll = rng.random()
        cumulative = 0.0
        for char, prob in zip(self._chars, self._probs):
            cumulative += prob
            if roll < cumulative:
                return char
        return self._chars[-1]

    def items(self) -> Iterator[tuple[str, float]]:
        """Iterate ``(char, prob)`` pairs, most probable first."""
        return iter(zip(self._chars, self._probs))

    def __len__(self) -> int:
        return len(self._chars)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UncertainPosition):
            return NotImplemented
        return self._chars == other._chars and self._probs == other._probs

    def __hash__(self) -> int:
        return hash((self._chars, self._probs))

    def __reduce__(self) -> tuple:
        # A certain position unpickles to the shared instance; the
        # others keep their floats verbatim.
        if self._probs == (1.0,):
            return (UncertainPosition.certain, (self._chars[0],))
        return (UncertainPosition.from_normalized, (list(self.items()),))

    def __repr__(self) -> str:
        if self.is_certain:
            return f"UncertainPosition.certain({self._chars[0]!r})"
        body = ", ".join(f"({c!r}, {p:.6g})" for c, p in self.items())
        return f"UncertainPosition([{body}])"


#: The shared :meth:`UncertainPosition.certain` instance of each character.
_CERTAIN: dict[str, UncertainPosition] = {}
