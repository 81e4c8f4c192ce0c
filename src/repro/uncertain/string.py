"""The character-level uncertain string model (paper Section 1).

``S = S[1]S[2]...S[l]`` where each ``S[i]`` is a discrete distribution over
the alphabet. Because the model is character-level, every possible instance
of ``S`` has the same length ``l``.

Positions are 0-indexed throughout the library; the paper's 1-indexed
formulas are translated at each call site.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, Sequence, overload

from repro.uncertain.position import UncertainPosition


class UncertainString:
    """An immutable sequence of :class:`UncertainPosition`.

    Construction accepts any iterable of positions; convenience
    constructors cover the two common cases (fully deterministic text and
    the mixed literal style used by the paper's examples).
    """

    __slots__ = ("_positions", "_hash", "_heavy", "_agreement_table")

    def __init__(self, positions: Iterable[UncertainPosition]) -> None:
        self._positions = tuple(positions)
        for pos in self._positions:
            if not isinstance(pos, UncertainPosition):
                raise TypeError(
                    f"positions must be UncertainPosition, got {type(pos).__name__}"
                )
        self._hash: int | None = None
        self._heavy: tuple[str, tuple[int, ...]] | None = None
        self._agreement_table: tuple[
            str | tuple[tuple[str, ...], tuple[float, ...], dict[str, float]],
            ...,
        ] | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "UncertainString":
        """A fully deterministic uncertain string (one world: ``text``)."""
        return cls(UncertainPosition.certain(ch) for ch in text)

    @classmethod
    def from_mixed(
        cls, parts: Sequence[str | dict[str, float] | UncertainPosition]
    ) -> "UncertainString":
        """Build from a mix of plain characters, pdf dicts, and positions.

        Mirrors the paper's literal notation, e.g. the string
        ``A{(C,0.5),(G,0.5)}A`` is ``from_mixed(["A", {"C": .5, "G": .5}, "A"])``.
        Multi-character strings contribute one certain position per character.
        """
        positions: list[UncertainPosition] = []
        for part in parts:
            if isinstance(part, UncertainPosition):
                positions.append(part)
            elif isinstance(part, str):
                positions.extend(UncertainPosition.certain(ch) for ch in part)
            elif isinstance(part, dict):
                positions.append(UncertainPosition(part))
            else:
                raise TypeError(f"unsupported part {part!r}")
        return cls(positions)

    # ------------------------------------------------------------------
    # sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._positions)

    @overload
    def __getitem__(self, index: int) -> UncertainPosition: ...

    @overload
    def __getitem__(self, index: slice) -> "UncertainString": ...

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            return UncertainString(self._positions[index])
        return self._positions[index]

    def __iter__(self) -> Iterator[UncertainPosition]:
        return iter(self._positions)

    @property
    def positions(self) -> tuple[UncertainPosition, ...]:
        """The underlying positions tuple."""
        return self._positions

    def substring(self, start: int, length: int) -> "UncertainString":
        """The window ``self[start : start + length]`` (0-indexed)."""
        if start < 0 or length < 0 or start + length > len(self._positions):
            raise ValueError(
                f"window [{start}, {start + length}) out of range for length {len(self)}"
            )
        return UncertainString(self._positions[start : start + length])

    # ------------------------------------------------------------------
    # uncertainty structure
    # ------------------------------------------------------------------

    def heavy_form(self) -> tuple[str, tuple[int, ...]]:
        """``(text, weighted)``: the string's one derived form (cached).

        ``text`` is the heavy string, the most probable character of
        every position; ``weighted`` holds the ascending indices of the
        positions whose ``probs != (1.0,)``. Every other position is its
        ``text`` character at probability exactly 1.0. Weighted is wider
        than uncertain: a single alternative read back verbatim
        (:meth:`UncertainPosition.from_normalized`) may carry
        ``1 - 2**-53``, certain yet a factor of every world.
        """
        heavy = self._heavy
        if heavy is None:
            positions = self._positions
            heavy = self._heavy = (
                "".join([pos.top for pos in positions]),
                tuple(
                    index
                    for index, pos in enumerate(positions)
                    if pos.probs != (1.0,)
                ),
            )
        return heavy

    @property
    def is_certain(self) -> bool:
        """True when the string has exactly one possible world."""
        positions = self._positions
        return all(len(positions[i]) == 1 for i in self.heavy_form()[1])

    def agreement_table(
        self,
    ) -> tuple[
        str | tuple[tuple[str, ...], tuple[float, ...], dict[str, float]], ...
    ]:
        """Agreement-ready per-position entries, built once and cached.

        A certain position is represented by its character, an uncertain
        one by its ``(chars, probs, pdf)`` triple in most-probable-first
        order — exactly the data :meth:`UncertainPosition.agreement`
        walks, laid out so batch consumers (the Theorem 4 CDF-bound DP)
        can compute ``p1`` with plain indexing instead of a method call
        per grid cell. The string is immutable, so every pair it
        participates in shares the same table.
        """
        table = self._agreement_table
        if table is None:
            text, weighted = self.heavy_form()
            entries: list = list(text)
            for index in weighted:
                pos = self._positions[index]
                if len(pos.chars) > 1:
                    entries[index] = (pos.chars, pos.probs, pos.pdf)
            table = self._agreement_table = tuple(entries)
        return table

    @property
    def uncertain_indices(self) -> tuple[int, ...]:
        """0-based indices of positions with more than one alternative."""
        positions = self._positions
        return tuple(i for i in self.heavy_form()[1] if len(positions[i]) > 1)

    @property
    def theta(self) -> float:
        """Fraction of uncertain positions (the paper's θ)."""
        if not self._positions:
            return 0.0
        return len(self.uncertain_indices) / len(self._positions)

    @property
    def gamma(self) -> float:
        """Mean number of alternatives per *uncertain* position (paper's γ)."""
        uncertain = self.uncertain_indices
        if not uncertain:
            return 1.0
        return sum(len(self._positions[i]) for i in uncertain) / len(uncertain)

    def world_count(self) -> int:
        """Number of possible worlds: the product of support sizes."""
        return math.prod(len(pos) for pos in self._positions)

    # ------------------------------------------------------------------
    # probabilities
    # ------------------------------------------------------------------

    def instance_probability(self, text: str) -> float:
        """``Pr(S = text)``; 0 when lengths differ or a char is unsupported."""
        if len(text) != len(self._positions):
            return 0.0
        prob = 1.0
        for ch, pos in zip(text, self._positions):
            prob *= pos.probability(ch)
            if prob == 0.0:
                return 0.0
        return prob

    def match_probability(self, word: str, start: int = 0) -> float:
        """``Pr(word = S[start .. start + len(word) - 1])`` (paper Section 3).

        Returns 0 when the window falls outside the string.
        """
        end = start + len(word)
        if start < 0 or end > len(self._positions):
            return 0.0
        prob = 1.0
        for offset, ch in enumerate(word):
            prob *= self._positions[start + offset].probability(ch)
            if prob == 0.0:
                return 0.0
        return prob

    def agreement_probability(self, other: "UncertainString") -> float:
        """``Pr(W = T)`` for two equal-length uncertain strings.

        This is the paper's ``Pr(W = T) = prod_ps sum_c Pr(W[ps]=c) Pr(T[ps]=c)``;
        0 when lengths differ.
        """
        if len(self) != len(other):
            return 0.0
        prob = 1.0
        for mine, theirs in zip(self._positions, other._positions):
            prob *= mine.agreement(theirs)
            if prob == 0.0:
                return 0.0
        return prob

    def can_match(self, word: str, start: int = 0) -> bool:
        """True when ``word`` has positive probability at window ``start``."""
        end = start + len(word)
        if start < 0 or end > len(self._positions):
            return False
        return all(
            self._positions[start + offset].probability(ch) > 0.0
            for offset, ch in enumerate(word)
        )

    # ------------------------------------------------------------------
    # instances
    # ------------------------------------------------------------------

    def most_probable_instance(self) -> tuple[str, float]:
        """The modal world and its probability (greedy per position)."""
        text, weighted = self.heavy_form()
        prob = 1.0
        for index in weighted:  # the other factors are exactly 1.0
            prob *= self._positions[index].probs[0]
        return text, prob

    def sample(self, rng: random.Random) -> str:
        """Draw one possible world according to the product distribution."""
        return "".join(pos.sample(rng) for pos in self._positions)

    def support_strings(self) -> Iterator[str]:
        """Iterate the possible worlds *without* probabilities (lazy product)."""
        from repro.uncertain.worlds import enumerate_worlds

        return (text for text, _ in enumerate_worlds(self))

    # ------------------------------------------------------------------
    # character frequencies (used by frequency-distance filtering, Sec. 5)
    # ------------------------------------------------------------------

    def char_count_bounds(self, char: str) -> tuple[int, int]:
        """``(f^c, f^t)``: certain and total occurrence counts of ``char``.

        ``f^c`` counts positions where ``char`` occurs with probability 1 and
        ``f^t`` counts positions where it occurs with positive probability,
        exactly the paper's ``fS_i^c`` / ``fS_i^t`` (Section 5).
        """
        certain = 0
        total = 0
        for pos in self._positions:
            prob = pos.probability(char)
            if prob > 0.0:
                total += 1
                if pos.is_certain:
                    certain += 1
        return certain, total

    def char_position_probs(self, char: str) -> list[float]:
        """Probabilities of ``char`` at each of its *uncertain* occurrences.

        The returned list drives the Poisson-binomial count distribution
        ``Pr(fS_i = x)`` of Section 5; certain occurrences are excluded
        (they shift the distribution by ``f^c``).
        """
        probs = []
        for pos in self._positions:
            prob = pos.probability(char)
            if 0.0 < prob and not pos.is_certain:
                probs.append(prob)
        return probs

    def support_alphabet(self) -> set[str]:
        """Every character that occurs with positive probability somewhere."""
        text, weighted = self.heavy_form()
        support = set(text)
        for index in weighted:
            support.update(self._positions[index].chars)
        return support

    # ------------------------------------------------------------------
    # misc protocol
    # ------------------------------------------------------------------

    def __add__(self, other: "UncertainString") -> "UncertainString":
        if not isinstance(other, UncertainString):
            return NotImplemented
        return UncertainString(self._positions + other._positions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UncertainString):
            return NotImplemented
        return self._positions == other._positions

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._positions)
        return self._hash

    def __reduce__(self) -> tuple:
        # Ship the positions only: the cached slots rebuild where the
        # string is loaded, and ``str`` hashes are salted per process.
        return (UncertainString, (self._positions,))

    def __repr__(self) -> str:
        from repro.uncertain.parser import format_uncertain

        return f"UncertainString({format_uncertain(self)!r})"
