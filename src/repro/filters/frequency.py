"""Frequency-distance filtering for uncertain strings (Section 5).

Two bounds are derived from per-character occurrence-count distributions:

* **Lemma 6** — a deterministic lower bound on ``fd(R, S)`` (and hence on
  the edit distance of *every* joint world): prune when it exceeds ``k``.
* **Theorem 3** — a one-sided-Chebyshev upper bound on
  ``Pr(fd(R, S) <= k) >= Pr(ed(R, S) <= k)`` built from ``E[pD]`` and
  ``E[nD]``.

The count of character ``c_i`` in ``S`` is ``fS_i = fS_i^c + X`` where ``X``
is Poisson-binomial over the uncertain positions containing ``c_i``. The
paper's S1–S4 prefix arrays make each ``E[nD_i]`` term O(min(fS_i^u,
fR_i^u)) after O(fS_i^u ^ 2) preprocessing per string — preprocessing that
the join stores alongside its index.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.filters.base import FilterDecision, FilterVerdict
from repro.uncertain.string import UncertainString


def poisson_binomial_pmf(probs: Sequence[float]) -> list[float]:
    """PMF of the sum of independent Bernoulli(p_i) variables.

    Standard O(n^2) dynamic program; ``probs`` are the per-position
    probabilities of the character appearing at its uncertain positions.
    """
    pmf = [1.0]
    for p in probs:
        if not 0.0 <= p <= 1.0 + 1e-12:
            raise ValueError(f"Bernoulli probability {p!r} outside [0, 1]")
        p = min(p, 1.0)
        nxt = [0.0] * (len(pmf) + 1)
        for count, mass in enumerate(pmf):
            nxt[count] += mass * (1.0 - p)
            nxt[count + 1] += mass * p
        pmf = nxt
    return pmf


@dataclass(frozen=True)
class CharCountDistribution:
    """Distribution of one character's occurrence count in one string.

    ``certain`` (= ``f^c``) is the count contributed by deterministic
    positions; ``pmf[x] = Pr(count = certain + x)`` over the uncertain
    positions, ``x in [0, f^u]``. The paper's S1–S4 arrays are exposed as
    cached properties.
    """

    certain: int
    pmf: tuple[float, ...]

    @property
    def uncertain(self) -> int:
        """``f^u``: number of uncertain positions that may hold the char."""
        return len(self.pmf) - 1

    @property
    def total(self) -> int:
        """``f^t = f^c + f^u``: maximum possible occurrence count."""
        return self.certain + self.uncertain

    @cached_property
    def mean(self) -> float:
        """``E[count]``."""
        return self.certain + sum(x * p for x, p in enumerate(self.pmf))

    # S1 is ``pmf`` itself.

    @cached_property
    def survival(self) -> tuple[float, ...]:
        """S2: ``S2[x] = Pr(count >= certain + x)``."""
        out = [0.0] * (len(self.pmf) + 1)
        for x in range(len(self.pmf) - 1, -1, -1):
            out[x] = out[x + 1] + self.pmf[x]
        return tuple(out[:-1])

    @cached_property
    def scaled_tail(self) -> tuple[float, ...]:
        """S3: ``S3[x] = sum_{y >= x} (y - x + 1) * pmf[y]``.

        Equivalently ``E[(count - (certain + x - 1))^+]``, the building
        block for expected positive/negative frequency distances.
        """
        out = [0.0] * (len(self.pmf) + 1)
        running = 0.0
        for x in range(len(self.pmf) - 1, -1, -1):
            running += self.pmf[x]
            out[x] = out[x + 1] + running
        return tuple(out[:-1])

    @cached_property
    def scaled_head(self) -> tuple[float, ...]:
        """S4: ``S4[x] = sum_{y <= x} (x - y) * pmf[y]``."""
        # Incremental identity: S4[x] = S4[x-1] + Pr(count <= certain + x - 1).
        out: list[float] = []
        running_mass = 0.0
        for x, p in enumerate(self.pmf):
            out.append(0.0 if x == 0 else out[-1] + running_mass)
            running_mass += p
        return tuple(out)

    def expected_excess_over(self, threshold: int) -> float:
        """``E[(count - threshold)^+]`` for an absolute ``threshold``.

        Used as ``T(x)`` in the E[nD] computation with
        ``threshold = x`` (count of the other string).
        """
        t = threshold + 1 - self.certain
        if t <= 0:
            return self.scaled_tail[0] + (-t) * self.survival[0]
        if t > self.uncertain:
            return 0.0
        return self.scaled_tail[t]


class FrequencyProfile:
    """Per-character count distributions for one uncertain string.

    Built once per string (O(|S| * support + sum f^u ^2)) and kept as part
    of the join's index state, exactly as the paper prescribes at the end
    of Section 5.
    """

    __slots__ = (
        "length",
        "_by_char",
        "_chars",
        "_sorted_chars",
        "_native_pack",
    )

    _EMPTY = CharCountDistribution(certain=0, pmf=(1.0,))

    def __init__(self, string: UncertainString) -> None:
        self.length = len(string)
        # From the heavy form: certain counts are the text's, less the
        # multi-alternative positions among the weighted ones; those
        # give each character's uncertain probabilities in position
        # order (the lists char_position_probs would return).
        text, weighted = string.heavy_form()
        certain = Counter(text)
        uncertain: dict[str, list[float]] = {}
        for index in weighted:
            pos = string[index]
            if not pos.is_certain:
                certain[pos.top] -= 1
                for char, prob in pos.items():
                    uncertain.setdefault(char, []).append(prob)
        by_char: dict[str, CharCountDistribution] = {}
        for char in sorted(certain.keys() | uncertain.keys()):
            by_char[char] = CharCountDistribution(
                certain=certain.get(char, 0),
                pmf=tuple(poisson_binomial_pmf(uncertain.get(char, ()))),
            )
        self._by_char = by_char
        # Support is queried twice per pair by fd_lower_bound and again
        # by E[nD]/E[pD]; cache both views once instead of allocating a
        # fresh set per call. Insertion order above is sorted already.
        self._chars = frozenset(by_char)
        self._sorted_chars = tuple(by_char)
        # Opaque per-profile scratch for the optional native backend
        # (repro.filters._native): the C-marshalled S1/S2/S3 planes,
        # built lazily on first native use. Always None otherwise.
        self._native_pack: object | None = None

    def chars(self) -> frozenset[str]:
        """Characters with positive occurrence probability.

        The same cached frozenset on every call — callers must not rely
        on getting a private mutable copy.
        """
        return self._chars

    @property
    def sorted_chars(self) -> tuple[str, ...]:
        """The support in ascending order (merge-iteration layout)."""
        return self._sorted_chars

    def distribution(self, char: str) -> CharCountDistribution:
        """The count distribution of ``char`` (a point mass at 0 if absent)."""
        return self._by_char.get(char, self._EMPTY)


def merged_support(
    left: FrequencyProfile, right: FrequencyProfile
) -> tuple[str, ...]:
    """Ascending union of two support alphabets, no set construction.

    A linear merge over the cached sorted tuples; this replaces the
    per-pair ``left.chars() | right.chars()`` unions that used to run
    up to three times per candidate pair (Lemma 6 + both E[nD] sides).
    """
    a, b = left._sorted_chars, right._sorted_chars
    if a == b:
        return a
    i = j = 0
    n, m = len(a), len(b)
    out: list[str] = []
    while i < n and j < m:
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    if i < n:
        out.extend(a[i:])
    elif j < m:
        out.extend(b[j:])
    return tuple(out)


def fd_lower_bound(
    left: FrequencyProfile,
    right: FrequencyProfile,
    support: Sequence[str] | None = None,
) -> int:
    """Lemma 6: a lower bound on ``fd(R, S)`` valid in every joint world.

    ``pD`` accumulates characters that ``R`` surely has more of than ``S``
    possibly can, ``nD`` the reverse; the bound is ``max(pD, nD)``.
    ``support`` lets callers share one precomputed
    :func:`merged_support` across the pair's filter bounds.
    """
    if support is None:
        support = merged_support(left, right)
    positive = 0
    negative = 0
    for char in support:
        l_dist = left.distribution(char)
        r_dist = right.distribution(char)
        if r_dist.total < l_dist.certain:
            positive += l_dist.certain - r_dist.total
        if l_dist.total < r_dist.certain:
            negative += r_dist.certain - l_dist.total
    return max(positive, negative)


def expected_negative(
    left: FrequencyProfile,
    right: FrequencyProfile,
    support: Sequence[str] | None = None,
) -> float:
    """``E[nD] = sum_c E[(fS_c - fR_c)^+]`` with R=left, S=right.

    Per character this walks the (usually tiny) support of ``fR_c`` and
    reads ``E[(fS_c - x)^+]`` from the S2/S3 arrays in O(1).
    Accumulation runs in ascending character order (deterministic,
    unlike the old set-union iteration).
    """
    if support is None:
        support = merged_support(left, right)
    total = 0.0
    for char in support:
        l_dist = left.distribution(char)
        r_dist = right.distribution(char)
        if r_dist.total == 0:
            continue
        contribution = 0.0
        for offset, mass in enumerate(l_dist.pmf):
            if mass == 0.0:
                continue
            x = l_dist.certain + offset
            contribution += mass * r_dist.expected_excess_over(x)
        total += contribution
    return total


def expected_positive_negative(
    left: FrequencyProfile,
    right: FrequencyProfile,
    support: Sequence[str] | None = None,
) -> tuple[float, float]:
    """``(E[pD], E[nD])`` between R=left and S=right."""
    if support is None:
        support = merged_support(left, right)
    return (
        expected_negative(right, left, support),
        expected_negative(left, right, support),
    )


def chebyshev_upper_bound(
    left: FrequencyProfile,
    right: FrequencyProfile,
    k: int,
    expectations: tuple[float, float] | None = None,
) -> float:
    """Theorem 3: upper bound on ``Pr(ed(R, S) <= k)`` via frequency distance.

    ``Pr(ed <= k) <= Pr(fd <= k) <= B^2 / (B^2 + (A - k)^2)`` whenever
    ``A > k`` (one-sided Chebyshev); otherwise the bound is vacuous (1.0).
    ``expectations`` lets callers reuse a precomputed ``(E[pD], E[nD])``.
    """
    if expectations is None:
        expectations = expected_positive_negative(left, right)
    expected_pd, expected_nd = expectations
    length_gap = abs(left.length - right.length)
    a = length_gap / 2.0 + (expected_pd + expected_nd) / 2.0
    if a <= k:
        return 1.0
    b_squared = (
        (left.length - right.length) ** 2 / 2.0
        + length_gap * (expected_pd + expected_nd) / 2.0
        + min(left.length * expected_nd, right.length * expected_pd)
        - a * a
    )
    if b_squared <= 0.0:
        return 0.0
    return b_squared / (b_squared + (a - k) ** 2)


def frequency_bounds(
    left: FrequencyProfile,
    right: FrequencyProfile,
    k: int,
) -> tuple[int, float | None]:
    """``(Lemma 6 lower bound, Theorem 3 upper bound)`` for one pair.

    The scalar reference entry point shared by the kernel backends
    (:mod:`repro.core.backends`): one merged-support walk feeds Lemma 6
    and both expectation sides, exactly like
    :meth:`FrequencyDistanceFilter.decide` — including its
    short-circuit: on a Lemma 6 reject (``lower > k``) the Theorem 3
    bound is never computed and ``None`` is returned in its place.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    support = merged_support(left, right)
    lower_fd = fd_lower_bound(left, right, support)
    if lower_fd > k:
        return lower_fd, None
    upper = chebyshev_upper_bound(
        left,
        right,
        k,
        expectations=expected_positive_negative(left, right, support),
    )
    return lower_fd, upper


class FrequencyDistanceFilter:
    """Lemma 6 + Theorem 3 packaged as a pair filter.

    Profiles may be passed pre-built (the join caches them); otherwise they
    are computed on the fly.
    """

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        self.k = k

    def profile(self, string: UncertainString) -> FrequencyProfile:
        """Build (or rebuild) the per-string preprocessing."""
        return FrequencyProfile(string)

    def decide(
        self,
        left: UncertainString | FrequencyProfile,
        right: UncertainString | FrequencyProfile,
        tau: float,
    ) -> FilterDecision:
        """Reject if Lemma 6 exceeds ``k`` or Theorem 3's bound is ``<= tau``."""
        left_profile = left if isinstance(left, FrequencyProfile) else FrequencyProfile(left)
        right_profile = (
            right if isinstance(right, FrequencyProfile) else FrequencyProfile(right)
        )
        # One merged-support walk shared by Lemma 6 and both E[·] sides.
        support = merged_support(left_profile, right_profile)
        lower_fd = fd_lower_bound(left_profile, right_profile, support)
        if lower_fd > self.k:
            return FilterDecision(
                FilterVerdict.REJECT,
                upper=0.0,
                reason=f"Lemma 6 frequency distance >= {lower_fd} > k",
            )
        upper = chebyshev_upper_bound(
            left_profile,
            right_profile,
            self.k,
            expectations=expected_positive_negative(
                left_profile, right_profile, support
            ),
        )
        if upper <= tau:
            return FilterDecision(
                FilterVerdict.REJECT,
                upper=upper,
                reason=f"Theorem 3 upper bound {upper:.6g} <= tau",
            )
        return FilterDecision(FilterVerdict.UNDECIDED, upper=upper)
