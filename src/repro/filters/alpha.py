"""Segment match probabilities α_x (Sections 3.1–3.2).

``alpha_x = Pr(E_x)`` where ``E_x`` is the event that some substring of
``R`` drawn from the position-aware selection window matches segment
``S^x``. For deterministic ``r`` this is a plain sum of match
probabilities (distinct substrings are mutually exclusive values of
``S^x``). For uncertain ``R`` the same substring value can arise from
several overlapping windows of the *same* possible world, so summing
naively double-counts — the paper's Section 3.2 example where a naive sum
yields 1.32. The fix is the *equivalent set* ``q(r, x)``: per distinct
substring value ``w``, overlapping occurrences are grouped and each
group's probability is the chance that at least one of its occurrences
realizes ``w``.

Two group-probability modes are implemented:

* ``"beta"`` — the paper's chain recursion
  ``beta_j = beta_{j-1} + p(w_j) - Pr(w_j[1..ov] = R[y..z])``;
* ``"exact"`` — inclusion–exclusion over the (few) occurrence events,
  falling back to ``"beta"`` for groups larger than
  :data:`EXACT_GROUP_LIMIT`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from repro.uncertain.string import UncertainString
from repro.uncertain.worlds import window_worlds

GroupMode = Literal["beta", "exact"]

#: Inclusion–exclusion is exponential in group size; beyond this we fall
#: back to the paper's beta recursion.
EXACT_GROUP_LIMIT = 12


@dataclass(frozen=True)
class OccurrenceGroup:
    """Overlapping occurrences of one substring value ``w`` in ``R``.

    ``starts`` are sorted 0-based window starts; consecutive members overlap
    (``starts[i+1] <= starts[i] + len(w) - 1``).
    """

    word: str
    starts: tuple[int, ...]


def _split_into_groups(word: str, starts: Sequence[int]) -> list[OccurrenceGroup]:
    """Group sorted occurrence starts into maximal overlapping runs."""
    groups: list[OccurrenceGroup] = []
    run: list[int] = []
    reach = -1
    for start in sorted(starts):
        if run and start > reach:
            groups.append(OccurrenceGroup(word, tuple(run)))
            run = []
        run.append(start)
        reach = start + len(word) - 1
    if run:
        groups.append(OccurrenceGroup(word, tuple(run)))
    return groups


def _beta_group_probability(string: UncertainString, group: OccurrenceGroup) -> float:
    """The paper's β-recursion for one overlap group (Section 3.2, Step 1).

    ``beta_j = beta_{j-1} + p(occurrence_j) - Pr(w[0..ov) = R[start_j..])``
    where ``ov`` is the overlap with the previous occurrence. For the first
    occurrence the overlap is empty and the subtracted term is 1, so
    ``beta_1 = p(occurrence_1)``.
    """
    word = group.word
    length = len(word)
    beta = 1.0
    previous_start: int | None = None
    for start in group.starts:
        occurrence_prob = string.match_probability(word, start)
        if previous_start is None:
            overlap_prob = 1.0
        else:
            overlap = previous_start + length - start
            overlap_prob = (
                string.match_probability(word[:overlap], start)
                if overlap > 0
                else 1.0
            )
        beta = beta + occurrence_prob - overlap_prob
        previous_start = start
    return min(1.0, max(0.0, beta))


def _exact_group_probability(string: UncertainString, group: OccurrenceGroup) -> float:
    """Exact ``Pr(at least one occurrence in the group)`` by inclusion–exclusion.

    The intersection of occurrence events is a positionwise constraint:
    overlaying ``w`` at each selected start either conflicts (probability 0)
    or fixes a set of positions whose probabilities multiply.
    """
    word = group.word
    length = len(word)
    starts = group.starts
    n = len(starts)
    total = 0.0
    for mask in range(1, 1 << n):
        constraints: dict[int, str] = {}
        consistent = True
        bits = mask
        idx = 0
        while bits:
            if bits & 1:
                start = starts[idx]
                for offset in range(length):
                    pos = start + offset
                    want = word[offset]
                    have = constraints.get(pos)
                    if have is None:
                        constraints[pos] = want
                    elif have != want:
                        consistent = False
                        break
                if not consistent:
                    break
            bits >>= 1
            idx += 1
        if not consistent:
            continue
        prob = 1.0
        for pos, char in constraints.items():
            prob *= string[pos].probability(char)
            if prob == 0.0:
                break
        if prob == 0.0:
            continue
        sign = -1.0 if bin(mask).count("1") % 2 == 0 else 1.0
        total += sign * prob
    return min(1.0, max(0.0, total))


def group_probability(
    string: UncertainString, group: OccurrenceGroup, mode: GroupMode = "exact"
) -> float:
    """``Pr(at least one occurrence of group.word among group.starts)``."""
    if len(group.starts) == 1:
        return string.match_probability(group.word, group.starts[0])
    if mode == "exact" and len(group.starts) <= EXACT_GROUP_LIMIT:
        return _exact_group_probability(string, group)
    return _beta_group_probability(string, group)


#: Per-query memo of window worlds: ``(start, length)`` → the words that
#: window realizes with positive probability, in enumeration order.
WindowTable = dict[tuple[int, int], tuple[str, ...]]


def substring_occurrences(
    string: UncertainString,
    starts: Iterable[int],
    length: int,
    windows: WindowTable,
) -> dict[str, list[int]]:
    """Every instance value ``w`` of the windows ``R[start : start + length]``.

    Maps each word to the ascending starts of the windows that realize it
    with positive probability; words appear in first-occurrence order
    (windows ascending, worlds in enumeration order). Duplicate starts
    count once and windows that leave ``R`` are skipped. Each window's
    worlds are read from ``windows`` or enumerated into it.
    """
    occurrences: dict[str, list[int]] = {}
    for start in sorted(set(starts)):
        if start < 0 or start + length > len(string):
            continue
        words = windows.get((start, length))
        if words is None:
            words = windows[start, length] = tuple(
                word
                for word, prob in window_worlds(string, start, length)
                if prob > 0.0
            )
        for word in words:
            occurrences.setdefault(word, []).append(start)
    return occurrences


def occurrence_weight(
    string: UncertainString,
    word: str,
    starts: Sequence[int],
    mode: GroupMode = "exact",
) -> float:
    """``p_r(w)``: probability that some window at ``starts`` realizes ``word``.

    Overlap groups combine by :func:`group_probability`; disjoint groups
    are independent, so ``p_r(w) = 1 - prod_g (1 - p(g))``, clamped to 1
    (Section 3.2, Step 2). ``starts`` must ascend, as
    :func:`substring_occurrences` returns them.
    """
    survive = 1.0
    for group in _split_into_groups(word, starts):
        survive *= 1.0 - group_probability(string, group, mode)
    prob = 1.0 - survive
    return min(1.0, prob) if prob > 0.0 else 0.0


def equivalent_substring_set(
    string: UncertainString,
    starts: Iterable[int],
    length: int,
    mode: GroupMode = "exact",
) -> dict[str, float]:
    """Build the equivalent set ``q(r, x)`` from windows of an uncertain ``R``.

    For every distinct instance value ``w`` of the windows
    ``R[start : start + length]``, returns ``p_r(w)``: the probability that
    at least one window realizes ``w``. Within one overlap group the events
    are combined by :func:`group_probability`; across groups (disjoint in
    ``R``) the events are independent, so
    ``p_r(w) = 1 - prod_g (1 - p(g))`` (Section 3.2, Step 2).

    For a deterministic ``r`` every present substring gets probability 1,
    recovering the plain substring set of Section 3.1.
    """
    equivalent: dict[str, float] = {}
    for word, word_starts in substring_occurrences(
        string, starts, length, {}
    ).items():
        weight = occurrence_weight(string, word, word_starts, mode)
        if weight > 0.0:
            equivalent[word] = weight
    return equivalent


def segment_match_probability(
    string: UncertainString,
    starts: Iterable[int],
    segment: UncertainString,
    mode: GroupMode = "exact",
) -> float:
    """``alpha_x``: probability that some selected substring matches ``S^x``.

    ``alpha_x = sum_w p_r(w) * Pr(w = S^x)`` over the equivalent set — the
    corrected computation of Section 3.2 (0.68 on the paper's example, where
    the naive sum gives 1.32).
    """
    equivalent = equivalent_substring_set(string, starts, len(segment), mode)
    alpha = 0.0
    for word, prob in equivalent.items():
        segment_prob = segment.instance_probability(word)
        if segment_prob > 0.0:
            alpha += prob * segment_prob
    return min(1.0, alpha)
