"""Shared test utilities: random strings, strategies, reference kernels.

Besides the random-collection builders and hypothesis strategies, this
module keeps **frozen reference implementations** of the hot kernels
(CDF-bound DP, banded edit distance, frequency bounds) as they existed
before the allocation-conscious rewrites. The optimized kernels in
``repro.filters`` / ``repro.distance`` must stay float-for-float
identical to these copies — ``tests/test_kernel_equivalence.py`` holds
them to it. The recursive world generator, the frequency-profile
constructor, the heap-based posting merges and the equivalent-set-first
index probe are frozen the same way (``tests/test_worlds.py``,
``tests/test_kernel_equivalence.py``, ``tests/test_merge.py``,
``tests/test_probe_parity.py``).
Do not "fix" or modernize the reference copies; their whole value is
that they do not change.
"""

from __future__ import annotations

import heapq
import random
from pathlib import Path

from hypothesis import strategies as st

from repro.core.config import JoinConfig
from repro.core.engine import CandidateSource
from repro.filters.alpha import _split_into_groups, group_probability
from repro.filters.events import markov_tail_bound, tail_probability
from repro.filters.frequency import FrequencyProfile, poisson_binomial_pmf
from repro.index.probe import IndexCandidate
from repro.partition.selection import substring_starts
from repro.store import (
    MemoryStore,
    SqliteStore,
    StoreIndexSource,
    build_sqlite_store,
)
from repro.uncertain.alphabet import Alphabet
from repro.uncertain.position import UncertainPosition
from repro.uncertain.string import UncertainString

SMALL_ALPHABET = Alphabet("ACGT")

#: Where the one candidate source keeps its q-gram postings: nowhere (a
#: stack without Q), an in-memory index, or a store of either kind.
SOURCE_MODES = ("none", "index", "memory", "sqlite")


def source_in_mode(mode, collection, k, q, workdir, tau=0.1):
    """An empty :class:`CandidateSource` over ``collection`` with its
    postings in ``mode``'s home; stores are built at ``(k, q)`` (the
    SQLite file under ``workdir``). Register in visit order."""
    algorithm = "FCT" if mode == "none" else "QFCT"
    config = JoinConfig.for_algorithm(algorithm, k=k, tau=tau, q=q)
    if mode in ("none", "index"):
        return CandidateSource(config)
    if mode == "memory":
        return StoreIndexSource(config, MemoryStore(collection, k=k, q=q))
    path = Path(workdir) / f"{mode}-k{k}-q{q}.db"
    build_sqlite_store(iter(collection), path, k=k, q=q)
    return StoreIndexSource(config, SqliteStore(path))


def random_uncertain(
    rng: random.Random,
    length: int,
    theta: float = 0.3,
    gamma: int = 2,
    alphabet: Alphabet = SMALL_ALPHABET,
    max_uncertain: int | None = None,
) -> UncertainString:
    """A random uncertain string with roughly ``theta`` uncertain positions."""
    symbols = alphabet.symbols
    positions = []
    uncertain_budget = max_uncertain if max_uncertain is not None else length
    for _ in range(length):
        if uncertain_budget > 0 and rng.random() < theta:
            support_size = min(rng.randint(2, max(2, gamma)), len(symbols))
            chars = rng.sample(symbols, support_size)
            weights = [rng.random() + 0.05 for _ in chars]
            total = sum(weights)
            positions.append(
                UncertainPosition({c: w / total for c, w in zip(chars, weights)})
            )
            uncertain_budget -= 1
        else:
            positions.append(UncertainPosition.certain(rng.choice(symbols)))
    return UncertainString(positions)


def random_collection(
    rng: random.Random,
    count: int,
    length_range: tuple[int, int] = (4, 8),
    theta: float = 0.3,
    gamma: int = 2,
    alphabet: Alphabet = SMALL_ALPHABET,
    max_uncertain: int | None = 3,
) -> list[UncertainString]:
    """A random collection kept small enough for brute-force comparison."""
    return [
        random_uncertain(
            rng,
            rng.randint(*length_range),
            theta=theta,
            gamma=gamma,
            alphabet=alphabet,
            max_uncertain=max_uncertain,
        )
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------

def positions(alphabet: str = "ACGT", max_support: int = 3) -> st.SearchStrategy:
    """Strategy for one uncertain position over ``alphabet``."""

    def build(chars: list[str], weights: list[float]) -> UncertainPosition:
        total = sum(weights)
        return UncertainPosition(
            {c: w / total for c, w in zip(chars, weights)}
        )

    def position_from_support(support: list[str]) -> st.SearchStrategy:
        return st.lists(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
            min_size=len(support),
            max_size=len(support),
        ).map(lambda ws: build(support, ws))

    supports = st.lists(
        st.sampled_from(list(alphabet)),
        min_size=1,
        max_size=max_support,
        unique=True,
    )
    return supports.flatmap(position_from_support)


#: The largest float below 1: a single alternative read back verbatim
#: (``UncertainPosition.from_normalized``) can carry it.
ONE_MINUS_ULP = 1.0 - 2.0**-53


def verbatim_positions(alphabet: str = "ACGT", max_support: int = 3) -> st.SearchStrategy:
    """Strategy for positions as a store hydrates them: general
    normalized positions, certain ones at exactly 1.0, and single
    alternatives kept verbatim at ``1 - 2**-53``."""
    chars = st.sampled_from(list(alphabet))
    return st.one_of(
        positions(alphabet, max_support),
        chars.map(UncertainPosition.certain),
        chars.map(
            lambda c: UncertainPosition.from_normalized([(c, ONE_MINUS_ULP)])
        ),
    )


def uncertain_strings(
    alphabet: str = "ACGT",
    min_length: int = 1,
    max_length: int = 6,
    max_support: int = 3,
    max_uncertain: int = 3,
    verbatim: bool = False,
) -> st.SearchStrategy:
    """Strategy for whole uncertain strings with bounded world counts.

    ``verbatim`` mixes in :func:`verbatim_positions`.
    """

    def clamp(string: UncertainString) -> UncertainString:
        # Keep world counts small: flatten excess uncertain positions to
        # their modal character.
        kept = 0
        out = []
        for pos in string:
            if pos.is_certain:
                out.append(pos)
            elif kept < max_uncertain:
                out.append(pos)
                kept += 1
            else:
                out.append(UncertainPosition.certain(pos.top))
        return UncertainString(out)

    return (
        st.lists(
            (verbatim_positions if verbatim else positions)(alphabet, max_support),
            min_size=min_length,
            max_size=max_length,
        )
        .map(UncertainString)
        .map(clamp)
    )

# ----------------------------------------------------------------------
# frozen reference kernels (pre-optimization copies — do not modernize)
# ----------------------------------------------------------------------

_RefBounds = tuple[tuple[float, ...], tuple[float, ...]]


def _ref_boundary_cell(distance: int, k: int) -> _RefBounds:
    values = tuple(1.0 if j >= distance else 0.0 for j in range(k + 1))
    return values, values


def reference_cdf_bounds(
    left: UncertainString, right: UncertainString, k: int
) -> _RefBounds:
    """The original tuple-per-cell Theorem 4 DP (pre flat-buffer rewrite)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n, m = len(left), len(right)
    if abs(n - m) > k:
        zeros = tuple(0.0 for _ in range(k + 1))
        return zeros, zeros

    zeros = tuple(0.0 for _ in range(k + 1))
    zero: _RefBounds = (zeros, zeros)
    previous_row: dict[int, _RefBounds] = {}
    for y in range(0, min(m, k) + 1):
        previous_row[y] = _ref_boundary_cell(y, k)

    for x in range(1, n + 1):
        current_row: dict[int, _RefBounds] = {}
        row_mass = 0.0
        y_lo = max(0, x - k)
        y_hi = min(m, x + k)
        if y_lo == 0:
            current_row[0] = _ref_boundary_cell(x, k)
            y_start = 1
        else:
            y_start = y_lo
        left_pos = left[x - 1]
        for y in range(y_start, y_hi + 1):
            diag = previous_row.get(y - 1, zero)
            up = current_row.get(y - 1, zero)
            side = previous_row.get(y, zero)
            p1 = left_pos.agreement(right[y - 1])
            p2 = 1.0 - p1
            diag_l, diag_u = diag
            up_l, up_u = up
            side_l, side_u = side
            best_l = max(diag_l, up_l, side_l)
            lower = []
            upper = []
            for j in range(k + 1):
                from_diag = p1 * diag_l[j]
                from_best = p2 * best_l[j - 1] if j > 0 else 0.0
                lower.append(max(from_diag, from_best))
                u = p1 * diag_u[j]
                if j > 0:
                    u += p2 * diag_u[j - 1] + up_u[j - 1] + side_u[j - 1]
                upper.append(min(1.0, u))
            current_row[y] = (tuple(lower), tuple(upper))
            row_mass += upper[k]
        if x <= k and y_lo == 0:
            row_mass += current_row[0][1][k]
        if row_mass == 0.0:
            return zero
        previous_row = current_row
    final = previous_row.get(m)
    if final is None:  # pragma: no cover - band always reaches (n, m)
        return zero
    return final


def reference_edit_distance_banded(left: str, right: str, k: int) -> int:
    """The original banded DP allocating a fresh row per outer iteration."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    length_gap = abs(len(left) - len(right))
    if length_gap > k:
        return k + 1
    if left == right:
        return 0
    if len(left) < len(right):
        left, right = right, left
    n, m = len(left), len(right)
    big = k + 1
    previous = [j if j <= k else big for j in range(m + 1)]
    for i in range(1, n + 1):
        lo = max(1, i - k)
        hi = min(m, i + k)
        current = [big] * (m + 1)
        if i <= k:
            current[0] = i
        row_min = current[0] if i <= k else big
        left_char = left[i - 1]
        for j in range(lo, hi + 1):
            cost = 0 if left_char == right[j - 1] else 1
            best = previous[j - 1] + cost
            if previous[j] + 1 < best:
                best = previous[j] + 1
            if current[j - 1] + 1 < best:
                best = current[j - 1] + 1
            if best > big:
                best = big
            current[j] = best
            if best < row_min:
                row_min = best
        if row_min > k:
            return big
        previous = current
    return previous[m] if previous[m] <= k else big


def reference_fd_lower_bound(
    left: FrequencyProfile, right: FrequencyProfile
) -> int:
    """The original Lemma 6 walk over a per-pair support-set union."""
    positive = 0
    negative = 0
    for char in left.chars() | right.chars():
        l_dist = left.distribution(char)
        r_dist = right.distribution(char)
        if r_dist.total < l_dist.certain:
            positive += l_dist.certain - r_dist.total
        if l_dist.total < r_dist.certain:
            negative += r_dist.certain - l_dist.total
    return max(positive, negative)


def reference_expected_negative(
    left: FrequencyProfile, right: FrequencyProfile
) -> float:
    """The original E[nD] sum, pinned to ascending character order.

    The pre-optimization code iterated ``left.chars() | right.chars()``
    in set (hash) order; the optimized kernel iterates the sorted merged
    support. Float accumulation order matters for exact equality, so
    this reference fixes the ascending order the optimized kernel is
    specified to use — the per-character terms are otherwise verbatim.
    """
    total = 0.0
    for char in sorted(left.chars() | right.chars()):
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


def reference_expected_positive_negative(
    left: FrequencyProfile, right: FrequencyProfile
) -> tuple[float, float]:
    return (
        reference_expected_negative(right, left),
        reference_expected_negative(left, right),
    )


def reference_enumerate_worlds(string: UncertainString):
    """The original recursive world generator (pre position-skip rewrite).

    Recurses through every position, certain or not, multiplying each
    position's probability into the running product left to right.
    """

    def recurse(index, prefix, prob):
        if index == len(string):
            yield "".join(prefix), prob
            return
        for char, char_prob in string[index].items():
            prefix.append(char)
            yield from recurse(index + 1, prefix, prob * char_prob)
            prefix.pop()

    return recurse(0, [], 1.0)


def reference_profile_distributions(
    string: UncertainString,
) -> dict[str, tuple[int, tuple[float, ...]]]:
    """The original ``FrequencyProfile`` constructor's ``(certain, pmf)``
    per character: one scan of the string per support character."""
    out = {}
    for char in sorted(string.support_alphabet()):
        certain = sum(
            1
            for pos in string
            if pos.is_certain and pos.top == char
        )
        probs = string.char_position_probs(char)
        out[char] = (certain, tuple(poisson_binomial_pmf(probs)))
    return out


def reference_merge_weighted_postings(lists):
    """The original k-way heap merge behind ``merge_weighted_postings``:
    ties on an id pop in list order, each adding ``weight * prob``."""
    heap: list[tuple[int, int, int]] = []
    for which, (weight, postings) in enumerate(lists):
        if postings:
            heap.append((postings[0][0], which, 0))
    heapq.heapify(heap)
    merged: list[tuple[int, float]] = []
    while heap:
        current_id = heap[0][0]
        alpha = 0.0
        while heap and heap[0][0] == current_id:
            _, which, offset = heapq.heappop(heap)
            weight, postings = lists[which]
            alpha += weight * postings[offset][1]
            offset += 1
            if offset < len(postings):
                heapq.heappush(heap, (postings[offset][0], which, offset))
        merged.append((current_id, alpha))
    return merged


def reference_join_sorted_lists(lists):
    """The original k-way heap merge behind ``join_sorted_lists``."""
    heap: list[tuple[int, int, int]] = []
    for which, postings in enumerate(lists):
        if postings:
            heap.append((postings[0][0], which, 0))
    heapq.heapify(heap)
    joined: list[tuple[int, list[tuple[int, float]]]] = []
    while heap:
        current_id = heap[0][0]
        entries: list[tuple[int, float]] = []
        while heap and heap[0][0] == current_id:
            _, which, offset = heapq.heappop(heap)
            postings = lists[which]
            entries.append((which, postings[offset][1]))
            offset += 1
            if offset < len(postings):
                heapq.heappush(heap, (postings[offset][0], which, offset))
        joined.append((current_id, entries))
    return joined


def reference_equivalent_substring_set(string, starts, length, mode="exact"):
    """The original equivalent-set builder over the recursive generator."""
    start_list = sorted(set(starts))
    occurrences: dict[str, list[int]] = {}
    for start in start_list:
        if start < 0 or start + length > len(string):
            continue
        window = string.substring(start, length)
        for word, prob in reference_enumerate_worlds(window):
            if prob > 0.0:
                occurrences.setdefault(word, []).append(start)
    equivalent: dict[str, float] = {}
    for word, word_starts in occurrences.items():
        survive = 1.0
        for group in _split_into_groups(word, word_starts):
            survive *= 1.0 - group_probability(string, group, mode)
        prob = 1.0 - survive
        if prob > 0.0:
            equivalent[word] = min(1.0, prob)
    return equivalent


def reference_query_candidates(
    view, query, tau, *, k, selection, group_mode, bound_mode
) -> list[IndexCandidate]:
    """The original equivalent-set-first index probe, every length."""
    out: list[IndexCandidate] = []
    query_length = len(query)
    for length in view.visit_lengths():
        if abs(length - query_length) > k:
            continue
        out.extend(
            reference_query_length_candidates(
                view,
                query,
                length,
                tau,
                k=k,
                selection=selection,
                group_mode=group_mode,
                bound_mode=bound_mode,
            )
        )
    return out


def reference_query_length_candidates(
    view, query, length, tau, *, k, selection, group_mode, bound_mode
) -> list[IndexCandidate]:
    """The original probe of one length: the full equivalent set with its
    group probabilities first, then the posting lookup."""
    segments = view.partition_of(length)
    m = len(segments)
    required = m - k
    if required <= 0:
        return [
            IndexCandidate(
                string_id=string_id,
                alphas=(0.0,) * m,
                matched_segments=0,
                required=required,
                upper=1.0,
            )
            for string_id in view.ids_of_length(length)
        ]
    per_segment: list[list[tuple[int, float]]] = []
    survivors_possible = 0
    for segment in segments:
        merged: list[tuple[int, float]] = []
        if view.has_segment(length, segment.index):
            starts = substring_starts(
                segment, len(query), length, k, m, selection
            )
            if starts:
                equivalent = reference_equivalent_substring_set(
                    query, starts, segment.length, group_mode
                )
                lists = view.posting_lists(
                    length, segment.index, list(equivalent)
                )
                weighted = [
                    (weight, lists[word])
                    for word, weight in equivalent.items()
                    if word in lists and lists[word]
                ]
                if weighted:
                    merged = reference_merge_weighted_postings(weighted)
        per_segment.append(merged)
        if merged:
            survivors_possible += 1
    if survivors_possible < required:
        return []
    candidates: list[IndexCandidate] = []
    for string_id, entries in reference_join_sorted_lists(per_segment):
        matched = sum(1 for _, alpha in entries if alpha > 0.0)
        if matched < required:
            continue
        alphas = [0.0] * m
        for segment_offset, alpha in entries:
            alphas[segment_offset] = min(1.0, alpha)
        if bound_mode == "markov":
            upper = markov_tail_bound(alphas, required)
        else:
            upper = tail_probability(alphas, required)
        if upper <= tau:
            continue
        candidates.append(
            IndexCandidate(
                string_id=string_id,
                alphas=tuple(alphas),
                matched_segments=matched,
                required=required,
                upper=upper,
            )
        )
    return candidates
