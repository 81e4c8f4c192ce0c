"""CDF-bound filtering (Section 6.1, Theorem 4).

A dynamic program over the banded ``|R| x |S|`` grid keeps, per cell
``(x, y)``, arrays ``L[j] <= Pr(ed(R[1..x], S[1..y]) <= j) <= U[j]`` for
``j = 0..k``. At the final cell the bounds decide the pair:

* ``L[k] > tau``  → the pair is provably similar (**accept**, skipping
  verification);
* ``U[k] <= tau`` → provably dissimilar (**reject**);
* otherwise the pair goes to exact verification.

The transition uses ``p1 = Pr(R[x] = S[y])`` (positionwise agreement) and
the relaxations of Theorem 4 — which differ from Ge–Li's original bounds;
the paper's footnote shows those can violate both sides on uncertain-
uncertain input. Cells outside the band have ``L = U = 0`` since the edit
distance of prefixes with length gap ``> k`` surely exceeds ``k``.

Complexity: ``O(min(|R|, |S|) * (k + 1) * max(k, gamma))`` per pair.

Implementation notes (the allocation discipline behind ``BENCH_*.json``):
the DP stores each row as four flat band-width float buffers (L and U
for the previous/current row) reused across all rows — no per-cell
tuple or list is built. A cell ``(x, y)`` lives at slot ``y - x + k + 1``
(so the diagonal predecessor shares its slot), with zero-filled guard
slots at both band edges standing in for out-of-band cells. Boundary
cells are memoized per ``(distance, k)``, and a certain×certain pair
short-circuits to :func:`~repro.distance.edit.edit_distance_banded`:
for one-world strings the DP arrays collapse to the exact 0/1 indicator
``[ed <= j]`` (both bounds are tight), so the banded integer kernel
returns the byte-identical answer at a fraction of the cost.

The agreement probability ``p1`` is computed inline from per-position
tables built once per string and cached on it
(:meth:`UncertainString.agreement_table`): a certain position is its
character, an uncertain one its ``(chars, probs, pdf)`` triple.
Certain×certain cells reduce ``p1`` to a character comparison, and the
degenerate transitions (``p1`` exactly 0 or 1) skip the dead terms —
every shortcut reproduces the general transition's floats bit-for-bit
(multiplying by 1.0, adding 0.0, and max/min against the identity are
all exact in IEEE arithmetic).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.distance.edit import edit_distance_banded
from repro.filters.base import FilterDecision, FilterVerdict
from repro.uncertain.string import UncertainString

_Bounds = tuple[tuple[float, ...], tuple[float, ...]]

#: Entry caps for the process-global memo tables below. The values are
#: pure functions of their keys, so eviction can never change a result —
#: only the cost of rebuilding a tuple. The caps exist because a
#: long-lived process (a server, a parameter sweep) visits unboundedly
#: many ``(distance, k)`` pairs over its lifetime; before they were
#: added the caches grew forever.
_BOUNDARY_CACHE_MAX = 4096
_ZERO_CACHE_MAX = 64

#: Monotone lifetime hit/miss counters for the memo tables —
#: :func:`clear_cdf_caches` empties the tables but never resets these,
#: so benchmark cases can report per-case deltas by subtracting two
#: :func:`cdf_cache_stats` snapshots.
_CACHE_STATS = {
    "boundary_hits": 0,
    "boundary_misses": 0,
    "zero_hits": 0,
    "zero_misses": 0,
}

#: Guards the two LRU memo tables: ``move_to_end``/``popitem`` on an
#: :class:`OrderedDict` are multi-step re-links, so concurrent server
#: threads could otherwise interleave an eviction with a re-order and
#: raise ``KeyError`` from inside the cache. Held only around the
#: table bookkeeping — the memoized values are pure, so contention is
#: a few dict operations long.
_CACHE_LOCK = threading.Lock()

_BOUNDARY_CACHE: OrderedDict[tuple[int, int], _Bounds] = OrderedDict()


def _boundary_cell(distance: int, k: int) -> _Bounds:
    """Exact bounds for a cell on the top/left boundary (ed = distance).

    Memoized per ``(distance, k)`` — every pair at threshold ``k`` reads
    the same ``O(|R| + |S|)`` boundary cells, so building the tuples
    once per process (like :func:`_zero_cell`) removes them from the
    per-pair cost entirely. The memo is LRU-bounded at
    :data:`_BOUNDARY_CACHE_MAX` entries so sweeping many ``(distance,
    k)`` pairs cannot grow it without bound.
    """
    key = (distance, k)
    with _CACHE_LOCK:
        cached = _BOUNDARY_CACHE.get(key)
        if cached is None:
            _CACHE_STATS["boundary_misses"] += 1
            values = tuple(1.0 if j >= distance else 0.0 for j in range(k + 1))
            cached = (values, values)
            _BOUNDARY_CACHE[key] = cached
            if len(_BOUNDARY_CACHE) > _BOUNDARY_CACHE_MAX:
                _BOUNDARY_CACHE.popitem(last=False)
        else:
            _CACHE_STATS["boundary_hits"] += 1
            _BOUNDARY_CACHE.move_to_end(key)
        return cached


_ZERO_CACHE: OrderedDict[int, _Bounds] = OrderedDict()


def _zero_cell(k: int) -> _Bounds:
    """Out-of-band cell: ``Pr(ed <= j <= k) = 0`` (LRU-bounded memo)."""
    with _CACHE_LOCK:
        cached = _ZERO_CACHE.get(k)
        if cached is None:
            _CACHE_STATS["zero_misses"] += 1
            zeros = tuple(0.0 for _ in range(k + 1))
            cached = (zeros, zeros)
            _ZERO_CACHE[k] = cached
            if len(_ZERO_CACHE) > _ZERO_CACHE_MAX:
                _ZERO_CACHE.popitem(last=False)
        else:
            _CACHE_STATS["zero_hits"] += 1
            _ZERO_CACHE.move_to_end(key=k)
        return cached


def clear_cdf_caches() -> None:
    """Per-run clear hook for the boundary/zero memo tables.

    Long-lived processes (servers, sweep harnesses) may call this
    between runs to return to a cold-cache footprint; results are
    unaffected because both tables memoize pure functions. The
    :func:`cdf_cache_stats` counters are deliberately NOT reset — they
    are monotone over the process lifetime so callers can diff
    snapshots across a clear.
    """
    with _CACHE_LOCK:
        _BOUNDARY_CACHE.clear()
        _ZERO_CACHE.clear()


def cdf_cache_stats() -> dict[str, int]:
    """Snapshot of the monotone memo-table hit/miss counters.

    Keys: ``boundary_hits``/``boundary_misses`` (the per-``(distance,
    k)`` boundary-cell memo) and ``zero_hits``/``zero_misses`` (the
    per-``k`` out-of-band cell memo). Counters only ever grow —
    :func:`clear_cdf_caches` empties the tables (forcing the next
    lookups to miss) without touching them, so a benchmark case's
    cache behaviour is the difference of the snapshots taken around it.
    """
    with _CACHE_LOCK:
        return dict(_CACHE_STATS)


def cdf_bounds(
    left: UncertainString,
    right: UncertainString,
    k: int,
    left_features: "object | None" = None,
    right_features: "object | None" = None,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Theorem 4 bounds ``(L, U)`` on ``Pr(ed(left, right) <= j)``, j=0..k.

    Returns the final cell's arrays. Lengths differing by more than ``k``
    yield all-zero bounds immediately. ``left_features``/``right_features``
    accept per-collection feature objects (anything with ``is_certain``
    and ``certain_text`` attributes, e.g.
    :class:`repro.core.context.StringFeatures`) so the certainty scan
    and one-world text materialization are paid once per collection
    instead of once per pair; when omitted they are computed here.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n, m = len(left), len(right)
    if abs(n - m) > k:
        return _zero_cell(k)

    if left_features is not None:
        left_certain = left_features.is_certain  # type: ignore[attr-defined]
        left_text = left_features.certain_text  # type: ignore[attr-defined]
    else:
        left_certain = left.is_certain
        left_text = None
    if right_features is not None:
        right_certain = right_features.is_certain  # type: ignore[attr-defined]
        right_text = right_features.certain_text  # type: ignore[attr-defined]
    else:
        right_certain = right.is_certain
        right_text = None
    if left_certain and right_certain:
        # One joint world: the DP's L and U both collapse to the exact
        # indicator [ed <= j] (each transition keeps 0/1 values tight),
        # which is what the integer banded kernel computes directly.
        if left_text is None:
            left_text = "".join(left.agreement_table())  # type: ignore[arg-type]
        if right_text is None:
            right_text = "".join(right.agreement_table())  # type: ignore[arg-type]
        distance = edit_distance_banded(left_text, right_text, k)
        if distance > k:
            return _zero_cell(k)
        return _boundary_cell(distance, k)
    left_table = left.agreement_table()
    right_table = right.agreement_table()

    zero = _zero_cell(k)
    k1 = k + 1
    # Flat band-width rows: slot(x, y) = y - x + k + 1 in [1, 2k + 1];
    # slots 0 and 2k + 2 are permanent zero guards (out-of-band cells).
    # The diagonal predecessor (x-1, y-1) shares the slot, the vertical
    # one (x-1, y) sits one slot right, the horizontal (x, y-1) one left.
    width = 2 * k + 3
    size = width * k1
    zero_row = [0.0] * size
    prev_l = [0.0] * size
    prev_u = [0.0] * size
    cur_l = [0.0] * size
    cur_u = [0.0] * size

    # Row x = 0: boundary cells (0, y) for the banded y's.
    for y in range(0, min(m, k) + 1):
        values = _boundary_cell(y, k)[0]
        base = (y + k1) * k1
        for j in range(k1):
            prev_l[base + j] = values[j]
            prev_u[base + j] = values[j]

    for x in range(1, n + 1):
        cur_l[:] = zero_row
        cur_u[:] = zero_row
        row_mass = 0.0
        y_lo = max(0, x - k)
        y_hi = min(m, x + k)
        if y_lo == 0:
            values = _boundary_cell(x, k)[0]
            base = (k1 - x) * k1  # slot of (x, 0); x <= k here
            for j in range(k1):
                cur_l[base + j] = values[j]
                cur_u[base + j] = values[j]
            y_start = 1
        else:
            y_start = y_lo
        left_entry = left_table[x - 1]
        left_is_char = type(left_entry) is str
        left_pdf = None if left_is_char else left_entry[2]  # type: ignore[index]
        for y in range(y_start, y_hi + 1):
            slot = y - x + k1
            out = slot * k1
            diag = out                # (x-1, y-1) in the previous row
            up = out - k1             # D2 = (x, y-1) in the current row
            side = out + k1           # D3 = (x-1, y) in the previous row
            # p1 = Pr(R[x] = S[y]), inlined from the per-position tables
            # (identical accumulation order to UncertainPosition.agreement).
            right_entry = right_table[y - 1]
            if left_is_char:
                if type(right_entry) is str:
                    p1 = 1.0 if left_entry == right_entry else 0.0
                else:
                    p1 = right_entry[2].get(left_entry, 0.0)  # type: ignore[index]
            elif type(right_entry) is str:
                p1 = left_pdf.get(right_entry, 0.0)  # type: ignore[union-attr]
            else:
                l_chars, l_probs, l_pdf = left_entry  # type: ignore[misc]
                r_chars, r_probs, r_pdf = right_entry  # type: ignore[misc]
                p1 = 0.0
                if len(l_chars) > len(r_chars):
                    for char, prob in zip(r_chars, r_probs):
                        p1 += prob * l_pdf.get(char, 0.0)
                else:
                    for char, prob in zip(l_chars, l_probs):
                        p1 += prob * r_pdf.get(char, 0.0)
            if p1 == 1.0:
                # p2 = 0: the lower bounds copy the diagonal cell and the
                # upper transition keeps only its unscaled D2/D3 terms.
                cur_l[out] = prev_l[diag]
                cur_u[out] = prev_u[diag]
                for j in range(1, k1):
                    cur_l[out + j] = prev_l[diag + j]
                    u = prev_u[diag + j] + (
                        cur_u[up + j - 1] + prev_u[side + j - 1]
                    )
                    cur_u[out + j] = u if u < 1.0 else 1.0
                row_mass += cur_u[out + k]
                continue
            # argmin D_i: neighbor with lexicographically greatest L array
            # (greatest L[0], ties by L[1], ...) — the most-likely-smallest
            # distance neighbor of Theorem 4.
            best_buf, best_off = prev_l, diag
            for j in range(k1):
                a = cur_l[up + j]
                b = best_buf[best_off + j]
                if a != b:
                    if a > b:
                        best_buf, best_off = cur_l, up
                    break
            for j in range(k1):
                a = prev_l[side + j]
                b = best_buf[best_off + j]
                if a != b:
                    if a > b:
                        best_buf, best_off = prev_l, side
                    break
            if p1 == 0.0:
                # p2 = 1: the diagonal terms vanish; j = 0 cells stay at
                # the zero the row reset left in place.
                for j in range(1, k1):
                    cur_l[out + j] = best_buf[best_off + j - 1]
                    u = (
                        prev_u[diag + j - 1] + cur_u[up + j - 1]
                    ) + prev_u[side + j - 1]
                    cur_u[out + j] = u if u < 1.0 else 1.0
                row_mass += cur_u[out + k]
                continue
            p2 = 1.0 - p1
            # j = 0: no j-1 terms.
            value = p1 * prev_l[diag]
            cur_l[out] = value if value > 0.0 else 0.0
            value = p1 * prev_u[diag]
            cur_u[out] = value if value < 1.0 else 1.0
            for j in range(1, k1):
                from_diag = p1 * prev_l[diag + j]
                from_best = p2 * best_buf[best_off + j - 1]
                cur_l[out + j] = (
                    from_diag if from_diag >= from_best else from_best
                )
                u = p1 * prev_u[diag + j]
                u += (
                    p2 * prev_u[diag + j - 1]
                    + cur_u[up + j - 1]
                    + prev_u[side + j - 1]
                )
                cur_u[out + j] = u if u < 1.0 else 1.0
            row_mass += cur_u[out + k]
        if x <= k and y_lo == 0:
            row_mass += cur_u[(k1 - x) * k1 + k]
        # Early abort (mirror of Section 6.2's prefix pruning): once every
        # upper bound in a row is 0, all later rows stay 0.
        if row_mass == 0.0:
            return zero
        prev_l, cur_l = cur_l, prev_l
        prev_u, cur_u = cur_u, prev_u
    base = (m - n + k1) * k1
    return (
        tuple(prev_l[base : base + k1]),
        tuple(prev_u[base : base + k1]),
    )


class CdfBoundFilter:
    """Theorem 4 packaged as the final pre-verification filter."""

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        self.k = k

    def decide(
        self,
        left: UncertainString,
        right: UncertainString,
        tau: float,
        left_features: "object | None" = None,
        right_features: "object | None" = None,
    ) -> FilterDecision:
        """Accept on ``L[k] > tau``, reject on ``U[k] <= tau``."""
        lower, upper = cdf_bounds(
            left, right, self.k, left_features, right_features
        )
        if lower[self.k] > tau:
            return FilterDecision(
                FilterVerdict.ACCEPT,
                lower=lower[self.k],
                upper=upper[self.k],
                reason=f"CDF lower bound {lower[self.k]:.6g} > tau",
            )
        if upper[self.k] <= tau:
            return FilterDecision(
                FilterVerdict.REJECT,
                lower=lower[self.k],
                upper=upper[self.k],
                reason=f"CDF upper bound {upper[self.k]:.6g} <= tau",
            )
        return FilterDecision(
            FilterVerdict.UNDECIDED, lower=lower[self.k], upper=upper[self.k]
        )
