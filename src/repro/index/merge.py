"""Sorted-posting merges with "top pointers" (Section 4).

The paper scans the inverted lists ``L^x_l(w)`` for all ``w in q(r, x)`` in
parallel: at each step the minimum string-id among the list heads is
popped, its ``alpha_x`` contribution accumulated from every list currently
headed by that id, and the corresponding top pointers advanced. A second
merge across the per-segment result lists ``L_{alpha_x}`` counts, per
string id, how many segments matched.

Both merges are written as accumulate-then-sort: one pass over the lists
in order into a dict keyed by id, then one sort of the ids. A k-way heap
merge over the list heads pops a tied id from the lists in list order,
so it adds the same terms in the same order as the pass over the lists
does, and every sum is bit-identical to the heap's.
"""

from __future__ import annotations

from typing import Sequence

#: A posting: (string id, probability attached to this id in this list).
Posting = tuple[int, float]


def merge_weighted_postings(
    lists: Sequence[tuple[float, Sequence[Posting]]],
) -> list[Posting]:
    """Union-merge weighted posting lists into ``(id, sum of weight*prob)``.

    ``lists`` holds ``(weight, postings)`` pairs — weight is ``p_r(w)`` for
    the substring the list belongs to, and each posting carries
    ``Pr(w = S_i^x)``. Output is sorted by string id; each id appears once
    with its ``alpha_x`` contribution, summed from ``0.0`` in list order.
    """
    alphas: dict[int, float] = {}
    for weight, postings in lists:
        for string_id, prob in postings:
            alphas[string_id] = alphas.get(string_id, 0.0) + weight * prob
    return sorted(alphas.items())


def join_sorted_lists(
    lists: Sequence[Sequence[Posting]],
) -> list[tuple[int, list[tuple[int, float]]]]:
    """Merge per-segment ``L_{alpha_x}`` lists, tagging values by segment.

    Returns, per string id in ascending order, the list of
    ``(segment index, alpha_x)`` pairs for segments in which the id
    appeared — exactly the information needed to count matched segments
    (Lemma 5) and to feed the Theorem 2 DP.
    """
    joined: dict[int, list[tuple[int, float]]] = {}
    for which, postings in enumerate(lists):
        for string_id, alpha in postings:
            joined.setdefault(string_id, []).append((which, alpha))
    return sorted(joined.items())
