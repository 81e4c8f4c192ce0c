"""Trie-based verification of a candidate pair (Section 6.2).

``Pr(ed(R, S) <= k)`` is the probability mass of joint worlds whose
instances are within edit distance ``k``. With ``T_R`` materialized, a
depth-first traversal of the *virtual* trie ``T_S`` carries an active-node
set per prefix; a prefix of ``S`` is expanded only while its active set is
non-empty (the paper's on-demand construction of ``T_S``), and at a leaf
``s_j`` of ``T_S`` the active leaves of ``T_R`` are exactly the instances
``r_i`` with ``ed(r_i, s_j) <= k`` — their joint mass accumulates into the
answer.

:func:`trie_verify_threshold` adds the early-termination extension: the
traversal stops as soon as the accumulated mass exceeds ``tau`` (accept) or
provably cannot reach it (reject), which the paper lists as future work on
the verification step.

One verification of a pair with many worlds can run for seconds, so the
traversal is a cooperative deadline check point too: every
``CHECK_STRIDE`` steps it calls :func:`repro.core.deadline.check_active`,
which costs one thread-local read when no deadline scope is active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.deadline import check_active
from repro.uncertain.string import UncertainString
from repro.verify.active import (
    ActiveNodes,
    advance_active_nodes,
    initial_active_nodes,
)
from repro.verify.naive import WORLD_MASS_SLACK
from repro.verify.trie import Trie, build_trie

#: Traversal steps between deadline checks. A step advances the active
#: set once per character of one position of ``S``: microseconds on
#: small tries, milliseconds on wide ones.
CHECK_STRIDE = 16


@dataclass
class VerificationStats:
    """Work counters for Figure 8-style verification comparisons."""

    expanded_prefixes: int = 0
    pruned_prefixes: int = 0
    leaf_instances: int = 0
    early_stop: bool = field(default=False)


def trie_verify(
    left: UncertainString,
    right: UncertainString,
    k: int,
    left_trie: Trie | None = None,
    stats: VerificationStats | None = None,
) -> float:
    """Exact ``Pr(ed(left, right) <= k)`` via trie traversal.

    ``left`` plays the paper's ``R`` (its trie is fully built — pass
    ``left_trie`` to amortize it across candidate pairs); ``right`` plays
    ``S`` and is explored on demand.
    """
    result, _ = _traverse(left, right, k, left_trie, tau=None, stats=stats)
    return result


def trie_verify_threshold(
    left: UncertainString,
    right: UncertainString,
    k: int,
    tau: float,
    left_trie: Trie | None = None,
    stats: VerificationStats | None = None,
) -> bool:
    """Decide ``Pr(ed(left, right) <= k) > tau`` with early termination."""
    _, decision = _traverse(left, right, k, left_trie, tau=tau, stats=stats)
    return decision


def _traverse(
    left: UncertainString,
    right: UncertainString,
    k: int,
    left_trie: Trie | None,
    tau: float | None,
    stats: VerificationStats | None,
) -> tuple[float, bool]:
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if stats is None:
        stats = VerificationStats()
    if abs(len(left) - len(right)) > k:
        return 0.0, False
    trie = left_trie if left_trie is not None else build_trie(left)
    if trie.length != len(left):
        raise ValueError("left_trie does not belong to `left`")
    leaf_depth = trie.length
    target_depth = len(right)

    # Terms are collected and combined with math.fsum so accumulated
    # rounding error can never flip a > tau decision on knife-edge pairs;
    # the running sums only steer the cheap early-exit checks, and every
    # decision is confirmed against the exact fsum. An early accept is
    # sound because partial sums of non-negative hit terms
    # under-approximate the full sum; an early reject is sound because
    # S-world mass not yet resolved (visited as a leaf or pruned) is at
    # most ``1 + WORLD_MASS_SLACK - covered``.
    hit_terms: list[float] = []
    covered_terms: list[float] = []
    running_hit = 0.0
    running_covered = 0.0

    root_active = initial_active_nodes(trie.root, k)
    # Iterative DFS: (depth, prefix probability, active set).
    stack: list[tuple[int, float, ActiveNodes]] = [(0, 1.0, root_active)]
    steps = 0
    while stack:
        steps += 1
        if steps % CHECK_STRIDE == 0:
            check_active()
        depth, prob, active = stack.pop()
        if depth == target_depth:
            stats.leaf_instances += 1
            mass = math.fsum(
                node.prob for node, dist in active.items()
                if node.depth == leaf_depth and dist <= k
            )
            hit_terms.append(prob * mass)
            running_hit += prob * mass
            covered_terms.append(prob)
            running_covered += prob
        else:
            stats.expanded_prefixes += 1
            for char, char_prob in right[depth].items():
                child_active = advance_active_nodes(active, char, k)
                if child_active:
                    stack.append((depth + 1, prob * char_prob, child_active))
                else:
                    stats.pruned_prefixes += 1
                    covered_terms.append(prob * char_prob)
                    running_covered += prob * char_prob
        if tau is not None:
            if running_hit > tau and math.fsum(hit_terms) > tau:
                stats.early_stop = True
                return math.fsum(hit_terms), True
            remaining = 1.0 + WORLD_MASS_SLACK - running_covered
            if running_hit + remaining <= tau:
                remaining = 1.0 + WORLD_MASS_SLACK - math.fsum(covered_terms)
                if math.fsum(hit_terms) + remaining <= tau:
                    stats.early_stop = True
                    return math.fsum(hit_terms), False
    total = math.fsum(hit_terms)
    return total, total > (tau if tau is not None else -1.0)
