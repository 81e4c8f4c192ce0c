"""Active-node sets for incremental trie edit distance (Ji et al. [11]).

For a query prefix ``u`` the active-node set of a trie is
``{v : ed(u, string(v)) <= k}`` with the exact prefix edit distance stored
per node. The set for ``u + a`` is computable from the set for ``u``
alone, which is what lets trie-based verification share work across all
instances of ``S`` with a common prefix (Section 6.2).

Transitions, for each active ``(v, d)`` and appended character ``a``:

* ``(v, d + 1)`` — delete ``a`` from the query side;
* ``(child_b(v), d + [a != b])`` — substitution or match;

followed by a *descendant closure*: any node that became active may
activate its children with distance ``+1`` (insertions on the trie side).
Processing candidates in increasing trie depth makes one pass sufficient.
"""

from __future__ import annotations

from repro.verify.trie import TrieNode

#: node -> exact prefix edit distance (<= k)
ActiveNodes = dict[TrieNode, int]


def initial_active_nodes(root: TrieNode, k: int) -> ActiveNodes:
    """Active set of the empty query prefix: nodes at depth ``<= k``.

    ``ed("", string(v)) = depth(v)``.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    active: ActiveNodes = {root: 0}
    frontier = [root]
    for depth in range(1, k + 1):
        next_frontier: list[TrieNode] = []
        for node in frontier:
            for child in node.children.values():
                active[child] = depth
                next_frontier.append(child)
        frontier = next_frontier
    return active


def advance_active_nodes(active: ActiveNodes, char: str, k: int) -> ActiveNodes:
    """Active set after appending ``char`` to the query prefix."""
    candidates: ActiveNodes = {}
    for node, dist in active.items():
        up = dist + 1
        if up <= k:  # deletion of `char` on the query side
            if candidates.get(node, k + 1) > up:
                candidates[node] = up
        for label, child in node.children.items():
            step = dist if label == char else dist + 1
            if step <= k and candidates.get(child, k + 1) > step:
                candidates[child] = step
    if not candidates:
        return candidates
    # Descendant closure (trie-side insertions): children of an active node
    # are active with distance + 1. Sorting by depth guarantees each node's
    # final distance is known before its children are considered.
    for node in sorted(candidates, key=lambda n: n.depth):
        down = candidates[node] + 1
        if down > k:
            continue
        for child in node.children.values():
            if candidates.get(child, k + 1) > down:
                candidates[child] = down
    return candidates
