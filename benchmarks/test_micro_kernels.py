"""Micro-benchmarks of the hot kernels under the join.

Not a paper figure — these quantify the building blocks so regressions
in the substrates are visible independently of the join. The cases come
from the shared registry in :mod:`benchmarks.gate` (:data:`KERNELS`),
the same definitions the CI regression gate
(``python -m benchmarks.gate``) measures — one registry, two consumers;
``pytest benchmarks/test_micro_kernels.py -k cdf`` runs a subset. A
couple of context-only cases (full edit distance, trie build) that the
gate does not track are kept locally.
"""

import random

import pytest

from repro.distance.edit import edit_distance
from repro.verify.trie import build_trie

from benchmarks.conftest import dblp
from benchmarks.gate import KERNELS, _requirement_available

EXPERIMENT = "micro_kernels"


@pytest.mark.parametrize("case", KERNELS, ids=lambda case: case.name)
def test_kernel(case, benchmark):
    if not _requirement_available(case.requires):
        pytest.skip(f"requires optional dependency {case.requires!r}")
    fn, _ops = case.setup()
    benchmark(fn)


def test_full_edit_distance(benchmark):
    rng = random.Random(0)
    words = [
        "".join(rng.choice("abcdefgh") for _ in range(40)) for _ in range(20)
    ]
    benchmark(
        lambda: [edit_distance(a, b) for a in words[:10] for b in words[10:]]
    )


def test_trie_build(benchmark):
    collection = dblp(50)
    benchmark(lambda: [build_trie(s) for s in collection])
