"""Structural invariance properties of the join.

The join's answer is a property of the *multiset* of strings: permuting
the collection must permute the pairs, duplicating a string must add its
pairs, and growing tau can only shrink the result.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import JoinConfig
from repro.core.join import similarity_join

from tests.helpers import random_collection

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def join_pairs(collection, k=1, tau=0.1):
    return similarity_join(collection, JoinConfig(k=k, tau=tau, q=2)).id_pairs()


class TestPermutationInvariance:
    @given(st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_permuting_ids_permutes_pairs(self, seed):
        rng = random.Random(seed)
        collection = random_collection(rng, 9, length_range=(4, 6))
        base = join_pairs(collection)
        order = list(range(len(collection)))
        rng.shuffle(order)
        shuffled = [collection[i] for i in order]
        # map: new position -> original id
        back = {new: old for new, old in enumerate(order)}
        remapped = {
            tuple(sorted((back[i], back[j]))) for i, j in join_pairs(shuffled)
        }
        assert remapped == base


class TestMonotonicity:
    @given(st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_result_shrinks_with_tau(self, seed):
        rng = random.Random(seed)
        collection = random_collection(rng, 8, length_range=(4, 6))
        loose = join_pairs(collection, tau=0.05)
        tight = join_pairs(collection, tau=0.4)
        assert tight <= loose

    @given(st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_result_grows_with_k(self, seed):
        rng = random.Random(seed)
        collection = random_collection(rng, 8, length_range=(4, 6))
        small_k = join_pairs(collection, k=0, tau=0.1)
        large_k = join_pairs(collection, k=2, tau=0.1)
        assert small_k <= large_k


class TestDuplication:
    @given(st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_appending_a_copy_adds_its_pairs(self, seed):
        rng = random.Random(seed)
        collection = random_collection(rng, 6, length_range=(4, 6))
        base = join_pairs(collection)
        copy_of = rng.randrange(len(collection))
        extended = collection + [collection[copy_of]]
        new_id = len(collection)
        got = join_pairs(extended)
        # old pairs unchanged
        assert {p for p in got if new_id not in p} == base
        # the copy pairs with its original (identical string, so
        # Pr(ed <= k) is Pr over two iid copies; certainly positive and
        # usually > tau for the diagonal mass)
        partners = {i for i, j in got if j == new_id} | {
            j for i, j in got if i == new_id
        }
        expected_partners = {i for i, j in base if j == copy_of} | {
            j for i, j in base if i == copy_of
        }
        assert expected_partners <= partners | {copy_of}
