"""The postings-first index probe against the frozen equivalent-set probe.

:func:`repro.index.probe.query_candidates` looks postings up before it
computes any Section 3.2 group probability, weighs only the words that
hit, shares one window table across the probed lengths, and stops a
length once the pigeonhole cannot be met. None of that may change a
candidate: the ``IndexCandidate`` lists (ids, alphas, counts and bounds,
floats under ``==``) must equal those of the equivalent-set-first probe
frozen in ``tests/helpers.py``, through every posting view — the
in-memory index, and the rank-limited views over ``MemoryStore`` and
``SqliteStore`` — at several rank limits.

The one :class:`~repro.core.engine.CandidateSource` is held to the same
reference in each of its modes (no postings, in-memory index, either
store): same candidate ids, bounds and ``length.*``/``qgram.*``
counters at every probe k from 0 to the build k + 1.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import JoinConfig
from repro.core.engine import _RankLimitedView, visit_order
from repro.core.join import similarity_join
from repro.core.stats import JoinStatistics
from repro.filters.alpha import segment_match_probability
from repro.index.inverted import SegmentInvertedIndex
from repro.index.probe import query_candidates
from repro.partition.selection import SELECTION_MODES
from repro.store import (
    MemoryStore,
    SqliteStore,
    StoreIndexSource,
    build_sqlite_store,
    store_similarity_join,
)
from repro.uncertain.alphabet import Alphabet
from repro.uncertain.parser import parse_uncertain
from repro.uncertain.string import UncertainString
from repro.uncertain.worlds import enumerate_worlds

from tests.helpers import (
    SOURCE_MODES,
    random_collection,
    reference_query_candidates,
    source_in_mode,
    uncertain_strings,
)

VIEWS = ("index", "memory", "sqlite")

PROBE_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def index_views(collection, k, q, limits):
    """``(limit, view)`` for an incrementally built in-memory index."""
    index = SegmentInvertedIndex(k=k, q=q)
    for string_id, string in enumerate(collection):
        if string_id in limits:
            yield string_id, index
        index.add(string_id, string)
    yield len(collection), index


def store_views(store, config, limits):
    """``(limit, view)`` for a store, registered in its visit order."""
    source = StoreIndexSource(config, store)
    lengths = store.lengths_in_visit_order()
    for rank, string_id in enumerate(store.ids_in_visit_order()):
        if rank in limits:
            yield rank, _RankLimitedView(source, rank)
        source.register(string_id, lengths[rank])
    yield len(store), _RankLimitedView(source, len(store))


def views(kind, collection, k, q, limits, workdir):
    if kind == "index":
        return index_views(collection, k, q, limits)
    config = JoinConfig.for_algorithm("QFCT", k=k, tau=0.1, q=q)
    if kind == "memory":
        return store_views(MemoryStore(collection, k=k, q=q), config, limits)
    path = Path(workdir) / "index.db"
    build_sqlite_store(iter(collection), path, k=k, q=q)
    return store_views(SqliteStore(path), config, limits)


#: Strings with single alternatives kept verbatim at ``1 - 2**-53``:
#: certain but weighted, so they enter every window's probability. Two
#: letters, as below.
VERBATIM_STRINGS = uncertain_strings(
    alphabet="AC", min_length=3, max_length=9, max_support=2,
    max_uncertain=3, verbatim=True,
)


@pytest.mark.parametrize("kind", VIEWS)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=1, max_value=2),
    q=st.integers(min_value=2, max_value=3),
    selection=st.sampled_from(SELECTION_MODES),
    group_mode=st.sampled_from(("beta", "exact")),
    bound_mode=st.sampled_from(("paper", "markov")),
    tau=st.sampled_from((0.0, 0.05, 0.3)),
    verbatim=st.one_of(
        st.none(), st.lists(VERBATIM_STRINGS, min_size=15, max_size=15)
    ),
)
@PROBE_SETTINGS
def test_probe_matches_frozen_reference(
    kind, seed, k, q, selection, group_mode, bound_mode, tau, verbatim
):
    # A two-letter alphabet makes windows repeat words, so overlapping
    # occurrences form multi-start groups.
    rng = random.Random(seed)
    if verbatim is None:
        collection = random_collection(
            rng, 12, length_range=(3, 9), theta=0.4, alphabet=Alphabet("AC")
        )
        queries = collection[:4] + random_collection(
            rng, 3, length_range=(3, 9), theta=0.4, alphabet=Alphabet("AC")
        )
    else:
        collection = verbatim[:12]
        queries = collection[:4] + verbatim[12:]
    limits = {1, len(collection) // 2}
    params = dict(
        k=k, selection=selection, group_mode=group_mode, bound_mode=bound_mode
    )
    with tempfile.TemporaryDirectory() as workdir:
        probed = 0
        for limit, view in views(kind, collection, k, q, limits, workdir):
            for query in queries:
                got = query_candidates(view, query, tau, **params)
                expected = reference_query_candidates(view, query, tau, **params)
                assert got == expected, (limit, query)
                probed += len(got)
    # The workload must reach the merge, not only the early exits.
    assert probed or tau > 0.0


@pytest.mark.parametrize("kind", VIEWS)
def test_section_3_2_example_through_the_index(kind, tmp_path):
    # R = A{(A,0.8),(C,0.2)}AATT probes an index holding R itself. With
    # k=1, q=3 and window selection, segment 1 is R[0:3] and is matched
    # by R's windows at starts {0, 1}: AAA occurs at both, overlapping.
    # Summing per window gives the paper's incorrect 1.32; grouping the
    # overlapping AAA occurrences gives 0.68.
    string = parse_uncertain("A{(A,0.8),(C,0.2)}AATT")
    segment = string.substring(0, 3)
    naive = sum(
        prob * segment.instance_probability(word)
        for start in (0, 1)
        for word, prob in enumerate_worlds(string.substring(start, 3))
    )
    assert naive == pytest.approx(1.32)
    alpha = segment_match_probability(string, [0, 1], segment, "exact")
    assert alpha == pytest.approx(0.68)

    params = dict(k=1, selection="window", group_mode="exact", bound_mode="paper")
    (limit, view), = [
        item for item in views(kind, [string], 1, 3, set(), tmp_path)
    ]
    assert limit == 1
    got = query_candidates(view, string, 0.0, **params)
    assert got == reference_query_candidates(view, string, 0.0, **params)
    (candidate,) = got
    assert candidate.alphas == (alpha, 1.0)
    assert candidate.matched_segments == 2


class _NoHasSegment:
    """A posting view whose ``has_segment`` fails: the probe asks each
    segment for its posting lists only."""

    def __init__(self, view):
        self._view = view

    def __getattr__(self, name):
        return getattr(self._view, name)

    def has_segment(self, length, segment_index):
        raise AssertionError("has_segment is not on the probe path")


@pytest.mark.parametrize("kind", ("index", "sqlite"))
@pytest.mark.parametrize("seed", range(4))
def test_probe_never_asks_has_segment(kind, seed, tmp_path):
    rng = random.Random(seed)
    collection = random_collection(
        rng, 12, length_range=(3, 9), theta=0.4, alphabet=Alphabet("AC")
    )
    limits = {1, len(collection) // 2}
    probed = 0
    # Indexes built at k=2 answer probes at k = 1, 2 and 3 (a length
    # scan for the shortest strings).
    for k in (1, 2, 3):
        for selection in SELECTION_MODES:
            params = dict(
                k=k, selection=selection, group_mode="exact", bound_mode="paper"
            )
            workdir = tmp_path / f"{k}-{selection}"
            workdir.mkdir()
            for limit, view in views(kind, collection, 2, 2, limits, workdir):
                for query in collection[:4]:
                    got = query_candidates(_NoHasSegment(view), query, 0.0, **params)
                    expected = reference_query_candidates(view, query, 0.0, **params)
                    assert got == expected, (k, selection, limit, query)
                    probed += len(got)
    assert probed


COUNTERS = (
    ("length", "eligible"),
    ("length", "survivors"),
    ("qgram", "survivors"),
    ("qgram", "rejected"),
)


@pytest.mark.parametrize("mode", SOURCE_MODES)
@pytest.mark.parametrize("seed", range(3))
def test_source_modes_match_frozen_reference(mode, seed, tmp_path):
    # Registered in visit order and probed at two prefixes, every mode
    # answers each probe k in 0..k+1 like the frozen probe over a plain
    # index of the same prefix (or, without Q, like the length filter).
    rng = random.Random(seed)
    collection = random_collection(
        rng, 16, length_range=(2, 9), theta=0.4, alphabet=Alphabet("AC")
    )
    queries = collection[:3] + random_collection(
        rng, 2, length_range=(2, 9), theta=0.4, alphabet=Alphabet("AC")
    )
    k, q, tau = 2, 2, 0.05
    visits = visit_order(collection)
    source = source_in_mode(mode, collection, k, q, tmp_path, tau=tau)
    index = SegmentInvertedIndex(k=k, q=q)
    params = dict(selection="shift", group_mode="exact", bound_mode="paper")
    probed = 0
    for rank, (string_id, string) in enumerate(visits):
        source.add(string_id, string, JoinStatistics())
        index.add(rank, string)
        if rank + 1 not in (len(visits) // 2, len(visits)):
            continue
        for query in queries:
            for probe_k in range(k + 2):
                stats = JoinStatistics()
                got = source.probe(query, tau, stats, probe_k)
                eligible = [
                    visits[r][0]
                    for r in range(rank + 1)
                    if abs(len(visits[r][1]) - len(query)) <= probe_k
                ]
                if mode == "none":
                    expected = [(string_id, None) for string_id in eligible]
                    counts = (len(eligible), len(eligible), 0, 0)
                else:
                    expected = [
                        (visits[c.string_id][0], c.upper)
                        for c in sorted(
                            reference_query_candidates(
                                index, query, tau, k=probe_k, **params
                            ),
                            key=lambda c: c.string_id,
                        )
                    ]
                    counts = (
                        len(eligible),
                        0,
                        len(expected),
                        len(eligible) - len(expected),
                    )
                assert got == expected, (rank, query, probe_k)
                assert tuple(
                    stats.stage_count(*counter) for counter in COUNTERS
                ) == counts
                probed += len(got)
    assert probed


def test_no_window_builds_a_string(monkeypatch, tmp_path):
    # Index adds, store builds and a whole QFCT join read windows from
    # each string's heavy form; none of them slices out a window string.
    rng = random.Random(7)
    collection = random_collection(
        rng, 30, length_range=(3, 9), theta=0.4, alphabet=Alphabet("AC")
    )
    config = JoinConfig.for_algorithm("QFCT", k=1, tau=0.05, q=2)
    expected = similarity_join(collection, config).pairs
    assert expected

    def no_substring(self, start, length):
        raise AssertionError("a window was built as an UncertainString")

    monkeypatch.setattr(UncertainString, "substring", no_substring)
    index = SegmentInvertedIndex(k=1, q=2)
    for string_id, string in enumerate(collection):
        index.add(string_id, string)
    assert index.entry_count
    assert len(MemoryStore(collection, k=1, q=2)) == len(collection)
    path = tmp_path / "index.db"
    build_sqlite_store(iter(collection), path, k=1, q=2)
    assert similarity_join(collection, config).pairs == expected
    assert store_similarity_join(SqliteStore(path), config).pairs == expected
