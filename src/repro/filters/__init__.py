"""Filtering techniques of Sections 3, 5, and 6.1.

Each filter gives an upper and/or lower bound on ``Pr(ed(R, S) <= k)``
without instantiating possible worlds:

* :mod:`repro.filters.qgram` — q-gram filtering integrated with
  probabilistic pruning (Theorems 1 and 2).
* :mod:`repro.filters.frequency` — frequency-distance bounds (Lemma 6 and
  the Chebyshev bound of Theorem 3).
* :mod:`repro.filters.cdf` — per-cell CDF bounds via dynamic programming
  (Theorem 4).
"""

from repro.filters.base import FilterDecision, FilterVerdict, PipelineStage
from repro.filters.events import (
    exactly_counts,
    tail_probability,
    markov_tail_bound,
)
from repro.filters.alpha import (
    OccurrenceGroup,
    equivalent_substring_set,
    group_probability,
    segment_match_probability,
)
from repro.filters.qgram import QGramFilter, QGramOutcome
from repro.filters.frequency import (
    CharCountDistribution,
    FrequencyProfile,
    FrequencyDistanceFilter,
    fd_lower_bound,
    expected_positive_negative,
    chebyshev_upper_bound,
)
from repro.filters.cdf import CdfBoundFilter, cdf_bounds

__all__ = [
    "FilterDecision",
    "FilterVerdict",
    "PipelineStage",
    "exactly_counts",
    "tail_probability",
    "markov_tail_bound",
    "OccurrenceGroup",
    "equivalent_substring_set",
    "group_probability",
    "segment_match_probability",
    "QGramFilter",
    "QGramOutcome",
    "CharCountDistribution",
    "FrequencyProfile",
    "FrequencyDistanceFilter",
    "fd_lower_bound",
    "expected_positive_negative",
    "chebyshev_upper_bound",
    "CdfBoundFilter",
    "cdf_bounds",
]
