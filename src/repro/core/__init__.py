"""The public join/search API.

:func:`similarity_join` answers the paper's problem statement: given a
collection of uncertain strings and thresholds ``(k, tau)``, report all
pairs with ``Pr(ed(R, S) <= k) > tau``. Algorithm variants (QFCT, QCT,
QFT, FCT — Section 7) are selected through :class:`JoinConfig`. All
drivers are thin adapters over the streaming :class:`JoinEngine`;
:func:`iter_join_pairs` / :func:`iter_matches` expose its generator API
directly.
"""

from repro.core.checkpoint import CheckpointStore, ShardCheckpointStore
from repro.core.config import ALGORITHMS, JoinConfig, parse_shard, shard_slice
from repro.core.errors import (
    BandTimeoutError,
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigurationError,
    CorruptResultError,
    DatasetRecordError,
    ReproError,
    ShardIncompleteError,
    WorkerCrashError,
)
from repro.core.executor import RetryPolicy, effective_pool_width, run_bands
from repro.core.merge import merge_run
from repro.core.results import JoinOutcome, JoinPair, SearchMatch, SearchOutcome
from repro.core.stats import JoinStatistics
from repro.core.engine import (
    CandidateSource,
    JoinEngine,
    iter_join_pairs,
    iter_matches,
)
# TauProvider is re-exported for typing driver extensions; it stays out
# of __all__ (a bare Callable alias carries no docstring).
from repro.core.pipeline import StageChain, TauProvider as TauProvider
from repro.core.incremental import IncrementalJoiner
from repro.core.join import similarity_join
from repro.core.join_two import similarity_join_two
from repro.core.parallel import (
    LengthBand,
    parallel_similarity_join,
    parallel_similarity_join_two,
    plan_length_bands,
)
from repro.core.search import SimilaritySearcher, similarity_search
from repro.core.topk import top_k_join

__all__ = [
    "ALGORITHMS",
    "JoinConfig",
    "ReproError",
    "ConfigurationError",
    "WorkerCrashError",
    "CorruptResultError",
    "BandTimeoutError",
    "CheckpointCorruptError",
    "CheckpointMismatchError",
    "DatasetRecordError",
    "ShardIncompleteError",
    "RetryPolicy",
    "CheckpointStore",
    "ShardCheckpointStore",
    "run_bands",
    "effective_pool_width",
    "parse_shard",
    "shard_slice",
    "merge_run",
    "JoinOutcome",
    "JoinPair",
    "JoinEngine",
    "CandidateSource",
    "StageChain",
    "LengthBand",
    "SearchMatch",
    "SearchOutcome",
    "JoinStatistics",
    "similarity_join",
    "similarity_join_two",
    "iter_join_pairs",
    "iter_matches",
    "parallel_similarity_join",
    "parallel_similarity_join_two",
    "plan_length_bands",
    "SimilaritySearcher",
    "similarity_search",
    "IncrementalJoiner",
    "top_k_join",
]
