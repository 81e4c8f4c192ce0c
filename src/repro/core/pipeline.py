"""Data-driven candidate refinement: the engine's stage chain.

A candidate pair that emerged from a candidate source (the q-gram
segment index or the plain length filter) flows through
frequency-distance filtering (Section 5) → CDF bounds (Section 6.1) →
exact verification (Section 6.2 / 7.7). The chain is built from
:class:`~repro.core.config.JoinConfig`: each filtering stage is a
:class:`~repro.filters.base.PipelineStage` counted and timed under its
own name, and the probability threshold τ is supplied *per candidate*
by a :data:`TauProvider` callable — a constant for the fixed-threshold
drivers, the adaptive N-th-best bound for the top-N join — so every
consumer runs the exact same stages.
"""

from __future__ import annotations

from typing import Callable

from repro.core.backends import KernelBackend, PythonBackend, resolve_backend
from repro.core.config import JoinConfig, VerificationName
from repro.core.context import CollectionContext, StringFeatures
from repro.core.deadline import check_active
from repro.core.stats import JoinStatistics
from repro.filters.base import FilterDecision, FilterVerdict, PipelineStage
from repro.filters.frequency import FrequencyProfile
from repro.uncertain.string import UncertainString
from repro.verify.naive import naive_verify, naive_verify_threshold
from repro.verify.trie import Trie, build_trie
from repro.verify.trie_verify import trie_verify, trie_verify_threshold

#: Supplies the τ in force for the next candidate. Fixed-threshold
#: drivers pass ``lambda: config.tau``; the top-N join passes its
#: monotonically rising N-th-best probability.
TauProvider = Callable[[], float]


class QueryContext:
    """Per-query state threaded through the chain.

    Holds the query string R, its per-string features (shared with the
    collection context for non-negative ids, probe-local for negative
    pseudo-ids so a search query's profile dies with the probe), and its
    lazily built trie (``T_R`` is built at most once and reused for all
    candidate pairs ``(R, *)`` — the paper's amortization).
    """

    __slots__ = ("query_id", "query", "features", "_trie")

    def __init__(
        self,
        query_id: int,
        query: UncertainString,
        features: StringFeatures | None = None,
    ) -> None:
        self.query_id = query_id
        self.query = query
        self.features = features if features is not None else StringFeatures(query)
        self._trie: Trie | None = None

    def trie(self) -> Trie:
        """The query's verification trie, built on first use."""
        if self._trie is None:
            self._trie = build_trie(self.query)
        return self._trie


class ProfileStore:
    """id → per-string features and frequency profiles (index-resident).

    A thin pipeline adapter over
    :class:`~repro.core.context.CollectionContext`: features (and the
    profiles cached on them) of non-negative ids persist for the
    context's lifetime and may be shared across runs — or across
    parallel band workers, which receive the parent's finished context
    instead of rebuilding halo-string profiles per band. Negative
    pseudo-ids resolve through the query context, so a query's profile
    is rebuilt per probe.
    """

    def __init__(self, context: CollectionContext | None = None) -> None:
        self._context = context if context is not None else CollectionContext()

    @property
    def context(self) -> CollectionContext:
        return self._context

    def features_for(
        self, string_id: int, string: UncertainString
    ) -> StringFeatures:
        """Features of ``string`` (shared for ids >= 0, fresh otherwise)."""
        if string_id < 0:
            return StringFeatures(string)
        return self._context.features(string_id, string)

    def profile(
        self, features: StringFeatures, string: UncertainString
    ) -> FrequencyProfile:
        """The frequency profile cached on ``features``, built on miss."""
        profile = features.profile
        if profile is None:
            # Module-global lookup (not the imported binding captured in a
            # closure) so tests can monkeypatch ``pipeline.FrequencyProfile``.
            profile = FrequencyProfile(string)
            features.set_profile(profile)
        return profile


class FrequencyStage:
    """Lemma 6 + Theorem 3 frequency-distance bounds (name ``frequency``)."""

    name = "frequency"

    def __init__(
        self,
        k: int,
        profiles: ProfileStore,
        backend: KernelBackend | None = None,
    ) -> None:
        self._k = k
        self._profiles = profiles
        self._backend = backend if backend is not None else PythonBackend()

    def apply(
        self,
        context: QueryContext,
        candidate_id: int,
        candidate: UncertainString,
        tau: float,
    ) -> FilterDecision:
        """One decision; dispatches the pair through the backend's
        scalar kernel (``python`` reproduces
        :meth:`FrequencyDistanceFilter.decide` exactly — same bounds,
        same short-circuit, same decision fields — and the optional
        backends are bit-identical to it by contract)."""
        store = self._profiles
        lower_fd, upper = self._backend.frequency_bounds(
            store.profile(context.features, context.query),
            store.profile(store.features_for(candidate_id, candidate), candidate),
            self._k,
        )
        if lower_fd > self._k:
            return FilterDecision(
                FilterVerdict.REJECT,
                upper=0.0,
                reason=f"Lemma 6 frequency distance >= {lower_fd} > k",
            )
        assert upper is not None
        if upper <= tau:
            return FilterDecision(
                FilterVerdict.REJECT,
                upper=upper,
                reason=f"Theorem 3 upper bound {upper:.6g} <= tau",
            )
        return FilterDecision(FilterVerdict.UNDECIDED, upper=upper)


class CdfStage:
    """Theorem 4 per-cell CDF bounds (name ``cdf``)."""

    name = "cdf"

    def __init__(
        self,
        k: int,
        profiles: ProfileStore,
        backend: KernelBackend | None = None,
    ) -> None:
        self._k = k
        self._profiles = profiles
        self._backend = backend if backend is not None else PythonBackend()

    def apply(
        self,
        context: QueryContext,
        candidate_id: int,
        candidate: UncertainString,
        tau: float,
    ) -> FilterDecision:
        """One decision; dispatches the pair through the backend's
        scalar kernel (``python`` reproduces
        :meth:`CdfBoundFilter.decide` exactly; the optional backends
        are bit-identical to it by contract)."""
        k = self._k
        lower, upper = self._backend.cdf_bounds(
            context.query,
            candidate,
            k,
            left_features=context.features,
            right_features=self._profiles.features_for(candidate_id, candidate),
        )
        if lower[k] > tau:
            return FilterDecision(
                FilterVerdict.ACCEPT,
                lower=lower[k],
                upper=upper[k],
                reason=f"CDF lower bound {lower[k]:.6g} > tau",
            )
        if upper[k] <= tau:
            return FilterDecision(
                FilterVerdict.REJECT,
                lower=lower[k],
                upper=upper[k],
                reason=f"CDF upper bound {upper[k]:.6g} <= tau",
            )
        return FilterDecision(
            FilterVerdict.UNDECIDED, lower=lower[k], upper=upper[k]
        )


class VerifyStage:
    """Exact verification: trie DP (Section 6.2) or naive per-world
    enumeration (the Section 7.7 baseline). Always the chain's last
    stage (name ``verification``)."""

    name = "verification"

    def __init__(
        self,
        k: int,
        verification: VerificationName,
        want_exact: bool,
    ) -> None:
        self._k = k
        self._verification = verification
        self._want_exact = want_exact

    def verify(
        self, context: QueryContext, candidate: UncertainString, tau: float
    ) -> tuple[bool, float | None]:
        """``(similar, probability)``; probability is ``None`` when the
        τ decision was reached by early termination."""
        if self._verification == "trie":
            if self._want_exact:
                probability = trie_verify(
                    context.query, candidate, self._k, left_trie=context.trie()
                )
                return probability > tau, probability
            similar = trie_verify_threshold(
                context.query, candidate, self._k, tau, left_trie=context.trie()
            )
            return similar, None
        if self._want_exact:
            probability = naive_verify(context.query, candidate, self._k)
            return probability > tau, probability
        return naive_verify_threshold(context.query, candidate, self._k, tau), None


def build_filter_stages(
    config: JoinConfig,
    profiles: ProfileStore,
    backend: KernelBackend | None = None,
) -> tuple[PipelineStage, ...]:
    """The post-candidate-generation filter stages ``config`` asks for,
    in the paper's fixed cheap-to-expensive order."""
    stages: list[PipelineStage] = []
    if config.uses_frequency:
        stages.append(FrequencyStage(config.k, profiles, backend))
    if config.uses_cdf:
        stages.append(CdfStage(config.k, profiles, backend))
    return tuple(stages)


class StageChain:
    """Runs the refinement stages for one engine.

    Parameters
    ----------
    config:
        Supplies the stage list, ``k``, the verifier, and the
        probability-reporting mode.
    force_exact:
        Always compute exact probabilities and never let a CDF accept
        skip verification, regardless of ``config.report_probabilities``
        — the top-N join needs exact values to rank by.
    context:
        Optional shared :class:`~repro.core.context.CollectionContext`
        (see :class:`ProfileStore`), for chains that outlive one run
        over the same indexed strings or reuse features computed by a
        parallel driver's parent process.
    """

    def __init__(
        self,
        config: JoinConfig,
        force_exact: bool = False,
        context: CollectionContext | None = None,
    ) -> None:
        self.config = config
        self.profiles = ProfileStore(context)
        self.backend = resolve_backend(config.backend)
        self.stages = build_filter_stages(config, self.profiles, self.backend)
        self._want_probability = force_exact or config.report_probabilities
        self._verify = VerifyStage(
            config.k,
            config.verification,
            want_exact=self._want_probability or not config.early_stop_verification,
        )

    def context(self, query_id: int, query: UncertainString) -> QueryContext:
        """Fresh per-query state for ``query`` (build one per probe)."""
        return QueryContext(
            query_id, query, self.profiles.features_for(query_id, query)
        )

    def refine(
        self,
        context: QueryContext,
        candidate_id: int,
        candidate: UncertainString,
        tau: TauProvider,
        stats: JoinStatistics,
        upper: float | None = None,
    ) -> tuple[bool, float | None]:
        """Filter stages → verification for one candidate pair.

        ``upper`` is the candidate source's Theorem 2 upper bound on
        ``Pr(ed <= k)`` when it computed one. Returns
        ``(is_result, probability)``; the probability is ``None`` unless
        verification computed the exact value for a reported pair.

        A cooperative deadline check point guards every candidate: when
        the calling thread runs under an active
        :func:`repro.core.deadline.deadline_scope` whose budget is
        gone, the refinement raises
        :class:`~repro.core.errors.DeadlineExceededError` instead of
        starting another filter/verification round.
        """
        check_active()
        threshold = tau()
        if upper is not None and upper <= threshold:
            # Re-check the probe-time bound against the *current* τ: a
            # no-op for fixed-τ runs (the index already pruned on it),
            # real pruning when τ has risen since the probe (top-N).
            stats.record("bound", "rejected")
            return False, None
        accepted = False
        for stage in self.stages:
            stats.record(stage.name, "checked")
            with stats.timer(stage.name):
                decision = stage.apply(context, candidate_id, candidate, threshold)
            if decision.rejected:
                stats.record(stage.name, "rejected")
                return False, None
            if decision.accepted:
                # Only the CDF lower bound can prove similarity; later
                # (more expensive) filter stages would be wasted work.
                stats.record(stage.name, "accepted")
                accepted = True
                break
            stats.record(stage.name, "undecided")
        if accepted and not self._want_probability:
            return True, None
        stats.record("verification", "checked")
        with stats.timer(self._verify.name):
            similar, probability = self._verify.verify(context, candidate, threshold)
        # When the CDF lower bound accepted the pair, verification ran
        # only to produce the exact probability; the two can disagree
        # only on floating-point knife edges, and the exact verifier wins.
        if similar:
            stats.record("verification", "hits")
        else:
            stats.record("verification", "false")
        return similar, probability if similar else None
