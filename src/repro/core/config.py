"""Join configuration and the paper's algorithm variants.

The Section 7 experiments compare variants named by which filters they
use, applied in increasing order of overhead: **Q** = q-gram filtering
(through the inverted segment index), **F** = frequency-distance
filtering, **C** = CDF bounds, and **T** = trie-based verification (always
last). ``QFCT`` is the full system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

from repro.core.backends import BACKEND_NAMES
from repro.core.errors import ConfigurationError
from repro.filters.alpha import GroupMode
from repro.partition.selection import SELECTION_MODES, SelectionMode
from repro.util.faults import FaultPlan

FilterName = Literal["qgram", "frequency", "cdf"]
VerificationName = Literal["trie", "naive"]

#: Filter stacks of the paper's named algorithm variants.
ALGORITHMS: dict[str, tuple[FilterName, ...]] = {
    "QFCT": ("qgram", "frequency", "cdf"),
    "QCT": ("qgram", "cdf"),
    "QFT": ("qgram", "frequency"),
    "FCT": ("frequency", "cdf"),
    "QT": ("qgram",),
    "T": (),
}

_VALID_FILTERS = ("qgram", "frequency", "cdf")


def parse_shard(spec: str) -> tuple[int, int]:
    """Parse a ``"i/N"`` shard spec into ``(shard_index, shard_count)``.

    Raises :class:`ConfigurationError` for anything that is not
    ``i/N`` with integer ``0 <= i < N`` and ``N >= 1``.
    """
    head, sep, tail = spec.partition("/")
    if not sep or not head.isdigit() or not tail.isdigit():
        raise ConfigurationError(
            f"shard spec must look like 'i/N' (e.g. '0/3'), got {spec!r}"
        )
    index, count = int(head), int(tail)
    if count < 1:
        raise ConfigurationError(
            f"shard count must be >= 1, got {count} in {spec!r}"
        )
    if index >= count:
        raise ConfigurationError(
            f"shard index must be in [0, {count}), got {index} in {spec!r}"
        )
    return index, count


def shard_slice(total: int, shard_index: int, shard_count: int) -> range:
    """Band indices owned by shard ``shard_index`` of ``shard_count``.

    Contiguous, deterministic, and an exact partition: for any ``total``
    and ``shard_count``, the ``shard_count`` ranges are disjoint and
    their union is ``range(total)``, with sizes differing by at most
    one. Depends only on its arguments, so every participant in a
    sharded run — and the merge — computes identical ownership.
    """
    if shard_count < 1:
        raise ConfigurationError(
            f"shard count must be >= 1, got {shard_count}"
        )
    if not 0 <= shard_index < shard_count:
        raise ConfigurationError(
            f"shard index must be in [0, {shard_count}), got {shard_index}"
        )
    return range(
        shard_index * total // shard_count,
        (shard_index + 1) * total // shard_count,
    )


@dataclass(frozen=True)
class JoinConfig:
    """All knobs of the join pipeline.

    Parameters
    ----------
    k, tau:
        The (k, τ)-matching thresholds: report pairs with
        ``Pr(ed(R, S) <= k) > tau``.
    q:
        Segment length target of the even-partition scheme (the paper
        found q = 3 or 4 best; default 3).
    filters:
        Subset of ``("qgram", "frequency", "cdf")`` applied in that order.
    verification:
        ``"trie"`` (Section 6.2) or ``"naive"`` (Section 7.7 baseline).
    selection / group_mode / bound_mode:
        q-gram internals; see :mod:`repro.partition.selection` and
        :mod:`repro.filters.alpha` / :mod:`repro.filters.events`.
    report_probabilities:
        When True, pairs accepted by the CDF lower bound are still
        verified so every reported pair carries its exact probability;
        when False (paper behaviour) such pairs skip verification and
        report ``probability=None``.
    early_stop_verification:
        Let verification stop as soon as the τ decision is known.
    workers:
        Process-level parallelism of the join drivers. ``1`` (default)
        runs the sequential visit loop; ``> 1`` shards the collection
        into contiguous length bands (plus a k-wide halo) handled by
        :mod:`repro.core.parallel`. The result pair list is identical
        either way.
    retries:
        Re-dispatches a failed band gets before the executor degrades
        it to an in-process run (:mod:`repro.core.executor`). Only
        meaningful for the banded drivers.
    band_timeout:
        Per-band execution deadline in seconds (``None`` = no limit);
        a band that exceeds it is retried, then degraded. The degraded
        in-process attempt never has a deadline.
    checkpoint_dir:
        Run directory for checkpoint/resume (CLI ``--resume``). When
        set, the banded driver persists each completed band atomically
        and a re-run over identical inputs loads completed bands
        instead of recomputing them. ``None`` (default) disables
        checkpointing.
    fault_spec:
        Deterministic fault-injection plan for the band executor, in
        :meth:`repro.util.faults.FaultPlan.from_spec` syntax (e.g.
        ``"crash@2x3,hang@0/1.5"``, shard-qualified ``"crash@s1:2"``).
        Testing/benchmark hook; ``None`` (default) injects nothing and
        injection never changes results.
    shard:
        ``"i/N"`` to run as shard ``i`` of an ``N``-way sharded join:
        this invocation executes only its contiguous slice
        (:func:`shard_slice`) of the band plan, with the fault plan
        narrowed to shard ``i``, and persists it under
        ``checkpoint_dir/shard-i/``; a later ``repro-join merge``
        folds the N shard directories into the final result.
        Requires ``checkpoint_dir``. ``None`` (default)
        runs the whole plan. Not fingerprinted: every shard of one run
        (and the merge) shares one fingerprint.
    mp_start:
        Multiprocessing start method for the band worker pool
        (``"fork"``, ``"spawn"``, ``"forkserver"``); ``None`` (default)
        uses the platform default. Runtime-only — results and
        fingerprints never depend on it.
    backend:
        Kernel execution backend (:mod:`repro.core.backends`), one of
        :data:`~repro.core.backends.BACKEND_NAMES`: ``"python"``
        (default) runs the pinned reference kernels, ``"native"`` the
        compiled C kernels (fastest, requires the optional extension to
        be built). Both decide every candidate through the same scalar
        refine loop, and results are byte-identical; the native
        extension's absence is only an error when it is actually
        selected (checked at engine construction, so configs stay
        constructible and picklable everywhere).
    """

    k: int
    tau: float
    q: int = 3
    filters: tuple[FilterName, ...] = ("qgram", "frequency", "cdf")
    verification: VerificationName = "trie"
    selection: SelectionMode = "shift"
    group_mode: GroupMode = "exact"
    bound_mode: str = "paper"
    report_probabilities: bool = False
    early_stop_verification: bool = True
    workers: int = 1
    retries: int = 2
    band_timeout: float | None = None
    checkpoint_dir: str | None = None
    fault_spec: str | None = None
    shard: str | None = None
    mp_start: str | None = None
    backend: str = "python"

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ConfigurationError(f"k must be non-negative, got {self.k}")
        if not 0.0 <= self.tau < 1.0:
            raise ConfigurationError(f"tau must be in [0, 1), got {self.tau}")
        if self.q <= 0:
            raise ConfigurationError(f"q must be positive, got {self.q}")
        seen: set[str] = set()
        for name in self.filters:
            if name not in _VALID_FILTERS:
                raise ConfigurationError(f"unknown filter {name!r}")
            if name in seen:
                raise ConfigurationError(f"duplicate filter {name!r}")
            seen.add(name)
        if self.verification not in ("trie", "naive"):
            raise ConfigurationError(
                f"unknown verification {self.verification!r}"
            )
        if self.selection not in SELECTION_MODES:
            raise ConfigurationError(
                f"unknown selection mode {self.selection!r}"
            )
        if self.group_mode not in ("exact", "beta"):
            raise ConfigurationError(f"unknown group mode {self.group_mode!r}")
        if self.bound_mode not in ("paper", "markov"):
            raise ConfigurationError(f"unknown bound mode {self.bound_mode!r}")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise ConfigurationError(
                f"workers must be an int, got {self.workers!r}"
            )
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if not isinstance(self.retries, int) or isinstance(self.retries, bool):
            raise ConfigurationError(
                f"retries must be an int, got {self.retries!r}"
            )
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be non-negative, got {self.retries}"
            )
        if self.band_timeout is not None and not self.band_timeout > 0:
            raise ConfigurationError(
                f"band_timeout must be positive or None, got {self.band_timeout}"
            )
        try:
            FaultPlan.from_spec(self.fault_spec)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        if self.shard is not None:
            parse_shard(self.shard)
            if self.checkpoint_dir is None:
                raise ConfigurationError(
                    "shard mode requires a run directory: set "
                    "checkpoint_dir (CLI --resume RUN_DIR) so shards "
                    "share one partitioned checkpoint store"
                )
        if self.mp_start is not None and self.mp_start not in (
            "fork",
            "spawn",
            "forkserver",
        ):
            raise ConfigurationError(
                f"unknown mp_start {self.mp_start!r}; "
                "choose from ['fork', 'forkserver', 'spawn']"
            )
        if self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; "
                f"choose from {sorted(BACKEND_NAMES)}"
            )

    @classmethod
    def for_algorithm(cls, name: str, k: int, tau: float, **overrides) -> "JoinConfig":
        """Config for a named variant (QFCT, QCT, QFT, FCT, QT, T)."""
        try:
            filters = ALGORITHMS[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
            ) from None
        return cls(k=k, tau=tau, filters=filters, **overrides)

    @property
    def shard_coordinates(self) -> tuple[int, int] | None:
        """``(shard_index, shard_count)`` parsed from :attr:`shard`."""
        if self.shard is None:
            return None
        return parse_shard(self.shard)

    @property
    def uses_qgram(self) -> bool:
        return "qgram" in self.filters

    @property
    def uses_frequency(self) -> bool:
        return "frequency" in self.filters

    @property
    def uses_cdf(self) -> bool:
        return "cdf" in self.filters

    @property
    def algorithm_name(self) -> str:
        """The paper-style acronym for this filter stack."""
        for name, filters in ALGORITHMS.items():
            if filters == self.filters:
                return name
        letters = "".join(f[0].upper() for f in self.filters)
        return f"{letters}T"

    def with_filters(self, filters: tuple[FilterName, ...]) -> "JoinConfig":
        """A copy with a different filter stack (for variant sweeps)."""
        return replace(self, filters=filters)

    def with_tau(self, tau: float) -> "JoinConfig":
        """A copy at a different probability threshold.

        The serve layer uses this for per-request τ: every other knob
        (and therefore the index and feature caches built under this
        config) stays shared.
        """
        return replace(self, tau=tau)

    def can_probe_index(self, index_k: int) -> bool:
        """Whether this config's candidate probe is complete over an
        index partitioned for ``index_k``.

        Lemma 5 holds for any m-segment partition, so an index answers
        every k (DESIGN.md §4), except under ``"multimatch"`` selection,
        which is complete only for m = k + 1: at the index's own k.
        Stacks without the q-gram stage never read postings.
        """
        return (
            not self.uses_qgram
            or self.selection != "multimatch"
            or self.k == index_k
        )
