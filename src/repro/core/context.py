"""Per-collection feature contexts: pay per-string preprocessing once.

The paper's whole design assumes per-string work is **index-resident**:
Section 5's frequency preprocessing is "stored alongside the index",
Section 6's DPs reuse per-position distributions, and PASS-JOIN-style
segment indexing amortizes partitioning over the collection. This
module is that discipline made explicit: a :class:`CollectionContext`
owns one immutable :class:`StringFeatures` per string id — frequency
profile, support alphabet (frozenset + sorted tuple) and the
certain-string fast-path flag — computed at most once per collection
and shared by every filter stage, engine, and (via fork or a single
per-worker pickle) every parallel band worker.

Per-position data is not copied here. The certainty flag, the support
and a certain string's one world (which the CDF filter compares) come
from the string's one derived form, :meth:`UncertainString.heavy_form`:
the heavy text plus the indices of the *weighted* positions, those not
exactly ``(1.0,)``. A single alternative kept verbatim at
``1 - 2**-53`` is weighted, yet certain.

Ids follow the engine convention: non-negative ids are collection
strings whose features persist for the context's lifetime; negative
pseudo-ids are transient queries whose features are built fresh per
call and owned by the caller (the per-probe ``QueryContext``).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.filters.frequency import FrequencyProfile
from repro.uncertain.string import UncertainString


class StringFeatures:
    """Immutable per-string features shared by the filter kernels.

    Cheap features (length, certainty flag) are computed at
    construction from the string's heavy form; the frequency profile
    and support alphabet are built lazily on first use and cached —
    :meth:`ensure_profile` forces them for contexts that are published
    to worker processes.
    """

    __slots__ = (
        "string",
        "length",
        "is_certain",
        "_profile",
        "_support",
        "_sorted_support",
        "_native_pack",
    )

    def __init__(self, string: UncertainString) -> None:
        self.string = string
        self.length = len(string)
        self.is_certain = string.is_certain
        self._profile: FrequencyProfile | None = None
        self._support: frozenset[str] | None = None
        self._sorted_support: tuple[str, ...] | None = None
        #: Opaque cache for the optional native backend
        #: (:mod:`repro.filters._native`): the string's C-marshalled
        #: agreement arrays, built lazily on first native kernel use.
        #: Always ``None`` on the pure-python path.
        self._native_pack: object | None = None

    @property
    def profile(self) -> FrequencyProfile | None:
        """The cached frequency profile, or ``None`` if not built yet."""
        return self._profile

    def set_profile(self, profile: FrequencyProfile) -> None:
        """Install an externally built profile (the pipeline's hook)."""
        self._profile = profile

    def ensure_profile(self) -> FrequencyProfile:
        """The Section 5 frequency profile, built on first use."""
        if self._profile is None:
            self._profile = FrequencyProfile(self.string)
        return self._profile

    @property
    def support(self) -> frozenset[str]:
        """Characters with positive occurrence probability anywhere."""
        if self._support is None:
            if self._profile is not None:
                self._support = self._profile.chars()
            else:
                self._support = frozenset(self.string.support_alphabet())
        return self._support

    @property
    def sorted_support(self) -> tuple[str, ...]:
        """The support alphabet as a cached ascending tuple."""
        if self._sorted_support is None:
            if self._profile is not None:
                self._sorted_support = self._profile.sorted_chars
            else:
                self._sorted_support = tuple(sorted(self.support))
        return self._sorted_support


class CollectionContext:
    """id → :class:`StringFeatures` for one collection (index-resident).

    Features of non-negative ids are computed at most once and persist
    for the context's lifetime; negative pseudo-ids (transient queries)
    always yield a fresh object the caller owns. The context is what
    the parallel driver publishes to workers — it builds it eagerly with
    :meth:`for_ids` (the strings its bands touch) so forked/spawned
    workers inherit finished profiles instead of rebuilding halo
    strings per band.
    """

    __slots__ = ("_features",)

    def __init__(
        self, features: Mapping[int, StringFeatures] | None = None
    ) -> None:
        self._features: dict[int, StringFeatures] = (
            dict(features) if features is not None else {}
        )

    @classmethod
    def for_collection(
        cls,
        collection: Sequence[UncertainString],
        build_profiles: bool = True,
    ) -> "CollectionContext":
        """Eagerly build features (ids = positions in ``collection``).

        ``build_profiles`` forces the Section 5 frequency profiles too;
        pass ``False`` for pipelines without the frequency stage.
        """
        context = cls()
        for string_id, string in enumerate(collection):
            features = StringFeatures(string)
            if build_profiles:
                features.ensure_profile()
            context._features[string_id] = features
        return context

    @classmethod
    def for_ids(
        cls,
        collection: Sequence[UncertainString],
        ids: Iterable[int],
        build_profiles: bool = True,
    ) -> "CollectionContext":
        """Eagerly build features for a subset of collection positions.

        The sharded parallel driver publishes only the strings its
        bands can touch (owned + halo); building features for just
        those ``ids`` keeps the per-shard footprint proportional to the
        shard, not the collection. Features stay keyed by the *global*
        position, so :meth:`subcontext` re-keying works unchanged.
        """
        context = cls()
        for string_id in ids:
            features = StringFeatures(collection[string_id])
            if build_profiles:
                features.ensure_profile()
            context._features[string_id] = features
        return context

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, string_id: int) -> bool:
        return string_id in self._features

    def features(self, string_id: int, string: UncertainString) -> StringFeatures:
        """The features of ``string`` under ``string_id`` (cached for
        non-negative ids, fresh for negative pseudo-ids)."""
        if string_id < 0:
            return StringFeatures(string)
        features = self._features.get(string_id)
        if features is None:
            features = StringFeatures(string)
            self._features[string_id] = features
        return features

    def cached(self, string_id: int) -> StringFeatures | None:
        """Already-computed features, or ``None`` (never builds)."""
        return self._features.get(string_id)

    def subcontext(self, id_map: Iterable[int]) -> "CollectionContext":
        """A view for re-keyed ids: local id ``i`` → features of global
        ``id_map[i]``. Missing globals are built lazily on first use by
        the subcontext itself. This is how band workers translate the
        shared collection-wide context into their band-local id space
        without copying or rebuilding any feature."""
        return CollectionContext(
            {
                local_id: features
                for local_id, global_id in enumerate(id_map)
                if (features := self._features.get(global_id)) is not None
            }
        )
