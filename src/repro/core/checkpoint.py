"""Checkpoint persistence for band execution: flat and partitioned runs.

One join run owns one *run directory*. Its shared ``run.json`` manifest
pins the run's identity — a SHA-256 fingerprint over inputs, every
result-affecting config knob, and the band plan — so bands persisted by
different processes (or different machines mounting the same
directory) can only ever be merged when they belong to the same join.

Two layouts share that manifest:

* **flat** (:class:`CheckpointStore`, the PR-3 layout): one
  ``band-NNNNN.ckpt`` pickle per completed band directly under the run
  directory. Used by single-process checkpointed runs (``--resume``).
* **partitioned** (:class:`ShardCheckpointStore`): each shard ``i`` of
  ``N`` owns a contiguous slice of the band plan and writes
  ``shard-i/band-NNNNN.ckpt`` plus its own ``shard-i/manifest.json``
  (fingerprint, shard coordinates, owned band indices) under the one
  shared ``run.json``. ``run.json`` additionally records the shard
  count, so an invocation with a different decomposition — which would
  create overlapping band ownership — fails with
  :class:`~repro.core.errors.CheckpointMismatchError` instead of
  silently interleaving two plans. The merge step
  (:mod:`repro.core.merge`) folds the shard checkpoints back into one
  result.

Every write goes through a tmp file and ``os.replace``, so a kill
mid-write never leaves a half file — a checkpoint either exists
completely or not at all. Unreadable or mis-headed files surface as
:class:`~repro.core.errors.CheckpointCorruptError` naming the offending
path; a file that is readable but belongs to a different join or shard
plan surfaces as :class:`~repro.core.errors.CheckpointMismatchError`.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Any, Iterable

from repro.core.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigurationError,
)
from repro.core.results import JoinOutcome, JoinPair
from repro.core.stats import JoinStatistics
from repro.util.atomic import atomic_write_bytes

#: What a band task returns: ``(band_index, owned pairs, band stats)``.
BandResult = tuple[int, list[JoinPair], JoinStatistics]

#: Bump when the band checkpoint layout changes incompatibly.
CHECKPOINT_MAGIC = "repro-band-checkpoint"
CHECKPOINT_VERSION = 1
_MANIFEST_NAME = "run.json"
_SHARD_MANIFEST_NAME = "manifest.json"


def fold_bands(
    results: Iterable[BandResult], stats: JoinStatistics
) -> JoinOutcome:
    """Fold band results into one outcome, the one fold every path uses.

    Bands are taken in band-index order; their pair lists are
    concatenated then sorted, and their statistics merged into
    ``stats`` with band CPU time under the ``bands`` timer (wall clock
    stays the caller's ``total``). The banded drivers fold what they
    just executed and :func:`repro.core.merge.merge_run` folds what a
    run directory holds, so both return the same outcome byte for byte.
    """
    pairs: list[JoinPair] = []
    for _, band_pairs, band_stats in sorted(results, key=lambda r: r[0]):
        pairs.extend(band_pairs)
        stats.timer("bands").add(band_stats.seconds("total"))
        stats.merge(band_stats)
    pairs.sort()
    stats.result_pairs = len(pairs)
    return JoinOutcome(pairs=pairs, stats=stats)


def read_manifest_document(path: Path) -> dict[str, Any]:
    """A checkpoint-layer JSON manifest, header-validated.

    Shared by the run manifest, the per-shard manifests, and the merge
    step: unreadable JSON or a wrong magic/version header raises
    :class:`CheckpointCorruptError` naming ``path``.
    """
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise CheckpointCorruptError(
            str(path), f"unreadable manifest: {exc}"
        ) from exc
    if (
        not isinstance(document, dict)
        or document.get("magic") != CHECKPOINT_MAGIC
        or document.get("version") != CHECKPOINT_VERSION
    ):
        raise CheckpointCorruptError(
            str(path),
            "bad manifest magic/version (expected "
            f"{CHECKPOINT_MAGIC!r} v{CHECKPOINT_VERSION})",
        )
    return document


class CheckpointStore:
    """Atomic per-band checkpoints under one run directory.

    Layout: ``run.json`` (magic, version, join fingerprint, band count)
    plus one ``band-NNNNN.ckpt`` pickle per completed band, each with
    its own versioned header. Every write goes through a tmp file and
    ``os.replace``, so a kill mid-write never leaves a half file — a
    checkpoint either exists completely or not at all.
    """

    def __init__(self, run_dir: str | Path) -> None:
        self.run_dir = Path(run_dir)

    @property
    def manifest_path(self) -> Path:
        return self.run_dir / _MANIFEST_NAME

    def band_path(self, band_index: int) -> Path:
        return self.run_dir / f"band-{band_index:05d}.ckpt"

    def open(
        self,
        fingerprint: str,
        bands: int,
        *,
        shards: int | None = None,
        strings: int = 0,
    ) -> None:
        """Create the run directory/manifest, or validate an existing one.

        ``shards`` records the shard decomposition (``None`` for flat
        single-process runs); ``strings`` records the input collection
        size so the merge step can restore ``total_strings`` without
        re-reading the input. Raises
        :class:`CheckpointMismatchError` when the directory belongs to a
        different join (input, config, band plan, or shard
        decomposition) and :class:`CheckpointCorruptError` when the
        manifest is unreadable.
        """
        self.run_dir.mkdir(parents=True, exist_ok=True)
        manifest = self.manifest_path
        if manifest.exists():
            document = read_manifest_document(manifest)
            if (
                document.get("fingerprint") != fingerprint
                or document.get("bands") != bands
            ):
                raise CheckpointMismatchError(
                    str(manifest),
                    "run directory belongs to a different join "
                    "(input collection, result-affecting config, or "
                    "band plan changed); use a fresh --resume directory",
                )
            if document.get("shards") != shards:
                raise CheckpointMismatchError(
                    str(manifest),
                    f"run directory was initialized for "
                    f"shards={document.get('shards')} but this invocation "
                    f"uses shards={shards}; mixing decompositions would "
                    "overlap band ownership — use a fresh run directory",
                )
            return
        payload: dict[str, Any] = {
            "magic": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "bands": bands,
            "shards": shards,
            "strings": strings,
        }
        atomic_write_bytes(
            manifest, json.dumps(payload, indent=2).encode("utf-8")
        )

    def completed_bands(self) -> list[int]:
        """Band indices with an existing checkpoint file, ascending."""
        indices: list[int] = []
        for path in self.run_dir.glob("band-*.ckpt"):
            stem = path.stem.partition("-")[2]
            if stem.isdigit():
                indices.append(int(stem))
        return sorted(indices)

    def _document(
        self, band_index: int, pairs: list[JoinPair], stats: JoinStatistics
    ) -> dict[str, Any]:
        return {
            "magic": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "band": band_index,
            "pairs": pairs,
            "stats": stats,
        }

    def save(
        self, band_index: int, pairs: list[JoinPair], stats: JoinStatistics
    ) -> None:
        """Atomically persist one completed band's result."""
        atomic_write_bytes(
            self.band_path(band_index),
            pickle.dumps(self._document(band_index, pairs, stats)),
        )

    def load(self, band_index: int) -> BandResult:
        """Load one band checkpoint, verifying its header.

        Truncated, unpicklable, or mis-headed files raise
        :class:`CheckpointCorruptError` naming the offending path.
        """
        path = self.band_path(band_index)
        try:
            document = pickle.loads(path.read_bytes())
        except FileNotFoundError:
            raise
        except Exception as exc:  # pickle raises many concrete types
            raise CheckpointCorruptError(
                str(path), f"unreadable band checkpoint: {exc}"
            ) from exc
        if (
            not isinstance(document, dict)
            or document.get("magic") != CHECKPOINT_MAGIC
            or document.get("version") != CHECKPOINT_VERSION
        ):
            raise CheckpointCorruptError(
                str(path),
                "bad band-checkpoint magic/version (expected "
                f"{CHECKPOINT_MAGIC!r} v{CHECKPOINT_VERSION})",
            )
        pairs = document.get("pairs")
        stats = document.get("stats")
        if (
            document.get("band") != band_index
            or not isinstance(pairs, list)
            or not isinstance(stats, JoinStatistics)
        ):
            raise CheckpointCorruptError(
                str(path), "band checkpoint payload is malformed"
            )
        self._validate_document(path, document)
        return band_index, pairs, stats

    def _validate_document(self, path: Path, document: dict[str, Any]) -> None:
        """Layout-specific extra validation hook (no-op for flat runs)."""

    def load_if_present(self, band_index: int) -> BandResult | None:
        """:meth:`load`, or ``None`` when the band has no checkpoint."""
        if not self.band_path(band_index).exists():
            return None
        return self.load(band_index)


class ShardCheckpointStore(CheckpointStore):
    """One shard's slice of a partitioned checkpoint run.

    Shard ``shard_index`` of ``shard_count`` keeps its band checkpoints
    and manifest under ``run_dir/shard-<i>/``, beneath the shared
    ``run.json``. The shard manifest records the join fingerprint, the
    shard coordinates, and the exact owned band indices, so

    * re-running the same shard resumes its completed bands,
    * a shard invoked with a different decomposition (overlapping
      ownership) is rejected at :meth:`open_shard` via the shared
      manifest's recorded shard count, and
    * the merge step can verify complete, disjoint coverage of the band
      plan before folding anything.

    Band checkpoints written here additionally embed the fingerprint
    and shard index; :meth:`load` rejects a checkpoint copied in from a
    different join or shard plan with :class:`CheckpointMismatchError`
    rather than silently merging it.
    """

    def __init__(
        self, run_dir: str | Path, shard_index: int, shard_count: int
    ) -> None:
        super().__init__(run_dir)
        if shard_count < 1:
            raise ConfigurationError(
                f"shard count must be >= 1, got {shard_count}"
            )
        if not 0 <= shard_index < shard_count:
            raise ConfigurationError(
                f"shard index must be in [0, {shard_count}), got {shard_index}"
            )
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.shard_dir = self.run_dir / f"shard-{shard_index}"
        #: Fingerprint the loaded checkpoints must carry; set by
        #: :meth:`open_shard` (writers) or the merge step (readers).
        self.expected_fingerprint: str | None = None

    @property
    def shard_manifest_path(self) -> Path:
        return self.shard_dir / _SHARD_MANIFEST_NAME

    def band_path(self, band_index: int) -> Path:
        return self.shard_dir / f"band-{band_index:05d}.ckpt"

    def completed_bands(self) -> list[int]:
        indices: list[int] = []
        for path in self.shard_dir.glob("band-*.ckpt"):
            stem = path.stem.partition("-")[2]
            if stem.isdigit():
                indices.append(int(stem))
        return sorted(indices)

    def open_shard(
        self,
        fingerprint: str,
        bands: int,
        owned: list[int],
        *,
        strings: int = 0,
    ) -> None:
        """Open/validate the shared run manifest *and* this shard's own.

        ``owned`` is the ascending list of band indices this shard's
        slice of the plan covers. A pre-existing shard manifest must
        agree on fingerprint, coordinates, and ownership — anything
        else is a mismatched shard plan and fails loudly.
        """
        self.open(fingerprint, bands, shards=self.shard_count, strings=strings)
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        self.expected_fingerprint = fingerprint
        manifest = self.shard_manifest_path
        if manifest.exists():
            document = read_manifest_document(manifest)
            if (
                document.get("fingerprint") != fingerprint
                or document.get("shard") != self.shard_index
                or document.get("shards") != self.shard_count
                or document.get("bands") != bands
                or document.get("owned") != owned
            ):
                raise CheckpointMismatchError(
                    str(manifest),
                    "shard manifest belongs to a different join or shard "
                    "plan (fingerprint, coordinates, or band ownership "
                    "changed); use a fresh run directory",
                )
            return
        payload: dict[str, Any] = {
            "magic": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "shard": self.shard_index,
            "shards": self.shard_count,
            "bands": bands,
            "owned": owned,
        }
        atomic_write_bytes(
            manifest, json.dumps(payload, indent=2).encode("utf-8")
        )

    def _document(
        self, band_index: int, pairs: list[JoinPair], stats: JoinStatistics
    ) -> dict[str, Any]:
        document = super()._document(band_index, pairs, stats)
        document["fingerprint"] = self.expected_fingerprint
        document["shard"] = self.shard_index
        return document

    def _validate_document(self, path: Path, document: dict[str, Any]) -> None:
        """Reject checkpoints from a different join or shard plan."""
        if "fingerprint" not in document or "shard" not in document:
            raise CheckpointCorruptError(
                str(path),
                "band checkpoint lacks the shard-layout fingerprint/shard "
                "fields",
            )
        if document["shard"] != self.shard_index or (
            self.expected_fingerprint is not None
            and document["fingerprint"] != self.expected_fingerprint
        ):
            raise CheckpointMismatchError(
                str(path),
                "band checkpoint belongs to a different join or shard plan "
                f"(shard {document['shard']!r}, fingerprint "
                f"{str(document['fingerprint'])[:12]}…); refusing to merge it",
            )
