"""Fold a (sharded or flat) checkpoint run directory into one result.

The counterpart of shard mode in :mod:`repro.core.parallel`: after N
independent invocations (``repro-join join --shard i/N --resume DIR``)
have each persisted their slice of the band plan,
:func:`merge_run` reads the shared ``run.json``, validates every
shard's manifest and checkpoints, and folds the band results with the
single-process driver's own fold
(:func:`~repro.core.checkpoint.fold_bands`) — so the merged outcome is
byte-identical to a serial run of the same join.

Merge invariants, each enforced loudly:

* every shard directory named by the run manifest exists and carries a
  manifest (:class:`~repro.core.errors.ShardIncompleteError` otherwise);
* every shard manifest agrees with ``run.json`` on fingerprint, band
  count, and decomposition
  (:class:`~repro.core.errors.CheckpointMismatchError` otherwise);
* shard ownership is disjoint and covers the full band plan —
  overlapping ownership means two decompositions got mixed and is a
  mismatch, a coverage gap is incompleteness;
* every owned band has a checkpoint that itself carries the run's
  fingerprint and its shard's index
  (:class:`~repro.core.errors.CheckpointCorruptError` /
  ``CheckpointMismatchError`` from the store's validating loader) —
  a truncated or foreign file never merges silently.

A flat (non-sharded) run directory merges too: the same function folds
its ``band-NNNNN.ckpt`` files, so ``repro-join merge`` doubles as an
offline "collect a finished --resume run" step.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.checkpoint import (
    BandResult,
    CheckpointStore,
    ShardCheckpointStore,
    fold_bands,
    read_manifest_document,
)
from repro.core.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    ShardIncompleteError,
)
from repro.core.results import JoinOutcome
from repro.core.stats import JoinStatistics


def _load_shard_results(
    run_dir: Path,
    fingerprint: str,
    bands: int,
    shards: int,
) -> list[BandResult]:
    """Validate and load every shard's owned bands."""
    results: list[BandResult] = []
    owner_of: dict[int, int] = {}
    for shard_index in range(shards):
        store = ShardCheckpointStore(run_dir, shard_index, shards)
        store.expected_fingerprint = fingerprint
        manifest_path = store.shard_manifest_path
        if not manifest_path.exists():
            raise ShardIncompleteError(
                str(run_dir),
                shard_index,
                (),
                f"no manifest at {manifest_path}; "
                f"has `--shard {shard_index}/{shards}` run?",
            )
        document = read_manifest_document(manifest_path)
        if (
            document.get("fingerprint") != fingerprint
            or document.get("shard") != shard_index
            or document.get("shards") != shards
            or document.get("bands") != bands
        ):
            raise CheckpointMismatchError(
                str(manifest_path),
                "shard manifest disagrees with run.json (fingerprint, "
                "coordinates, or band count); the directory mixes "
                "different joins or decompositions",
            )
        owned = document.get("owned")
        if not isinstance(owned, list) or not all(
            isinstance(band, int) and 0 <= band < bands for band in owned
        ):
            raise CheckpointCorruptError(
                str(manifest_path), "malformed owned-bands list"
            )
        for band in owned:
            if band in owner_of:
                raise CheckpointMismatchError(
                    str(manifest_path),
                    f"band {band} is claimed by shard {owner_of[band]} AND "
                    f"shard {shard_index}; overlapping ownership means the "
                    "directory mixes two shard plans",
                )
            owner_of[band] = shard_index
        completed = set(store.completed_bands())
        missing = tuple(sorted(set(owned) - completed))
        if missing:
            raise ShardIncompleteError(
                str(run_dir),
                shard_index,
                missing,
                f"bands {list(missing)} have no checkpoint yet; "
                "re-run this shard to completion before merging",
            )
        for band in owned:
            results.append(store.load(band))
    uncovered = tuple(sorted(set(range(bands)) - set(owner_of)))
    if uncovered:
        raise ShardIncompleteError(
            str(run_dir),
            None,
            uncovered,
            f"bands {list(uncovered)} are owned by no shard manifest; "
            "the run directory does not cover the full band plan",
        )
    return results


def _load_flat_results(
    run_dir: Path, store: CheckpointStore, bands: int
) -> list[BandResult]:
    """Load a non-sharded (flat ``--resume``) run's bands."""
    completed = set(store.completed_bands())
    missing = tuple(sorted(set(range(bands)) - completed))
    if missing:
        raise ShardIncompleteError(
            str(run_dir),
            None,
            missing,
            f"bands {list(missing)} have no checkpoint yet; "
            "re-run the join to completion before merging",
        )
    return [store.load(band) for band in range(bands)]


def merge_run(run_dir: str | Path) -> JoinOutcome:
    """Fold a completed run directory into the final :class:`JoinOutcome`.

    ``run_dir`` is the directory all shards were pointed at (or a flat
    ``--resume`` directory). The band results go through the parallel
    driver's fold (:func:`~repro.core.checkpoint.fold_bands`) and
    ``total_strings`` comes from ``run.json`` — so the outcome equals
    what one process running every band would have returned, byte for
    byte. A run over empty input has zero bands and merges to no pairs.
    """
    root = Path(run_dir)
    manifest = root / "run.json"
    if not manifest.exists():
        raise ShardIncompleteError(
            str(root),
            None,
            (),
            "no run.json manifest; this is not a checkpoint run directory "
            "(or no shard has opened it yet)",
        )
    document = read_manifest_document(manifest)
    fingerprint = document.get("fingerprint")
    bands = document.get("bands")
    shards = document.get("shards")
    if not isinstance(fingerprint, str) or not isinstance(bands, int):
        raise CheckpointCorruptError(
            str(manifest), "run manifest lacks fingerprint/bands"
        )
    strings = document.get("strings")
    stats = JoinStatistics(
        total_strings=strings if isinstance(strings, int) else 0
    )
    total_timer = stats.timer("total").start()
    if shards is None:
        results = _load_flat_results(root, CheckpointStore(root), bands)
    elif isinstance(shards, int) and shards >= 1:
        results = _load_shard_results(root, fingerprint, bands, shards)
    else:
        raise CheckpointCorruptError(
            str(manifest), f"malformed shards field {shards!r}"
        )
    outcome = fold_bands(results, stats)
    total_timer.stop()
    return outcome
