"""Store-mode CI smoke: SQLite-backed joins == in-memory, byte for byte.

Two layers, both fatal on mismatch:

1. **Golden fixture, in-process** — the equivalence-spec self-join runs
   out of a freshly built ``SqliteStore``, serially and as
   ``--shard 0/3 + 1/3 + 2/3`` folded with ``merge_run``; both pair
   lists must equal the committed
   ``tests/data/golden_driver_outputs.json`` entry byte-for-byte.
2. **Real CLI processes** — a generated collection is joined, streamed,
   top-k'd, and searched twice: once from the collection file, once
   from a store built with ``repro-join index build``. Every stdout is
   diffed. A three-shard ``join --store`` run plus ``repro-join merge``
   must also reproduce the serial in-memory stdout.

Usage::

    PYTHONPATH=src python benchmarks/smoke_store.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from repro.core.config import JoinConfig  # noqa: E402
from repro.core.merge import merge_run  # noqa: E402
from repro.core.parallel import parallel_similarity_join  # noqa: E402
from repro.store import (  # noqa: E402
    SqliteStore,
    build_sqlite_store,
    store_similarity_join,
)

from tests import equivalence_spec as spec  # noqa: E402

SHARDS = 3


def check(label: str, condition: bool) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  {label:<52s} {status}")
    if not condition:
        sys.exit(1)


def golden_in_process(tmp: Path) -> None:
    golden = json.loads(
        (REPO_ROOT / "tests" / "data" / "golden_driver_outputs.json")
        .read_text()
    )["QFCT-k2-probs"]["join"]
    config = JoinConfig.for_algorithm(
        "QFCT", k=2, tau=spec.TAU, q=spec.Q, report_probabilities=True
    )
    store_path = tmp / "golden.idx"
    build_sqlite_store(
        spec.self_collection(), store_path, k=2, q=spec.Q
    )
    store = SqliteStore(store_path)
    serial = store_similarity_join(store, config)
    check(
        "golden fixture: store join == committed pairs",
        spec.encode_pairs(serial.pairs) == golden,
    )
    run_dir = tmp / "golden-run"
    sharded = replace(config, workers=2, checkpoint_dir=str(run_dir))
    for i in range(SHARDS):
        parallel_similarity_join(
            None,
            replace(sharded, shard=f"{i}/{SHARDS}"),
            use_processes=False,
            min_parallel=0,
            store=store,
        )
    merged = merge_run(run_dir)
    check(
        f"golden fixture: {SHARDS} store shards + merge == committed",
        spec.encode_pairs(merged.pairs) == golden,
    )


def cli(*args: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    if completed.returncode != 0:
        print(completed.stdout)
        print(completed.stderr, file=sys.stderr)
        sys.exit(f"repro-join {' '.join(args)} exited {completed.returncode}")
    return completed.stdout


def cli_processes(tmp: Path) -> None:
    names = tmp / "names.txt"
    cli("gen", "--kind", "dblp", "--count", "80", "--seed", "11",
        "-o", str(names))
    store = tmp / "names.idx"
    cli("index", "build", str(names), "-o", str(store), "-k", "2", "-q", "2")
    info = dict(
        line.split("\t", 1)
        for line in cli("index", "info", str(store)).splitlines()
    )
    check("index info reports the build shape",
          (info["strings"], info["k"], info["q"]) == ("80", "2", "2"))

    knobs = ("-k", "2", "--tau", "0.1", "-q", "2", "--probabilities")
    serial = cli("join", str(names), *knobs)
    check("serial CLI join produced pairs", bool(serial.strip()))
    check("store CLI join == in-memory stdout",
          cli("join", "--store", str(store), *knobs) == serial)
    check("store CLI --stream == in-memory --stream",
          cli("join", "--store", str(store), *knobs, "--stream")
          == cli("join", str(names), *knobs, "--stream"))
    check("store CLI topk == in-memory stdout",
          cli("topk", "--store", str(store), "-k", "2", "-q", "2",
              "--count", "5")
          == cli("topk", str(names), "-k", "2", "-q", "2", "--count", "5"))
    query = names.read_text().splitlines()[0]
    check("store CLI search == in-memory stdout",
          cli("search", "--store", str(store), query, *knobs)
          == cli("search", str(names), query, *knobs))

    run_dir = tmp / "store-shards"
    for i in range(SHARDS):
        out = cli("join", "--store", str(store), *knobs, "--workers", "2",
                  "--shard", f"{i}/{SHARDS}", "--resume", str(run_dir))
        check(f"store shard {i}/{SHARDS} keeps stdout clean", out == "")
    check(f"{SHARDS} store shard processes + merge == serial",
          cli("merge", str(run_dir)) == serial)


def main() -> int:
    print("store smoke: SqliteStore vs in-memory, serial + sharded")
    with tempfile.TemporaryDirectory(prefix="store-smoke-") as tmp:
        golden_in_process(Path(tmp))
        cli_processes(Path(tmp))
    print("store smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
