"""The out-of-core SQLite :class:`~repro.store.base.IndexStore`.

One database file holds the whole built index:

``meta``
    Key/value header — magic, format version, (k, q), counts, and the
    collection content digest. Checked on every open, so a mis-built
    or foreign file fails fast with the checkpoint error taxonomy.
``strings``
    One row per string: ``rank`` (primary key, the canonical
    (length, id) visit position), original ``id``, ``length``, and the
    ``format_uncertain(precision=17)`` text — 17 significant digits
    round-trip IEEE doubles exactly, and the text is read back with
    :func:`~repro.uncertain.parser.parse_normalized` (no second
    normalization), so hydrated strings and postings carry the same
    floats the builder saw.
``postings``
    One row per posting entry ``(length, segment, word, rank, prob)``
    in a ``WITHOUT ROWID`` table whose primary key ``(length, segment,
    word, rank)`` is exactly the probe's access order, so each entry is
    stored once, in the key's b-tree. ``prob`` is a SQLite REAL — an
    IEEE double, stored and returned bit-exactly. Files of the earlier
    layout (a heap table plus a unique index on the same columns)
    answer the same SQL and still open.

Probes run batched ``IN (...)`` lookups (chunked under SQLite's bound
-variable cap) with a ``rank < ?`` predicate, so a prefix probe against
the full prebuilt index returns byte-for-byte what an incrementally
built index would (see :mod:`repro.store.base`).

The store object is fork- and thread-safe by construction: connections
are opened lazily per ``(pid, thread)`` and never cross either
boundary, and pickling ships only the path + options — a spawned
worker reopens the same file instead of receiving any data.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.errors import CheckpointCorruptError
from repro.index.inverted import segment_postings
from repro.store.base import (
    DEFAULT_CACHE_SIZE,
    STORE_FORMAT,
    STORE_MAGIC,
    STORE_PRECISION,
    StoreMeta,
)
from repro.uncertain.parser import format_uncertain, parse_normalized
from repro.uncertain.string import UncertainString

#: Bound variables per ``IN (...)`` batch — comfortably under every
#: SQLite build's variable cap (999 on the oldest still-deployed ones).
_IN_BATCH = 400

#: Rows buffered per ``executemany`` during builds.
_BUILD_BATCH = 2000


def _chunks(items: Sequence[Any], size: int) -> Iterator[Sequence[Any]]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


# ----------------------------------------------------------------------
# building
# ----------------------------------------------------------------------


def build_sqlite_store(
    records: Iterable[UncertainString],
    path: str | Path,
    *,
    k: int,
    q: int,
) -> StoreMeta:
    """Build a store file from a stream of uncertain strings.

    Two passes, both O(batch) in memory: records stream into an ingest
    table (ids = arrival order, digest accumulated on the fly), ranks
    are assigned by one ``ORDER BY length, id`` window query, then each
    string is re-read in rank order and its segment worlds staged as
    postings in a ``TEMP`` table. One sorted ``INSERT ... SELECT`` then
    moves them into the ``WITHOUT ROWID`` postings table in key order
    (appending to a b-tree beats inserting into it in random word
    order). The finished database is moved into place atomically
    (unique tmp name + fsync + ``os.replace``), so a crashed build
    never leaves a half-written store where a reader expects one.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    import hashlib

    target = Path(path)
    tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
    tmp.unlink(missing_ok=True)
    digest = hashlib.sha256()
    connection = sqlite3.connect(tmp)
    try:
        connection.executescript(
            """
            PRAGMA journal_mode = OFF;
            PRAGMA synchronous = OFF;
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            CREATE TABLE ingest (
                id INTEGER PRIMARY KEY,
                length INTEGER NOT NULL,
                text TEXT NOT NULL
            );
            CREATE TABLE strings (
                rank INTEGER PRIMARY KEY,
                id INTEGER NOT NULL,
                length INTEGER NOT NULL,
                text TEXT NOT NULL
            );
            CREATE TABLE postings (
                length INTEGER NOT NULL,
                segment INTEGER NOT NULL,
                word TEXT NOT NULL,
                rank INTEGER NOT NULL,
                prob REAL NOT NULL,
                PRIMARY KEY (length, segment, word, rank)
            ) WITHOUT ROWID;
            CREATE TEMP TABLE staging (
                length INTEGER NOT NULL,
                segment INTEGER NOT NULL,
                word TEXT NOT NULL,
                rank INTEGER NOT NULL,
                prob REAL NOT NULL
            );
            """
        )
        count = 0
        batch: list[tuple[int, int, str]] = []
        for string in records:
            text = format_uncertain(string, precision=STORE_PRECISION)
            digest.update(text.encode("utf-8"))
            digest.update(b"\n")
            batch.append((count, len(string), text))
            count += 1
            if len(batch) >= _BUILD_BATCH:
                connection.executemany(
                    "INSERT INTO ingest VALUES (?, ?, ?)", batch
                )
                batch.clear()
        if batch:
            connection.executemany("INSERT INTO ingest VALUES (?, ?, ?)", batch)
        connection.executescript(
            """
            INSERT INTO strings (rank, id, length, text)
            SELECT ROW_NUMBER() OVER (ORDER BY length, id) - 1, id, length, text
            FROM ingest;
            DROP TABLE ingest;
            CREATE UNIQUE INDEX ix_strings_id ON strings (id);
            """
        )
        entry_count = 0
        postings: list[tuple[int, int, str, int, float]] = []
        read_cursor = connection.cursor()
        for rank, length, text in read_cursor.execute(
            "SELECT rank, length, text FROM strings ORDER BY rank"
        ):
            postings.extend(
                (length, segment_index, word, rank, prob)
                for segment_index, word, prob in segment_postings(
                    parse_normalized(text), q, k
                )
            )
            if len(postings) >= _BUILD_BATCH:
                connection.executemany(
                    "INSERT INTO staging VALUES (?, ?, ?, ?, ?)", postings
                )
                entry_count += len(postings)
                postings.clear()
        connection.executemany(
            "INSERT INTO staging VALUES (?, ?, ?, ?, ?)", postings
        )
        entry_count += len(postings)
        connection.executescript(
            """
            INSERT INTO postings
            SELECT * FROM staging ORDER BY length, segment, word, rank;
            DROP TABLE staging;
            """
        )
        meta = StoreMeta(
            k=k,
            q=q,
            count=count,
            entry_count=entry_count,
            digest=digest.hexdigest(),
        )
        connection.executemany(
            "INSERT INTO meta VALUES (?, ?)",
            [
                ("magic", STORE_MAGIC),
                ("format", str(STORE_FORMAT)),
                ("k", str(meta.k)),
                ("q", str(meta.q)),
                ("count", str(meta.count)),
                ("entry_count", str(meta.entry_count)),
                ("digest", meta.digest),
                ("precision", str(STORE_PRECISION)),
            ],
        )
        connection.commit()
        connection.close()
        # Same durability contract as repro.util.atomic: flush file
        # contents before the rename so a crash leaves old-or-new.
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except BaseException:
        try:
            connection.close()
        except sqlite3.Error:
            pass
        tmp.unlink(missing_ok=True)
        raise
    return meta


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------


class SqliteStore:
    """Read-only handle on a store file built by :func:`build_sqlite_store`.

    Opening validates the header (magic, format version, field sanity)
    and raises :class:`~repro.core.errors.CheckpointCorruptError` for
    anything that is not a current-version store. The handle is cheap:
    per-thread connections open lazily (and reopen after a fork), and
    the only resident state is the id/length visit-order bookkeeping —
    two ints per string, never the strings themselves.
    """

    def __init__(
        self, path: str | Path, cache_size: int = DEFAULT_CACHE_SIZE
    ) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.path = str(path)
        self.cache_size = cache_size
        self._local = threading.local()
        if not Path(self.path).is_file():
            raise FileNotFoundError(
                f"index store not found: {self.path}"
            )
        self.meta = self._read_meta()
        self._ids_visit: "list[int] | None" = None
        self._lengths_visit: "list[int] | None" = None
        self._order_lock = threading.Lock()

    # -- connection / pickling plumbing --------------------------------

    def _connection(self) -> sqlite3.Connection:
        local = self._local
        if (
            getattr(local, "connection", None) is not None
            and getattr(local, "pid", None) == os.getpid()
        ):
            return local.connection
        connection = sqlite3.connect(self.path)
        connection.execute("PRAGMA query_only = ON")
        local.connection = connection
        local.pid = os.getpid()
        return connection

    def __getstate__(self) -> dict[str, Any]:
        # Ship the address, not the data: a spawned worker reopens the
        # file. Meta rides along so workers skip the header re-read.
        return {
            "path": self.path,
            "cache_size": self.cache_size,
            "meta": self.meta,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.path = state["path"]
        self.cache_size = state["cache_size"]
        self.meta = state["meta"]
        self._local = threading.local()
        self._ids_visit = None
        self._lengths_visit = None
        self._order_lock = threading.Lock()

    def _read_meta(self) -> StoreMeta:
        try:
            rows = dict(
                self._connection().execute("SELECT key, value FROM meta")
            )
        except sqlite3.Error as exc:
            raise CheckpointCorruptError(
                self.path, f"not a readable index store: {exc}"
            ) from exc
        magic = rows.get("magic")
        if magic != STORE_MAGIC:
            raise CheckpointCorruptError(
                self.path,
                f"bad magic {magic!r} (expected {STORE_MAGIC!r}); "
                "not an index-store file",
            )
        version = rows.get("format")
        if version != str(STORE_FORMAT):
            raise CheckpointCorruptError(
                self.path,
                f"unsupported store format {version!r} "
                f"(expected {STORE_FORMAT})",
            )
        try:
            return StoreMeta(
                k=int(rows["k"]),
                q=int(rows["q"]),
                count=int(rows["count"]),
                entry_count=int(rows["entry_count"]),
                digest=rows["digest"],
            )
        except (KeyError, ValueError) as exc:
            raise CheckpointCorruptError(
                self.path, f"malformed store header: {exc!r}"
            ) from exc

    # -- IndexStore surface --------------------------------------------

    def __len__(self) -> int:
        return self.meta.count

    def _visit_order(self) -> tuple[list[int], list[int]]:
        if self._ids_visit is None:
            with self._order_lock:
                if self._ids_visit is None:
                    ids: list[int] = []
                    lengths: list[int] = []
                    for string_id, length in self._connection().execute(
                        "SELECT id, length FROM strings ORDER BY rank"
                    ):
                        ids.append(string_id)
                        lengths.append(length)
                    self._lengths_visit = lengths
                    self._ids_visit = ids
        assert self._lengths_visit is not None
        return self._ids_visit, self._lengths_visit

    def ids_in_visit_order(self) -> Sequence[int]:
        return self._visit_order()[0]

    def lengths_in_visit_order(self) -> Sequence[int]:
        return self._visit_order()[1]

    def strings_at_ranks(self, start: int, stop: int) -> list[UncertainString]:
        rows = self._connection().execute(
            "SELECT text FROM strings WHERE rank >= ? AND rank < ? "
            "ORDER BY rank",
            (start, stop),
        )
        return [parse_normalized(text) for (text,) in rows]

    def strings_by_ids(
        self, ids: Sequence[int]
    ) -> dict[int, UncertainString]:
        connection = self._connection()
        out: dict[int, UncertainString] = {}
        for chunk in _chunks(list(ids), _IN_BATCH):
            marks = ",".join("?" * len(chunk))
            rows = connection.execute(
                f"SELECT id, text FROM strings WHERE id IN ({marks})",
                list(chunk),
            )
            for string_id, text in rows:
                out[string_id] = parse_normalized(text)
        return out

    def has_segment(
        self, length: int, segment_index: int, rank_limit: int
    ) -> bool:
        row = self._connection().execute(
            "SELECT EXISTS(SELECT 1 FROM postings "
            "WHERE length = ? AND segment = ? AND rank < ?)",
            (length, segment_index, rank_limit),
        ).fetchone()
        return bool(row[0])

    def posting_lists(
        self,
        length: int,
        segment_index: int,
        words: Sequence[str],
        rank_limit: int,
    ) -> Mapping[str, Sequence[tuple[int, float]]]:
        connection = self._connection()
        out: dict[str, list[tuple[int, float]]] = {}
        for chunk in _chunks(list(words), _IN_BATCH):
            marks = ",".join("?" * len(chunk))
            rows = connection.execute(
                "SELECT word, rank, prob FROM postings "
                f"WHERE length = ? AND segment = ? AND word IN ({marks}) "
                "AND rank < ? ORDER BY word, rank",
                [length, segment_index, *chunk, rank_limit],
            )
            for word, rank, prob in rows:
                out.setdefault(word, []).append((rank, prob))
        return out
