"""Out-of-core index storage (DESIGN.md §6i).

Build once with :func:`build_sqlite_store` (or the ``repro-join index
build`` CLI), then join, search, or serve against the file with peak
RSS bounded by cache capacity instead of collection size. The
:class:`MemoryStore` reference implementation pins the adapter layer's
byte-identity against the classic in-memory pipeline.
"""

from repro.store.base import (
    DEFAULT_CACHE_SIZE,
    STORE_FORMAT,
    STORE_MAGIC,
    STORE_PRECISION,
    IndexStore,
    StoreMeta,
)
from repro.store.driver import (
    iter_store_join_pairs,
    store_similarity_join,
)
from repro.store.memory import MemoryStore, collection_digest
from repro.store.source import (
    StoreCollection,
    StoreContext,
    StoreIndexSource,
    StoreStringCache,
)
from repro.store.sqlite import SqliteStore, build_sqlite_store

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "STORE_FORMAT",
    "STORE_MAGIC",
    "STORE_PRECISION",
    "IndexStore",
    "MemoryStore",
    "SqliteStore",
    "StoreCollection",
    "StoreContext",
    "StoreIndexSource",
    "StoreMeta",
    "StoreStringCache",
    "build_sqlite_store",
    "collection_digest",
    "iter_store_join_pairs",
    "store_similarity_join",
]
