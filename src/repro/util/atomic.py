"""Crash-atomic file writes for the checkpoint store.

A reader must never observe a half-written checkpoint: after a crash
the target either holds the complete previous content or the complete
new content. POSIX gives exactly that through a same-directory tmp
file plus ``os.replace``; this module owns the idiom. (The SQLite
store builder follows the same contract with its own tmp database
file, fsync and rename.)

``fsync=True`` additionally flushes file contents to stable storage
before the rename, upgrading the guarantee from "atomic against
process crashes" to "atomic against power loss" at the cost of one
sync per write. The checkpoint layer keeps the default: process-crash
atomicity is its documented contract, and bands are re-runnable.
"""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write_bytes(
    path: str | Path, data: bytes, fsync: bool = False
) -> None:
    """Write ``data`` to ``path`` so readers see old-or-new, never half.

    The tmp file lives next to the target (same filesystem, so the
    rename is atomic) under a pid-unique name (so concurrent writers
    of the same target cannot truncate each other mid-write; last
    rename wins whole). On any write failure the tmp file is removed
    and the target is left untouched.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
    try:
        with tmp.open("wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

