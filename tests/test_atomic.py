"""Tests for the shared crash-atomic write helper.

The contract under test: whatever fails mid-write — the data write,
the fsync, the rename — a reader at the target path sees either the
complete previous content or the complete new content, and no tmp
litter survives the failure.
"""

import os

import pytest

from repro.util.atomic import atomic_write_bytes


class TestAtomicWrite:
    def test_creates_and_overwrites(self, tmp_path):
        target = tmp_path / "doc.bin"
        atomic_write_bytes(target, b"first")
        assert target.read_bytes() == b"first"
        atomic_write_bytes(target, b"second", fsync=True)
        assert target.read_bytes() == b"second"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_rename_preserves_target_and_cleans_tmp(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "doc.bin"
        atomic_write_bytes(target, b"intact")

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr("repro.util.atomic.os.replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"never visible")
        assert target.read_bytes() == b"intact"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_fsync_preserves_target_and_cleans_tmp(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "doc.bin"
        atomic_write_bytes(target, b"intact")
        real_fsync = os.fsync

        def exploding_fsync(fd):
            real_fsync(fd)
            raise OSError("power interrupted")

        monkeypatch.setattr("repro.util.atomic.os.fsync", exploding_fsync)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"never visible", fsync=True)
        assert target.read_bytes() == b"intact"
        assert list(tmp_path.iterdir()) == [target]

    def test_tmp_name_is_pid_unique(self, tmp_path, monkeypatch):
        # Two processes saving the same target must not truncate each
        # other's in-flight tmp file; the name carries the pid so each
        # writer owns its own. Capture the name by failing the rename.
        target = tmp_path / "doc.bin"

        seen = []

        def capturing_replace(src, dst):
            seen.append(os.fspath(src))
            raise OSError("stop here")

        monkeypatch.setattr("repro.util.atomic.os.replace", capturing_replace)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"x")
        assert seen and seen[0].endswith(f".tmp.{os.getpid()}")

