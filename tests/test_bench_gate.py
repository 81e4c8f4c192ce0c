"""The bench regression gate (:func:`benchmarks.gate.check_regressions`).

The gate compares a fresh suite document against a committed baseline:
it fails on slowdowns beyond the tolerance, on kernels or joins with no
baseline entry, and on baseline entries that vanished without being
recorded as skipped. Independently of any baseline, a measured native
backend must not be slower than the python reference on the CDF
kernels.

The store leg's child (:mod:`benchmarks.store_probe`) folds a failed
join into its JSON document instead of dying with a traceback.
"""

import sqlite3
from pathlib import Path

from benchmarks import gate, store_probe

ROOT = Path(__file__).resolve().parent.parent


def _doc(kernels=(), joins=(), skipped=()):
    return {
        "kernels": {name: {"ns_per_op": ns} for name, ns in kernels},
        "join": {name: {"pairs_per_sec": pps} for name, pps in joins},
        "skipped_kernels": list(skipped),
    }


def test_gate_fails_on_unbaselined_kernel():
    baseline = _doc(kernels=[("cdf_filter", 100.0)])
    current = _doc(kernels=[("cdf_filter", 100.0), ("new_kernel", 5.0)])
    failures = gate.check_regressions(current, baseline)
    assert any("new_kernel" in f and "no baseline" in f for f in failures)
    assert gate.check_regressions(current, baseline, allow_new_kernels=True) == []
    assert gate.unbaselined_entries(current, baseline) == ["kernel new_kernel"]


def test_gate_fails_on_unbaselined_join():
    baseline = _doc(joins=[("workers1", 1000.0)])
    current = _doc(joins=[("workers1", 1000.0), ("workers8", 900.0)])
    failures = gate.check_regressions(current, baseline)
    assert any("workers8" in f for f in failures)


def test_gate_tolerates_skipped_optional_kernels():
    baseline = _doc(
        kernels=[("banded_edit_k2_native", 50.0), ("cdf_filter", 100.0)]
    )
    current = _doc(
        kernels=[("cdf_filter", 100.0)], skipped=["banded_edit_k2_native"]
    )
    assert gate.check_regressions(current, baseline) == []
    # ... but a non-skipped disappearance still fails.
    gone = _doc(kernels=[("cdf_filter", 100.0)])
    failures = gate.check_regressions(gone, baseline)
    assert any("banded_edit_k2_native" in f and "missing" in f for f in failures)


def test_gate_still_catches_slowdowns():
    baseline = _doc(kernels=[("cdf_filter", 100.0)], joins=[("workers1", 1000.0)])
    current = _doc(kernels=[("cdf_filter", 500.0)], joins=[("workers1", 100.0)])
    failures = gate.check_regressions(current, baseline, tolerance=2.0)
    assert len(failures) == 2


def test_backend_speedup_pairs_ratio():
    kernels = {
        "frequency_filter": {"ns_per_op": 300.0},
        "frequency_filter_native": {"ns_per_op": 100.0},
        "cdf_dp_uncertain": {"ns_per_op": 800.0},
        "cdf_dp_uncertain_native": {"ns_per_op": 100.0},
    }
    assert gate.backend_speedups(kernels) == {
        "frequency_filter:native": 3.0,
        "cdf_dp_uncertain:native": 8.0,
    }


def test_gate_fails_when_native_is_slower_than_python():
    # Baseline-free invariant: a built native backend must not lose to
    # the interpreter on the CDF kernels.
    current = _doc(
        kernels=[("cdf_dp_uncertain", 100.0), ("cdf_dp_uncertain_native", 150.0)]
    )
    baseline = _doc(
        kernels=[("cdf_dp_uncertain", 100.0), ("cdf_dp_uncertain_native", 150.0)]
    )
    failures = gate.check_regressions(current, baseline)
    assert any(
        "cdf_dp_uncertain_native" in f and "slower than the python" in f
        for f in failures
    )
    faster = _doc(
        kernels=[("cdf_dp_uncertain", 100.0), ("cdf_dp_uncertain_native", 20.0)]
    )
    assert gate.check_regressions(faster, faster) == []


def test_gate_tolerates_skipped_optional_joins():
    baseline = _doc(joins=[("workers1", 1000.0), ("workers1_native", 3000.0)])
    current = _doc(joins=[("workers1", 1000.0)])
    current["skipped_joins"] = ["workers1_native"]
    assert gate.check_regressions(current, baseline) == []
    # ... but an unexplained disappearance still fails.
    gone = _doc(joins=[("workers1", 1000.0)])
    failures = gate.check_regressions(gone, baseline)
    assert any("workers1_native" in f and "missing" in f for f in failures)


def test_store_probe_folds_memory_errors():
    assert store_probe.fold_error(MemoryError()) == {
        "completed": False,
        "error": "MemoryError",
        "error_type": "MemoryError",
        "pairs": None,
    }
    # CPython 3.11 reports a failed frame-stack allocation this way.
    folded = store_probe.fold_error(
        SystemError("error return without exception set")
    )
    assert folded["error"] == "MemoryError"
    assert folded["error_type"] == "SystemError"
    assert folded["completed"] is False


def test_store_probe_folds_other_errors_verbatim():
    folded = store_probe.fold_error(sqlite3.OperationalError("disk I/O error"))
    assert folded["error"] == "OperationalError: disk I/O error"
    assert folded["error_type"] == "OperationalError"
    other = store_probe.fold_error(SystemError("x" * 400))
    assert other["error_type"] == "SystemError"
    assert other["error"].startswith("SystemError: x")
    assert len(other["error"]) == 300


def test_store_leg_child_runs_from_benchmarks(tmp_path, monkeypatch):
    # The real child process, started the way measure_store starts it:
    # a missing input is folded into the document, not a traceback.
    monkeypatch.chdir(ROOT)
    document = gate._run_store_probe(
        "memory", str(tmp_path / "missing.txt"), gate.STORE_MARGIN_BYTES
    )
    assert document["mode"] == "memory"
    assert document["completed"] is False
    assert document["error_type"] == "FileNotFoundError"
    assert document["error"].startswith("FileNotFoundError: ")
    assert document["peak_rss_bytes"] > 0
