"""Native (compiled C) backend parity + optionality tests (ISSUE 10).

The ``native`` backend must be **bit-for-bit** identical to the pinned
pure-python reference: same bound tuples from the scalar
kernels under hypothesis sweeps and knife-edge constructions, the same
byte-identical golden driver output across the full config grid, and
identical pipeline counters through the engine. Alongside the parity
sweeps, this module pins the satellite work that rode with the
backend: the availability-enumerating ``resolve_backend`` errors and
the dynamic ``REPRO_NATIVE_DISABLE`` escape hatch.

Everything except the native-marked tests must pass when the extension
was never built — the backend is optional by contract.
"""

import json
import pickle
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import (
    BACKEND_NAMES,
    NativeBackend,
    available_backends,
    backend_availability,
    resolve_backend,
)
from repro.core.config import ConfigurationError, JoinConfig
from repro.core.context import StringFeatures
from repro.core.join import similarity_join
from repro.distance.edit import edit_distance_banded
from repro.filters import _native
from repro.filters.cdf import cdf_bounds
from repro.filters.frequency import FrequencyProfile, frequency_bounds
from repro.uncertain.position import UncertainPosition
from repro.uncertain.string import UncertainString

from tests import equivalence_spec as spec
from tests.helpers import random_collection, random_uncertain, uncertain_strings

HAS_NATIVE = _native.native_available()
needs_native = pytest.mark.skipif(
    HAS_NATIVE is False, reason="native extension not built"
)

#: Every backend that can run in this interpreter; parity tests sweep
#: all of them so any pairwise disagreement is caught in one place.
ALL_BACKENDS = available_backends()


def _hexify(bounds):
    """Bounds tuples with every float as its hex string — bitwise compare."""
    lower, upper = bounds
    return (
        tuple(value.hex() for value in lower),
        tuple(value.hex() for value in upper),
    )


def _hex_frequency(bounds):
    """Frequency bounds with the (optional) upper bound as a hex string."""
    lower_fd, upper = bounds
    return lower_fd, None if upper is None else upper.hex()


# ----------------------------------------------------------------------
# kernel parity: native vs. the pure-python reference
# ----------------------------------------------------------------------


@needs_native
@settings(max_examples=60, deadline=None)
@given(
    left=uncertain_strings(max_length=7),
    right=uncertain_strings(max_length=7),
    k=st.integers(min_value=0, max_value=3),
)
def test_cdf_scalar_bitwise_parity(left, right, k):
    assert _hexify(_native.cdf_bounds_native(left, right, k)) == _hexify(
        cdf_bounds(left, right, k)
    )


@needs_native
@settings(max_examples=60, deadline=None)
@given(
    left=uncertain_strings(max_length=7),
    right=uncertain_strings(max_length=7),
    k=st.integers(min_value=0, max_value=3),
)
def test_frequency_scalar_bitwise_parity(left, right, k):
    left_profile = FrequencyProfile(left)
    right_profile = FrequencyProfile(right)
    reference = frequency_bounds(left_profile, right_profile, k)
    native = _native.frequency_bounds_native(left_profile, right_profile, k)
    assert native[0] == reference[0]
    if reference[1] is None:
        assert native[1] is None
    else:
        assert native[1].hex() == reference[1].hex()


@needs_native
def test_dense_random_sweep_parity():
    """Denser deterministic sweep than hypothesis reaches per run."""
    rng = random.Random(20260808)
    for _ in range(200):
        k = rng.randint(0, 4)
        left = random_uncertain(
            rng, rng.randint(0, 9), theta=rng.choice((0.0, 0.4, 1.0))
        )
        left_profile = FrequencyProfile(left)
        for _ in range(rng.randint(1, 5)):
            right = random_uncertain(
                rng, rng.randint(0, 9), theta=rng.choice((0.0, 0.4, 0.8))
            )
            assert _hexify(_native.cdf_bounds_native(left, right, k)) == (
                _hexify(cdf_bounds(left, right, k))
            )
            right_profile = FrequencyProfile(right)
            assert _hex_frequency(
                _native.frequency_bounds_native(left_profile, right_profile, k)
            ) == _hex_frequency(frequency_bounds(left_profile, right_profile, k))


@needs_native
def test_edit_banded_parity():
    rng = random.Random(77)
    for _ in range(300):
        k = rng.randint(0, 5)
        left = "".join(rng.choice("ACGT") for _ in range(rng.randint(0, 12)))
        right = "".join(rng.choice("ACGT") for _ in range(rng.randint(0, 12)))
        assert _native.edit_banded_native(left, right, k) == (
            edit_distance_banded(left, right, k)
        )


@needs_native
def test_native_kernels_reject_negative_k():
    left = random_uncertain(random.Random(1), 4)
    with pytest.raises(ValueError):
        _native.cdf_bounds_native(left, left, -1)
    profile = FrequencyProfile(left)
    with pytest.raises(ValueError):
        _native.frequency_bounds_native(profile, profile, -1)
    with pytest.raises(ValueError):
        _native.edit_banded_native("A", "A", -1)


# ----------------------------------------------------------------------
# knife-edge parity across ALL available backends (satellite 3)
# ----------------------------------------------------------------------


def _knife_edge_pairs():
    """Constructions that sit exactly on the kernels' branch points."""
    half = UncertainPosition({"A": 0.5, "C": 0.5})
    tiny = UncertainPosition({"A": 5e-324, "C": 1.0 - 5e-324})
    subnormal = UncertainPosition({"G": 1e-300, "T": 1.0})
    pairs = []
    # Agreement probability exactly 1.0 (identical single-world slices
    # inside otherwise-uncertain strings) and exactly 0.0 (disjoint
    # supports) — the DP's two fast paths.
    pairs.append(
        (
            UncertainString([half, UncertainPosition.certain("A"), half]),
            UncertainString([half, UncertainPosition.certain("A"), half]),
        )
    )
    pairs.append(
        (
            UncertainString.from_mixed(["AA", {"C": 0.5, "G": 0.5}]),
            UncertainString.from_mixed(["TT", {"T": 0.5, "A": 0.5}]),
        )
    )
    # Subnormal / minimum-denormal per-world masses: products underflow
    # gradually and the two implementations must round identically.
    pairs.append(
        (
            UncertainString([tiny, subnormal, tiny]),
            UncertainString([subnormal, tiny, subnormal]),
        )
    )
    pairs.append(
        (
            UncertainString([tiny, tiny, tiny, tiny]),
            UncertainString.from_text("ACAC"),
        )
    )
    # Max-band-width strings: |n - m| == k exactly, so the DP's band
    # guards and the final-cell offset are exercised at their limits.
    pairs.append(
        (
            UncertainString.from_mixed(["ACGTAC", {"A": 0.5, "T": 0.5}]),
            UncertainString.from_mixed([{"A": 0.5, "T": 0.5}, "CGT"]),
        )
    )
    pairs.append(
        (
            UncertainString.from_text("ACGTACGT"),
            UncertainString([half] * 5),
        )
    )
    return pairs


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_knife_edge_bounds_agree_across_backends(k):
    backends = [resolve_backend(name) for name in ALL_BACKENDS]
    for left, right in _knife_edge_pairs():
        reference = None
        left_profile = FrequencyProfile(left)
        right_profile = FrequencyProfile(right)
        for backend in backends:
            got = (
                _hexify(backend.cdf_bounds(left, right, k)),
                _hexify(backend.cdf_bounds(left, left, k)),
                _hex_frequency(
                    backend.frequency_bounds(left_profile, right_profile, k)
                ),
                _hex_frequency(
                    backend.frequency_bounds(left_profile, left_profile, k)
                ),
            )
            if reference is None:
                reference = got
            else:
                assert got == reference, (backend.name, left, right, k)


def test_tau_boundary_decisions_agree_across_backends():
    """τ set to an exactly-attained bound value: every backend must make
    the identical accept/reject/undecided call on the knife edge, and the
    engine's per-stage counters must match across backends."""
    collection = random_collection(
        random.Random(31), 40, length_range=(3, 9), theta=0.4
    )
    # Harvest exact bound values to use as τ knife edges.
    uppers = set()
    lowers = set()
    for i, left in enumerate(collection[:10]):
        for right in collection[i + 1 : i + 6]:
            lower, upper = cdf_bounds(left, right, 2)
            if 0.0 < upper[2] < 1.0:
                uppers.add(upper[2])
            if 0.0 < lower[2] < 1.0:
                lowers.add(lower[2])
    taus = sorted(uppers)[:2] + sorted(lowers)[:2]
    assert taus, "workload produced no fractional bounds"
    fields = (
        "length_eligible_pairs",
        "frequency_checked",
        "cdf_checked",
        "cdf_accepted",
        "cdf_rejected",
        "cdf_undecided",
        "verifications",
        "verification_hits",
        "false_candidates",
        "result_pairs",
    )
    for tau in taus:
        config = JoinConfig.for_algorithm(
            "QFCT", k=2, tau=tau, q=2, report_probabilities=True
        )
        outcomes = {
            name: similarity_join(collection, replace(config, backend=name))
            for name in ALL_BACKENDS
        }
        reference = outcomes["python"]
        for name, outcome in outcomes.items():
            assert spec.encode_pairs(outcome.pairs) == spec.encode_pairs(
                reference.pairs
            ), (name, tau)
            for field in fields:
                assert getattr(outcome.stats, field) == getattr(
                    reference.stats, field
                ), (name, tau, field)
            assert dict(outcome.stats.stage_counters) == dict(
                reference.stats.stage_counters
            ), (name, tau)


# ----------------------------------------------------------------------
# engine-level parity: golden fixture grid under backend="native"
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_outputs():
    return json.loads(
        (Path(__file__).parent / "data" / "golden_driver_outputs.json").read_text()
    )


@needs_native
@pytest.mark.parametrize(
    "key,config", list(spec.config_grid()), ids=[k for k, _ in spec.config_grid()]
)
def test_native_backend_reproduces_golden_join(key, config, golden_outputs):
    collection = spec.self_collection()
    outcome = similarity_join(collection, replace(config, backend="native"))
    assert spec.encode_pairs(outcome.pairs) == golden_outputs[key]["join"]


@needs_native
@pytest.mark.parametrize("workers", [4])
def test_native_backend_parallel_golden_join(workers, golden_outputs):
    """Banded parallel driver under native: the marshalled packs must
    survive worker publication (fork or pickle) byte-identically."""
    collection = spec.self_collection()
    checked = 0
    for key, config in spec.config_grid():
        outcome = similarity_join(
            collection, replace(config, backend="native", workers=workers)
        )
        assert spec.encode_pairs(outcome.pairs) == golden_outputs[key]["join"], key
        checked += 1
    assert checked == len(list(spec.config_grid()))


@needs_native
def test_native_packs_pickle_roundtrip():
    """Spawn-mode worker publication pickles features with their packs:
    the rebuilt pack must re-derive fresh buffer addresses and produce
    identical bounds."""
    rng = random.Random(5)
    left = random_uncertain(rng, 7, theta=0.5)
    right = random_uncertain(rng, 6, theta=0.5)
    features = StringFeatures(left)
    before = _native.cdf_bounds_native(left, right, 2, left_features=features)
    assert features._native_pack is not None
    thawed = pickle.loads(pickle.dumps(features))
    assert thawed._native_pack is not None
    assert thawed._native_pack.args != features._native_pack.args
    after = _native.cdf_bounds_native(
        left, right, 2, left_features=thawed
    )
    assert _hexify(before) == _hexify(after)
    profile = FrequencyProfile(left)
    bounds = _native.frequency_bounds_native(profile, FrequencyProfile(right), 2)
    thawed_profile = pickle.loads(pickle.dumps(profile))
    rebuilt = _native.frequency_bounds_native(
        thawed_profile, FrequencyProfile(right), 2
    )
    assert bounds == rebuilt


# ----------------------------------------------------------------------
# backend selection / optionality (satellite 1)
# ----------------------------------------------------------------------


def test_backend_availability_attributes_every_backend():
    availability = backend_availability()
    assert set(availability) == set(BACKEND_NAMES)
    assert availability["python"] is None
    for name in BACKEND_NAMES:
        reason = availability[name]
        assert reason is None or isinstance(reason, str)
        assert (reason is None) == (name in available_backends())


@needs_native
def test_native_backend_resolves_when_available():
    backend = resolve_backend("native")
    assert isinstance(backend, NativeBackend)
    assert "native" in available_backends()


def test_native_disable_env_is_dynamic(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    assert not _native.native_available()
    assert "REPRO_NATIVE_DISABLE" in _native.native_unavailable_reason()
    assert "native" not in available_backends()
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_backend("native")
    message = str(excinfo.value)
    assert "REPRO_NATIVE_DISABLE" in message
    assert "python" in message
    # The config stays constructible — resolution is where it fails.
    config = JoinConfig.for_algorithm("QFCT", k=1, tau=0.1, backend="native")
    with pytest.raises(ConfigurationError):
        similarity_join(random_collection(random.Random(3), 6), config)
    monkeypatch.delenv("REPRO_NATIVE_DISABLE")
    reason = _native.native_unavailable_reason()
    assert reason is None or "REPRO_NATIVE_DISABLE" not in reason


def test_resolve_backend_errors_enumerate_availability():
    """An unknown backend names what IS usable here and why the missing
    ones are missing (the unavailable-native message is pinned by
    ``test_native_disable_env_is_dynamic``)."""
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_backend("cupy")
    message = str(excinfo.value)
    assert "python" in message
    for name in BACKEND_NAMES:
        assert name in message


def test_cli_accepts_native_backend_choice(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["join", "--help"])
    assert "native" in capsys.readouterr().out
