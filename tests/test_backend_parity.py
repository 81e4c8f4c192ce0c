"""Backend parity: every kernel backend matches the python reference.

Each backend usable in this interpreter (``python`` always, ``native``
when the C extension is built) must reproduce the golden driver output
byte-for-byte and route every candidate through the same stage
decisions, so the pipeline counters match the reference exactly. The
bit-level kernel sweeps of the compiled backend live in
``tests/test_native_backend.py``.
"""

import random
from dataclasses import replace

import pytest

from repro.core.backends import (
    BACKEND_NAMES,
    PythonBackend,
    available_backends,
    resolve_backend,
)
from repro.core.config import ConfigurationError, JoinConfig
from repro.core.join import similarity_join

from tests import equivalence_spec as spec
from tests.helpers import random_collection


@pytest.fixture(scope="module")
def golden_outputs():
    import json
    from pathlib import Path

    return json.loads(
        (Path(__file__).parent / "data" / "golden_driver_outputs.json").read_text()
    )


@pytest.mark.parametrize(
    "key,config", list(spec.config_grid()), ids=[k for k, _ in spec.config_grid()]
)
def test_backends_reproduce_golden_join(key, config, golden_outputs):
    collection = spec.self_collection()
    for name in available_backends():
        outcome = similarity_join(collection, replace(config, backend=name))
        assert spec.encode_pairs(outcome.pairs) == golden_outputs[key]["join"], name


@pytest.mark.parametrize("algorithm", ["QFCT", "FCT"])
def test_backends_agree_on_statistics(algorithm):
    """Same pairs AND the same filter counters under every backend."""
    collection = random_collection(
        random.Random(9), 60, length_range=(4, 10), theta=0.3
    )
    config = JoinConfig.for_algorithm(
        algorithm, k=2, tau=0.1, q=2, report_probabilities=True
    )
    reference = similarity_join(collection, replace(config, backend="python"))
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
    for name in available_backends():
        outcome = similarity_join(collection, replace(config, backend=name))
        assert spec.encode_pairs(outcome.pairs) == spec.encode_pairs(
            reference.pairs
        ), name
        for field in fields:
            assert getattr(outcome.stats, field) == getattr(
                reference.stats, field
            ), (name, field)
        assert dict(outcome.stats.stage_counters) == dict(
            reference.stats.stage_counters
        ), name


def test_backend_names_and_resolution():
    assert set(BACKEND_NAMES) == {"python", "native"}
    assert isinstance(resolve_backend("python"), PythonBackend)
    with pytest.raises(ConfigurationError):
        resolve_backend("cupy")


def test_config_rejects_unknown_backend():
    # "numpy" names the retired vectorized backend: it is as unknown
    # as any other name now.
    for name in ("fortran", "numpy"):
        with pytest.raises(ConfigurationError) as excinfo:
            JoinConfig.for_algorithm("QFCT", k=1, tau=0.1, backend=name)
        message = str(excinfo.value)
        assert repr(name) in message
        for backend in BACKEND_NAMES:
            assert backend in message
