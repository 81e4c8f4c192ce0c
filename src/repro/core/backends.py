"""Execution-backend dispatch for the hot filter kernels.

A backend supplies the two hot filter kernels — Theorem 4 CDF bounds
and the Section 5 frequency bounds — that the engine's per-candidate
refine loop calls once per (R, S) pair (DESIGN.md §6f). Two backends
exist:

``python``
    The pinned reference: exactly the floats every golden fixture was
    frozen against, and the fallback wherever no C toolchain is
    available.

``native``
    Compiled C kernels (:mod:`repro.filters._native`), bit-identical to
    the reference by construction (same IEEE-754 operation order, same
    libm) and enforced by ``tests/test_native_backend.py``. Optional:
    available only when the C extension was built (and not disabled via
    ``REPRO_NATIVE_DISABLE``); selecting it otherwise raises
    :class:`~repro.core.errors.ConfigurationError` naming the reason.

Backends are resolved from :attr:`JoinConfig.backend
<repro.core.config.JoinConfig.backend>` by :func:`resolve_backend`.
Because all backends produce byte-identical results, the backend name
is *not* part of the checkpoint fingerprint
(:mod:`repro.core.parallel`) — a run checkpointed under one backend may
resume under another.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.errors import ConfigurationError
from repro.filters import _native
from repro.filters.cdf import cdf_bounds
from repro.filters.frequency import FrequencyProfile, frequency_bounds
from repro.uncertain.string import UncertainString

_Bounds = tuple[tuple[float, ...], tuple[float, ...]]

BACKEND_NAMES: tuple[str, ...] = ("python", "native")


class KernelBackend(Protocol):
    """The kernel surface a backend must provide."""

    name: str

    def cdf_bounds(
        self,
        left: UncertainString,
        right: UncertainString,
        k: int,
        left_features: object | None = None,
        right_features: object | None = None,
    ) -> _Bounds: ...

    def frequency_bounds(
        self,
        left: FrequencyProfile,
        right: FrequencyProfile,
        k: int,
    ) -> tuple[int, float | None]: ...


class PythonBackend:
    """Reference backend: the pure-python scalar kernels."""

    name = "python"

    def cdf_bounds(
        self,
        left: UncertainString,
        right: UncertainString,
        k: int,
        left_features: object | None = None,
        right_features: object | None = None,
    ) -> _Bounds:
        result: _Bounds = cdf_bounds(
            left, right, k, left_features, right_features
        )
        return result

    def frequency_bounds(
        self,
        left: FrequencyProfile,
        right: FrequencyProfile,
        k: int,
    ) -> tuple[int, float | None]:
        result: tuple[int, float | None] = frequency_bounds(left, right, k)
        return result


class NativeBackend:
    """Compiled-C backend: the same scalar kernels, bit-identical."""

    name = "native"

    def cdf_bounds(
        self,
        left: UncertainString,
        right: UncertainString,
        k: int,
        left_features: object | None = None,
        right_features: object | None = None,
    ) -> _Bounds:
        result: _Bounds = _native.cdf_bounds_native(
            left, right, k, left_features, right_features
        )
        return result

    def frequency_bounds(
        self,
        left: FrequencyProfile,
        right: FrequencyProfile,
        k: int,
    ) -> tuple[int, float | None]:
        result: tuple[int, float | None] = _native.frequency_bounds_native(
            left, right, k
        )
        return result


def backend_availability() -> dict[str, str | None]:
    """Per-backend availability: name → ``None`` (usable) or the reason
    it is not.

    The source of truth for error messages, the CLI, and the benchmark
    suite document (so a bench JSON's ``skipped_kernels`` is
    attributable without rerunning anything).
    """
    native_reason: str | None = _native.native_unavailable_reason()
    return {"python": None, "native": native_reason}


def available_backends() -> tuple[str, ...]:
    """Backend names usable in this interpreter (python always is)."""
    availability = backend_availability()
    return tuple(
        name for name in BACKEND_NAMES if availability[name] is None
    )


def resolve_backend(name: str) -> KernelBackend:
    """The :class:`KernelBackend` for a validated config ``backend`` name.

    Raises :class:`~repro.core.errors.ConfigurationError` for unknown
    names and for optional backends that cannot run in this
    interpreter; either way the message enumerates which backends *are*
    available here and why the missing ones are missing.
    """
    if name == "python":
        return PythonBackend()
    availability = backend_availability()
    usable = ", ".join(
        backend for backend in BACKEND_NAMES if availability[backend] is None
    )
    if name == "native":
        reason = availability[name]
        if reason is not None:
            raise ConfigurationError(
                f"backend {name!r} is not available: {reason}. "
                f"Backends available in this interpreter: {usable}."
            )
        return NativeBackend()
    missing = "; ".join(
        f"{backend}: {reason}"
        for backend, reason in availability.items()
        if reason is not None
    )
    detail = f" (unavailable here — {missing})" if missing else ""
    raise ConfigurationError(
        f"unknown backend {name!r}; choose from {sorted(BACKEND_NAMES)}. "
        f"Backends available in this interpreter: {usable}{detail}."
    )
