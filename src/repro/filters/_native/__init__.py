"""Compiled scalar kernels for the hot filters (optional ``native`` backend).

``cdfdp.c`` next to this module compiles the three hottest per-pair
kernels — the Theorem 4 CDF band DP, the banded edit distance it
short-circuits to, and the Section 5 frequency bounds — into one plain-C
shared library with **bit-for-bit** the reference kernels' floats (see
the C file's header and DESIGN.md §6j for why that holds). The library
is built by setuptools as an *optional* ``ext_module``: this package
always imports, and :func:`native_available` /
:func:`native_unavailable_reason` report whether (and why not) the
compiled kernels can actually run here.

The library is deliberately **not** a CPython extension module (no
``Python.h``): it is loaded with :mod:`ctypes`, which releases the GIL
around every call — concurrent serve threads verify candidates in
parallel inside the C kernels, which are pure and reentrant by
construction. The cost is per-call marshalling, paid once per *string*
instead of once per call: each :class:`UncertainString` flattens its
agreement table into three C-ready arrays (``offs``/``codes``/``probs``)
and each :class:`FrequencyProfile` its count distributions into
S1/S2/S3 planes, cached on the per-collection feature objects
(``StringFeatures._native_pack`` / ``FrequencyProfile._native_pack``)
so the join pays it once per indexed string. Packs pickle by value and
recompute their buffer addresses on rebuild, so spawn-mode worker
publication works unchanged.

``REPRO_NATIVE_DISABLE=1`` in the environment makes the backend report
unavailable even when the library is built — the CI fallback leg and
the no-toolchain story use this.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from array import array

from repro.filters.frequency import FrequencyProfile
from repro.uncertain.string import UncertainString

_Bounds = tuple[tuple[float, ...], tuple[float, ...]]

#: Must match REPRO_NATIVE_ABI in cdfdp.c; a library reporting anything
#: else is a stale build and is treated as not available.
_ABI_VERSION = 1

_lib: "ctypes.CDLL | None" = None
_load_error: str | None = None
_load_attempted = False
_LOAD_LOCK = threading.Lock()


def _try_load() -> "tuple[ctypes.CDLL | None, str | None]":
    """Locate, load, and type-check the compiled library (once)."""
    if array("i").itemsize != 4 or array("d").itemsize != 8:
        return None, (
            "platform array layouts are not 32-bit ints / 64-bit doubles"
        )
    here = os.path.dirname(os.path.abspath(__file__))
    candidates: list[str] = []
    for pattern in ("_cdfdp*.so", "_cdfdp*.pyd", "_cdfdp*.dylib"):
        candidates.extend(sorted(glob.glob(os.path.join(here, pattern))))
    if not candidates:
        return None, (
            "extension not built (no _cdfdp shared library in "
            "repro/filters/_native; build with "
            "`python setup.py build_ext --inplace`)"
        )
    path = candidates[0]
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        return None, f"could not load {path}: {exc}"
    try:
        lib.repro_abi_version.restype = ctypes.c_int32
        lib.repro_abi_version.argtypes = []
        abi = int(lib.repro_abi_version())
    except AttributeError:
        return None, f"{path} exports no repro_abi_version (stale build?)"
    if abi != _ABI_VERSION:
        return None, (
            f"{path} has kernel ABI {abi}, expected {_ABI_VERSION} "
            "(stale build; rebuild the extension)"
        )
    p, i32 = ctypes.c_void_p, ctypes.c_int32
    lib.repro_edit_banded.restype = i32
    lib.repro_edit_banded.argtypes = [p, i32, p, i32, i32]
    lib.repro_cdf_bounds.restype = i32
    lib.repro_cdf_bounds.argtypes = [
        p, p, p, i32, i32,  # left: offs, codes, probs, n, is_certain
        p, p, p, i32, i32,  # right
        i32, p, p,          # k, out_l, out_u
    ]
    lib.repro_frequency_bounds.restype = i32
    lib.repro_frequency_bounds.argtypes = [
        i32, i32, p, p, p, p, p, p,  # left: len, m, chars, certain, offs, S1-S3
        i32, i32, p, p, p, p, p, p,  # right
        i32, p,                      # k, out_upper
    ]
    return lib, None


def native_unavailable_reason() -> str | None:
    """``None`` when the compiled kernels can run, else a human reason.

    The ``REPRO_NATIVE_DISABLE`` override is consulted on every call
    (tests and the CI fallback leg toggle it at runtime); the load
    itself happens at most once per process.
    """
    disable = os.environ.get("REPRO_NATIVE_DISABLE", "")
    if disable not in ("", "0"):
        return "disabled by REPRO_NATIVE_DISABLE in the environment"
    global _lib, _load_error, _load_attempted
    if not _load_attempted:
        with _LOAD_LOCK:
            if not _load_attempted:
                _lib, _load_error = _try_load()
                _load_attempted = True
    return _load_error


def native_available() -> bool:
    """Whether the compiled ``native`` backend can actually run here."""
    return native_unavailable_reason() is None


def _require_lib() -> "ctypes.CDLL":
    reason = native_unavailable_reason()
    if reason is not None:
        raise RuntimeError(f"native kernels unavailable: {reason}")
    assert _lib is not None
    return _lib


# ----------------------------------------------------------------------
# Marshalling: per-string / per-profile packs
# ----------------------------------------------------------------------


def _rebuild_string_pack(
    offs: list[int],
    codes: list[int],
    probs: list[float],
    length: int,
    is_certain: bool,
) -> "_StringPack":
    return _StringPack(
        array("i", offs), array("i", codes), array("d", probs),
        length, is_certain,
    )


class _StringPack:
    """A string's agreement table flattened into C-ready arrays.

    ``offs[i]:offs[i+1]`` delimit position ``i``'s support in ``codes``
    (unicode code points) and ``probs`` — most-probable-first, the exact
    order the scalar DP's ``p1`` accumulation walks. A certain position
    is support size 1 with probability exactly 1.0. ``args`` is the
    ready-to-pass ctypes argument tuple (addresses are only valid for
    this pack's lifetime — the pack keeps the arrays alive).
    """

    __slots__ = ("offs", "codes", "probs", "length", "is_certain", "args")

    def __init__(
        self,
        offs: "array[int]",
        codes: "array[int]",
        probs: "array[float]",
        length: int,
        is_certain: bool,
    ) -> None:
        self.offs = offs
        self.codes = codes
        self.probs = probs
        self.length = length
        self.is_certain = is_certain
        self.args = (
            offs.buffer_info()[0],
            codes.buffer_info()[0],
            probs.buffer_info()[0],
            length,
            1 if is_certain else 0,
        )

    def __reduce__(self) -> "tuple[object, tuple[object, ...]]":
        # Raw buffer addresses are process-local: pickle the values and
        # re-derive fresh addresses on rebuild (spawn-mode workers).
        return (
            _rebuild_string_pack,
            (
                self.offs.tolist(),
                self.codes.tolist(),
                self.probs.tolist(),
                self.length,
                self.is_certain,
            ),
        )


def _build_string_pack(string: UncertainString) -> _StringPack:
    table = string.agreement_table()
    offs = [0]
    codes: list[int] = []
    probs: list[float] = []
    for entry in table:
        if type(entry) is str:
            codes.append(ord(entry))
            probs.append(1.0)
        else:
            chars, entry_probs, _pdf = entry  # type: ignore[misc]
            codes.extend(ord(char) for char in chars)
            probs.extend(entry_probs)
        offs.append(len(codes))
    return _StringPack(
        array("i", offs), array("i", codes), array("d", probs),
        len(table), string.is_certain,
    )


def _string_pack(
    string: UncertainString, features: object | None
) -> _StringPack:
    """The string's pack, cached on its features object when possible."""
    if features is not None:
        pack = getattr(features, "_native_pack", None)
        if pack is not None:
            return pack
        pack = _build_string_pack(string)
        try:
            features._native_pack = pack  # type: ignore[attr-defined]
        except AttributeError:
            # Feature objects without the cache slot stay transient.
            return pack
        return pack
    return _build_string_pack(string)


def _rebuild_profile_pack(
    length: int,
    chars: list[int],
    certain: list[int],
    offs: list[int],
    pmf: list[float],
    survival: list[float],
    tail: list[float],
) -> "_ProfilePack":
    return _ProfilePack(
        length, array("i", chars), array("i", certain), array("i", offs),
        array("d", pmf), array("d", survival), array("d", tail),
    )


class _ProfilePack:
    """A frequency profile's count distributions in C layout.

    ``chars`` is the ascending support alphabet (code points); per
    character ``i``, ``certain[i]`` is ``f^c`` and ``offs[i]:offs[i+1]``
    delimit its S1/S2/S3 rows in ``pmf``/``survival``/``tail`` — the
    identical floats of the cached :class:`CharCountDistribution`
    properties.
    """

    __slots__ = (
        "length", "chars", "certain", "offs", "pmf", "survival", "tail",
        "args",
    )

    def __init__(
        self,
        length: int,
        chars: "array[int]",
        certain: "array[int]",
        offs: "array[int]",
        pmf: "array[float]",
        survival: "array[float]",
        tail: "array[float]",
    ) -> None:
        self.length = length
        self.chars = chars
        self.certain = certain
        self.offs = offs
        self.pmf = pmf
        self.survival = survival
        self.tail = tail
        self.args = (
            length,
            len(chars),
            chars.buffer_info()[0],
            certain.buffer_info()[0],
            offs.buffer_info()[0],
            pmf.buffer_info()[0],
            survival.buffer_info()[0],
            tail.buffer_info()[0],
        )

    def __reduce__(self) -> "tuple[object, tuple[object, ...]]":
        return (
            _rebuild_profile_pack,
            (
                self.length,
                self.chars.tolist(),
                self.certain.tolist(),
                self.offs.tolist(),
                self.pmf.tolist(),
                self.survival.tolist(),
                self.tail.tolist(),
            ),
        )


def _build_profile_pack(profile: FrequencyProfile) -> _ProfilePack:
    chars: list[int] = []
    certain: list[int] = []
    offs = [0]
    pmf: list[float] = []
    survival: list[float] = []
    tail: list[float] = []
    for char in profile.sorted_chars:
        dist = profile.distribution(char)
        chars.append(ord(char))
        certain.append(dist.certain)
        pmf.extend(dist.pmf)
        survival.extend(dist.survival)
        tail.extend(dist.scaled_tail)
        offs.append(len(pmf))
    return _ProfilePack(
        profile.length, array("i", chars), array("i", certain),
        array("i", offs), array("d", pmf), array("d", survival),
        array("d", tail),
    )


def _profile_pack(profile: FrequencyProfile) -> _ProfilePack:
    pack = getattr(profile, "_native_pack", None)
    if pack is not None:
        return pack
    pack = _build_profile_pack(profile)
    try:
        profile._native_pack = pack
    except AttributeError:
        # Profile-like objects without the cache slot stay transient.
        return pack
    return pack


# ----------------------------------------------------------------------
# Kernel entry points
# ----------------------------------------------------------------------


def edit_banded_native(left: str, right: str, k: int) -> int:
    """Compiled :func:`repro.distance.edit.edit_distance_banded`."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    lib = _require_lib()
    left_codes = array("i", [ord(char) for char in left])
    right_codes = array("i", [ord(char) for char in right])
    result = int(
        lib.repro_edit_banded(
            left_codes.buffer_info()[0],
            len(left_codes),
            right_codes.buffer_info()[0],
            len(right_codes),
            k,
        )
    )
    if result < 0:
        raise MemoryError("native banded edit-distance allocation failed")
    return result


def cdf_bounds_native(
    left: UncertainString,
    right: UncertainString,
    k: int,
    left_features: object | None = None,
    right_features: object | None = None,
) -> _Bounds:
    """Compiled :func:`repro.filters.cdf.cdf_bounds`, bit-identical."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    lib = _require_lib()
    left_pack = _string_pack(left, left_features)
    right_pack = _string_pack(right, right_features)
    k1 = k + 1
    out = array("d", bytes(16 * k1))
    address = out.buffer_info()[0]
    rc = int(
        lib.repro_cdf_bounds(
            *left_pack.args, *right_pack.args, k, address, address + 8 * k1
        )
    )
    if rc == -1:
        raise MemoryError("native CDF kernel allocation failed")
    if rc != 0:
        raise ValueError(f"native CDF kernel rejected the call (rc={rc})")
    return tuple(out[:k1]), tuple(out[k1:])


def frequency_bounds_native(
    left: FrequencyProfile,
    right: FrequencyProfile,
    k: int,
) -> tuple[int, float | None]:
    """Compiled scalar frequency bounds, bit-identical to the reference.

    Returns ``(Lemma 6 lower bound, Theorem 3 upper bound)``; the upper
    bound is ``None`` on a Lemma 6 reject, matching the reference
    scalar path's short-circuit
    (:func:`repro.filters.frequency.frequency_bounds`).
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    lib = _require_lib()
    left_pack = _profile_pack(left)
    right_pack = _profile_pack(right)
    out = array("d", (0.0,))
    lower_fd = int(
        lib.repro_frequency_bounds(
            *left_pack.args, *right_pack.args, k, out.buffer_info()[0]
        )
    )
    if lower_fd < 0:
        raise ValueError(
            f"native frequency kernel rejected the call (rc={lower_fd})"
        )
    if lower_fd > k:
        return lower_fd, None
    return lower_fd, out[0]
