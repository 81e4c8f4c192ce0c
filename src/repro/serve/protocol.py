"""The serve layer's JSON wire protocol.

Requests are JSON objects; responses are JSON objects with
``sort_keys`` serialization so a response is a deterministic byte
string — the byte-identity tests compare served answers against the
offline drivers through this encoding.

Every failure is a *typed* error document, never a hang and never a
bare traceback::

    {"error": {"type": "overloaded", "detail": "...", "retry_after": 0.5}}

``type`` comes from a closed vocabulary (:data:`ERROR_STATUS` maps each
to its HTTP status), so clients can switch on it. A
``deadline_exceeded`` error additionally carries the partial results
accumulated before the budget ran out, with ``"partial": true``.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.core.errors import ConfigurationError
from repro.core.results import SearchMatch

__all__ = [
    "ERROR_STATUS",
    "encode_document",
    "error_document",
    "match_document",
    "parse_request",
]

#: Error ``type`` → HTTP status. The vocabulary is closed: the handler
#: only ever emits these, and tests assert against it.
ERROR_STATUS: dict[str, int] = {
    "bad_request": 400,
    "not_found": 404,
    "overloaded": 503,
    "draining": 503,
    "deadline_exceeded": 504,
    "reload_failed": 500,
    "internal_error": 500,
}


def encode_document(document: dict[str, Any]) -> bytes:
    """The canonical wire encoding (sorted keys, compact separators).

    Deterministic by construction: two structurally equal documents
    always encode to the same bytes, which is what the
    byte-identity-under-faults tests compare.
    """
    return json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def error_document(
    error_type: str, detail: str, **extra: Any
) -> dict[str, Any]:
    """A typed error response body.

    ``error_type`` must come from :data:`ERROR_STATUS`; ``extra`` fields
    (``retry_after``, partial ``matches``, …) merge into the ``error``
    object.
    """
    if error_type not in ERROR_STATUS:
        raise ValueError(f"unknown error type {error_type!r}")
    payload: dict[str, Any] = {"type": error_type, "detail": detail}
    payload.update(extra)
    return {"error": payload}


def match_document(match: SearchMatch) -> dict[str, Any]:
    """One search hit as its wire form (stable field set)."""
    return {"id": match.string_id, "probability": match.probability}


def _require_object(document: Any) -> dict[str, Any]:
    if not isinstance(document, dict):
        raise ConfigurationError(
            f"request body must be a JSON object, got {type(document).__name__}"
        )
    return document


def _float_field(
    document: dict[str, Any], name: str, default: "float | None"
) -> "float | None":
    value = document.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"request field {name!r} must be a number, got {value!r}"
        )
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    # json.loads accepts NaN/Infinity; a NaN timeout would never expire.
    if not math.isfinite(number):
        raise ConfigurationError(
            f"request field {name!r} must be a finite number, got {value!r}"
        )
    return number


def _int_field(
    document: dict[str, Any], name: str, default: "int | None"
) -> "int | None":
    value = document.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"request field {name!r} must be an integer, got {value!r}"
        )
    return value


def _string_field(document: dict[str, Any], name: str) -> str:
    value = document.get(name)
    if not isinstance(value, str) or not value:
        raise ConfigurationError(
            f"request field {name!r} must be a non-empty string"
        )
    return value


def _optional_string_field(document: dict[str, Any], name: str) -> "str | None":
    if document.get(name) is None:
        return None
    return _string_field(document, name)


_KNOWN_FIELDS = {
    "search": {"query", "tau", "k", "timeout"},
    "topk": {"query", "count", "k", "timeout"},
    "mini-join": {"strings", "tau", "k", "timeout"},
    "admin/reload": {"collection", "store"},
}


def parse_request(endpoint: str, body: bytes) -> dict[str, Any]:
    """Decode and validate a request body for ``endpoint``.

    Returns a normalized field dict (``query``/``strings`` stay textual
    — the service parses uncertain-string notation so syntax errors are
    reported per field). An ``admin/reload`` body may be empty, which
    reads as ``{}``: reload from the current paths. Raises
    :class:`~repro.core.errors.ConfigurationError` for malformed JSON,
    non-object bodies, unknown fields, and ill-typed values; the HTTP
    layer maps that to a ``bad_request`` 400.
    """
    if endpoint == "admin/reload" and not body:
        body = b"{}"
    try:
        decoded = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"request body is not valid JSON: {exc}") from exc
    document = _require_object(decoded)
    known = _KNOWN_FIELDS[endpoint]
    unknown = sorted(set(document) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown request field(s) {unknown} for {endpoint!r}; "
            f"expected a subset of {sorted(known)}"
        )
    if endpoint == "admin/reload":
        return {
            "collection": _optional_string_field(document, "collection"),
            "store": _optional_string_field(document, "store"),
        }
    fields: dict[str, Any] = {
        "timeout": _float_field(document, "timeout", None),
        "k": _int_field(document, "k", None),
    }
    if endpoint in ("search", "mini-join"):
        fields["tau"] = _float_field(document, "tau", None)
    if endpoint in ("search", "topk"):
        fields["query"] = _string_field(document, "query")
    if endpoint == "topk":
        count = _int_field(document, "count", None)
        if count is None or count <= 0:
            raise ConfigurationError(
                f"request field 'count' must be a positive integer, got {count!r}"
            )
        fields["count"] = count
    if endpoint == "mini-join":
        strings = document.get("strings")
        if (
            not isinstance(strings, list)
            or not strings
            or not all(isinstance(s, str) and s for s in strings)
        ):
            raise ConfigurationError(
                "request field 'strings' must be a non-empty list of "
                "non-empty strings"
            )
        fields["strings"] = list(strings)
    if fields["timeout"] is not None and fields["timeout"] <= 0:
        raise ConfigurationError(
            f"request field 'timeout' must be positive, got {fields['timeout']}"
        )
    if fields["k"] is not None and fields["k"] < 0:
        raise ConfigurationError(
            f"request field 'k' must be non-negative, got {fields['k']}"
        )
    return fields
