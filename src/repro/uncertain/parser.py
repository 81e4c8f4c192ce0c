"""Textual format for uncertain strings.

The format follows the paper's notation:

    ``A{(C,0.5),(G,0.5)}A{(C,0.5),(G,0.5)}AC``

Plain characters are certain positions; a ``{(c1,p1),(c2,p2),...}`` block is
an uncertain position. :func:`format_uncertain` round-trips with
:func:`parse_uncertain` (probabilities rendered with enough digits to
reconstruct the distribution exactly for typical inputs).
"""

from __future__ import annotations

from typing import Callable

from repro.uncertain.position import UncertainPosition
from repro.uncertain.string import UncertainString


class UncertainStringSyntaxError(ValueError):
    """Raised when the textual uncertain-string format is malformed."""

    def __init__(self, text: str, index: int, message: str) -> None:
        super().__init__(f"at offset {index} in {text!r}: {message}")
        self.text = text
        self.index = index


def parse_uncertain(text: str) -> UncertainString:
    """Parse the paper's ``A{(C,0.5),(G,0.5)}T`` notation.

    Each pdf is normalized by its sum, so inputs rounded to a few digits
    still make exact distributions.
    """
    return _parse(text, UncertainPosition)


def parse_normalized(text: str) -> UncertainString:
    """Parse text whose pdfs are already normalized, floats verbatim.

    For strings written by :func:`format_uncertain` at 17 significant
    digits (index stores): the same syntax and validity checks as
    :func:`parse_uncertain`, but no second division by the sum, so the
    parsed floats are exactly the ones that were formatted.
    """
    return _parse(text, UncertainPosition.from_normalized)


def _parse(
    text: str, position: Callable[[list[tuple[str, float]]], UncertainPosition]
) -> UncertainString:
    positions: list[UncertainPosition] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "}":
            raise UncertainStringSyntaxError(text, i, "unmatched '}'")
        if ch != "{":
            positions.append(UncertainPosition.certain(ch))
            i += 1
            continue
        closing = text.find("}", i + 1)
        if closing == -1:
            raise UncertainStringSyntaxError(text, i, "unterminated '{'")
        body = text[i + 1 : closing]
        positions.append(_parse_pdf_block(text, i + 1, body, position))
        i = closing + 1
    return UncertainString(positions)


def _parse_pdf_block(
    text: str,
    offset: int,
    body: str,
    position: Callable[[list[tuple[str, float]]], UncertainPosition],
) -> UncertainPosition:
    """Parse the interior of one ``{...}`` block into a position."""
    alternatives: list[tuple[str, float]] = []
    i = 0
    n = len(body)
    while i < n:
        if body[i] == ",":
            i += 1
            continue
        if body[i] != "(":
            raise UncertainStringSyntaxError(text, offset + i, "expected '('")
        closing = body.find(")", i + 1)
        if closing == -1:
            raise UncertainStringSyntaxError(text, offset + i, "unterminated '('")
        pair = body[i + 1 : closing]
        comma = pair.find(",")
        if comma == -1:
            raise UncertainStringSyntaxError(
                text, offset + i, f"expected '(char,prob)', got '({pair})'"
            )
        char = pair[:comma]
        prob_text = pair[comma + 1 :].strip()
        if len(char) != 1:
            raise UncertainStringSyntaxError(
                text, offset + i, f"alternative {char!r} is not a single character"
            )
        try:
            prob = float(prob_text)
        except ValueError as exc:
            raise UncertainStringSyntaxError(
                text, offset + i, f"bad probability {prob_text!r}"
            ) from exc
        alternatives.append((char, prob))
        i = closing + 1
    if not alternatives:
        raise UncertainStringSyntaxError(text, offset, "empty pdf block")
    try:
        return position(alternatives)
    except ValueError as exc:
        raise UncertainStringSyntaxError(text, offset, str(exc)) from exc


def format_uncertain(string: UncertainString, precision: int = 6) -> str:
    """Render ``string`` back into the ``A{(C,0.5),(G,0.5)}T`` notation.

    A position is written bare only when ``probs == (1.0,)``; a single
    alternative below 1.0 (kept verbatim by
    :meth:`UncertainPosition.from_normalized`) keeps its block, so
    :func:`parse_normalized` reads back the float it was given.
    """
    parts: list[str] = []
    for pos in string:
        if pos.probs == (1.0,):
            parts.append(pos.top)
        else:
            body = ",".join(f"({c},{p:.{precision}g})" for c, p in pos.items())
            parts.append("{" + body + "}")
    return "".join(parts)
