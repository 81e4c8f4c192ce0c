"""Tests for the textual uncertain-string format."""

import pytest

from repro.uncertain.parser import (
    UncertainStringSyntaxError,
    format_uncertain,
    parse_normalized,
    parse_uncertain,
)
from repro.uncertain.position import UncertainPosition
from repro.uncertain.string import UncertainString

from tests.helpers import ONE_MINUS_ULP


class TestParse:
    def test_plain_text(self):
        s = parse_uncertain("GATTACA")
        assert s.is_certain
        assert s.most_probable_instance()[0] == "GATTACA"

    def test_single_pdf_block(self):
        s = parse_uncertain("A{(C,0.5),(G,0.5)}T")
        assert len(s) == 3
        assert s[1].probability("C") == pytest.approx(0.5)

    def test_paper_table1_string(self):
        # S2 from Table 1: AA{(G,0.9),(T,0.1)}G{(C,0.3),(G,0.2),(T,0.5)}C
        s = parse_uncertain("AA{(G,0.9),(T,0.1)}G{(C,0.3),(G,0.2),(T,0.5)}C")
        assert len(s) == 6
        assert s[2].probability("G") == pytest.approx(0.9)
        assert s[4].probability("T") == pytest.approx(0.5)

    def test_whitespace_in_probability(self):
        s = parse_uncertain("{(A, 0.5),(C, 0.5)}")
        assert s[0].probability("A") == pytest.approx(0.5)

    def test_scientific_notation(self):
        s = parse_uncertain("{(A,5e-1),(C,0.5)}")
        assert s[0].probability("A") == pytest.approx(0.5)

    def test_space_as_alternative_char(self):
        s = parse_uncertain("a{( ,0.5),(b,0.5)}c")
        assert s[1].probability(" ") == pytest.approx(0.5)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "A{(C,0.5)",        # unterminated block
            "A}C",              # unmatched close
            "A{}C",             # empty block
            "A{(C,0.5),(G,0.6)}",   # bad sum
            "A{(CG,1.0)}",      # multi-char alternative
            "A{(C,x)}",         # bad probability
            "A{(C0.5)}",        # missing comma
        ],
    )
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(UncertainStringSyntaxError):
            parse_uncertain(text)

    @pytest.mark.parametrize(
        "text",
        [
            "A{(C,0.5)",
            "A}C",
            "A{}C",
            "A{(C,0.5),(G,0.6)}",
            "A{(CG,1.0)}",
            "A{(C,x)}",
            "A{(C0.5)}",
            "A{(C,0.5),(C,0.5)}",   # duplicate alternative
            "A{(C,-0.5),(G,1.5)}",  # negative probability
            "A{(C,nan),(G,0.5)}",   # non-finite probability
        ],
    )
    def test_parse_normalized_keeps_every_check(self, text):
        with pytest.raises(UncertainStringSyntaxError):
            parse_normalized(text)

    def test_error_reports_offset(self):
        with pytest.raises(UncertainStringSyntaxError) as excinfo:
            parse_uncertain("AC}T")
        assert excinfo.value.index == 2


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "GATTACA",
            "A{(C,0.5),(G,0.5)}T",
            "{(A,0.8),(C,0.2)}{(G,0.9),(T,0.1)}",
            "AA{(G,0.9),(T,0.1)}G{(C,0.3),(G,0.2),(T,0.5)}C",
        ],
    )
    def test_parse_format_parse(self, text):
        once = parse_uncertain(text)
        again = parse_uncertain(format_uncertain(once))
        assert once == again

    def test_format_certain_is_plain_text(self):
        assert format_uncertain(UncertainString.from_text("abc")) == "abc"


class TestParseNormalized:
    def test_keeps_floats_verbatim(self):
        # 0.7 + 0.2 + 0.1 sums to 1 - 1 ulp: parse_uncertain divides by
        # the sum and moves every float; parse_normalized keeps them.
        text = "{(a,0.7),(b,0.2),(c,0.1)}"
        assert parse_normalized(text)[0].probs == (0.7, 0.2, 0.1)
        assert parse_uncertain(text)[0].probs != (0.7, 0.2, 0.1)

    def test_full_precision_round_trip_is_exact(self):
        once = parse_uncertain("A{(C,0.3),(G,0.2),(T,0.5)}{(x,0.7),(y,0.2),(z,0.1)}")
        text = format_uncertain(once, precision=17)
        assert parse_normalized(text) == once
        assert format_uncertain(parse_normalized(text), precision=17) == text

    def test_weighted_single_alternative_round_trips(self):
        # A single alternative below 1.0 keeps its block, so it reads
        # back at its own float, not at 1.0.
        once = UncertainString(
            [
                UncertainPosition.from_normalized([("a", ONE_MINUS_ULP)]),
                UncertainPosition({"b": 0.5, "c": 0.5}),
                UncertainPosition.certain("d"),
            ]
        )
        text = format_uncertain(once, precision=17)
        assert text == "{(a,0.99999999999999989)}{(b,0.5),(c,0.5)}d"
        assert parse_normalized(text) == once
        # A lone alternative parse_uncertain reads is exactly 1.0: bare.
        assert format_uncertain(parse_uncertain("{(a,1)}b")) == "ab"
