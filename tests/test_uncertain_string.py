"""Tests for repro.uncertain.string."""

import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.uncertain.parser import parse_uncertain
from repro.uncertain.string import UncertainString


@pytest.fixture
def mixed():
    # The paper's S3 from Table 1: A{C,G}A{C,G}AC with 0.5/0.5 pdfs.
    return parse_uncertain("A{(C,0.5),(G,0.5)}A{(C,0.5),(G,0.5)}AC")


class TestConstruction:
    def test_from_text(self):
        s = UncertainString.from_text("GATTACA")
        assert len(s) == 7
        assert s.is_certain
        assert s.world_count() == 1

    def test_from_mixed(self):
        s = UncertainString.from_mixed(["GG", {"A": 0.8, "T": 0.2}, "C"])
        assert len(s) == 4
        assert s.uncertain_indices == (2,)

    def test_rejects_non_positions(self):
        with pytest.raises(TypeError):
            UncertainString(["A"])  # type: ignore[list-item]


class TestSequenceProtocol:
    def test_int_indexing(self, mixed):
        assert mixed[0].top == "A"
        assert not mixed[1].is_certain

    def test_slice_returns_uncertain_string(self, mixed):
        head = mixed[:3]
        assert isinstance(head, UncertainString)
        assert len(head) == 3

    def test_substring_window(self, mixed):
        win = mixed.substring(2, 3)
        assert len(win) == 3
        assert win[0].top == "A"

    def test_substring_out_of_range(self, mixed):
        with pytest.raises(ValueError):
            mixed.substring(4, 5)

    def test_concatenation(self, mixed):
        joined = mixed + mixed
        assert len(joined) == 2 * len(mixed)
        assert joined.world_count() == mixed.world_count() ** 2


class TestUncertaintyStructure:
    def test_theta(self, mixed):
        assert mixed.theta == pytest.approx(2 / 6)

    def test_gamma(self, mixed):
        assert mixed.gamma == pytest.approx(2.0)

    def test_world_count(self, mixed):
        assert mixed.world_count() == 4

    def test_certain_string_gamma_is_one(self):
        assert UncertainString.from_text("AC").gamma == 1.0


class TestProbabilities:
    def test_instance_probability(self, mixed):
        assert mixed.instance_probability("ACAGAC") == pytest.approx(0.25)
        assert mixed.instance_probability("ATAGAC") == 0.0
        assert mixed.instance_probability("AC") == 0.0  # wrong length

    def test_instance_probabilities_sum_to_one(self, mixed):
        total = sum(
            mixed.instance_probability(w) for w in mixed.support_strings()
        )
        assert total == pytest.approx(1.0)

    def test_match_probability_window(self, mixed):
        # window [1..2] = {C,G} A
        assert mixed.match_probability("CA", 1) == pytest.approx(0.5)
        assert mixed.match_probability("GA", 1) == pytest.approx(0.5)
        assert mixed.match_probability("TA", 1) == 0.0

    def test_match_probability_out_of_range_is_zero(self, mixed):
        assert mixed.match_probability("ACC", 5) == 0.0
        assert mixed.match_probability("A", -1) == 0.0

    def test_agreement_probability_matches_enumeration(self, mixed):
        other = parse_uncertain("A{(C,0.7),(G,0.3)}AGAC")
        expected = sum(
            mixed.instance_probability(w) * other.instance_probability(w)
            for w in mixed.support_strings()
        )
        assert mixed.agreement_probability(other) == pytest.approx(expected)

    def test_agreement_probability_length_mismatch(self, mixed):
        assert mixed.agreement_probability(mixed[:3]) == 0.0

    def test_can_match(self, mixed):
        assert mixed.can_match("GAC", 3)
        assert not mixed.can_match("TTT", 0)


class TestInstances:
    def test_most_probable_instance(self):
        s = parse_uncertain("A{(C,0.7),(G,0.3)}T")
        text, prob = s.most_probable_instance()
        assert text == "ACT"
        assert prob == pytest.approx(0.7)

    def test_sample_is_valid_world(self, mixed):
        rng = random.Random(3)
        for _ in range(20):
            assert mixed.instance_probability(mixed.sample(rng)) > 0


class TestCharFrequencies:
    def test_char_count_bounds(self, mixed):
        # 'A': three certain occurrences, no uncertain ones.
        assert mixed.char_count_bounds("A") == (3, 3)
        # 'C': one certain + two uncertain positions.
        assert mixed.char_count_bounds("C") == (1, 3)
        # 'G': only at the two uncertain positions.
        assert mixed.char_count_bounds("G") == (0, 2)
        assert mixed.char_count_bounds("T") == (0, 0)

    def test_char_position_probs(self, mixed):
        assert mixed.char_position_probs("C") == [0.5, 0.5]
        assert mixed.char_position_probs("A") == []

    def test_support_alphabet(self, mixed):
        assert mixed.support_alphabet() == {"A", "C", "G"}


class TestProtocol:
    def test_equality_and_hash(self, mixed):
        clone = parse_uncertain("A{(C,0.5),(G,0.5)}A{(C,0.5),(G,0.5)}AC")
        assert mixed == clone
        assert hash(mixed) == hash(clone)

    def test_inequality(self, mixed):
        assert mixed != UncertainString.from_text("ACAGAC")

    def test_repr_contains_notation(self, mixed):
        assert "{(C,0.5),(G,0.5)}" in repr(mixed)

    def test_pickle_rehashes_in_the_loading_process(self, tmp_path):
        # ``str`` hashes are salted per process: a string hashed and
        # pickled under one seed must hash afresh where it is loaded.
        src = str(Path(__file__).resolve().parents[1] / "src")
        text = "A{(C,0.5),(G,0.5)}T"
        blob = tmp_path / "string.pickle"
        dump = (
            "import pickle, sys\n"
            "from repro.uncertain.parser import parse_uncertain\n"
            f"s = parse_uncertain({text!r})\n"
            "hash(s); s.agreement_table()\n"
            "open(sys.argv[1], 'wb').write(pickle.dumps(s))\n"
        )
        load = (
            "import pickle, sys\n"
            "from repro.uncertain.parser import parse_uncertain\n"
            "s = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            f"t = parse_uncertain({text!r})\n"
            "print(s == t, hash(s) == hash(t), t in {s})\n"
        )
        for seed, script in (("1", dump), ("2", load)):
            result = subprocess.run(
                [sys.executable, "-c", script, str(blob)],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": src},
                timeout=60,
            )
            assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True", "True", "True"]

    def test_pickle_ships_positions_only(self, mixed):
        hash(mixed)
        mixed.agreement_table()
        clone = pickle.loads(pickle.dumps(mixed))
        assert clone == mixed
        assert clone._hash is None and clone._agreement_table is None
