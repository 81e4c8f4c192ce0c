"""Tests for the synthetic dataset generators and uncertainty injection."""

import random

import pytest

from repro.core.errors import ConfigurationError, DatasetRecordError
from repro.datasets.loader import (
    LoadReport,
    iter_collection,
    load_collection,
    save_collection,
)
from repro.datasets.names import LENGTH_RANGE as NAME_RANGE, generate_author_names
from repro.datasets.presets import dblp_like_collection, protein_like_collection
from repro.datasets.protein import (
    LENGTH_RANGE as PROTEIN_RANGE,
    generate_protein_strings,
)
from repro.datasets.uncertainty import inject_uncertainty, make_uncertain_collection
from repro.uncertain.alphabet import LOWERCASE27, PROTEIN22
from repro.uncertain.parser import format_uncertain


class TestNameGenerator:
    def test_lengths_within_paper_range(self):
        names = generate_author_names(200, rng=0)
        lo, hi = NAME_RANGE
        assert all(lo <= len(name) <= hi + 4 for name in names)

    def test_alphabet_is_lowercase27(self):
        for name in generate_author_names(100, rng=1):
            LOWERCASE27.validate_text(name)

    def test_deterministic_with_seed(self):
        assert generate_author_names(10, rng=5) == generate_author_names(10, rng=5)

    def test_mean_length_near_paper_value(self):
        names = generate_author_names(500, rng=2)
        mean = sum(len(n) for n in names) / len(names)
        assert 15 <= mean <= 24  # paper reports ~19


class TestProteinGenerator:
    def test_lengths_uniform_range(self):
        strings = generate_protein_strings(200, rng=0)
        lo, hi = PROTEIN_RANGE
        assert all(lo <= len(s) <= hi for s in strings)

    def test_alphabet(self):
        for s in generate_protein_strings(50, rng=1):
            PROTEIN22.validate_text(s)

    def test_composition_roughly_matches(self):
        text = "".join(generate_protein_strings(400, rng=3))
        leucine = text.count("L") / len(text)
        assert 0.06 <= leucine <= 0.14  # target 0.10


class TestInjection:
    def test_theta_controls_uncertain_fraction(self):
        rng = random.Random(0)
        text = generate_author_names(1, rng=rng)[0]
        s = inject_uncertainty(text, theta=0.3, gamma=5, alphabet=LOWERCASE27, rng=rng)
        expected = -(-0.3 * len(text) // 1)  # ceil
        assert len(s.uncertain_indices) == int(expected)

    def test_theta_zero_is_deterministic(self):
        s = inject_uncertainty("hello world", 0.0, 5, LOWERCASE27, rng=1)
        assert s.is_certain

    def test_original_character_stays_in_support(self):
        rng = random.Random(4)
        text = "protein string sample"
        s = inject_uncertainty(text, 0.5, 5, LOWERCASE27, rng=rng)
        for i, ch in enumerate(text):
            assert s[i].probability(ch) > 0.0

    def test_original_character_is_modal(self):
        rng = random.Random(5)
        text = "some author name here"
        s = inject_uncertainty(text, 0.4, 5, LOWERCASE27, rng=rng)
        modal_hits = sum(
            1 for i, ch in enumerate(text) if i in s.uncertain_indices and s[i].top == ch
        )
        assert modal_hits >= len(s.uncertain_indices) * 0.7

    def test_gamma_close_to_target(self):
        rng = random.Random(6)
        strings = generate_author_names(30, rng=rng)
        collection = make_uncertain_collection(
            strings, theta=0.3, gamma=5, alphabet=LOWERCASE27, rng=rng
        )
        gammas = [s.gamma for s in collection if s.uncertain_indices]
        mean_gamma = sum(gammas) / len(gammas)
        assert 3.0 <= mean_gamma <= 6.0

    def test_max_uncertain_positions_cap(self):
        rng = random.Random(7)
        strings = generate_author_names(20, rng=rng)
        collection = make_uncertain_collection(
            strings, 0.5, 5, LOWERCASE27, rng=rng, max_uncertain_positions=8
        )
        assert all(len(s.uncertain_indices) <= 8 for s in collection)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            inject_uncertainty("abc", -0.1, 5, LOWERCASE27)
        with pytest.raises(ValueError):
            inject_uncertainty("abc", 0.2, 1, LOWERCASE27)


class TestPresets:
    def test_dblp_like_defaults(self):
        collection = dblp_like_collection(20, rng=0)
        assert len(collection) == 20
        assert any(not s.is_certain for s in collection)

    def test_protein_like_defaults(self):
        collection = protein_like_collection(20, rng=0)
        assert len(collection) == 20
        lo, hi = PROTEIN_RANGE
        assert all(lo <= len(s) <= hi for s in collection)


class TestLoader:
    def test_round_trip(self, tmp_path):
        collection = dblp_like_collection(10, rng=3)
        path = tmp_path / "collection.txt"
        save_collection(collection, path)
        loaded = load_collection(path)
        assert len(loaded) == len(collection)
        for original, again in zip(collection, loaded):
            assert len(original) == len(again)
            for pos_a, pos_b in zip(original, again):
                assert pos_a.chars == pos_b.chars
                for char in pos_a.chars:
                    assert pos_a.probability(char) == pytest.approx(
                        pos_b.probability(char), abs=1e-6
                    )

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\nACGT\n")
        loaded = load_collection(path)
        assert len(loaded) == 1


@pytest.fixture
def mixed_file(tmp_path):
    # Records 2 and 4 are malformed (unterminated block, probability
    # leak); 1, 3, and 5 parse.
    path = tmp_path / "mixed.txt"
    path.write_text(
        "ACGT\n"
        "A{(C,0.5)\n"
        "A{(C,0.5),(G,0.5)}T\n"
        "A{(C,0.9),(G,0.9)}\n"
        "GGTA\n"
    )
    return path


class TestLoaderOnError:
    def test_raise_is_the_default_and_aborts_on_first(self, mixed_file):
        with pytest.raises(DatasetRecordError) as excinfo:
            load_collection(mixed_file)
        assert excinfo.value.record == 2

    def test_skip_drops_bad_records(self, mixed_file):
        loaded = load_collection(mixed_file, on_error="skip")
        assert len(loaded) == 3

    def test_collect_returns_strings_and_errors(self, mixed_file):
        report = load_collection(mixed_file, on_error="collect")
        assert isinstance(report, LoadReport)
        assert len(report) == 3
        assert [error.record for error in report.errors] == [2, 4]
        for error in report.errors:
            assert error.path == str(mixed_file)
            assert isinstance(error.column, int)

    def test_collect_on_clean_file_has_no_errors(self, tmp_path):
        path = tmp_path / "clean.txt"
        save_collection(dblp_like_collection(5, rng=1), path)
        report = load_collection(path, on_error="collect")
        assert len(report) == 5
        assert report.errors == []

    def test_unknown_mode_rejected(self, mixed_file):
        with pytest.raises(ConfigurationError):
            load_collection(mixed_file, on_error="ignore")


class TestIterCollectionParity:
    """The streaming path must agree with the list path record-for-record."""

    @staticmethod
    def canonical(strings):
        return [format_uncertain(s, precision=17) for s in strings]

    def test_clean_file_matches_load(self, tmp_path):
        path = tmp_path / "clean.txt"
        save_collection(dblp_like_collection(12, rng=9), path)
        assert self.canonical(iter_collection(path)) == self.canonical(
            load_collection(path)
        )

    def test_raise_mode_matches_load(self, mixed_file):
        with pytest.raises(DatasetRecordError) as excinfo:
            list(iter_collection(mixed_file))
        assert excinfo.value.record == 2

    def test_skip_mode_matches_load(self, mixed_file):
        assert self.canonical(
            iter_collection(mixed_file, on_error="skip")
        ) == self.canonical(load_collection(mixed_file, on_error="skip"))

    def test_collect_mode_matches_load_report(self, mixed_file):
        report = load_collection(mixed_file, on_error="collect")
        errors = []
        strings = list(
            iter_collection(mixed_file, on_error="collect", errors=errors)
        )
        assert self.canonical(strings) == self.canonical(report.strings)
        assert [
            (e.path, e.record, e.column) for e in errors
        ] == [(e.path, e.record, e.column) for e in report.errors]

    def test_unknown_mode_rejected(self, mixed_file):
        with pytest.raises(ConfigurationError):
            list(iter_collection(mixed_file, on_error="ignore"))

    def test_is_lazy(self, mixed_file):
        # The generator must not touch the file until iterated: record 2
        # is malformed, so an eager parse would raise at call time.
        iterator = iter_collection(mixed_file)
        assert next(iterator) is not None
