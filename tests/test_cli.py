"""Tests for the repro-join command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.datasets.loader import load_collection


@pytest.fixture
def collection_file(tmp_path):
    path = tmp_path / "names.txt"
    assert main(
        ["gen", "--kind", "dblp", "--count", "25", "--seed", "3", "-o", str(path)]
    ) == 0
    return path


class TestGen:
    def test_writes_collection(self, collection_file):
        collection = load_collection(collection_file)
        assert len(collection) == 25

    def test_protein_kind(self, tmp_path):
        path = tmp_path / "p.txt"
        assert main(
            ["gen", "--kind", "protein", "--count", "10", "--theta", "0.1",
             "-o", str(path)]
        ) == 0
        assert len(load_collection(path)) == 10


class TestJoin:
    def test_join_outputs_pairs(self, collection_file, capsys):
        assert main(
            ["join", str(collection_file), "-k", "2", "--tau", "0.1"]
        ) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        for line in lines:
            left, right = line.split("\t")
            assert int(left) < int(right)

    def test_join_with_probabilities(self, collection_file, capsys):
        assert main(
            ["join", str(collection_file), "-k", "2", "--tau", "0.1",
             "--probabilities"]
        ) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        for line in lines:
            parts = line.split("\t")
            assert len(parts) == 3
            assert 0.1 < float(parts[2]) <= 1.0

    def test_algorithm_variants_agree(self, collection_file, capsys):
        outputs = []
        for algorithm in ("QFCT", "FCT"):
            main(
                ["join", str(collection_file), "-k", "1", "--tau", "0.2",
                 "--algorithm", algorithm]
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_stats_on_stderr(self, collection_file, capsys):
        main(["join", str(collection_file), "-k", "1", "--tau", "0.2", "--stats"])
        captured = capsys.readouterr()
        assert "result pairs" in captured.err

    def test_stream_yields_same_pairs_as_batch(self, collection_file, capsys):
        main(["join", str(collection_file), "-k", "1", "--tau", "0.2",
              "--probabilities"])
        batch = capsys.readouterr().out.splitlines()
        main(["join", str(collection_file), "-k", "1", "--tau", "0.2",
              "--probabilities", "--stream"])
        streamed = capsys.readouterr().out.splitlines()
        assert sorted(streamed) == sorted(batch)

    def test_stream_ignores_workers(self, collection_file, capsys):
        assert main(
            ["join", str(collection_file), "-k", "1", "--tau", "0.2",
             "--workers", "4", "--stream", "--stats"]
        ) == 0
        captured = capsys.readouterr()
        assert "result pairs" in captured.err


class TestResilience:
    def test_resume_round_trip_identical_output(
        self, collection_file, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        base = ["join", str(collection_file), "-k", "1", "--tau", "0.2",
                "--probabilities"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        # First checkpointed run: same output, run directory created.
        assert main(base + ["--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == plain
        assert (run_dir / "run.json").exists()
        assert list(run_dir.glob("band-*.ckpt"))
        # Second run resumes from the checkpoints, byte-identical.
        assert main(base + ["--resume", str(run_dir), "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "fault.resumed" in captured.err

    def test_injected_faults_do_not_change_output(
        self, collection_file, tmp_path, capsys
    ):
        base = ["join", str(collection_file), "-k", "1", "--tau", "0.2"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main(
            base + ["--resume", str(tmp_path / "faulted"),
                    "--inject-faults", "crash@0", "--retries", "1",
                    "--stats"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "fault.crashed" in captured.err
        assert "fault.retried" in captured.err


class TestShardMerge:
    def test_sharded_run_merges_to_serial_output(
        self, collection_file, tmp_path, capsys
    ):
        base = ["join", str(collection_file), "-k", "1", "--tau", "0.2",
                "--probabilities"]
        assert main(base) == 0
        serial = capsys.readouterr().out
        run_dir = tmp_path / "run"
        for i in range(3):
            assert main(
                base + ["--shard", f"{i}/3", "--resume", str(run_dir)]
            ) == 0
            captured = capsys.readouterr()
            # Shard outcomes are partial: pairs stay off stdout; the
            # completion summary goes to stderr.
            assert captured.out == ""
            assert f"shard {i}/3 complete" in captured.err
        assert (run_dir / "shard-1" / "manifest.json").exists()
        assert main(["merge", str(run_dir)]) == 0
        assert capsys.readouterr().out == serial

    def test_shard_requires_resume(self, collection_file):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="run directory"):
            main(["join", str(collection_file), "-k", "1", "--tau", "0.2",
                  "--shard", "0/2"])

    def test_shard_rejects_stream(self, collection_file, tmp_path, capsys):
        code = main(
            ["join", str(collection_file), "-k", "1", "--tau", "0.2",
             "--shard", "0/2", "--resume", str(tmp_path / "r"), "--stream"]
        )
        assert code == 2
        assert "incompatible" in capsys.readouterr().err

    def test_merge_of_incomplete_run_fails_loudly(
        self, collection_file, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        assert main(
            ["join", str(collection_file), "-k", "1", "--tau", "0.2",
             "--shard", "0/2", "--resume", str(run_dir)]
        ) == 0
        capsys.readouterr()
        from repro.core.errors import ShardIncompleteError

        with pytest.raises(ShardIncompleteError):
            main(["merge", str(run_dir)])

    def test_merge_collects_flat_resume_run(
        self, collection_file, tmp_path, capsys
    ):
        base = ["join", str(collection_file), "-k", "1", "--tau", "0.2"]
        run_dir = tmp_path / "flat"
        assert main(base + ["--resume", str(run_dir)]) == 0
        joined = capsys.readouterr().out
        assert main(["merge", str(run_dir)]) == 0
        assert capsys.readouterr().out == joined


class TestTopK:
    def test_outputs_requested_count_with_probabilities(
        self, collection_file, capsys
    ):
        assert main(
            ["topk", str(collection_file), "-k", "2", "--count", "5"]
        ) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) <= 5
        probs = [float(l.split("\t")[2]) for l in lines]
        assert probs == sorted(probs, reverse=True)

    def test_stats_on_stderr(self, collection_file, capsys):
        main(["topk", str(collection_file), "-k", "1", "--count", "3",
              "--stats"])
        assert "result pairs" in capsys.readouterr().err


class TestSearch:
    def test_search_finds_member(self, collection_file, capsys):
        collection = load_collection(collection_file)
        query = collection[0].most_probable_instance()[0]
        assert main(
            ["search", str(collection_file), query, "-k", "2", "--tau", "0.05"]
        ) == 0
        hits = {int(l.split("\t")[0]) for l in capsys.readouterr().out.splitlines() if l}
        assert 0 in hits


class TestStoreAtAnotherK:
    """A store built at one k answers search, top-k and join at any k."""

    @pytest.mark.parametrize("k", ["1", "3"])
    def test_store_output_equals_collection_output(
        self, collection_file, tmp_path, capsys, k
    ):
        store = tmp_path / "names.store"
        assert main(
            ["index", "build", str(collection_file), "-o", str(store),
             "-k", "2"]
        ) == 0
        capsys.readouterr()
        query = load_collection(collection_file)[4].most_probable_instance()[0]
        threshold = ["-k", k, "--tau", "0.05", "--probabilities"]
        commands = [
            (["search"], [query, *threshold]),
            (["topk"], ["-k", k, "--count", "6"]),
            (["join"], threshold),
        ]
        for command, options in commands:
            assert main([*command, str(collection_file), *options]) == 0
            expected = capsys.readouterr().out
            assert main([*command, "--store", str(store), *options]) == 0
            assert capsys.readouterr().out == expected
            assert expected.strip()


class TestVerify:
    def test_verify_prints_probability(self, capsys):
        assert main(
            ["verify", "banana", "ban{(a,0.7),(e,0.3)}na", "-k", "0"]
        ) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.7)

    def test_verify_certain_pair(self, capsys):
        main(["verify", "kitten", "sitting", "-k", "3"])
        assert float(capsys.readouterr().out) == pytest.approx(1.0)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_subcommand_is_gone(self):
        # The benchmark gate lives in benchmarks/ (python -m benchmarks.gate).
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["join", "x.txt", "-k", "1", "--tau", "0.1", "--algorithm", "ZZ"]
            )
