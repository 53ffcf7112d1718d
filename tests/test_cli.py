"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_discover_args(self):
        args = build_parser().parse_args(
            ["discover", "--dataset", "imdb", "--examples", "A;B"]
        )
        assert args.dataset == "imdb"
        assert args.examples == "A;B"
        assert args.profile == "small"

    def test_recommend_flag(self):
        args = build_parser().parse_args(
            ["discover", "--dataset", "imdb", "--examples", "A", "--recommend", "3"]
        )
        assert args.recommend == 3

    def test_jobs_executor_stats_flags(self):
        args = build_parser().parse_args(
            [
                "discover", "--dataset", "imdb", "--examples", "A",
                "--jobs", "4", "--executor", "process", "--stats",
                "--backend", "sharded",
            ]
        )
        assert args.jobs == 4
        assert args.executor == "process"
        assert args.show_stats is True
        assert args.backend == "sharded"

    def test_batch_args(self):
        args = build_parser().parse_args(
            ["batch", "--dataset", "adult", "--input", "sets.txt", "--jobs", "2"]
        )
        assert args.input == "sets.txt"
        assert args.jobs == 2

    @pytest.mark.parametrize(
        "flag",
        [["--no-persistent-pool"], ["--no-estimator"],
         ["--sample-budget", "64"], ["--guard-factor", "2"],
         ["--backend", "dispatch"]],
    )
    def test_retired_knobs_are_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["batch", "--dataset", "adult", "--input", "s.txt", *flag]
            )

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--dataset", "imdb", "--mode", "http", "--port", "0",
             "--executor", "process"]
        )
        assert args.mode == "http"
        assert args.port == 0
        assert args.jobs == 2  # serve defaults to a parallel session
        assert args.executor == "process"
        defaults = build_parser().parse_args(["serve", "--dataset", "imdb"])
        assert defaults.mode == "stdio"
        assert defaults.max_pending == 64


class TestCommands:
    def test_workloads_adult(self, capsys):
        assert main(["workloads", "--dataset", "adult"]) == 0
        out = capsys.readouterr().out
        assert "AQ1" in out and "cardinality" in out

    def test_stats_adult(self, capsys):
        assert main(["stats", "--dataset", "adult"]) == 0
        out = capsys.readouterr().out
        assert "derived_relations" in out

    def test_discover_on_adult(self, capsys):
        code = main(
            [
                "discover",
                "--dataset",
                "adult",
                "--examples",
                "Resident 000001;Resident 000002",
                "--limit",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "abduced query" in out
        assert "SELECT" in out

    def test_discover_empty_examples_fails(self, capsys):
        assert main(["discover", "--dataset", "adult", "--examples", " ; "]) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_discover_unknown_examples_exits_cleanly(self, capsys, jobs):
        code = main(
            [
                "discover", "--dataset", "adult",
                "--examples", "nobody-such-xyz;another-nobody",
                "--jobs", jobs,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("discover: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_discover_too_many_examples_exits_cleanly(self, capsys):
        examples = ";".join(f"Resident {i:06d}" for i in range(1, 200))
        code = main(
            ["discover", "--dataset", "adult", "--examples", examples]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("discover: ") and err.count("\n") == 1

    def test_batch_too_many_examples_exits_cleanly(self, capsys, tmp_path):
        input_file = tmp_path / "sets.txt"
        input_file.write_text(
            ";".join(f"Resident {i:06d}" for i in range(1, 200)) + "\n"
        )
        code = main(["batch", "--dataset", "adult", "--input", str(input_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("batch: ") and err.count("\n") == 1

    def test_discover_with_jobs_and_stats(self, capsys):
        code = main(
            [
                "discover", "--dataset", "adult",
                "--examples", "Resident 000001;Resident 000002",
                "--jobs", "2", "--stats", "--limit", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "abduced query" in out
        assert "run statistics" in out

    def test_batch_subcommand(self, capsys, tmp_path):
        input_file = tmp_path / "sets.txt"
        input_file.write_text(
            "Resident 000001;Resident 000002\n"
            "# a comment line\n"
            "\n"
            "Resident 000003;Resident 000005\n"
            "nobody-here\n"
        )
        code = main(
            [
                "batch", "--dataset", "adult", "--input", str(input_file),
                "--jobs", "2", "--backend", "sharded", "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batch of 3 example sets" in out
        assert "2 discovered, 1 failed" in out
        assert out.count("SELECT") == 2
        assert "ERROR" in out
        assert "run statistics" in out

    def test_batch_empty_input(self, capsys, tmp_path):
        input_file = tmp_path / "empty.txt"
        input_file.write_text("# nothing but comments\n")
        assert main(["batch", "--dataset", "adult", "--input", str(input_file)]) == 2

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit):
            main(["workloads", "--dataset", "nope"])
