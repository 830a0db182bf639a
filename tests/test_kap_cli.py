"""Tests for the ``python -m repro.kap`` command-line driver."""

import pytest

from repro.kap.__main__ import build_parser, main


class TestParser:
    def test_defaults_match_paper_setup(self):
        args = build_parser().parse_args([])
        assert args.nodes == 64 and args.procs_per_node == 16
        assert args.sync == "fence" and args.tree_arity == 2

    def test_all_flags_parse(self):
        args = build_parser().parse_args([
            "--nodes", "8", "--procs-per-node", "2", "--producers", "4",
            "--consumers", "6", "--value-size", "128", "--nputs", "2",
            "--naccess", "3", "--stride", "0", "--redundant",
            "--dir-width", "64", "--sync", "commit_wait",
            "--tree-arity", "4", "--seed", "7"])
        assert args.redundant and args.dir_width == 64
        assert args.sync == "commit_wait"

    def test_bad_sync_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--sync", "bogus"])

    def test_out_of_range_config_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--nodes", "2", "--procs-per-node", "2",
                  "--producers", "100"])
        assert ei.value.code == 2
        assert "nproducers must be in 0..4" in capsys.readouterr().err


class TestMain:
    def test_small_run_exits_zero(self, capsys):
        rc = main(["--nodes", "4", "--procs-per-node", "2",
                   "--value-size", "64", "--naccess", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "producer" in out and "sync" in out and "consumer" in out
        assert "total simulated time" in out

    def test_consumerless_run_prints_dashes(self, capsys):
        rc = main(["--nodes", "2", "--procs-per-node", "2",
                   "--consumers", "0", "--naccess", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "consumer   " in out

    def test_commit_wait_mode(self, capsys):
        rc = main(["--nodes", "4", "--procs-per-node", "2",
                   "--sync", "commit_wait"])
        assert rc == 0
        assert "sync=commit_wait" in capsys.readouterr().out
