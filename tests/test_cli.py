"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_topology, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.model == "15B"
        assert args.topology == "2+2"

    def test_topology_parsing(self):
        assert _parse_topology("2+2", "RTX 3090-Ti").groups == (2, 2)
        assert _parse_topology("4", "RTX 3090-Ti").groups == (4,)
        assert _parse_topology("dc", "RTX 3090-Ti").has_p2p

    def test_bad_topology_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_topology("two plus two", "RTX 3090-Ti")


class TestCommands:
    def test_plan_command(self, capsys):
        code = main(
            ["plan", "--model", "GPT2", "--topology", "2+2", "--time-limit", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stages" in out and "estimated step time" in out

    def test_compare_command(self, capsys):
        code = main(
            ["compare", "--model", "GPT2", "--topology", "2+2", "--microbatch", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for system in ("gpipe", "deepspeed", "mobius"):
            assert system in out

    def test_figures_prefix_match(self, capsys):
        code = main(["figures", "table1"])
        assert code == 0
        assert "3090-Ti" in capsys.readouterr().out

    def test_figures_unknown_name(self, capsys):
        code = main(["figures", "fig99"])
        assert code == 1
