"""Tests for the command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main


def _wall_s(out: str) -> float:
    """The wall time on ``simulate``'s ``engine:`` line."""
    match = re.search(r"^engine: .* batches, ([\d.]+)s wall$", out, re.MULTILINE)
    assert match, out
    return float(match.group(1))


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.model == "mistral-7b"
        assert args.scheduler == "sarathi"
        assert args.prefix_cache is False
        assert args.qps == 1.0

    def test_scheduler_resolution(self):
        from repro.cli import _scheduler_from

        parse = build_parser().parse_args
        assert _scheduler_from(parse(["simulate"])) == "sarathi"
        # Any registry name is accepted, not just the built-in schedulers.
        assert (
            _scheduler_from(parse(["simulate", "--scheduler", "srpt_oracle"]))
            == "srpt_oracle"
        )

    def test_unknown_scheduler_rejected_with_suggestion(self):
        from repro.cli import _scheduler_from

        args = build_parser().parse_args(["simulate", "--scheduler", "sarathi_dyn"])
        with pytest.raises(ValueError, match="did you mean"):
            _scheduler_from(args)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Mistral-7B" in out
        assert "sarathi" in out

    def test_schedulers_listing(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        assert "srpt_oracle" in out
        assert "reservation" in out        # memory-family column

    def test_budget(self, capsys):
        assert main(["budget", "--model", "tiny-1b"]) == 0
        out = capsys.readouterr().out
        assert "token budget" in out
        assert "strict" in out and "relaxed" in out

    def test_budget_profile_flag(self, capsys):
        assert main(["budget", "--model", "tiny-1b", "--profile"]) == 0
        assert "budget profile" in capsys.readouterr().out

    def test_simulate_reports_cache_stats(self, capsys):
        base = ["simulate", "--model", "tiny-1b", "--qps", "4", "--requests", "8"]
        assert main(base) == 0
        assert "perf cache" in capsys.readouterr().out

    def test_simulate_small_run(self, capsys):
        code = main(
            [
                "simulate",
                "--model", "tiny-1b",
                "--qps", "4",
                "--requests", "16",
                "--scheduler", "sarathi",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "P99 TBT" in out
        assert "throughput" in out
        assert _wall_s(out) > 0.0

    def test_simulate_conversation_workload(self, capsys):
        # Follow-up rounds arrive mid-run through the engine's handoff.
        code = main(
            [
                "simulate",
                "--model", "tiny-1b",
                "--workload", "conversation",
                "--requests", "8",
                "--qps", "2",
                "--prefix-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        rounds = re.search(r"8 conversations @ 2\.0 qps \((\d+) rounds\)", out)
        assert rounds and int(rounds.group(1)) > 8
        hits = re.search(r"prefix cache: (\d+)/\d+ lookups hit", out)
        assert hits and int(hits.group(1)) > 0
        assert _wall_s(out) > 0.0

    def test_simulate_with_parallelism(self, capsys):
        code = main(
            [
                "simulate",
                "--model", "tiny-1b",
                "--pp", "2",
                "--cross-node-pp",
                "--qps", "4",
                "--requests", "12",
            ]
        )
        assert code == 0
        assert "TP1-PP2" in capsys.readouterr().out

    def test_capacity_smoke(self, capsys):
        code = main(
            [
                "capacity",
                "--model", "tiny-1b",
                "--requests", "16",
                "--probes", "4",
                "--qps-hint", "4",
            ]
        )
        assert code == 0
        assert "capacity:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "faults",
        [[], ["--fault-domains", "1", "--fault-rate", "0.1"]],
        ids=["independent", "domains"],
    )
    def test_fleet_small_run(self, capsys, faults):
        base = ["fleet", "--model", "tiny-1b", "--requests", "8", "--replicas", "2"]
        assert main(base + faults) == 0
        out = capsys.readouterr().out
        assert "× 2 replicas" in out
        assert "finished / offered" in out
        assert ("/domain-s" in out) == bool(faults)

    def test_unknown_model_errors(self):
        with pytest.raises(KeyError):
            main(["budget", "--model", "gpt-99"])

    def test_interrupted_sweep_prints_no_table(self, capsys, monkeypatch):
        """Ctrl-C or SIGTERM mid-sweep: exit 130, nothing on stdout."""
        import repro.experiments.registry as registry

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(registry, "reproduce_figure", interrupted)
        assert main(["reproduce", "fig10", "--jobs", "2"]) == 130
        out, err = capsys.readouterr()
        assert out == ""
        assert "interrupted" in err


class TestCompareCommand:
    def test_compare_prints_markdown(self, capsys):
        code = main(
            [
                "compare",
                "--model", "tiny-1b",
                "--qps", "4",
                "--requests", "12",
                "--token-budget", "128",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| scheduler |" in out
        assert "sarathi" in out and "faster_transformer" in out
