"""Tests for the figure-reproduction registry and CLI command."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments.common import Scale
from repro.experiments.registry import REGISTRY, list_figures, reproduce_figure

TINY = Scale(num_requests=20, capacity_rel_tol=0.5, capacity_max_probes=4)

CHEAP_FIGURES = [e.figure_id for e in REGISTRY.values() if not e.expensive]

# Every paper figure and table, and every extra ablation or extension
# that EXPERIMENTS.md reports, with the claims it checks.
CLAIMED = (
    "fig01a", "fig01b", "fig02", "fig03", "fig04", "fig05", "fig06",
    "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13a",
    "fig13b", "fig14", "table4", "budget", "tiles", "allocator", "dynamic",
    "fairness", "burstiness", "eviction", "disagg", "utilization",
)


class TestRegistry:
    def test_every_paper_figure_present(self):
        ids = set(REGISTRY)
        for expected in CLAIMED + ("prefix", "fleet", "resilience", "leaderboard"):
            assert expected in ids

    @pytest.mark.parametrize("figure_id", CLAIMED)
    def test_claimed_entries_declare_claims(self, figure_id):
        assert REGISTRY[figure_id].claims

    def test_list_figures_ordered(self):
        entries = list_figures()
        assert entries[0].figure_id == "fig01a"
        assert len(entries) == len(REGISTRY)

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError, match="fig14"):
            reproduce_figure("fig99")

    @pytest.mark.parametrize("figure_id", CHEAP_FIGURES)
    def test_cheap_figures_render(self, figure_id):
        text, _ = reproduce_figure(figure_id, TINY)
        assert text.startswith(figure_id)
        assert "\n" in text
        # Table body has at least a header, a rule and one row.
        assert len(text.splitlines()) >= 5

    def test_case_insensitive_lookup(self):
        text, _ = reproduce_figure("FIG03", TINY)
        assert text.startswith("fig03")


class TestReproduceCLI:
    def test_list_mode(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out
        assert "slow" in out  # capacity figures are flagged

    def test_single_figure(self, capsys):
        assert main(["reproduce", "fig03", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "prefill tok/s" in out

    def test_single_figure_checks_its_claims(self, capsys):
        assert main(["reproduce", "fig03", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        for claim in REGISTRY["fig03"].claims:
            assert f"claim ok: {claim.text}" in out

    def test_failed_claim_exits_1(self, capsys, monkeypatch):
        entry = REGISTRY["fig03"]
        broken = replace(entry.claims[0], holds=lambda rows: False)
        monkeypatch.setitem(
            REGISTRY, "fig03", replace(entry, claims=(broken, *entry.claims[1:]))
        )
        assert main(["reproduce", "fig03", "--scale", "smoke"]) == 1
        out = capsys.readouterr().out
        assert "prefill tok/s" in out  # the table still prints
        assert f"claim FAILED: {broken.text}" in out
        assert f"claim ok: {entry.claims[1].text}" in out
