"""Table 1, headline comparison, extrapolation, and report rendering tests."""

import pytest

from repro.analysis import (
    ScaleFactors,
    build_headline_comparison,
    build_table1,
    extrapolated_headline,
)
from repro.analysis.report import render_campaign_report
from repro.constants import PAPER_SANDWICH_COUNT
from repro.simulation import paper_scenario, small_scenario


class TestTable1:
    @pytest.fixture(scope="class")
    def table(self):
        return build_table1()

    def test_three_rows_buy_buy_sell(self, table):
        assert [row.action for row in table.rows] == ["BUY", "BUY", "SELL"]
        assert [row.sender for row in table.rows] == [
            "ATTACKER",
            "NORMAL",
            "ATTACKER",
        ]

    def test_price_steps_up_under_buys(self, table):
        first, second, third = table.rows
        assert first.price_after_sol > first.price_before_sol
        assert second.price_after_sol > second.price_before_sol
        assert third.price_after_sol < third.price_before_sol

    def test_price_continuity(self, table):
        first, second, _ = table.rows
        assert second.price_before_sol == pytest.approx(first.price_after_sol)

    def test_attacker_profits(self, table):
        assert table.attacker_profit_lamports > 0

    def test_transaction_ids_do_not_depend_on_process_history(self, table):
        # Transactions built elsewhere advance the process-global
        # auto-nonce; the table's rendering must not move with it.
        from repro.solana.system_program import transfer
        from repro.solana.keys import Keypair
        from repro.solana.transaction import Transaction

        before = build_table1().render()
        sender = Keypair("table1-unrelated")
        for amount in range(1, 4):
            Transaction.build(
                sender, [transfer(sender.pubkey, sender.pubkey, amount)]
            )
        assert build_table1().render() == before == table.render()

    def test_render(self, table):
        text = table.render()
        assert "Table 1" in text
        assert "ATTACKER" in text and "NORMAL" in text

    def test_deterministic(self):
        a = build_table1()
        b = build_table1()
        assert a.attacker_profit_lamports == b.attacker_profit_lamports


class TestScaleFactors:
    def test_paper_scenario_factors(self):
        factors = ScaleFactors.for_scenario(paper_scenario())
        assert factors.day_scale == pytest.approx(1.0)
        assert factors.bundle_scale > 1_000
        # Sandwich series is intentionally scaled less aggressively.
        assert factors.sandwich_scale < factors.bundle_scale

    def test_extrapolation_reconstructs_paper_count(self, small_report):
        scenario = small_scenario(seed=7)
        factors = ScaleFactors.for_scenario(scenario)
        values = extrapolated_headline(small_report.headline, factors)
        # If the campaign captured its expected sandwich volume, the
        # extrapolated count lands within a factor of ~3 of the paper.
        assert 0.2 * PAPER_SANDWICH_COUNT < values["sandwich_count"] < (
            5 * PAPER_SANDWICH_COUNT
        )

    def test_scale_free_stats_pass_through(self, small_report):
        factors = ScaleFactors.for_scenario(small_scenario(seed=7))
        values = extrapolated_headline(small_report.headline, factors)
        assert values["non_sol_fraction"] == (
            small_report.headline.non_sol_fraction()
        )
        assert values["average_defensive_tip_usd"] == (
            small_report.headline.average_defensive_tip_usd
        )


class TestHeadlineComparison:
    @pytest.fixture(scope="class")
    def comparison(self, small_campaign, small_report):
        return build_headline_comparison(
            small_campaign, small_report, small_scenario(seed=7)
        )

    def test_all_paper_stats_present(self, comparison):
        names = {row.name for row in comparison.rows}
        assert {
            "sandwich_count",
            "victim_loss_usd",
            "attacker_gain_usd",
            "median_victim_loss_usd",
            "defensive_spend_usd",
            "defensive_fraction_of_length_one",
            "sandwich_bundle_fraction",
        } <= names

    def test_row_lookup(self, comparison):
        row = comparison.row("sandwich_count")
        assert row.paper == PAPER_SANDWICH_COUNT
        with pytest.raises(KeyError):
            comparison.row("nope")

    def test_scale_free_rows_have_no_extrapolation(self, comparison):
        row = comparison.row("median_victim_loss_usd")
        assert row.scale_free
        assert row.extrapolated is None

    def test_render(self, comparison):
        text = comparison.render()
        assert "paper" in text and "measured" in text


class TestFullReport:
    def test_render_campaign_report(self, small_campaign, small_report):
        text = render_campaign_report(
            small_campaign, small_report, small_scenario(seed=7)
        )
        for marker in ("Headline", "Figure 1", "Figure 2", "Collection"):
            assert marker in text
