#!/usr/bin/env python3
"""Defensive bundling study: the economics of MEV protection.

Reproduces the paper's Section 4.2 discussion: users collectively spend
non-trivially on defensive Jito tips even though sandwiching hits a tiny
fraction of bundles — because the *tail* of possible losses dwarfs the
per-transaction cost of protection. This example also sweeps the
defensive-tip classification threshold to show the paper's 100,000-lamport
choice sits on a plateau (the classification is not threshold-sensitive).

Run with:
    python examples/defensive_bundling_study.py
"""

from repro import AnalysisPipeline, MeasurementCampaign, small_scenario
from repro.analysis import build_figure3, build_figure4
from repro.core import DefensiveBundlingClassifier
from repro.dex.oracle import PriceOracle


def main() -> None:
    scenario = small_scenario(seed=1234, days=8)
    print("running campaign...")
    result = MeasurementCampaign(scenario).run()
    report = AnalysisPipeline().analyze_campaign(result)
    oracle = PriceOracle()

    # --- the cost of protection -------------------------------------------
    defensive = report.defensive
    print()
    print("defensive bundling:")
    print(
        f"  {len(defensive.defensive_ids)} protective bundles "
        f"({defensive.defensive_fraction:.0%} of all length-1 bundles)"
    )
    print(
        f"  total spent: ${defensive.defensive_spend_usd(oracle):,.4f} "
        f"(avg ${defensive.average_defensive_tip_usd(oracle):.5f} per bundle)"
    )

    # --- the risk being protected against -----------------------------------
    figure3 = build_figure3(report)
    print()
    print("sandwich losses, per victim:")
    print(f"  median: ${figure3.median_loss_usd():.2f}")
    for threshold in (10.0, 50.0, 100.0):
        fraction = figure3.fraction_losing_at_least(threshold)
        print(f"  P(loss >= ${threshold:.0f}): {fraction:.1%}")
    avg_tip = defensive.average_defensive_tip_usd(oracle)
    print(
        f"\n  one median sandwich loss buys "
        f"{figure3.median_loss_usd() / max(avg_tip, 1e-9):,.0f} "
        "protected transactions — the paper's asymmetry."
    )

    # --- threshold sensitivity -------------------------------------------------
    print()
    print("threshold sweep (defensive share of length-1 bundles):")
    figure4 = build_figure4(result, report)
    for threshold in (10_000, 50_000, 100_000, 200_000, 500_000, 2_000_000):
        classifier = DefensiveBundlingClassifier(threshold_lamports=threshold)
        swept = classifier.classify(result.store)
        marker = "  <- paper's choice" if threshold == 100_000 else ""
        print(
            f"  tip <= {threshold:>9,} lamports: "
            f"{swept.defensive_fraction:6.1%}{marker}"
        )
    print(
        "\nlength-1 tips at or below 100,000 lamports: "
        f"{figure4.fraction_length_one_below_threshold():.1%} "
        "(paper: over 86%)"
    )


if __name__ == "__main__":
    main()
