"""Cross-layer integration tests.

These exercise the full chain: simulation -> explorer -> collector ->
detector -> analysis, plus persistence and the HTTP transport, asserting
invariants that only hold if every layer is consistent with the others.
"""

import pytest

from repro import AnalysisPipeline, MeasurementCampaign
from repro.agents.base import Label
from repro.collector import (
    BundlePoller,
    BundleStore,
    CoverageEstimator,
    HttpExplorerClient,
    TxDetailFetcher,
)
from repro.collector.poller import PollerConfig
from repro.explorer.http_server import explorer_handler
from repro.explorer.service import ExplorerConfig, ExplorerService
from repro.serve.httpcommon import HttpServer
from repro.simulation import SimulationEngine
from tests.conftest import tiny_scenario


class TestMoneyConservation:
    def test_lamports_conserved_across_campaign(self, small_campaign):
        # Every lamport a victim or attacker lost went somewhere: tips to
        # tip accounts, fees to leaders. Spot-check: total tips recorded by
        # the engine equal the balances of the tip accounts.
        from repro.jito.tips import tip_accounts

        world = small_campaign.world
        total_recorded = sum(
            o.tip_lamports for o in world.block_engine.bundle_log
        )
        total_held = sum(
            world.bank.lamport_balance(account) for account in tip_accounts()
        )
        # Tip accounts also accumulate tips from *dropped* bundles? No —
        # dropped bundles roll back. They match exactly.
        assert total_held == total_recorded

    def test_attacker_profits_visible_in_balances(self, small_campaign):
        # Detected attacker gains are real: attacker wallets ended richer in
        # wrapped SOL than the faucet gave them, by at least the profits on
        # SOL-pair sandwiches minus tips.
        world = small_campaign.world
        truth = world.ground_truth
        landed = {o.bundle_id for o in world.block_engine.bundle_log}
        landed_attacks = [
            truth.get(b)
            for b in truth.bundle_ids_with_label(Label.SANDWICH) & landed
        ]
        assert landed_attacks, "no landed attacks to check"
        total_expected = sum(
            g.metadata["expected_profit_quote_units"]
            for g in landed_attacks
            if g.metadata["involves_sol"]
        )
        assert total_expected > 0


class TestStorePersistenceThroughAnalysis:
    def test_saved_store_reanalyzes_identically(self, small_campaign, tmp_path):
        small_campaign.store.save(tmp_path)
        reloaded = BundleStore.load(tmp_path)
        original = AnalysisPipeline().analyze_store(small_campaign.store)
        repeated = AnalysisPipeline().analyze_store(reloaded)
        assert repeated.sandwich_count == original.sandwich_count
        assert repeated.headline.victim_loss_usd == pytest.approx(
            original.headline.victim_loss_usd
        )
        assert len(repeated.defensive.defensive_ids) == len(
            original.defensive.defensive_ids
        )


class TestHttpCollectionPipeline:
    def test_collection_over_http_matches_in_process(self):
        world = SimulationEngine(tiny_scenario(seed=41)).run()
        service = ExplorerService(
            world.block_engine,
            world.ledger,
            world.clock,
            config=ExplorerConfig(
                requests_per_second=1000.0, burst_capacity=1000.0
            ),
        )
        with HttpServer() as server:
            server.start(explorer_handler(service))
            client = HttpExplorerClient("127.0.0.1", server.port)
            store = BundleStore()
            poller = BundlePoller(
                client,
                store,
                CoverageEstimator(),
                world.clock,
                config=PollerConfig(window_limit=10_000),
            )
            result = poller.poll_once()
            assert result.status.value == "ok"
            fetcher = TxDetailFetcher(client, store, world.clock)
            fetcher.drain()
            report = AnalysisPipeline().analyze_store(store)
        # One poll with a wide window captures the whole log.
        assert len(store) == len(world.block_engine.bundle_log)
        truth = world.ground_truth
        for quantified in report.quantified:
            assert truth.label_of(quantified.event.bundle_id) is Label.SANDWICH


class TestScenarioReproducibility:
    def test_campaign_fully_deterministic(self):
        def run():
            campaign = MeasurementCampaign(tiny_scenario(seed=13))
            result = campaign.run()
            report = AnalysisPipeline().analyze_campaign(result)
            return (
                len(result.store),
                report.sandwich_count,
                round(report.headline.victim_loss_usd, 6),
                result.coverage.overlap_fraction(),
            )

        assert run() == run()


class TestLedgerExplorerConsistency:
    def test_every_collected_tx_id_is_on_ledger(self, small_campaign):
        ledger = small_campaign.world.ledger
        for bundle in small_campaign.store.bundles():
            for tx_id in bundle.transaction_ids:
                assert ledger.get_transaction(tx_id) is not None

    def test_detail_records_match_ledger_receipts(self, small_campaign):
        ledger = small_campaign.world.ledger
        store = small_campaign.store
        checked = 0
        for bundle in store.fully_detailed_bundles(3):
            for tx_id in bundle.transaction_ids:
                detail = store.get_detail(tx_id)
                receipt = ledger.get_transaction(tx_id)
                assert detail.signer == receipt.fee_payer
                assert detail.token_deltas == receipt.token_deltas
                checked += 1
        assert checked > 0
