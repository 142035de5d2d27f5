#!/usr/bin/env python3
"""Scrape the explorer over real HTTP, exactly like the paper's collector.

Boots the simulated Jito Explorer on a local TCP port, then runs the
collection pipeline against it through the blocking socket client: widened
recent-bundle pages, overlap verification, rate-limit handling, and batched
transaction-detail pulls.

Run with:
    python examples/live_explorer_scrape.py
"""

from repro.collector import (
    BundlePoller,
    BundleStore,
    CoverageEstimator,
    HttpExplorerClient,
    TxDetailFetcher,
)
from repro.collector.poller import PollerConfig
from repro.core import AnalysisPipeline
from repro.explorer.http_server import explorer_handler
from repro.explorer.service import ExplorerConfig, ExplorerService
from repro.serve.httpcommon import HttpServer
from repro.simulation import SimulationEngine, small_scenario


def main() -> None:
    # 1. Simulate a few days of chain activity first (the "real world").
    print("simulating chain activity...")
    world = SimulationEngine(small_scenario(seed=77, days=4)).run()
    print(
        f"  {world.bundles_landed} bundles landed, "
        f"{world.transactions_landed} transactions on-ledger"
    )

    # 2. Serve its explorer over actual HTTP.
    service = ExplorerService(
        world.block_engine,
        world.ledger,
        world.clock,
        # Real wall-clock polls arrive fast; relax the simulated-time
        # rate limiter accordingly.
        config=ExplorerConfig(requests_per_second=1000.0, burst_capacity=1000.0),
    )
    with HttpServer() as server:
        server.start(explorer_handler(service))
        print(f"explorer listening on 127.0.0.1:{server.port}")
        client = HttpExplorerClient("127.0.0.1", server.port)
        assert client.health(), "explorer failed its health check"

        # 3. Collect: repeated widened pages + overlap accounting...
        store = BundleStore()
        coverage = CoverageEstimator()
        poller = BundlePoller(
            client,
            store,
            coverage,
            world.clock,
            config=PollerConfig(window_limit=500),
        )
        for _ in range(12):
            result = poller.poll_once()
            world.clock.advance(120)  # the paper's two-minute cadence
            print(
                f"  poll: {result.returned} returned, "
                f"{result.new_bundles} new, overlap={result.overlapped}"
            )

        # ...then transaction details for length-3 bundles only.
        fetcher = TxDetailFetcher(client, store, world.clock)
        stored = fetcher.drain()
        print(f"fetched {stored} transaction details over HTTP")

        # 4. Analyze what came over the wire.
        report = AnalysisPipeline().analyze_store(
            store, poll_overlap_fraction=coverage.overlap_fraction()
        )
        print()
        print(f"bundles collected:    {len(store)}")
        print(f"sandwiches detected:  {report.sandwich_count}")
        print(f"defensive bundles:    {len(report.defensive.defensive_ids)}")
        print(f"victim losses (USD):  {report.headline.victim_loss_usd:,.2f}")


if __name__ == "__main__":
    main()
