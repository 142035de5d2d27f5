"""Extension E8: what the Jito Explorer methodology saves (paper §3.1).

The paper chose its scraping methodology because RPC providers cap requests
and compute units "far below what is necessary" for bulk ledger pulls, and
an archival node costs ~$40K up front. This bench measures the comparison on
the simulated campaign, then extrapolates both approaches to real-chain
rates, where the gap actually lives: the explorer methodology's cost is set
by the *poll cadence* (fixed per day), while a ledger scan's cost is set by
the *block rate* (216,000 slots/day on mainnet).
"""

from benchmarks.conftest import save_artifact
from repro import constants
from repro.analysis.figures import format_table
from repro.baselines import LedgerOnlyDetector
from repro.explorer.solana_rpc import RpcConfig, SolanaRpc


def measure_costs(campaign, report):
    world = campaign.world

    # Simulated-scale facts.
    served = campaign.metrics.get("explorer_requests_total")
    explorer_requests = int(sum(value for _, value in served.series()))
    jito_detected = report.sandwich_count

    rpc = SolanaRpc(
        world.ledger,
        world.clock,
        config=RpcConfig(requests_per_second=10**9, burst_capacity=10**9),
    )
    detector = LedgerOnlyDetector()
    for slot in rpc.block_slots(client_id="scanner"):
        rpc.get_block(slot, client_id="scanner")
    ledger_candidates = len(detector.detect(world.ledger))
    usage = rpc.usage("scanner")

    # Real-chain extrapolation, from the paper's own constants.
    polls_per_day = 86_400 / constants.POLL_INTERVAL_SECONDS
    detail_txs_per_day = (
        constants.PAPER_BUNDLES_PER_DAY
        * constants.PAPER_LEN3_BUNDLE_FRACTION
        * 3
    )
    detail_batches_per_day = detail_txs_per_day / constants.DETAIL_BATCH_LIMIT
    explorer_per_day_real = polls_per_day + detail_batches_per_day
    rpc_per_day_real = float(constants.SLOTS_PER_DAY)

    return {
        "explorer_requests": explorer_requests,
        "jito_detected": jito_detected,
        "rpc_requests": usage.requests,
        "rpc_compute_units": usage.compute_units,
        "ledger_candidates": ledger_candidates,
        "explorer_per_day_real": explorer_per_day_real,
        "rpc_per_day_real": rpc_per_day_real,
    }


def test_collection_cost(benchmark, paper_campaign, paper_report):
    costs = benchmark.pedantic(
        measure_costs, args=(paper_campaign, paper_report), rounds=1, iterations=1
    )

    # Both approaches find comparable attack counts on this world; the
    # difference is access cost, not yield.
    assert costs["ledger_candidates"] >= costs["jito_detected"] * 0.8

    # Compute units: block fetches are an order of magnitude pricier than
    # the explorer's listing calls even at simulation scale.
    assert costs["rpc_compute_units"] > 10 * costs["explorer_requests"]

    # At real-chain rates the gap is two orders of magnitude: the explorer
    # cost is cadence-bound (~850 requests/day), the scan is block-bound
    # (216,000/day).
    ratio = costs["rpc_per_day_real"] / costs["explorer_per_day_real"]
    assert ratio > 100

    rows = [
        [
            "Jito Explorer methodology",
            str(costs["explorer_requests"]),
            "-",
            str(costs["jito_detected"]),
            f"{costs['explorer_per_day_real']:,.0f}",
        ],
        [
            "full ledger scan via RPC",
            str(costs["rpc_requests"]),
            str(costs["rpc_compute_units"]),
            str(costs["ledger_candidates"]),
            f"{costs['rpc_per_day_real']:,.0f}",
        ],
    ]
    save_artifact(
        "collection_cost.txt",
        format_table(
            [
                "approach",
                "sim requests",
                "sim compute units",
                "attacks found",
                "real-chain requests/day",
            ],
            rows,
        )
        + f"\nreal-chain cost ratio: {ratio:,.0f}x in the scan's disfavor"
        "\n(and the paper notes the archival-node alternative costs ~$40K"
        "\n up front plus $3K/month, Section 2.1)",
    )
