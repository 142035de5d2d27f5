"""Solana RPC facade tests: queries, metering, rate limits."""

import pytest

from repro.errors import BadRequestError, RateLimitedError
from repro.explorer.solana_rpc import RpcConfig, SolanaRpc
from repro.simulation import SimulationEngine
from tests.conftest import tiny_scenario


@pytest.fixture(scope="module")
def rpc_world():
    world = SimulationEngine(tiny_scenario(seed=121)).run()
    rpc = SolanaRpc(
        world.ledger,
        world.clock,
        config=RpcConfig(requests_per_second=10_000.0, burst_capacity=10_000.0),
    )
    return world, rpc


def _first_receipt(world):
    return next(
        receipt
        for block in world.ledger.blocks()
        for receipt in block.transactions
    )


class TestQueries:
    def test_get_slot(self, rpc_world):
        world, rpc = rpc_world
        assert rpc.get_slot() == world.ledger.tip_slot

    def test_get_block(self, rpc_world):
        world, rpc = rpc_world
        block = next(world.ledger.blocks())
        records = rpc.get_block(block.slot)
        assert len(records) == block.transaction_count
        assert {r.transaction_id for r in records} == {
            receipt.transaction_id for receipt in block.transactions
        }

    def test_skipped_slot_returns_none(self, rpc_world):
        world, rpc = rpc_world
        produced = {b.slot for b in world.ledger.blocks()}
        missing = max(produced) + 1000
        assert rpc.get_block(missing) is None

    def test_get_transaction(self, rpc_world):
        world, rpc = rpc_world
        receipt = _first_receipt(world)
        record = rpc.get_transaction(receipt.transaction_id)
        assert record.signer == receipt.fee_payer

    def test_unknown_transaction_is_none(self, rpc_world):
        _, rpc = rpc_world
        assert rpc.get_transaction("missing") is None

    def test_block_slots_index(self, rpc_world):
        world, rpc = rpc_world
        assert rpc.block_slots() == [b.slot for b in world.ledger.blocks()]

    def test_bad_arguments(self, rpc_world):
        _, rpc = rpc_world
        with pytest.raises(BadRequestError):
            rpc.get_block(-1)
        with pytest.raises(BadRequestError):
            rpc.get_transaction("")


class TestMetering:
    def test_compute_units_accumulate(self, rpc_world):
        world, rpc = rpc_world
        config = rpc.config
        usage_before = rpc.usage("meter").compute_units
        rpc.get_slot(client_id="meter")
        block = next(world.ledger.blocks())
        rpc.get_block(block.slot, client_id="meter")
        rpc.get_transaction(
            _first_receipt(world).transaction_id, client_id="meter"
        )
        expected = (
            config.slot_cost_units
            + config.block_cost_units
            + config.transaction_cost_units
        )
        assert rpc.usage("meter").compute_units - usage_before == expected
        assert rpc.usage("meter").requests == 3

    def test_clients_metered_separately(self, rpc_world):
        _, rpc = rpc_world
        rpc.get_slot(client_id="a")
        assert rpc.usage("b").requests == 0


class TestRateLimits:
    def test_burst_then_429(self):
        world = SimulationEngine(tiny_scenario(seed=122)).run()
        rpc = SolanaRpc(
            world.ledger,
            world.clock,
            config=RpcConfig(requests_per_second=0.001, burst_capacity=2.0),
        )
        rpc.get_slot()
        rpc.get_slot()
        with pytest.raises(RateLimitedError):
            rpc.get_slot()

    def test_refills_with_time(self):
        world = SimulationEngine(tiny_scenario(seed=123)).run()
        rpc = SolanaRpc(
            world.ledger,
            world.clock,
            config=RpcConfig(requests_per_second=1.0, burst_capacity=1.0),
        )
        rpc.get_slot()
        with pytest.raises(RateLimitedError):
            rpc.get_slot()
        world.clock.advance(2.0)
        rpc.get_slot()
