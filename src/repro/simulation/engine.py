"""The day-loop simulation engine.

Builds the world (bank, market, Jito stack, agents), then advances simulated
time block by block, activating behaviours according to each class's daily
trend and letting the block engine land what they submit.
"""

from __future__ import annotations


from repro.agents.base import AgentContext, GroundTruth
from repro.agents.population import Population
from repro.dex.market import Market
from repro.dex.oracle import PriceOracle
from repro.dex.router import Router
from repro.jito.block_engine import BlockEngine
from repro.jito.relayer import PrivateMempool, Relayer
from repro.jito.tip_distribution import TipDistributor
from repro.jito.searcher import SearcherClient
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.simulation.config import ScenarioConfig, TrendSpec
from repro.simulation.downtime import DowntimeSchedule
from repro.simulation.results import DayStats, SimulationWorld
from repro.solana.bank import Bank
from repro.solana.leader_schedule import LeaderSchedule, default_validator_set
from repro.solana.ledger import Ledger
from repro.solana.keys import Keypair
from repro.solana.transaction import Transaction, reset_nonce_counter
from repro.dex.swap import swap_instruction
from repro.utils.rng import DeterministicRNG
from repro.utils.simtime import SECONDS_PER_DAY, SimClock


class SimulationEngine:
    """Runs one campaign scenario end-to-end.

    ``block_callbacks`` registered via :meth:`on_block` fire after every
    produced block — the hook the measurement campaign uses to interleave
    explorer polling with chain activity on the shared simulated clock.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        downtime: DowntimeSchedule | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        config.validate()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._blocks_metric = self.metrics.counter(
            "sim_blocks_produced_total", "Blocks produced by the engine."
        )
        self._generated_metric = self.metrics.counter(
            "sim_bundles_generated_total",
            "Agent behaviours that produced a submission.",
        )
        self._days_metric = self.metrics.counter(
            "sim_days_total", "Simulated days completed, by spike status."
        )
        reset_nonce_counter()  # identical (seed, scenario) => identical tx ids
        self.config = config
        self.rng = DeterministicRNG(config.seed)
        self.clock = SimClock()
        bank = Bank()
        market = Market(bank, config.market, self.rng)
        router = Router(bank, market.program)
        oracle = PriceOracle()
        ledger = Ledger()
        mempool = PrivateMempool()
        relayer = Relayer(mempool)
        schedule = LeaderSchedule(
            default_validator_set(
                count=config.num_validators,
                jito_fraction=config.jito_validator_fraction,
                rng=self.rng,
            ),
            self.rng,
        )
        block_engine = BlockEngine(bank, ledger, relayer, schedule, self.clock)
        searcher = SearcherClient(relayer, self.clock, bank=bank)
        ground_truth = GroundTruth()
        ctx = AgentContext(
            bank=bank,
            market=market,
            router=router,
            searcher=searcher,
            relayer=relayer,
            oracle=oracle,
            clock=self.clock,
            ground_truth=ground_truth,
        )
        population = Population(ctx, self.rng, config.population)
        if downtime is None:
            downtime = DowntimeSchedule.sample(self.rng, config.days)
        self.world = SimulationWorld(
            config=config,
            clock=self.clock,
            bank=bank,
            market=market,
            router=router,
            oracle=oracle,
            ledger=ledger,
            mempool=mempool,
            relayer=relayer,
            schedule=schedule,
            block_engine=block_engine,
            searcher=searcher,
            ground_truth=ground_truth,
            population=population,
            ctx=ctx,
            downtime=downtime,
        )
        self._block_callbacks: list = []
        self._market_maker = Keypair("market-maker")
        bank.fund(self._market_maker, 10**12)
        self._tip_distributor = (
            TipDistributor(
                bank,
                schedule.validators,
                commission_bps=config.tip_commission_bps,
            )
            if config.tip_epoch_days > 0
            else None
        )

    @property
    def tip_distributor(self) -> TipDistributor | None:
        """The epochal tip sweeper (None when disabled)."""
        return self._tip_distributor

    def on_block(self, callback) -> None:
        """Register a callable invoked as ``callback(world, block)`` after
        every produced block."""
        self._block_callbacks.append(callback)

    # --- trend table -------------------------------------------------------

    def _class_trends(self) -> dict[str, TrendSpec]:
        config = self.config
        return {
            "retail": config.retail_per_day,
            "defensive": config.defensive_per_day,
            "priority": config.priority_per_day,
            "arbitrage": config.arbitrage_per_day,
            "app_bundle": config.app_bundles_per_day,
            "sandwich": config.sandwiches_per_day,
            "disguised": config.disguised_per_day,
            "opportunist": config.opportunist_scans_per_day,
        }

    # --- market making -----------------------------------------------------

    def _rebalance_pools(self) -> None:
        """Revert drifted pools toward their anchor prices.

        Stands in for external arbitrage: real pools track the wider market
        because deviations get arbitraged away. The corrective swaps run
        directly on the bank (off-book flow), so they add no bundles or
        ledger noise to what the collector measures.
        """
        world = self.world
        maker = self._market_maker
        for pool in world.market.all_pools():
            order = world.market.rebalance_order(pool)
            if order is None:
                continue
            mint_in, amount = order
            world.bank.fund_tokens(maker.pubkey, mint_in, amount)
            tx = Transaction.build(
                maker,
                [swap_instruction(maker.pubkey, pool, mint_in, amount, 0)],
            )
            world.bank.execute_transaction(tx)

    # --- the run loop --------------------------------------------------------

    def iter_day_blocks(self, day: int):
        """Generator form of :meth:`run_day`: yield after every block.

        Each yielded value is the freshly produced block, *after* the block
        callbacks and pool rebalancing have run — the point where one
        block's collection side effects are complete and the next has not
        started. The streaming campaign uses this seam to fold each
        block's new records into its report before the next block runs;
        exhausting the generator performs the same end-of-day bookkeeping
        as :meth:`run_day`, which is a plain consuming wrapper around it.
        """
        config = self.config
        world = self.world
        day_rng = self.rng.child(f"day:{day}")
        is_spike = day_rng.bernoulli(config.spike_probability)
        if is_spike:
            world.spike_days.add(day)

        events: list[str] = []
        counts: dict[str, int] = {}
        for event_class, trend in self._class_trends().items():
            count = trend.sample_count(day, config.days, day_rng.child(event_class))
            if is_spike and event_class != "retail":
                count = int(count * config.spike_multiplier)
            counts[event_class] = count
            events.extend([event_class] * count)
        day_rng.shuffle(events)

        stats = DayStats(
            day=day,
            date=self.clock.date_of_day(day),
            events_by_class=counts,
            is_spike=is_spike,
        )

        behaviors = world.population.behaviors()
        blocks = config.blocks_per_day
        day_start = self.clock.epoch + day * SECONDS_PER_DAY
        per_block = (len(events) + blocks - 1) // blocks if events else 0
        for block_index in range(blocks):
            moment = day_start + (block_index + 0.5) * SECONDS_PER_DAY / blocks
            self.clock.advance_to(moment)
            chunk = (
                events[block_index * per_block : (block_index + 1) * per_block]
                if per_block
                else []
            )
            for event_class in chunk:
                generated = behaviors[event_class].generate()
                if generated is not None:
                    stats.bundles_generated += 1
                    self._generated_metric.inc(event_class=event_class)
            block = world.block_engine.produce_block()
            self._blocks_metric.inc()
            for callback in self._block_callbacks:
                callback(world, block)
            self._rebalance_pools()
            yield block

        if (
            self._tip_distributor is not None
            and (day + 1) % config.tip_epoch_days == 0
        ):
            self._tip_distributor.distribute_epoch()

        world.day_stats.append(stats)
        self._days_metric.inc(spike="yes" if is_spike else "no")

    def run_day(self, day: int) -> DayStats:
        """Simulate one day: schedule events, produce blocks."""
        for _block in self.iter_day_blocks(day):
            pass
        return self.world.day_stats[-1]

    def run_days(self, start_day: int, stop_day: int) -> None:
        """Simulate days ``start_day`` to ``stop_day``, the stop excluded."""
        for day in range(start_day, stop_day):
            self.run_day(day)

    def finish(self) -> SimulationWorld:
        """Land queued bundles and return the world."""
        # Land anything still queued (bundles deferred past the last block).
        self.clock.advance(1.0)
        block = self.world.block_engine.produce_block()
        self._blocks_metric.inc()
        for callback in self._block_callbacks:
            callback(self.world, block)
        return self.world

    def run(self) -> SimulationWorld:
        """Run the whole campaign and return the finished world."""
        self.run_days(0, self.config.days)
        return self.finish()
