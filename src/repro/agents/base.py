"""Shared agent infrastructure: context, wallets, labels, ground truth."""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError, DexError
from repro.dex.market import Market
from repro.dex.oracle import PriceOracle
from repro.dex.router import Router
from repro.jito.relayer import Relayer
from repro.jito.searcher import SearcherClient
from repro.solana.bank import Bank
from repro.solana.keys import Keypair, Pubkey
from repro.solana.tokens import SOL_MINT
from repro.utils.rng import DeterministicRNG
from repro.utils.simtime import SimClock


class Label(str, enum.Enum):
    """Ground-truth class of a generated submission.

    The simulation knows what every bundle *really* is; detectors only see
    what the paper could see. Comparing the two yields precision/recall.
    """

    NATIVE_TRADE = "native_trade"
    SANDWICH = "sandwich"
    DISGUISED_SANDWICH = "disguised_sandwich"
    DEFENSIVE = "defensive"
    PRIORITY = "priority"
    ARBITRAGE = "arbitrage"
    APP_BUNDLE = "app_bundle"


@dataclass(frozen=True)
class GeneratedBundle:
    """What a behaviour produced in one activation."""

    bundle_id: str
    label: Label
    length: int
    tip_lamports: int
    day: int
    metadata: dict[str, Any] = field(default_factory=dict)


class GroundTruth:
    """Registry of every generated bundle's true label."""

    def __init__(self) -> None:
        self._by_bundle: dict[str, GeneratedBundle] = {}
        self._counts: dict[Label, int] = {}

    def record(self, generated: GeneratedBundle) -> None:
        """Register a generated bundle."""
        self._by_bundle[generated.bundle_id] = generated
        self._counts[generated.label] = self._counts.get(generated.label, 0) + 1

    def label_of(self, bundle_id: str) -> Label | None:
        """True label of a bundle id (None if not generated by an agent)."""
        generated = self._by_bundle.get(bundle_id)
        return generated.label if generated else None

    def get(self, bundle_id: str) -> GeneratedBundle | None:
        """Full generation record for a bundle id."""
        return self._by_bundle.get(bundle_id)

    def remove(self, bundle_id: str) -> None:
        """Forget a recorded bundle (used when a submission is repackaged)."""
        generated = self._by_bundle.pop(bundle_id, None)
        if generated is not None:
            self._counts[generated.label] -= 1

    def count(self, label: Label) -> int:
        """How many bundles of ``label`` were generated."""
        return self._counts.get(label, 0)

    def bundle_ids_with_label(self, label: Label) -> set[str]:
        """All bundle ids carrying ``label``."""
        return {
            bundle_id
            for bundle_id, generated in self._by_bundle.items()
            if generated.label == label
        }

    def __len__(self) -> int:
        return len(self._by_bundle)


@dataclass
class AgentContext:
    """Everything a behaviour needs to act on the simulated world."""

    bank: Bank
    market: Market
    router: Router
    searcher: SearcherClient
    relayer: Relayer
    oracle: PriceOracle
    clock: SimClock
    ground_truth: GroundTruth

    @property
    def day(self) -> int:
        """Current simulation day index."""
        return self.clock.day_index()

    def record(
        self,
        bundle_id: str,
        label: Label,
        length: int,
        tip_lamports: int,
        **metadata: Any,
    ) -> GeneratedBundle:
        """Record a generated bundle in the ground truth and return it."""
        generated = GeneratedBundle(
            bundle_id=bundle_id,
            label=label,
            length=length,
            tip_lamports=tip_lamports,
            day=self.day,
            metadata=dict(metadata),
        )
        self.ground_truth.record(generated)
        return generated


class WalletPool:
    """A rotating pool of funded keypairs for one behaviour class.

    Wallets are topped up out-of-band (a simulation faucet) before each use;
    faucet credits never appear in transaction receipts, so they are
    invisible to the detectors, exactly as pre-existing balances are on the
    real chain.
    """

    def __init__(self, bank: Bank, prefix: str, size: int) -> None:
        if size < 1:
            raise ValueError(f"wallet pool needs at least one wallet, got {size}")
        self._bank = bank
        self._wallets = [Keypair(f"{prefix}:{index}") for index in range(size)]

    def __len__(self) -> int:
        return len(self._wallets)

    def pick(self, rng: DeterministicRNG) -> Keypair:
        """Choose a wallet uniformly at random."""
        return rng.choice(self._wallets)

    def find(self, pubkey: Pubkey) -> Keypair:
        """Look up the pool's keypair for ``pubkey``.

        Raises:
            KeyError: if the pubkey does not belong to this pool.
        """
        for wallet in self._wallets:
            if wallet.pubkey == pubkey:
                return wallet
        raise KeyError(f"no wallet {pubkey.to_base58()} in this pool")

    def pick_two_distinct(self, rng: DeterministicRNG) -> tuple[Keypair, Keypair]:
        """Choose two different wallets (pool must hold at least two)."""
        first, second = rng.sample(self._wallets, 2)
        return first, second

    def ensure_lamports(self, wallet: Keypair, lamports: int) -> None:
        """Credit the full lamport amount an upcoming submission needs.

        Credits unconditionally rather than topping up to a target: the same
        wallet may be picked for several not-yet-executed submissions within
        one block, and each must be independently covered.
        """
        self._bank.fund(wallet, lamports)

    def ensure_tokens(self, wallet: Keypair, mint: Pubkey, amount: int) -> None:
        """Credit the full token amount an upcoming submission needs."""
        self._bank.fund_tokens(wallet.pubkey, mint, amount)


def build_random_swap_instruction(
    ctx: "AgentContext",
    wallets: WalletPool,
    wallet: Keypair,
    rng: DeterministicRNG,
    amount_sol_units: int,
    slippage_bps: int,
    buy_probability: float = 0.5,
    max_attempts: int = 5,
):
    """Build (and fund) one random-direction swap on a random SOL pool.

    Returns the swap instruction plus its quote. Direction-balancing keeps
    pool prices mean-reverting across a long campaign, so quotes stay valid
    on the ~block timescale, as on a liquid market. A pool whose current
    state cannot quote the trade (drained side, dust output) is skipped and
    another pool/direction is drawn, as a real router would.

    Raises:
        ConfigError: if no viable route is found after ``max_attempts``.
    """
    last_error: Exception | None = None
    for _ in range(max_attempts):
        pool = ctx.market.random_sol_pool(rng)
        token = pool.other_mint(SOL_MINT.address)
        if rng.bernoulli(buy_probability):
            mint_in, mint_out = SOL_MINT.address, token.address
            amount_in = amount_sol_units
        else:
            mint_in, mint_out = token.address, SOL_MINT.address
            rate = ctx.market.spot_rate(pool, SOL_MINT.address)
            amount_in = max(int(amount_sol_units / rate) if rate > 0 else 1, 1)
        try:
            quote = ctx.router.quote(mint_in, mint_out, amount_in, slippage_bps)
        except (ConfigError, DexError) as exc:
            last_error = exc
            continue
        wallets.ensure_lamports(wallet, 1_000_000)
        wallets.ensure_tokens(wallet, mint_in, amount_in)
        return ctx.router.build_swap_instruction(wallet.pubkey, quote), quote
    raise ConfigError(
        f"no viable swap route after {max_attempts} attempts: {last_error}"
    )


class Behavior(ABC):
    """One population's generator: called once per scheduled event."""

    name: str = "behavior"

    def __init__(self, ctx: AgentContext, rng: DeterministicRNG) -> None:
        self.ctx = ctx
        self.rng = rng.child(self.name)

    @abstractmethod
    def generate(self) -> GeneratedBundle | None:
        """Submit one unit of activity; returns its record (None if skipped)."""
