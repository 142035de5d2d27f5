"""The bank: account state plus atomic transaction execution.

Produces per-transaction receipts carrying balance deltas and structured
events (swaps, transfers). Those receipts are exactly the artifact the
paper's detail-fetching step retrieves for length-three bundles and feeds to
the sandwich detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import (
    AccountNotFoundError,
    InsufficientFundsError,
    ProgramError,
    TransactionError,
)
from repro.solana.accounts import Account
from repro.solana.fees import FeeBreakdown, FeeSchedule
from repro.solana.instruction import (
    COMPUTE_BUDGET_PROGRAM_ID,
    SYSTEM_PROGRAM_ID,
    TOKEN_PROGRAM_ID,
)
from repro.solana.keys import Keypair, Pubkey
from repro.solana.program import ProgramProcessor
from repro.solana import system_program, token_program
from repro.solana.transaction import Transaction


@dataclass
class TransactionReceipt:
    """The observable outcome of one executed transaction.

    ``token_deltas`` maps owner base58 -> mint base58 -> signed base-unit
    change; ``lamport_deltas`` maps owner base58 -> signed lamport change
    (inclusive of fees and transfers). ``events`` holds structured program
    events such as DEX swaps and lamport transfers.
    """

    transaction_id: str
    slot: int
    success: bool
    error: str | None
    fee: FeeBreakdown
    fee_payer: str
    signers: list[str]
    token_deltas: dict[str, dict[str, int]] = field(default_factory=dict)
    lamport_deltas: dict[str, int] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)


class Bank:
    """Executes transactions against in-memory account state.

    Individual transactions are atomic; :meth:`execute_atomic` additionally
    makes a *sequence* of transactions all-or-nothing, which is how the Jito
    block engine runs bundles.
    """

    def __init__(self, fee_schedule: FeeSchedule | None = None) -> None:
        self._accounts: dict[Pubkey, Account] = {}
        self._token_balances: dict[tuple[Pubkey, Pubkey], int] = {}
        self._fee_schedule = fee_schedule or FeeSchedule()
        self._fee_collector: Pubkey | None = None
        self._processors: dict[Pubkey, ProgramProcessor] = {
            SYSTEM_PROGRAM_ID: system_program.process,
            TOKEN_PROGRAM_ID: token_program.process,
        }
        self._slot = 0
        self._transactions_executed = 0
        # Per-transaction execution context. The journal records, in order,
        # the *pre-mutation* value of every balance a transaction touches;
        # it doubles as the rollback log and the delta baseline.
        self._journal: list[tuple] = []
        self._current_signers: frozenset[Pubkey] = frozenset()
        self._current_events: list[dict] = []

    # --- configuration ---------------------------------------------------

    @property
    def fee_schedule(self) -> FeeSchedule:
        """The fee schedule applied to every transaction."""
        return self._fee_schedule

    @property
    def slot(self) -> int:
        """The slot stamped onto receipts (set by the block producer)."""
        return self._slot

    def set_slot(self, slot: int) -> None:
        """Advance the slot counter; receipts record the slot they ran in."""
        if slot < self._slot:
            raise TransactionError(
                f"slot cannot move backwards: {slot} < {self._slot}"
            )
        self._slot = slot

    @property
    def transactions_executed(self) -> int:
        """Count of successfully committed transactions."""
        return self._transactions_executed

    def set_fee_collector(self, collector: Pubkey | None) -> None:
        """Direct transaction fees to a validator identity (None burns them)."""
        self._fee_collector = collector

    def register_program(
        self, program_id: Pubkey, processor: ProgramProcessor
    ) -> None:
        """Install a program processor (e.g. the DEX AMM program)."""
        self._processors[program_id] = processor

    # --- account management -------------------------------------------------

    def create_account(self, pubkey: Pubkey, lamports: int = 0) -> Account:
        """Create (or top up) an account with an initial lamport balance."""
        account = self._accounts.get(pubkey)
        if account is None:
            account = Account(lamports=lamports)
            self._accounts[pubkey] = account
        else:
            account.credit(lamports)
        return account

    def fund(self, keypair_or_pubkey: Keypair | Pubkey, lamports: int) -> None:
        """Airdrop lamports to an account, creating it if needed."""
        pubkey = (
            keypair_or_pubkey.pubkey
            if isinstance(keypair_or_pubkey, Keypair)
            else keypair_or_pubkey
        )
        self.create_account(pubkey, lamports)

    def fund_tokens(self, owner: Pubkey, mint: Pubkey, amount: int) -> None:
        """Airdrop tokens to an owner (simulation seeding)."""
        if amount < 0:
            raise TransactionError(f"cannot fund negative tokens: {amount}")
        key = (owner, mint)
        self._token_balances[key] = self._token_balances.get(key, 0) + amount

    # --- BankView interface (used by program processors) ----------------------

    def lamport_balance(self, pubkey: Pubkey) -> int:
        """Lamports held by ``pubkey`` (0 for unknown accounts)."""
        account = self._accounts.get(pubkey)
        return account.lamports if account else 0

    def token_balance(self, owner: Pubkey, mint: Pubkey) -> int:
        """Base-unit token balance of ``owner`` for ``mint``."""
        return self._token_balances.get((owner, mint), 0)

    def is_signer(self, pubkey: Pubkey) -> bool:
        """Whether ``pubkey`` signed the currently executing transaction."""
        return pubkey in self._current_signers

    def emit_event(self, event: dict) -> None:
        """Record a structured program event on the current receipt."""
        self._current_events.append(dict(event))

    def transfer_lamports(self, source: Pubkey, dest: Pubkey, lamports: int) -> None:
        """Journaled lamport transfer with balance enforcement."""
        if lamports < 0:
            raise ProgramError(f"negative lamport transfer: {lamports}")
        source_account = self._accounts.get(source)
        if source_account is None:
            raise AccountNotFoundError(f"unknown account {source.to_base58()}")
        if source_account.lamports < lamports:
            raise InsufficientFundsError(
                f"{source.to_base58()} has {source_account.lamports} lamports, "
                f"needs {lamports}"
            )
        dest_account = self._accounts.get(dest)
        if dest_account is None:
            dest_account = self.create_account(dest)
        self._journal_lamports(source)
        self._journal_lamports(dest)
        source_account.debit(lamports)
        dest_account.credit(lamports)

    def transfer_tokens(
        self, source: Pubkey, dest: Pubkey, mint: Pubkey, amount: int
    ) -> None:
        """Journaled token transfer with balance enforcement."""
        if amount < 0:
            raise ProgramError(f"negative token transfer: {amount}")
        source_key = (source, mint)
        balance = self._token_balances.get(source_key, 0)
        if balance < amount:
            raise InsufficientFundsError(
                f"{source.to_base58()} has {balance} of {mint.to_base58()[:8]}, "
                f"needs {amount}"
            )
        dest_key = (dest, mint)
        self._journal_tokens(source_key)
        self._journal_tokens(dest_key)
        self._token_balances[source_key] = balance - amount
        self._token_balances[dest_key] = (
            self._token_balances.get(dest_key, 0) + amount
        )

    def mint_tokens(self, dest: Pubkey, mint: Pubkey, amount: int) -> None:
        """Journaled token creation."""
        if amount < 0:
            raise ProgramError(f"cannot mint negative amount: {amount}")
        dest_key = (dest, mint)
        self._journal_tokens(dest_key)
        self._token_balances[dest_key] = (
            self._token_balances.get(dest_key, 0) + amount
        )

    # --- journal ------------------------------------------------------------------

    def _journal_lamports(self, pubkey: Pubkey) -> None:
        self._journal.append(("lamports", pubkey, self.lamport_balance(pubkey)))

    def _journal_tokens(self, key: tuple[Pubkey, Pubkey]) -> None:
        self._journal.append(("tokens", key, self._token_balances.get(key, 0)))

    def _checkpoint(self) -> int:
        return len(self._journal)

    def _rollback_to(self, checkpoint: int) -> None:
        while len(self._journal) > checkpoint:
            kind, key, old_value = self._journal.pop()
            if kind == "lamports":
                account = self._accounts.get(key)
                if account is None:
                    account = self.create_account(key)
                account.lamports = old_value
            else:
                self._token_balances[key] = old_value

    def _deltas_since(
        self, checkpoint: int
    ) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
        """Balance changes since ``checkpoint``, derived from the journal.

        The first journal entry per key inside the window holds the true
        pre-transaction value, so deltas are exact even for accounts created
        mid-transaction.
        """
        first_lamports: dict[Pubkey, int] = {}
        first_tokens: dict[tuple[Pubkey, Pubkey], int] = {}
        for kind, key, old_value in self._journal[checkpoint:]:
            if kind == "lamports":
                first_lamports.setdefault(key, old_value)
            else:
                first_tokens.setdefault(key, old_value)
        lamport_deltas: dict[str, int] = {}
        for pubkey, pre in first_lamports.items():
            delta = self.lamport_balance(pubkey) - pre
            if delta:
                lamport_deltas[pubkey.to_base58()] = delta
        token_deltas: dict[str, dict[str, int]] = {}
        for (owner, mint), pre in first_tokens.items():
            delta = self._token_balances.get((owner, mint), 0) - pre
            if delta:
                token_deltas.setdefault(owner.to_base58(), {})[
                    mint.to_base58()
                ] = delta
        return lamport_deltas, token_deltas

    def finalize_out_of_band(self) -> None:
        """Commit direct (non-transaction) mutations by clearing the journal.

        Native programs run inside transactions, where the public execute
        methods manage the journal; protocol-level sweeps (the epoch tip
        distribution) mutate balances directly and must call this afterwards
        so the rollback log does not grow without bound. Never call it while
        a transaction is executing.
        """
        del self._journal[:]

    # --- execution ------------------------------------------------------------------

    def execute_transaction(self, tx: Transaction) -> TransactionReceipt:
        """Execute one transaction atomically.

        On any failure (bad signature, insufficient fee, program error) all
        effects including the fee are rolled back and the receipt reports
        ``success=False``.
        """
        receipt = self._execute(tx)
        if receipt.success:
            self._transactions_executed += 1
        del self._journal[:]  # committed (or rolled back): baseline no longer needed
        return receipt

    def execute_atomic(
        self, txs: Iterable[Transaction]
    ) -> list[TransactionReceipt]:
        """Execute a sequence all-or-nothing (Jito bundle semantics).

        If any transaction fails, every prior transaction in the sequence is
        rolled back and the partial receipt list (ending with the failing
        receipt) is returned with the bank state unchanged.
        """
        checkpoint = self._checkpoint()
        receipts: list[TransactionReceipt] = []
        committed = 0
        for tx in txs:
            receipt = self._execute(tx)
            receipts.append(receipt)
            if not receipt.success:
                self._rollback_to(checkpoint)
                return receipts
            committed += 1
        self._transactions_executed += committed
        del self._journal[checkpoint:]  # committed: baseline no longer needed
        return receipts

    def simulate_atomic(
        self, txs: Iterable[Transaction]
    ) -> list[TransactionReceipt]:
        """Dry-run a sequence atomically, then roll everything back.

        The equivalent of Jito's ``simulateBundle``: searchers check that a
        bundle would land before bidding tips on it. Receipts reflect what
        execution *would* have produced; bank state is untouched either way.
        """
        checkpoint = self._checkpoint()
        receipts: list[TransactionReceipt] = []
        for tx in txs:
            receipt = self._execute(tx)
            receipts.append(receipt)
            if not receipt.success:
                break
        self._rollback_to(checkpoint)
        return receipts

    def _execute(self, tx: Transaction) -> TransactionReceipt:
        self._current_events = []
        # Stands on the receipt only if the compute-budget payloads are
        # malformed, which fails the transaction before any fee is owed.
        fee = FeeBreakdown(
            base_fee=self._fee_schedule.base_fee_lamports, priority_fee=0
        )
        checkpoint = self._checkpoint()

        def make_receipt(success: bool, error: str | None) -> TransactionReceipt:
            lamport_deltas, token_deltas = self._deltas_since(checkpoint)
            return TransactionReceipt(
                transaction_id=tx.transaction_id,
                slot=self._slot,
                success=success,
                error=error,
                fee=fee,
                fee_payer=tx.message.fee_payer.to_base58(),
                signers=[k.to_base58() for k in tx.message.required_signers()],
                token_deltas=token_deltas,
                lamport_deltas=lamport_deltas,
                events=list(self._current_events),
            )

        try:
            fee = self._fee_schedule.breakdown(tx)
            tx.verify_signatures()
            self._current_signers = frozenset(tx.signatures)
            payer_account = self._accounts.get(tx.message.fee_payer)
            if payer_account is None:
                raise AccountNotFoundError(
                    f"fee payer {tx.message.fee_payer.to_base58()} does not exist"
                )
            if payer_account.lamports < fee.total:
                raise InsufficientFundsError(
                    f"fee payer has {payer_account.lamports} lamports, "
                    f"fee is {fee.total}"
                )
            self._journal_lamports(tx.message.fee_payer)
            payer_account.debit(fee.total)
            if self._fee_collector is not None:
                collector = self._accounts.get(self._fee_collector)
                if collector is None:
                    collector = self.create_account(self._fee_collector)
                self._journal_lamports(self._fee_collector)
                collector.credit(fee.total)

            for instruction in tx.message.instructions:
                if instruction.program_id == COMPUTE_BUDGET_PROGRAM_ID:
                    continue  # consumed by the fee schedule, not executed
                processor = self._processors.get(instruction.program_id)
                if processor is None:
                    raise ProgramError(
                        f"unknown program {instruction.program_id.to_base58()}"
                    )
                processor(self, instruction)
        except TransactionError as exc:
            self._rollback_to(checkpoint)
            receipt = make_receipt(False, str(exc))
            self._current_signers = frozenset()
            return receipt

        receipt = make_receipt(True, None)
        self._current_signers = frozenset()
        return receipt
