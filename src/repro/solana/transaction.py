"""Messages and signed transactions.

Matches Solana's model where it matters to the paper's analysis: a message
names a fee payer and an ordered instruction list; every required signer must
attach a valid signature; the fee payer's signature is the transaction id.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from repro.errors import InvalidSignatureError, TransactionError
from repro.solana.instruction import Instruction
from repro.solana.keys import Keypair, Pubkey, Signature, verify


@dataclass(frozen=True)
class Message:
    """The signed payload of a transaction."""

    fee_payer: Pubkey
    instructions: tuple[Instruction, ...]
    recent_blockhash: str = ""

    def required_signers(self) -> list[Pubkey]:
        """Fee payer first, then every instruction-level signer, deduplicated."""
        seen: dict[Pubkey, None] = {self.fee_payer: None}
        for instruction in self.instructions:
            for key in instruction.signer_keys():
                seen.setdefault(key, None)
        return list(seen)

    def serialize(self) -> bytes:
        """Canonical byte serialization used for signing and hashing.

        The bytes are exactly ``json.dumps(payload, separators=(",", ":"),
        sort_keys=True)`` of ``{"fee_payer": ..., "instructions": [{
        "accounts": [[pubkey, is_signer, is_writable], ...], "data": hex,
        "program_id": ...}, ...], "recent_blockhash": ...}``, and
        signatures and transaction ids hash them. The shape is fixed, so it
        is written directly with the keys in sorted order. Base58 and hex
        text never needs escaping, so only the free-form blockhash goes
        through the encoder's own ASCII quoting.

        Memoized: a message is serialized at signing time and again at
        verification; the instance is frozen, so the bytes never change.
        """
        cached = getattr(self, "_serialized", None)
        if cached is not None:
            return cached
        instructions = []
        for ix in self.instructions:
            accounts = ",".join(
                [
                    f'["{meta.pubkey.to_base58()}",'
                    f"{'true' if meta.is_signer else 'false'},"
                    f"{'true' if meta.is_writable else 'false'}]"
                    for meta in ix.accounts
                ]
            )
            instructions.append(
                f'{{"accounts":[{accounts}],"data":"{ix.data.hex()}",'
                f'"program_id":"{ix.program_id.to_base58()}"}}'
            )
        serialized = (
            f'{{"fee_payer":"{self.fee_payer.to_base58()}",'
            f'"instructions":[{",".join(instructions)}],'
            f'"recent_blockhash":{_quote(self.recent_blockhash)}}}'
        ).encode()
        object.__setattr__(self, "_serialized", serialized)
        return serialized

    def hash(self) -> str:
        """Hex digest of the serialized message."""
        return hashlib.sha256(self.serialize()).hexdigest()


_nonce_counter = 0


def reset_nonce_counter() -> None:
    """Restart the auto-nonce sequence.

    Called when a fresh, isolated simulation world is created so that a
    given (seed, scenario) pair reproduces identical transaction ids no
    matter what ran earlier in the process. Running two simulation worlds
    *interleaved* in one process is unsupported (their auto-nonces could
    collide); sequential worlds are fine.
    """
    global _nonce_counter
    _nonce_counter = 0


def _next_nonce() -> str:
    """A process-unique nonce standing in for a recent blockhash.

    On Solana two otherwise-identical transactions differ by their recent
    blockhash; the simulator assigns a deterministic counter instead, so
    repeated identical trades still get distinct signatures and ids.
    """
    global _nonce_counter
    _nonce_counter += 1
    return f"nonce-{_nonce_counter}"


@dataclass
class Transaction:
    """A message plus the signatures that authorize it."""

    message: Message
    signatures: dict[Pubkey, Signature] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        fee_payer: Keypair,
        instructions: list[Instruction],
        extra_signers: list[Keypair] | None = None,
        recent_blockhash: str = "",
    ) -> "Transaction":
        """Construct and fully sign a transaction in one step.

        When ``recent_blockhash`` is empty a unique nonce is substituted, so
        repeat trades never collide on transaction id.
        """
        message = Message(
            fee_payer=fee_payer.pubkey,
            instructions=tuple(instructions),
            recent_blockhash=recent_blockhash or _next_nonce(),
        )
        tx = cls(message=message)
        tx.sign(fee_payer)
        for signer in extra_signers or []:
            tx.sign(signer)
        return tx

    def sign(self, keypair: Keypair) -> None:
        """Attach ``keypair``'s signature over the message."""
        self.signatures[keypair.pubkey] = keypair.sign(self.message.serialize())

    @property
    def transaction_id(self) -> str:
        """The fee payer's signature in base58 — Solana's transaction id.

        Raises:
            TransactionError: if the transaction has not been signed yet.
        """
        signature = self.signatures.get(self.message.fee_payer)
        if signature is None:
            raise TransactionError("transaction is missing the fee payer signature")
        return signature.to_base58()

    @property
    def signer(self) -> Pubkey:
        """The fee payer, which the paper treats as the transaction's sender."""
        return self.message.fee_payer

    def verify_signatures(self) -> None:
        """Check that every required signer has attached a valid signature.

        Raises:
            InvalidSignatureError: on any missing or non-verifying signature.
        """
        serialized = self.message.serialize()
        for required in self.message.required_signers():
            signature = self.signatures.get(required)
            if signature is None:
                raise InvalidSignatureError(
                    f"missing signature from {required.to_base58()}"
                )
            if not verify(required, serialized, signature):
                raise InvalidSignatureError(
                    f"signature from {required.to_base58()} does not verify"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        try:
            tx_id = self.transaction_id[:12]
        except TransactionError:
            tx_id = "<unsigned>"
        return (
            f"Transaction({tx_id}, payer={self.message.fee_payer.to_base58()[:8]}, "
            f"n_ix={len(self.message.instructions)})"
        )
