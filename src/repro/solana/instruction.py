"""Instructions, account metas, and well-known program addresses.

Instruction data is UTF-8 JSON. :func:`encode_payload` is the one encoder
every payload builder uses, and :meth:`Instruction.payload` the one
decoder every consumer uses; the field readers below turn a missing or
mistyped field into :class:`~repro.errors.ProgramError`, so a malformed
payload fails its transaction instead of escaping the bank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProgramError
from repro.solana.keys import Pubkey
from repro.utils.serialization import decode_json, encode_json_sorted

# Well-known program addresses (deterministic, simulation-local).
SYSTEM_PROGRAM_ID = Pubkey.from_seed("program:system")
TOKEN_PROGRAM_ID = Pubkey.from_seed("program:spl-token")
COMPUTE_BUDGET_PROGRAM_ID = Pubkey.from_seed("program:compute-budget")
DEX_PROGRAM_ID = Pubkey.from_seed("program:dex-amm")
MEMO_PROGRAM_ID = Pubkey.from_seed("program:memo")


def encode_payload(payload: dict) -> bytes:
    """Instruction data for ``payload``: sorted-key JSON in UTF-8.

    Byte-identical to ``json.dumps(payload, sort_keys=True).encode()``;
    signatures and transaction ids hash these bytes.
    """
    return encode_json_sorted(payload).encode()


@dataclass(frozen=True)
class AccountMeta:
    """One account referenced by an instruction."""

    pubkey: Pubkey
    is_signer: bool = False
    is_writable: bool = False


@dataclass(frozen=True)
class Instruction:
    """A single program invocation.

    ``data`` carries the program-specific payload; this simulator encodes
    payloads as UTF-8 JSON produced by each program's builder functions, so
    instructions remain introspectable in tests and stored records.
    """

    program_id: Pubkey
    accounts: tuple[AccountMeta, ...] = field(default_factory=tuple)
    data: bytes = b""

    def signer_keys(self) -> list[Pubkey]:
        """All accounts this instruction requires signatures from."""
        return [meta.pubkey for meta in self.accounts if meta.is_signer]

    def writable_keys(self) -> list[Pubkey]:
        """All accounts this instruction may mutate."""
        return [meta.pubkey for meta in self.accounts if meta.is_writable]

    def payload(self) -> dict:
        """Decode ``data`` as a UTF-8 JSON object (decoded afresh per call).

        Raises:
            ProgramError: if the data is not UTF-8 JSON or not an object.
        """
        try:
            payload = decode_json(self.data.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise ProgramError(f"malformed payload: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProgramError(
                "malformed payload: expected a JSON object, got "
                f"{type(payload).__name__}"
            )
        return payload


def int_field(payload: dict, key: str, minimum: int = 0) -> int:
    """``payload[key]`` as an integer of at least ``minimum``.

    Raises:
        ProgramError: if the field is missing, not an integer (booleans
            included), or below ``minimum``.
    """
    value = payload.get(key)
    if type(value) is not int:
        raise ProgramError(
            f"payload field {key!r} must be an integer, got {value!r}"
        )
    if value < minimum:
        raise ProgramError(
            f"payload field {key!r} must be >= {minimum}, got {value}"
        )
    return value


def pubkey_field(payload: dict, key: str) -> Pubkey:
    """``payload[key]`` parsed as a base58 address.

    Raises:
        ProgramError: if the field is missing, not a string, or not a
            base58 encoding of a 32-byte address.
    """
    value = payload.get(key)
    if not isinstance(value, str):
        raise ProgramError(
            f"payload field {key!r} must be an address, got {value!r}"
        )
    try:
        return Pubkey.from_base58(value)
    except ValueError as exc:
        raise ProgramError(
            f"payload field {key!r} is not an address: {exc}"
        ) from exc
