"""Public keys, keypairs, and simulation-grade signatures.

Solana uses ed25519; this simulator substitutes a deterministic hash-based
scheme that preserves the *interface* (sign/verify over a serialized message,
base58-rendered 32-byte public keys and 64-byte signatures) without the
cryptographic hardness. Within the simulation the private key is publicly
derivable from the public key, which is what makes offline verification
possible without carrying key material around.

This is explicitly NOT a secure signature scheme — it exists so the bank can
exercise a real verify-before-execute code path and so detectors can rely on
"signed by the same account" exactly as the paper's heuristics do.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.utils.base58 import b58decode, b58encode

PUBKEY_LENGTH = 32
SIGNATURE_LENGTH = 64


def _hash32(*parts: bytes) -> bytes:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


def _hash64(*parts: bytes) -> bytes:
    first = _hash32(*parts)
    return first + _hash32(first)


_PUBKEY_B58_CACHE: dict[bytes, str] = {}
"""Pubkeys repeat across millions of encodings (wallets, mints, pools);
memoizing their base58 form is one of the simulator's hottest wins."""


@dataclass(frozen=True, order=True)
class Pubkey:
    """A 32-byte account address, rendered in base58.

    Equality and hashing work on the raw bytes directly: the bank keys its
    balances by ``Pubkey`` and ``(Pubkey, Pubkey)``, and the generated
    methods would build a one-field tuple on every lookup. A key equals
    only another ``Pubkey``, never its own bytes; ordering stays the
    generated field order.
    """

    raw: bytes

    def __post_init__(self) -> None:
        if len(self.raw) != PUBKEY_LENGTH:
            raise ValueError(
                f"pubkey must be {PUBKEY_LENGTH} bytes, got {len(self.raw)}"
            )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Pubkey:
            return self.raw == other.raw
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.raw)

    @classmethod
    def from_seed(cls, seed: str) -> "Pubkey":
        """Derive a deterministic address from a human-readable seed.

        Used for well-known program addresses and test fixtures.
        """
        return cls(_hash32(b"pubkey-seed:", seed.encode()))

    @classmethod
    def from_base58(cls, encoded: str) -> "Pubkey":
        """Parse a base58-rendered address."""
        return cls(b58decode(encoded))

    def to_base58(self) -> str:
        """Render the address in base58 (the canonical display form)."""
        cached = _PUBKEY_B58_CACHE.get(self.raw)
        if cached is None:
            cached = b58encode(self.raw)
            _PUBKEY_B58_CACHE[self.raw] = cached
        return cached

    def __str__(self) -> str:
        return self.to_base58()

    def __repr__(self) -> str:
        return f"Pubkey({self.to_base58()!r})"


@dataclass(frozen=True)
class Signature:
    """A 64-byte transaction signature, rendered in base58.

    As on Solana, the fee payer's signature doubles as the transaction id —
    so the encoding is computed once and memoized on the instance.
    """

    raw: bytes

    def __post_init__(self) -> None:
        if len(self.raw) != SIGNATURE_LENGTH:
            raise ValueError(
                f"signature must be {SIGNATURE_LENGTH} bytes, got {len(self.raw)}"
            )
        object.__setattr__(self, "_b58", None)

    def to_base58(self) -> str:
        """Render the signature in base58 (memoized)."""
        cached = self._b58
        if cached is None:
            cached = b58encode(self.raw)
            object.__setattr__(self, "_b58", cached)
        return cached

    def __str__(self) -> str:
        return self.to_base58()

    def __repr__(self) -> str:
        return f"Signature({self.to_base58()[:16]!r}...)"


def _derive_private(pubkey: Pubkey) -> bytes:
    """Simulation-grade private key derivation (publicly computable)."""
    return _hash32(b"private:", pubkey.raw)


class Keypair:
    """A signing identity.

    Create one deterministically from a seed string; every agent in the
    simulation owns one.
    """

    def __init__(self, seed: str) -> None:
        self._seed = seed
        self._pubkey = Pubkey(_hash32(b"keypair:", seed.encode()))
        self._private = _derive_private(self._pubkey)

    @property
    def pubkey(self) -> Pubkey:
        """The public address of this keypair."""
        return self._pubkey

    @property
    def seed(self) -> str:
        """The seed the keypair was derived from."""
        return self._seed

    def sign(self, message: bytes) -> Signature:
        """Sign a serialized message."""
        return Signature(_hash64(b"sig:", self._private, message))

    def __repr__(self) -> str:
        return f"Keypair({self._seed!r} -> {self._pubkey.to_base58()[:8]}...)"


def verify(pubkey: Pubkey, message: bytes, signature: Signature) -> bool:
    """Check that ``signature`` is ``pubkey``'s signature over ``message``."""
    expected = _hash64(b"sig:", _derive_private(pubkey), message)
    return signature.raw == expected
