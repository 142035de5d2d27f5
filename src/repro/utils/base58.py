"""Base58 encoding and decoding (Bitcoin/Solana alphabet).

Solana public keys and transaction signatures are conventionally rendered in
base58. This is a from-scratch implementation with no dependencies.

Both directions are memoized behind bounded LRU caches: the simulator
encodes and decodes the same 32-byte addresses (wallets, mints, pools) over
and over, and the big-integer conversion dominates the cost.
"""

from __future__ import annotations

from functools import lru_cache

ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_INDEX = {char: i for i, char in enumerate(ALPHABET)}

#: Bound on each direction's memo. 64k entries of 32-to-64-byte payloads is
#: a few MB — enough to hold every address a paper-scale campaign touches.
CACHE_SIZE = 65_536


def _b58encode(data: bytes) -> str:
    leading_zeros = 0
    for byte in data:
        if byte != 0:
            break
        leading_zeros += 1

    value = int.from_bytes(data, "big")
    digits: list[str] = []
    while value > 0:
        value, remainder = divmod(value, 58)
        digits.append(ALPHABET[remainder])
    return "1" * leading_zeros + "".join(reversed(digits))


def _b58decode(encoded: str) -> bytes:
    leading_ones = 0
    for char in encoded:
        if char != "1":
            break
        leading_ones += 1

    value = 0
    for char in encoded:
        try:
            value = value * 58 + _INDEX[char]
        except KeyError:
            raise ValueError(f"invalid base58 character: {char!r}") from None

    body = value.to_bytes((value.bit_length() + 7) // 8, "big") if value else b""
    return b"\x00" * leading_ones + body


@lru_cache(maxsize=CACHE_SIZE)
def b58encode(data: bytes) -> str:
    """Encode ``data`` as a base58 string using the Bitcoin alphabet.

    Leading zero bytes are encoded as leading ``'1'`` characters, matching
    the standard used by Solana for public keys. Memoized (bounded LRU).
    """
    return _b58encode(data)


@lru_cache(maxsize=CACHE_SIZE)
def b58decode(encoded: str) -> bytes:
    """Decode a base58 string back to bytes. Memoized (bounded LRU).

    Raises:
        ValueError: if ``encoded`` contains characters outside the alphabet.
    """
    return _b58decode(encoded)
