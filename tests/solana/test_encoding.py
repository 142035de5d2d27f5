"""The simulator's byte encodings, pinned against their reference forms.

Signatures and transaction ids hash instruction data and message bytes, so
the fast encoders must produce exactly what the generic ``json.dumps``
construction produces. The reference constructions are kept here.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dex.pool import PoolSpec
from repro.dex.swap import swap_instruction
from repro.solana import fees, system_program, token_program
from repro.solana.instruction import AccountMeta, Instruction
from repro.solana.keys import Pubkey
from repro.solana.tokens import Mint
from repro.solana.transaction import Message

pubkeys = st.binary(min_size=32, max_size=32).map(Pubkey)
positive = st.integers(min_value=1, max_value=2**80)
#: Text that stresses JSON quoting: quotes, backslashes, control
#: characters, DEL, non-ASCII, astral-plane characters.
awkward_text = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x08\x1f\x7f é€\U0001f600'),
        st.characters(),
    ),
    max_size=40,
)


def reference_data(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def reference_serialize(message: Message) -> bytes:
    """The message encoding as the generic encoder builds it."""
    payload = {
        "fee_payer": message.fee_payer.to_base58(),
        "recent_blockhash": message.recent_blockhash,
        "instructions": [
            {
                "program_id": ix.program_id.to_base58(),
                "accounts": [
                    [m.pubkey.to_base58(), m.is_signer, m.is_writable]
                    for m in ix.accounts
                ],
                "data": ix.data.hex(),
            }
            for ix in message.instructions
        ],
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


class TestPayloadBuilders:
    @settings(max_examples=100, deadline=None)
    @given(source=pubkeys, dest=pubkeys, lamports=positive)
    def test_system_transfer(self, source, dest, lamports):
        ix = system_program.transfer(source, dest, lamports)
        assert ix.data == reference_data(
            {"op": "transfer", "lamports": lamports}
        )

    @settings(max_examples=100, deadline=None)
    @given(source=pubkeys, dest=pubkeys, mint=pubkeys, amount=positive)
    def test_token_transfer_and_mint(self, source, dest, mint, amount):
        encoded = mint.to_base58()
        assert token_program.transfer(source, dest, mint, amount).data == (
            reference_data({"op": "transfer", "mint": encoded, "amount": amount})
        )
        assert token_program.mint_to(source, dest, mint, amount).data == (
            reference_data({"op": "mint_to", "mint": encoded, "amount": amount})
        )

    @settings(max_examples=100, deadline=None)
    @given(price=st.integers(min_value=0, max_value=2**64), units=positive)
    def test_compute_budget(self, price, units):
        assert fees.set_compute_unit_price(price).data == reference_data(
            {"op": "set_compute_unit_price", "micro_lamports": price}
        )
        assert fees.set_compute_unit_limit(units).data == reference_data(
            {"op": "set_compute_unit_limit", "units": units}
        )

    @settings(max_examples=100, deadline=None)
    @given(
        owner=pubkeys,
        symbols=st.tuples(
            st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=6),
            st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=6),
        ).filter(lambda pair: pair[0] != pair[1]),
        amount_in=positive,
        min_out=st.integers(min_value=0, max_value=2**80),
        side=st.booleans(),
    )
    def test_swap(self, owner, symbols, amount_in, min_out, side):
        mint_a, mint_b = (Mint.from_symbol(symbol) for symbol in symbols)
        pool = PoolSpec.create(mint_a, mint_b, fee_bps=25)
        mint_in = (mint_a if side else mint_b).address
        ix = swap_instruction(owner, pool, mint_in, amount_in, min_out)
        assert ix.data == reference_data(
            {
                "op": "swap",
                "pool": pool.address.to_base58(),
                "mint_in": mint_in.to_base58(),
                "amount_in": amount_in,
                "min_amount_out": min_out,
            }
        )


account_metas = st.builds(
    AccountMeta, pubkey=pubkeys, is_signer=st.booleans(),
    is_writable=st.booleans(),
)
instructions = st.builds(
    Instruction,
    program_id=pubkeys,
    accounts=st.lists(account_metas, max_size=4).map(tuple),
    data=st.binary(max_size=64),
)


class TestMessageSerialize:
    @settings(max_examples=300, deadline=None)
    @given(
        fee_payer=pubkeys,
        ixs=st.lists(instructions, max_size=5).map(tuple),
        blockhash=awkward_text,
    )
    @example(
        fee_payer=Pubkey.from_seed("payer"),
        ixs=(),
        blockhash='a"b\\c\n\x01\x7fé😀\ud800',
    )
    def test_matches_the_generic_encoder(self, fee_payer, ixs, blockhash):
        message = Message(fee_payer, ixs, blockhash)
        assert message.serialize() == reference_serialize(message)


class TestPubkeyIdentity:
    @settings(max_examples=200, deadline=None)
    @given(raw=st.binary(min_size=32, max_size=32))
    def test_equal_bytes_equal_keys_equal_hashes(self, raw):
        first, second = Pubkey(raw), Pubkey(bytes(raw))
        assert first == second
        assert hash(first) == hash(second)
        assert {first: 1}[second] == 1
        assert {(first, second): 1}[(second, first)] == 1

    @settings(max_examples=200, deadline=None)
    @given(raw=st.binary(min_size=32, max_size=32))
    def test_never_equals_its_own_bytes(self, raw):
        key = Pubkey(raw)
        assert key != raw
        assert raw != key
        assert not (key == raw)
        assert len({key, raw}) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.binary(min_size=32, max_size=32),
        b=st.binary(min_size=32, max_size=32),
    )
    def test_distinct_bytes_distinct_keys(self, a, b):
        assert (Pubkey(a) == Pubkey(b)) == (a == b)

    @settings(max_examples=100, deadline=None)
    @given(raws=st.lists(st.binary(min_size=32, max_size=32), max_size=20))
    def test_sort_order_is_the_raw_byte_order(self, raws):
        keys = sorted(Pubkey(raw) for raw in raws)
        assert [key.raw for key in keys] == sorted(raws)
