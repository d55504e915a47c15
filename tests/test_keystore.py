import random
import re
import struct
import tempfile
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from otp_remctl.entropy import EntropySource, SeededSource
from otp_remctl.errors import (
    BadMagic,
    BadVersion,
    ChecksumMismatch,
    KeyReused,
    OutOfRange,
    SksFormatError,
    TruncatedFile,
)
from otp_remctl.frame import MAX_ADDRESS, CipherMode
from otp_remctl.keystore import SksStore, charge


@pytest.fixture
def make_pair():
    """Factory for matched (controller, controlee) store pairs."""
    def build(blocks=16, block_size=32, seed=1):
        return charge(SeededSource(seed), block_size, blocks)
    return build


def test_charge_produces_matched_stores():
    a, b = charge(SeededSource(1), 32, 10)
    assert a.key_material == b.key_material
    assert a.consumed_count == 0
    assert b.consumed_count == 0


def test_charge_material_length():
    a, _ = charge(SeededSource(1), 32, 2**10)
    assert len(a.key_material) == 32768


def test_charge_rejects_other_block_sizes():
    with pytest.raises(ValueError):
        charge(SeededSource(1), 16, 4)
    with pytest.raises(ValueError):
        charge(SeededSource(1), 32, 0)


class _NoDrawSource(EntropySource):
    """A source that fails the test if any key material is asked of it."""

    def _draw(self, n: int) -> bytes:
        pytest.fail(f"charge drew {n} bytes for a store it must reject")


def test_charge_rejects_address_space_overflow_before_drawing():
    # MAX_ADDRESS + 2 full blocks would be a 128 GiB draw
    with pytest.raises(ValueError, match="exceeds the 32-bit address space"):
        charge(_NoDrawSource(), CipherMode.FULL.key_length, MAX_ADDRESS + 2)


class _DrawReached(Exception):
    pass


class _SentinelSource(EntropySource):
    """A source that stops charge at its draw, so no key material is made."""

    def _draw(self, n: int) -> bytes:
        raise _DrawReached(n)


def test_charge_accepts_exactly_the_whole_address_space():
    # one block per address: the geometry check passes and charge goes on to draw
    with pytest.raises(_DrawReached) as reached:
        charge(_SentinelSource(), CipherMode.FULL.key_length, MAX_ADDRESS + 1)
    assert reached.value.args == (CipherMode.FULL.key_length * (MAX_ADDRESS + 1),)


def test_take_block_is_one_time(make_pair):
    s, _ = make_pair()
    s.take_block(0)
    with pytest.raises(KeyReused):
        s.take_block(0)


def test_take_block_past_end(make_pair):
    s, _ = make_pair(blocks=16)
    with pytest.raises(OutOfRange):
        s.take_block(16)


def test_matched_stores_agree_per_block(make_pair):
    a, b = make_pair(blocks=8)
    ka = a.take_block(5)
    kb = b.take_block(5)
    assert ka == kb and len(ka) == 32


def test_take_advances_next_expected(make_pair):
    s, _ = make_pair()
    s.take_block(0)
    assert s.consumed_count == 1
    s.take_block(2)
    # taking 2 burns 1 on the way: the ledger is a consumed prefix
    assert s.consumed_count == 3
    with pytest.raises(KeyReused):
        s.take_block(1)
    assert s.consumed_count == 3


def test_discard_through_noop(make_pair):
    s, _ = make_pair()
    assert s.discard_through(0) == 0
    assert s.consumed_count == 0


def test_discard_through_counts(make_pair):
    s, _ = make_pair()
    assert s.discard_through(3) == 3
    assert s.consumed_count == 3
    assert s.discard_through(3) == 0


def test_discard_through_accepts_int(make_pair):
    s, _ = make_pair()
    assert s.discard_through(2) == 2


@given(ledger=st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       addr=st.integers(-4, 80) | st.integers(0, 2 ** 64))
@example(ledger=(8, 4), addr=2)  # below the ledger
@example(ledger=(8, 4), addr=4)  # at it
@example(ledger=(8, 4), addr=6)  # above it, inside the store
@example(ledger=(8, 4), addr=8)  # addr == block_count
@example(ledger=(8, 4), addr=9)  # one past the end of the store
@example(ledger=(8, 8), addr=9)  # past the end of an exhausted store
@example(ledger=(8, 0), addr=2 ** 63)  # far past it
@settings(max_examples=300)
def test_discard_through_burns_up_to_the_end_of_the_store(ledger, addr):
    blocks, consumed = ledger
    store = SksStore(32, blocks, bytes(32 * blocks))
    store.discard_through(consumed)
    assert store.consumed_count == consumed
    burned = max(0, min(addr, blocks) - consumed)
    assert store.discard_through(addr) == burned
    assert store.consumed_count == consumed + burned


@given(ledger=st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       addr=st.integers(-4, 80) | st.integers(-2 ** 64, 2 ** 64))
@example(ledger=(8, 4), addr=-1)  # below 0
@example(ledger=(8, 4), addr=2)  # below the ledger
@example(ledger=(8, 4), addr=4)  # at it
@example(ledger=(8, 4), addr=8)  # addr == block_count
@example(ledger=(8, 8), addr=8)  # at the end of an exhausted store
@example(ledger=(8, 0), addr=2 ** 63)  # far past it
@settings(max_examples=300)
def test_take_block_raises_what_a_range_then_ledger_check_raises(ledger, addr):
    blocks, consumed = ledger
    material = random.Random(blocks).randbytes(32 * blocks)
    store = SksStore(32, blocks, material, consumed)
    if not 0 <= addr < blocks:
        with pytest.raises(OutOfRange, match=f"^address {addr} not in store of {blocks} blocks$"):
            store.take_block(addr)
    elif addr < consumed:
        with pytest.raises(KeyReused, match=f"^key block {addr} already consumed$"):
            store.take_block(addr)
    else:
        assert store.take_block(addr) == material[32 * addr:32 * addr + 32]
        consumed = addr + 1
    assert store.consumed_count == consumed


def test_remaining(make_pair):
    s, _ = make_pair(blocks=10)
    s.take_block(0)
    s.discard_through(5)
    assert s.consumed_count == 5
    assert s.remaining == 5


@pytest.mark.parametrize("ledger", [
    [3, 255, 0, 1, 2, 0, 0, 128, 5],
    (3, 255, 0, 1, 2, 0, 0, 128, 5),
    bytes([3, 255, 0, 1, 2, 0, 0, 128, 5]),
    bytearray([3, 255, 0, 1, 2, 0, 0, 128, 5]),
    [True, -1, None, 1, 300, 0.0, "", "x", 0.5],
], ids=["list", "tuple", "bytes", "bytearray", "objects"])
def test_consumed_argument_refuses_a_per_block_ledger(ledger):
    with pytest.raises(TypeError):
        SksStore(23, 9, bytes(9 * 23), ledger)


@pytest.mark.parametrize("consumed", range(10))
def test_consumed_argument_is_a_prefix_length(consumed):
    s = SksStore(23, 9, bytes(9 * 23), consumed)
    assert s.consumed_bitmap() == _reference_bitmap([1] * consumed + [0] * (9 - consumed))
    assert s.consumed_count == consumed
    assert s.remaining == 9 - consumed


def test_consumed_argument_length_must_match():
    # the consumed prefix must fit in the store
    for consumed in (-1, 5):
        with pytest.raises(ValueError, match=rf"consumed prefix {consumed} is outside 0\.\.4"):
            SksStore(23, 4, bytes(4 * 23), consumed)


def _reference_bitmap(ledger) -> bytes:
    """One bit per block, MSB-first, encoded one block at a time."""
    bitmap = bytearray((len(ledger) + 7) // 8)
    for i, c in enumerate(ledger):
        if c:
            bitmap[i >> 3] |= 0x80 >> (i & 7)
    return bytes(bitmap)


def _reference_ledger(bitmap: bytes, block_count: int) -> bytearray:
    """Decode ``_reference_bitmap`` one block at a time; padding bits are ignored."""
    consumed = bytearray(block_count)
    for i in range(block_count):
        if bitmap[i >> 3] & (0x80 >> (i & 7)):
            consumed[i] = 1
    return consumed


@pytest.mark.parametrize("pattern", ["none", "all", "random", "sparse"])
@pytest.mark.parametrize("blocks", [*range(1, 18), 63, 64, 65, 1001])
def test_ledger_codec_matches_reference(tmp_path, blocks, pattern):
    rng = random.Random(blocks)
    p_take = {"none": 0.0, "all": 1.0, "random": 0.5, "sparse": 0.1}[pattern]
    taken = bytearray(rng.random() < p_take for _ in range(blocks))
    material = rng.randbytes(blocks * 23)
    store = SksStore(23, blocks, material)
    for i in range(blocks):
        if taken[i]:
            assert store.take_block(i) == material[23 * i:23 * (i + 1)]
    # each take burns every block below it: the ledger is the prefix
    # through the last block taken
    last = taken.rfind(1)
    ledger = bytearray([1] * (last + 1) + [0] * (blocks - last - 1))
    bitmap = _reference_bitmap(ledger)
    assert store.consumed_bitmap() == bitmap
    p = tmp_path / "s.sks"
    store.save(p)
    assert p.read_bytes()[12:12 + len(bitmap)] == bitmap
    decoded = _reference_ledger(bitmap, blocks)
    assert decoded == ledger
    loaded = SksStore.load(p)
    assert _reference_ledger(loaded.consumed_bitmap(), blocks) == decoded
    assert loaded.consumed_count == sum(ledger)
    assert loaded.consumed_count == store.consumed_count
    assert loaded == store


@pytest.mark.parametrize("bit", [None, *range(10, 16)],
                         ids=lambda bit: "clean" if bit is None else f"bit{bit}")
def test_load_refuses_set_bitmap_padding_bits(tmp_path, make_pair, bit):
    s, _ = make_pair(blocks=10)
    s.take_block(1)
    s.take_block(9)
    p = tmp_path / "s.sks"
    s.save(p)
    raw = bytearray(p.read_bytes())
    assert raw[12:14] == bytes([0xFF, 0b11000000])
    if bit is None:  # the control: padding clear, as save writes it
        loaded = SksStore.load(p)
        assert loaded == s and loaded.consumed_count == 10
        loaded.save(p)
        assert p.read_bytes() == raw
        return
    raw[13] |= 0x80 >> (bit - 8)  # bits 10..15 name no block
    raw[-4:] = struct.pack(">I", zlib.crc32(raw[:-4]))
    p.write_bytes(bytes(raw))
    with pytest.raises(SksFormatError, match=rf"^{re.escape(str(p))}: .* past block 9$"):
        SksStore.load(p)


def test_material_length_must_match():
    with pytest.raises(ValueError):
        SksStore(32, 4, b"\x00" * 100)


def test_save_load_roundtrip(tmp_path, make_pair):
    s, _ = make_pair(blocks=10)
    s.take_block(0)
    s.take_block(7)
    p = tmp_path / "s.sks"
    s.save(p)
    loaded = SksStore.load(p)
    assert loaded == s
    assert loaded.consumed_count == 8
    for burned in (0, 1, 7):
        with pytest.raises(KeyReused):
            loaded.take_block(burned)
    assert loaded.take_block(8) == s.key_material[8 * 32:9 * 32]


def test_file_layout_is_bit_exact(tmp_path, make_pair):
    s, _ = make_pair(blocks=10)
    s.take_block(0)
    s.take_block(2)
    p = tmp_path / "s.sks"
    s.save(p)
    raw = p.read_bytes()
    magic, version, block_size, block_count = struct.unpack(">4sHHI", raw[:12])
    assert magic == b"SKS1"
    assert (version, block_size, block_count) == (1, 32, 10)
    # bitmap: blocks 0..2 set (taking 2 burned 1), MSB-first, padded to 2 bytes
    assert raw[12:14] == bytes([0b11100000, 0])
    assert raw[14:334] == s.key_material
    assert raw[334:] == struct.pack(">I", zlib.crc32(raw[:334]))
    assert len(raw) == 338


def test_load_rejects_bad_magic(tmp_path, make_pair):
    s, _ = make_pair(blocks=4)
    p = tmp_path / "s.sks"
    s.save(p)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        SksStore.load(p)


def test_load_rejects_bad_version(tmp_path, make_pair):
    s, _ = make_pair(blocks=4)
    p = tmp_path / "s.sks"
    s.save(p)
    raw = bytearray(p.read_bytes())
    raw[5] = 9  # version low byte; checked before the checksum
    p.write_bytes(bytes(raw))
    with pytest.raises(BadVersion):
        SksStore.load(p)


# 4 full blocks: header 12 + bitmap 1 + material 128 + CRC 4 bytes
@pytest.mark.parametrize("keep", range(145))
def test_load_rejects_truncation(tmp_path, make_pair, keep):
    s, _ = make_pair(blocks=4)
    p = tmp_path / "s.sks"
    s.save(p)
    raw = p.read_bytes()
    assert len(raw) == 145
    p.write_bytes(raw[:keep])
    # Each length fails its own size check, not a later short read.
    reason = ("too short for the magic" if keep < 4 else "header incomplete" if keep < 12
              else f"{keep} bytes, format needs 145")
    with pytest.raises(TruncatedFile, match=re.escape(reason)):
        SksStore.load(p)


@pytest.mark.parametrize("bitmap, hole", [
    ((0b10100000, 0), 1),
    ((0b01000000, 0), 0),
    ((0xFF, 0b01000000), 8),
    ((0b11111101, 0b10000000), 6),
])
def test_load_refuses_a_bitmap_with_a_hole(tmp_path, bitmap, hole):
    p = tmp_path / "s.sks"
    body = struct.pack(">4sHHI", b"SKS1", 1, 32, 10) + bytes(bitmap) + bytes(320)
    p.write_bytes(body + struct.pack(">I", zlib.crc32(body)))
    with pytest.raises(SksFormatError, match=rf"^{re.escape(str(p))}: consumed bitmap has "
                       rf"a hole: block {hole} is unconsumed below a consumed block$"):
        SksStore.load(p)


def test_load_rejects_flipped_material(tmp_path, make_pair):
    s, _ = make_pair(blocks=4)
    p = tmp_path / "s.sks"
    s.save(p)
    raw = bytearray(p.read_bytes())
    raw[20] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatch):
        SksStore.load(p)


def test_load_rejects_trailing_garbage(tmp_path, make_pair):
    s, _ = make_pair(blocks=4)
    p = tmp_path / "s.sks"
    s.save(p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(SksFormatError):
        SksStore.load(p)


def test_load_rejects_block_size_no_cipher_mode_uses(tmp_path):
    p = tmp_path / "odd.sks"
    body = struct.pack(">4sHHI", b"SKS1", 1, 17, 4) + bytes(1) + bytes(68)
    p.write_bytes(body + struct.pack(">I", zlib.crc32(body)))
    with pytest.raises(SksFormatError,
                       match=r"odd\.sks: no cipher mode uses 17-byte key blocks"):
        SksStore.load(p)


@pytest.mark.parametrize("mode", list(CipherMode))
def test_store_carries_its_cipher_mode(tmp_path, mode):
    a, _ = charge(SeededSource(2), mode.key_length, 3)
    a.save(tmp_path / "s.sks")
    assert a.mode is SksStore.load(tmp_path / "s.sks").mode is mode


def test_selective_block_size_roundtrip(tmp_path):
    a, _ = charge(SeededSource(2), CipherMode.SELECTIVE.key_length, 6)
    a.take_block(0)
    p = tmp_path / "sel.sks"
    a.save(p)
    loaded = SksStore.load(p)
    assert loaded.block_size == 23
    assert loaded == a


_OPS = st.lists(
    st.tuples(st.sampled_from(["take", "discard"]), st.integers(0, 30)),
    max_size=12,
)


@given(st.integers(0, 2**32 - 1), _OPS)
@settings(max_examples=60, deadline=None)
def test_roundtrip_over_random_op_sequences(seed, ops):
    store, _ = charge(SeededSource(seed), CipherMode.FULL.key_length, 24)
    for op, i in ops:
        if op == "take":
            try:
                store.take_block(i)
            except (KeyReused, OutOfRange):
                pass
        else:
            store.discard_through(i)
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "s.sks"
        store.save(p)
        assert SksStore.load(p) == store


@given(st.integers(0, 2**32 - 1), _OPS)
@example(0, [("take", 5), ("discard", 8)])  # take 5 burns 0..5, discard 8 burns 6 and 7
@settings(max_examples=60, deadline=None)
def test_no_block_is_returned_twice(seed, ops):
    store, _ = charge(SeededSource(seed), CipherMode.FULL.key_length, 24)
    seen = set()
    consumed_hwm = 0
    model = 0  # the consumed prefix, kept apart from the store
    for op, i in ops:
        if op == "take":
            try:
                store.take_block(i)
            except (KeyReused, OutOfRange):
                assert i < model or i >= 24
                continue
            assert i not in seen
            seen.add(i)
            model = i + 1
        else:
            burned = max(0, min(i, 24) - model)
            assert store.discard_through(i) == burned
            model += burned
        assert store.consumed_count == model
        # the ledger only grows
        assert store.consumed_count >= consumed_hwm
        consumed_hwm = store.consumed_count


def test_store_addresses_are_plain_ints(make_pair):
    s, _ = make_pair(blocks=8)
    assert type(s.consumed_count) is int
    s.take_block(0)
    assert s.discard_through(2) == 1
    assert s.consumed_count == 2
    # numpy integers are addresses too, but never become the ledger
    s.take_block(np.int64(2))
    assert s.discard_through(np.uint32(5)) == 2
    assert s.consumed_count == 5 and type(s.consumed_count) is int
    built = SksStore(32, np.int64(8), s.key_material, np.uint32(5))
    assert [type(v) for v in (built.block_size, built.block_count,
                              built.consumed_count)] == [int, int, int]


@pytest.mark.parametrize("addr", [2.0, 4.5, Fraction(3), "3"],
                         ids=["float", "half", "fraction", "str"])
def test_non_integer_address_moves_no_ledger(make_pair, tmp_path, addr):
    s, _ = make_pair(blocks=8)
    s.take_block(0)
    for burn in (s.take_block, s.discard_through):
        with pytest.raises(TypeError):
            burn(addr)
        assert s.consumed_count == 1
    s.save(tmp_path / "s.sks")
    assert SksStore.load(tmp_path / "s.sks") == s


@pytest.mark.parametrize("block_size, block_count, consumed", [
    (32, 8, 2.5), (32, 8.0, 0), (32.0, 8, 0),
], ids=["consumed", "block_count", "block_size"])
def test_store_geometry_must_be_integers(block_size, block_count, consumed):
    with pytest.raises(TypeError):
        SksStore(block_size, block_count, bytes(256), consumed)


@pytest.mark.parametrize("block_size, block_count", [(32, 8.0), (32.0, 8)],
                         ids=["block_count", "block_size"])
def test_charge_refuses_a_non_integer_geometry_before_drawing(block_size, block_count):
    with pytest.raises(TypeError):
        charge(_NoDrawSource(), block_size, block_count)
