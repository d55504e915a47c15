import random
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from otp_remctl.entropy import SeededSource
from otp_remctl.errors import (
    BadMagic,
    BadVersion,
    ChecksumMismatch,
    KeyReused,
    OutOfRange,
    SksFormatError,
    TruncatedFile,
)
from otp_remctl.frame import FULL_BLOCK_SIZE, SELECTIVE_BLOCK_SIZE
from otp_remctl.keystore import SksStore, charge


def test_charge_produces_matched_stores():
    a, b = charge(SeededSource(1), 32, 10)
    assert a.key_material == b.key_material
    assert a.next_expected == 0
    assert b.next_expected == 0
    assert a.consumed_count == 0


def test_charge_material_length():
    a, _ = charge(SeededSource(1), 32, 2**10)
    assert len(a.key_material) == 32768


def test_charge_rejects_other_block_sizes():
    with pytest.raises(ValueError):
        charge(SeededSource(1), 16, 4)
    with pytest.raises(ValueError):
        charge(SeededSource(1), 32, 0)


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
    assert s.next_expected == 1
    s.take_block(2)
    # 1 is still free, so it stays next
    assert s.next_expected == 1
    s.take_block(1)
    assert s.next_expected == 3


def test_discard_through_noop(make_pair):
    s, _ = make_pair()
    assert s.discard_through(0) == 0
    assert s.next_expected == 0


def test_discard_through_counts(make_pair):
    s, _ = make_pair()
    assert s.discard_through(3) == 3
    assert s.next_expected == 3
    assert s.discard_through(3) == 0


def test_discard_through_accepts_int(make_pair):
    s, _ = make_pair()
    assert s.discard_through(2) == 2


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
def test_consumed_argument_is_read_by_truthiness(ledger):
    s = SksStore(1, 9, bytes(9), ledger)
    assert s.consumed_bitmap() == bytes([0b11011001, 0b10000000])
    assert s.consumed_count == 6
    assert s.next_expected == 2


def test_consumed_argument_length_must_match():
    with pytest.raises(ValueError, match="length must equal block_count"):
        SksStore(1, 4, bytes(4), b"\x01\x00\x01")


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
    ledger = bytearray(rng.random() < p_take for _ in range(blocks))
    store = SksStore(1, blocks, bytes(blocks))
    for i in range(blocks):
        if ledger[i]:
            store.take_block(i)
    bitmap = _reference_bitmap(ledger)
    assert store.consumed_bitmap() == bitmap
    p = tmp_path / "s.sks"
    store.save(p)
    assert p.read_bytes()[12:12 + len(bitmap)] == bitmap
    decoded = _reference_ledger(bitmap, blocks)
    assert decoded == ledger
    loaded = SksStore.load(p)
    assert [loaded.is_consumed(i) for i in range(blocks)] == [bool(c) for c in decoded]
    assert loaded.consumed_count == sum(ledger)
    assert loaded.next_expected == store.next_expected
    assert loaded == store


def test_load_ignores_bitmap_padding_bits(tmp_path, make_pair):
    s, _ = make_pair(blocks=10)
    s.take_block(1)
    s.take_block(9)
    p = tmp_path / "s.sks"
    s.save(p)
    raw = bytearray(p.read_bytes())
    assert raw[13] == 0b01000000
    raw[13] |= 0b00111111  # bits 10..15 name no block
    raw[-4:] = struct.pack(">I", zlib.crc32(raw[:-4]))
    p.write_bytes(bytes(raw))
    loaded = SksStore.load(p)
    assert loaded == s
    assert loaded.consumed_count == 2
    assert loaded.consumed_bitmap() == bytes([0b01000000, 0b01000000])


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
    assert loaded.is_consumed(0) and loaded.is_consumed(7)
    assert not loaded.is_consumed(1)
    assert loaded.next_expected == 1


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
    # bitmap: blocks 0 and 2 set, MSB-first, padded to 2 bytes
    assert raw[12:14] == bytes([0b10100000, 0])
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


@pytest.mark.parametrize("keep", [3, 11, 40])
def test_load_rejects_truncation(tmp_path, make_pair, keep):
    s, _ = make_pair(blocks=4)
    p = tmp_path / "s.sks"
    s.save(p)
    p.write_bytes(p.read_bytes()[:keep])
    with pytest.raises(TruncatedFile):
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


def test_selective_block_size_roundtrip(tmp_path):
    a, _ = charge(SeededSource(2), SELECTIVE_BLOCK_SIZE, 6)
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
    store, _ = charge(SeededSource(seed), FULL_BLOCK_SIZE, 24)
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
@example(0, [("take", 5), ("discard", 8)])  # a hole above next_expected: 7 burned, next is 8
@settings(max_examples=60, deadline=None)
def test_no_block_is_returned_twice(seed, ops):
    store, _ = charge(SeededSource(seed), FULL_BLOCK_SIZE, 24)
    seen = set()
    consumed_hwm = 0
    model = set()  # the consumed block indices, kept apart from the store
    for op, i in ops:
        if op == "take":
            try:
                store.take_block(i)
            except (KeyReused, OutOfRange):
                assert i in model or i >= 24
                continue
            assert i not in seen
            seen.add(i)
            model.add(i)
        else:
            burned = set(range(min(i, 24))) - model
            assert store.discard_through(i) == len(burned)
            model |= burned
        assert store.next_expected == min(set(range(25)) - model)
        assert store.consumed_count == len(model)
        # the ledger only grows
        assert store.consumed_count >= consumed_hwm
        consumed_hwm = store.consumed_count


def test_store_addresses_are_plain_ints(make_pair):
    s, _ = make_pair(blocks=4)
    assert type(s.next_expected) is int
    s.take_block(0)
    assert s.discard_through(2) == 1
    assert s.is_consumed(1) and s.next_expected == 2
