"""Precharged key stores: address-indexed one-time key blocks with a consumption ledger.

A store is charged once from an entropy source, in two byte-identical
copies (one per party).  Each block is consumable exactly once, and blocks
skipped during loss recovery are burned rather than queued, so the two
ledgers can only ever move forward.

On-disk format (all integers big-endian):

    magic "SKS1" | version u16 | block_size u16 | block_count u32 |
    consumed bitmap (ceil(block_count/8) bytes, bit i = block i, MSB-first) |
    key material (block_count * block_size bytes) |
    CRC-32 (IEEE) over all preceding bytes, u32
"""

import struct
import zlib
from pathlib import Path

import numpy as np

from .entropy import EntropySource
from .errors import (
    BadMagic,
    BadVersion,
    ChecksumMismatch,
    KeyReused,
    OutOfRange,
    SksFormatError,
    TruncatedFile,
)
from .frame import MAX_ADDRESS, CipherMode

MAGIC = b"SKS1"
VERSION = 1
_HEADER = struct.Struct(">4sHHI")
_CRC = struct.Struct(">I")


class SksStore:
    """Key material plus its consumption ledger.

    Single-writer; a loaded store that is never mutated may be read
    concurrently.  The ledger only grows: a block index is marked consumed
    at most once and never unmarked.
    """

    def __init__(self, block_size: int, block_count: int, key_material: bytes,
                 consumed=None) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be positive, got {block_size}")
        if block_count < 1:
            raise ValueError(f"block_count must be positive, got {block_count}")
        if block_count - 1 > MAX_ADDRESS:
            raise ValueError(f"block_count {block_count} exceeds the 32-bit address space")
        if len(key_material) != block_size * block_count:
            raise ValueError(
                f"key material is {len(key_material)} bytes, "
                f"expected {block_size * block_count}"
            )
        self.block_size = block_size
        self.block_count = block_count
        self._material = bytes(key_material)
        if consumed is None:
            consumed = bytes(block_count)
        if len(consumed) != block_count:
            raise ValueError("consumed ledger length must equal block_count")
        if isinstance(consumed, bytes):  # numpy reads bytes as one scalar, not a sequence
            consumed = memoryview(consumed)
        self._consumed = bytearray(np.asarray(consumed, dtype=bool))
        self._consumed_count = self._consumed.count(1)
        self._next = 0
        self._advance()

    def _advance(self) -> None:
        found = self._consumed.find(0, self._next)
        self._next = self.block_count if found < 0 else found

    @property
    def key_material(self) -> bytes:
        return self._material

    @property
    def next_expected(self) -> int:
        """Smallest unconsumed index (== block_count when exhausted)."""
        return self._next

    @property
    def consumed_count(self) -> int:
        return self._consumed_count

    @property
    def remaining(self) -> int:
        return self.block_count - self._consumed_count

    def is_consumed(self, addr: int) -> bool:
        if not 0 <= addr < self.block_count:
            raise OutOfRange(f"address {addr} not in store of {self.block_count} blocks")
        return bool(self._consumed[addr])

    def take_block(self, addr: int) -> bytes:
        """Return and burn the block at ``addr``.

        Raises OutOfRange past the end of the store and KeyReused on a
        second take of the same address; the block's bytes are returned
        exactly once, ever.
        """
        if not 0 <= addr < self.block_count:
            raise OutOfRange(f"address {addr} not in store of {self.block_count} blocks")
        if self._consumed[addr]:
            raise KeyReused(f"key block {addr} already consumed")
        self._consumed[addr] = 1
        self._consumed_count += 1
        if addr == self._next:
            self._advance()
        off = addr * self.block_size
        return self._material[off:off + self.block_size]

    def discard_through(self, addr: int) -> int:
        """Burn every unconsumed block below ``addr``; return how many.

        Idempotent: a no-op when ``addr`` is at or below next_expected.
        """
        limit = min(addr, self.block_count)
        if limit <= self._next:
            return 0
        burned = self._consumed.count(0, self._next, limit)
        self._consumed[self._next:limit] = b"\x01" * (limit - self._next)
        self._consumed_count += burned
        self._advance()
        return burned

    def consumed_bitmap(self) -> bytes:
        """Ledger packed one bit per block, MSB-first (the file encoding)."""
        return np.packbits(np.frombuffer(self._consumed, np.uint8)).tobytes()

    def save(self, path) -> None:
        """Persist the store, ledger included, in the bit-exact file format."""
        head = _HEADER.pack(MAGIC, VERSION, self.block_size, self.block_count)
        head += self.consumed_bitmap()
        crc = _CRC.pack(zlib.crc32(self._material, zlib.crc32(head)))
        Path(path).write_bytes(b"".join((head, self._material, crc)))

    @classmethod
    def load(cls, path) -> "SksStore":
        """Load a store file; failure modes are distinct, never a wrong state."""
        data = Path(path).read_bytes()
        if len(data) < len(MAGIC):
            raise TruncatedFile(f"{path}: {len(data)} bytes, too short for the magic")
        if data[:4] != MAGIC:
            raise BadMagic(f"{path}: bad magic {data[:4]!r}")
        if len(data) < _HEADER.size:
            raise TruncatedFile(f"{path}: header incomplete")
        _, version, block_size, block_count = _HEADER.unpack_from(data)
        if version != VERSION:
            raise BadVersion(f"{path}: unsupported version {version}")
        if block_size < 1 or block_count < 1:
            raise SksFormatError(f"{path}: nonsense geometry {block_size}x{block_count}")
        bitmap_len = (block_count + 7) // 8
        total = _HEADER.size + bitmap_len + block_size * block_count + _CRC.size
        if len(data) < total:
            raise TruncatedFile(f"{path}: {len(data)} bytes, format needs {total}")
        if len(data) > total:
            raise SksFormatError(f"{path}: {len(data) - total} trailing bytes")
        (stored_crc,) = _CRC.unpack_from(data, total - _CRC.size)
        actual_crc = zlib.crc32(memoryview(data)[:total - _CRC.size])
        if stored_crc != actual_crc:
            raise ChecksumMismatch(
                f"{path}: CRC {actual_crc:#010x} != stored {stored_crc:#010x}"
            )
        bitmap = np.frombuffer(data, np.uint8, bitmap_len, _HEADER.size)
        consumed = np.unpackbits(bitmap, count=block_count)
        material = data[_HEADER.size + bitmap_len:total - _CRC.size]
        return cls(block_size, block_count, material, consumed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SksStore):
            return NotImplemented
        return (self.block_size == other.block_size
                and self.block_count == other.block_count
                and self._material == other._material
                and self._consumed == other._consumed)

    def __repr__(self) -> str:
        return (f"SksStore(block_size={self.block_size}, "
                f"block_count={self.block_count}, "
                f"consumed={self._consumed_count})")


def charge(source: EntropySource, block_size: int, block_count: int):
    """Draw fresh key material and return matched (controller, controlee) stores.

    Both copies share byte-identical material and start with empty ledgers.
    """
    CipherMode.for_block_size(block_size)  # raises ValueError for any other size
    if block_count < 1:
        raise ValueError(f"block_count must be positive, got {block_count}")
    material = source.fill(block_size * block_count)
    return (SksStore(block_size, block_count, material),
            SksStore(block_size, block_count, material))
