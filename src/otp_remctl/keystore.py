"""Precharged key stores: address-indexed one-time key blocks with a consumption ledger.

A store is charged once from an entropy source, in two byte-identical
copies (one per party).  Each block is consumable exactly once, and blocks
skipped during loss recovery are burned rather than queued, so the two
ledgers can only ever move forward.  A ledger is therefore a consumed
prefix, held as one integer: the index of the next unconsumed block.

On-disk format (all integers big-endian):

    magic "SKS1" | version u16 | block_size u16 | block_count u32 |
    consumed bitmap (ceil(block_count/8) bytes, bit i = block i, MSB-first,
                     padding bits past the last block zero) |
    key material (block_count * block_size bytes) |
    CRC-32 (IEEE) over all preceding bytes, u32

``save`` writes the prefix as that many one-bits, then zeros.  ``load``
refuses a bitmap with a hole (an unconsumed block below a consumed one),
which no writer makes, so load -> save gives back the same file.
"""

import operator
import os
import struct
import zlib

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


def _check_geometry(block_size: int, block_count: int) -> CipherMode:
    """The cipher mode a store of this geometry serves; ValueError if none,
    TypeError for a size or count that is not an integer."""
    mode = CipherMode.for_block_size(operator.index(block_size))
    if operator.index(block_count) < 1:
        raise ValueError(f"block_count must be positive, got {block_count}")
    if block_count - 1 > MAX_ADDRESS:
        raise ValueError(f"block_count {block_count} exceeds the 32-bit address space")
    return mode


def _prefix_bitmap(consumed: int, block_count: int) -> bytes:
    """The file bitmap of a ledger whose first ``consumed`` blocks are burned."""
    full, part = divmod(consumed, 8)
    ones = b"\xff" * full + (bytes([0xFF00 >> part & 0xFF]) if part else b"")
    return ones + bytes((block_count + 7) // 8 - len(ones))


def _leading_ones(bitmap: bytes) -> int:
    """How many set bits the MSB-first ``bitmap`` starts with."""
    rest = bitmap.lstrip(b"\xff")
    return 8 * (len(bitmap) - len(rest)) + (8 - (rest[0] ^ 0xFF).bit_length() if rest else 0)


class SksStore:
    """Key material plus its consumption ledger.

    Single-writer; a loaded store that is never mutated may be read
    concurrently.  The ledger is the consumed prefix: the blocks below
    ``consumed_count`` are burned, the rest are fresh, and it only grows.
    """

    def __init__(self, block_size: int, block_count: int, key_material: bytes,
                 consumed: int = 0) -> None:
        block_size, block_count, consumed = map(
            operator.index, (block_size, block_count, consumed))
        self.mode = _check_geometry(block_size, block_count)
        if len(key_material) != block_size * block_count:
            raise ValueError(
                f"key material is {len(key_material)} bytes, "
                f"expected {block_size * block_count}"
            )
        if not 0 <= consumed <= block_count:
            raise ValueError(f"consumed prefix {consumed} is outside 0..{block_count}")
        self.block_size = block_size
        self.block_count = block_count
        self._material = bytes(key_material)
        self._next = consumed

    @property
    def key_material(self) -> bytes:
        return self._material

    @property
    def consumed_count(self) -> int:
        """Smallest unconsumed index (== block_count when exhausted)."""
        return self._next

    @property
    def remaining(self) -> int:
        return self.block_count - self._next

    def take_block(self, addr: int) -> bytes:
        """Return the block at ``addr``, burning it and every block below it.

        Raises OutOfRange past the end of the store and KeyReused below
        consumed_count, and TypeError for a non-integer ``addr``, all
        before the ledger moves; the block's bytes are returned exactly once, ever.
        """
        if type(addr) is not int:
            addr = operator.index(addr)
        if self._next <= addr < self.block_count:
            self._next = addr + 1
            off = addr * self.block_size
            return self._material[off:off + self.block_size]
        if not 0 <= addr < self.block_count:
            raise OutOfRange(f"address {addr} not in store of {self.block_count} blocks")
        raise KeyReused(f"key block {addr} already consumed")

    def discard_through(self, addr: int) -> int:
        """Burn every unconsumed block below ``addr``; return how many.

        Idempotent: a no-op when ``addr`` is at or below consumed_count.
        TypeError for a non-integer ``addr``, before the ledger moves.
        """
        if type(addr) is not int:
            addr = operator.index(addr)
        start = self._next
        if addr > start:
            self._next = addr if addr < self.block_count else self.block_count
        return self._next - start

    def consumed_bitmap(self) -> bytes:
        """Ledger packed one bit per block, MSB-first (the file encoding)."""
        return _prefix_bitmap(self._next, self.block_count)

    def save(self, path) -> None:
        """Persist the store, ledger included, in the bit-exact file format."""
        head = _HEADER.pack(MAGIC, VERSION, self.block_size, self.block_count)
        head += self.consumed_bitmap()
        crc = zlib.crc32(self._material, zlib.crc32(head))
        with open(path, "wb") as fh:
            fh.writelines((head, self._material, _CRC.pack(crc)))

    @classmethod
    def load(cls, path) -> "SksStore":
        """Load a store file; failure modes are distinct, never a wrong state."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(_HEADER.size)
            if len(head) < len(MAGIC):
                raise TruncatedFile(f"{path}: {len(head)} bytes, too short for the magic")
            if head[:4] != MAGIC:
                raise BadMagic(f"{path}: bad magic {head[:4]!r}")
            if len(head) < _HEADER.size:
                raise TruncatedFile(f"{path}: header incomplete")
            _, version, block_size, block_count = _HEADER.unpack(head)
            if version != VERSION:
                raise BadVersion(f"{path}: unsupported version {version}")
            try:
                _check_geometry(block_size, block_count)
            except ValueError as exc:
                raise SksFormatError(f"{path}: {exc}") from None
            bitmap_len = (block_count + 7) // 8
            total = _HEADER.size + bitmap_len + block_size * block_count + _CRC.size
            if size < total:
                raise TruncatedFile(f"{path}: {size} bytes, format needs {total}")
            if size > total:
                raise SksFormatError(f"{path}: {size - total} trailing bytes")
            bitmap = fh.read(bitmap_len)
            material = fh.read(block_size * block_count)
            stored = fh.read(_CRC.size)
        if len(stored) < _CRC.size:  # the file shrank after fstat
            raise TruncatedFile(f"{path}: file ends before its checksum")
        (stored_crc,) = _CRC.unpack(stored)
        actual_crc = zlib.crc32(material, zlib.crc32(bitmap, zlib.crc32(head)))
        if stored_crc != actual_crc:
            raise ChecksumMismatch(
                f"{path}: CRC {actual_crc:#010x} != stored {stored_crc:#010x}"
            )
        if block_count % 8 and bitmap[-1] & (0xFF >> block_count % 8):
            # save writes zeros there; a set bit would be dropped on load.
            raise SksFormatError(f"{path}: consumed bitmap has a bit set past "
                                 f"block {block_count - 1}")
        consumed = _leading_ones(bitmap)
        if bitmap != _prefix_bitmap(consumed, block_count):
            raise SksFormatError(f"{path}: consumed bitmap has a hole: block "
                                 f"{consumed} is unconsumed below a consumed block")
        return cls(block_size, block_count, material, consumed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SksStore):
            return NotImplemented
        return (self.block_size == other.block_size
                and self.block_count == other.block_count
                and self._material == other._material
                and self._next == other._next)

    def __repr__(self) -> str:
        return (f"SksStore(block_size={self.block_size}, "
                f"block_count={self.block_count}, consumed={self._next})")


def charge(source: EntropySource, block_size: int, block_count: int):
    """Draw fresh key material and return matched (controller, controlee) stores.

    Both copies share byte-identical material and start with empty ledgers.
    """
    _check_geometry(block_size, block_count)  # before drawing any key material
    material = source.fill(block_size * block_count)
    return (SksStore(block_size, block_count, material),
            SksStore(block_size, block_count, material))
