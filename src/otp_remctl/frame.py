"""Bit-exact codec for 32-byte command frames and the one-time-pad wire format.

Frame layout (byte indices):

    0..4    fixed header 36 77 60 16 105, identical for every command
    5..18   seven control channels, little-endian u16 each
    19..27  auxiliary bytes (carried opaquely)
    28..31  trailer

On the air a frame travels as 36 bytes: the 32-byte payload followed by a
4-byte big-endian key address in clear.  In full mode all 32 payload bytes
are XORed with a key block; in selective mode only bytes 5..27 are, the
constant header and the trailer staying in clear to save key material.
"""

import enum
import struct
from dataclasses import dataclass
from pathlib import Path

from .errors import BadLength, KeyLengthMismatch, OutOfRange

HEADER = bytes((36, 77, 60, 16, 105))
FRAME_LEN = 32
ADDRESS_LEN = 4
WIRE_LEN = FRAME_LEN + ADDRESS_LEN
CHANNEL_COUNT = 7

CHANNEL_SLICE = slice(5, 19)
AUX_SLICE = slice(19, 28)
TRAILER_SLICE = slice(28, 32)
SELECTIVE_SLICE = slice(5, 28)

# The pad geometry follows from the wire format: one key block per frame,
# as long as the region its cipher mode XORs, addressed by ADDRESS_LEN bytes.
MAX_ADDRESS = 2 ** (8 * ADDRESS_LEN) - 1
FULL_BLOCK_SIZE = FRAME_LEN
SELECTIVE_BLOCK_SIZE = SELECTIVE_SLICE.stop - SELECTIVE_SLICE.start

_CHANNELS = struct.Struct("<7H")


class CipherMode(enum.Enum):
    """Which payload bytes get XORed with key material."""

    FULL = "full"
    SELECTIVE = "selective"

    @property
    def key_length(self) -> int:
        return FULL_BLOCK_SIZE if self is CipherMode.FULL else SELECTIVE_BLOCK_SIZE

    @property
    def ciphered(self) -> slice:
        """The payload bytes this mode XORs with key material."""
        return slice(0, FRAME_LEN) if self is CipherMode.FULL else SELECTIVE_SLICE

    @classmethod
    def for_block_size(cls, block_size: int) -> "CipherMode":
        for mode in cls:
            if mode.key_length == block_size:
                return mode
        raise ValueError(f"no cipher mode uses {block_size}-byte key blocks")


@dataclass(frozen=True)
class CommandFrame:
    """A validated 32-byte plaintext command."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != FRAME_LEN:
            raise BadLength(f"command frame is {FRAME_LEN} bytes, got {len(self.data)}")
        if self.data[:5] != HEADER:
            raise ValueError(f"bad frame header {self.data[:5].hex()}")

    @property
    def channels(self) -> tuple:
        """The seven control-channel values."""
        return _CHANNELS.unpack(self.data[CHANNEL_SLICE])

    @property
    def aux(self) -> bytes:
        return self.data[AUX_SLICE]

    @property
    def trailer(self) -> bytes:
        return self.data[TRAILER_SLICE]


def encode_command(channels, aux: bytes, trailer: bytes) -> CommandFrame:
    """Assemble a frame from its variable fields; the header is fixed.

    ``channels`` is an iterable of seven values in 0..65535, ``aux`` nine
    bytes, ``trailer`` four bytes.
    """
    channels = tuple(channels)
    if len(channels) != CHANNEL_COUNT:
        raise ValueError(f"expected {CHANNEL_COUNT} channel values, got {len(channels)}")
    for v in channels:
        if not 0 <= v <= 0xFFFF:
            raise ValueError(f"channel value {v} outside 0..65535")
    aux = bytes(aux)
    trailer = bytes(trailer)
    if len(aux) != 9:
        raise ValueError(f"aux is 9 bytes, got {len(aux)}")
    if len(trailer) != 4:
        raise ValueError(f"trailer is 4 bytes, got {len(trailer)}")
    return CommandFrame(HEADER + _CHANNELS.pack(*channels) + aux + trailer)


def validate_frame(data: bytes) -> bool:
    """True iff the fixed header is intact.

    A wrong input length is a caller error, not invalidity, and raises.
    """
    if len(data) != FRAME_LEN:
        raise BadLength(f"frame is {FRAME_LEN} bytes, got {len(data)}")
    return data[:5] == HEADER


@dataclass(frozen=True)
class WireFrame:
    """The on-air unit: ciphered payload plus the key address in clear.

    The address bytes are never ciphered; they carry no command
    information without the matching store.
    """

    address: int
    payload: bytes

    def __post_init__(self) -> None:
        if len(self.payload) != FRAME_LEN:
            raise BadLength(f"wire payload is {FRAME_LEN} bytes, got {len(self.payload)}")
        if not 0 <= self.address <= MAX_ADDRESS:
            raise OutOfRange(f"address must fit in 32 bits, got {self.address}")

    def to_bytes(self) -> bytes:
        """Serialize: 32 payload bytes, then the 4 address bytes."""
        return self.payload + self.address.to_bytes(ADDRESS_LEN, "big")


def parse_wire(data: bytes) -> WireFrame:
    """Split a 36-byte wire frame into its payload and trailing address."""
    if len(data) != WIRE_LEN:
        raise BadLength(f"wire frame is {WIRE_LEN} bytes, got {len(data)}")
    return WireFrame(int.from_bytes(data[FRAME_LEN:], "big"), bytes(data[:FRAME_LEN]))


def _apply_pad(data: bytes, key: bytes, mode: CipherMode) -> bytes:
    """XOR the mode's ciphered region of ``data`` with ``key``; the rest stays clear."""
    if len(key) != mode.key_length:
        raise KeyLengthMismatch(
            f"{mode.value} mode needs a {mode.key_length}-byte key, got {len(key)}"
        )
    region = mode.ciphered
    pad = int.from_bytes(data[region], "big") ^ int.from_bytes(key, "big")
    return data[:region.start] + pad.to_bytes(len(key), "big") + data[region.stop:]


def otp_encrypt(frame: CommandFrame, key: bytes, addr: int,
                mode: CipherMode = CipherMode.FULL) -> WireFrame:
    """XOR the mode's payload region with ``key`` and attach the address."""
    return WireFrame(addr, _apply_pad(frame.data, key, mode))


def otp_decrypt(wire: WireFrame, key: bytes,
                mode: CipherMode = CipherMode.FULL) -> bytes:
    """Invert otp_encrypt; returns a 32-byte candidate still to be validated."""
    return _apply_pad(wire.payload, key, mode)


# The five stock commands: (name, channels, aux byte 21, trailer).
# Aux bytes are 0 everywhere except index 21 of the frame.
_STANDARD = (
    ("Connection", (1501, 1501, 1499, 1500, 1500, 1500, 1501), 166, (221, 255, 223, 255)),
    ("Backward", (1501, 1501, 1499, 1000, 1501, 1500, 1501), 149, (221, 191, 215, 255)),
    ("Turn Left", (1501, 1500, 1002, 1499, 1500, 1500, 1501), 168, (221, 255, 215, 255)),
    ("Turn Right", (1501, 1501, 2000, 1499, 1500, 1501, 1500), 168, (221, 255, 215, 255)),
    ("Forward", (1500, 1500, 1500, 2000, 1500, 1499, 1501), 168, (221, 255, 215, 255)),
)


class CommandRegistry:
    """Named commands the controlee is willing to execute.

    Registration is where frames are validated: ``add`` takes only a
    ``CommandFrame``, whose constructor has checked the length and the
    header.  Acceptance is an exact 32-byte match with a registered frame,
    which implies both checks, so any corruption of a ciphered byte
    surfaces as a mismatch after decryption.

    File format: one command per line, ``name: 32 comma-separated decimal
    bytes``; blank lines and ``#`` comments are skipped.
    """

    def __init__(self, commands=None) -> None:
        self._frames: dict[str, CommandFrame] = {}
        self._by_bytes: dict[bytes, str] = {}
        if commands:
            for name, frame in commands:
                self.add(name, frame)

    def add(self, name: str, frame: CommandFrame) -> None:
        if not isinstance(frame, CommandFrame):
            raise TypeError(f"command {name!r} must be a CommandFrame, "
                            f"got {type(frame).__name__}")
        if name in self._frames:
            raise ValueError(f"duplicate command name {name!r}")
        self._frames[name] = frame
        self._by_bytes[frame.data] = name

    def lookup(self, name: str) -> CommandFrame:
        try:
            return self._frames[name]
        except KeyError:
            raise KeyError(f"unknown command {name!r}; have {list(self._frames)}") from None

    def match(self, data: bytes):
        """Name of the command whose bytes equal ``data`` exactly, else None."""
        return self._by_bytes.get(bytes(data))

    def names(self) -> tuple:
        return tuple(self._frames)

    def __len__(self) -> int:
        return len(self._frames)

    def __iter__(self):
        return iter(self._frames.items())

    def __contains__(self, name: str) -> bool:
        return name in self._frames

    def save(self, path) -> None:
        lines = [
            f"{name}: {','.join(str(b) for b in frame.data)}"
            for name, frame in self._frames.items()
        ]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "CommandRegistry":
        reg = cls()
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, values = line.partition(":")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'name: bytes'")
            try:
                ints = [int(v) for v in values.split(",")]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bytes must be decimal integers") from None
            if not all(0 <= b <= 255 for b in ints):
                raise ValueError(f"{path}:{lineno}: byte values must be 0..255")
            reg.add(name.strip(), CommandFrame(bytes(ints)))
        return reg


def standard_registry() -> CommandRegistry:
    """A fresh registry holding the five stock commands."""
    reg = CommandRegistry()
    for name, channels, aux21, trailer in _STANDARD:
        aux = bytearray(9)
        aux[2] = aux21
        reg.add(name, encode_command(channels, bytes(aux), bytes(trailer)))
    return reg
