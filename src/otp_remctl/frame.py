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

from .errors import BadLength, OutOfRange

HEADER = bytes((36, 77, 60, 16, 105))
FRAME_LEN = 32
ADDRESS_LEN = 4
WIRE_LEN = FRAME_LEN + ADDRESS_LEN
_CHANNEL_COUNT = 7

# One key block per frame, addressed by ADDRESS_LEN bytes; a block is as
# long as the region its cipher mode XORs (CipherMode.key_length).
MAX_ADDRESS = 2 ** (8 * ADDRESS_LEN) - 1

_CHANNELS = struct.Struct("<7H")


class CipherMode(enum.Enum):
    """Which payload bytes get XORed with key material: one row per mode,
    its name and its ciphered slice of the 32-byte payload."""

    FULL = "full", slice(0, FRAME_LEN)
    SELECTIVE = "selective", slice(5, 28)

    def __new__(cls, name: str, ciphered: slice) -> "CipherMode":
        # Plain attributes set from the row: ``ciphered``; ``key_length``,
        # its byte count; and ``_pad``, (key length, shift), where the key
        # shifted left by the count of clear bits after the ciphered region
        # lines up with that region of the payload read as one big-endian
        # int, with zeros over the clear bytes.  Not a dict keyed by the
        # mode: Enum.__hash__ is a Python function, and the pad runs twice a
        # command.
        mode = object.__new__(cls)
        mode._value_ = name
        mode.ciphered = ciphered
        mode.key_length = ciphered.stop - ciphered.start
        mode._pad = (mode.key_length, 8 * (FRAME_LEN - ciphered.stop))
        return mode

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


def encode_command(channels, aux: bytes, trailer: bytes) -> CommandFrame:
    """Assemble a frame from its variable fields; the header is fixed.

    ``channels`` is an iterable of seven values in 0..65535, ``aux`` nine
    bytes, ``trailer`` four bytes.
    """
    channels = tuple(channels)
    if len(channels) != _CHANNEL_COUNT:
        raise ValueError(f"expected {_CHANNEL_COUNT} channel values, got {len(channels)}")
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


@dataclass(slots=True)
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


# Builds a per-frame value without running its dataclass __init__ or
# __post_init__; the builder checks what they would and stores every slot.
# ``parse_wire``, ``otp_encrypt``, ``Channel.transmit`` and
# ``RxOutcome.accept``/``.discard`` build their values this way.
_new_wire = object.__new__


def parse_wire(data: bytes) -> WireFrame:
    """Split a 36-byte wire frame into its payload and trailing address."""
    if len(data) != WIRE_LEN:
        raise BadLength(f"wire frame is {WIRE_LEN} bytes, got {len(data)}")
    # The length check fixes the payload at 32 bytes, and 4 address bytes
    # always fit in 32 bits.
    wire = _new_wire(WireFrame)
    wire.address = int.from_bytes(data[FRAME_LEN:], "big")
    wire.payload = bytes(data[:FRAME_LEN])
    return wire


def _pad_error(data: bytes, key: bytes, mode: CipherMode) -> BadLength:
    """The error for a pad whose key or payload has the wrong length."""
    if len(key) != mode.key_length:
        return BadLength(f"{mode.value} mode needs a {mode.key_length}-byte key, got {len(key)}")
    return BadLength(f"a padded payload is {FRAME_LEN} bytes, got {len(data)}")


def otp_encrypt(frame: CommandFrame, key: bytes, addr: int, mode: CipherMode) -> WireFrame:
    """XOR the mode's payload region with ``key`` and attach the address."""
    data = frame.data
    key_length, shift = mode._pad
    if len(key) != key_length or len(data) != FRAME_LEN:
        raise _pad_error(data, key, mode)
    if not 0 <= addr <= MAX_ADDRESS:
        raise OutOfRange(f"address must fit in 32 bits, got {addr}")
    pad = int.from_bytes(data, "big") ^ (int.from_bytes(key, "big") << shift)
    wire = _new_wire(WireFrame)
    wire.address = addr
    wire.payload = pad.to_bytes(FRAME_LEN, "big")
    return wire


def otp_decrypt(wire: WireFrame, key: bytes, mode: CipherMode) -> bytes:
    """Invert otp_encrypt; returns a 32-byte candidate still to be validated."""
    data = wire.payload
    key_length, shift = mode._pad
    if len(key) != key_length or len(data) != FRAME_LEN:
        raise _pad_error(data, key, mode)
    pad = int.from_bytes(data, "big") ^ (int.from_bytes(key, "big") << shift)
    return pad.to_bytes(FRAME_LEN, "big")


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
    bytes``; blank lines and ``#`` comments are skipped.  So that every name
    survives a save and a load, and can be named in a script, ``add`` takes
    only a name that is one non-empty line with no surrounding whitespace,
    no leading ``#`` and no ``:``.
    """

    def __init__(self) -> None:
        self._frames: dict[str, CommandFrame] = {}
        self._by_bytes: dict[bytes, str] = {}

    def add(self, name: str, frame: CommandFrame) -> None:
        if not isinstance(frame, CommandFrame):
            raise TypeError(f"command {name!r} must be a CommandFrame, "
                            f"got {type(frame).__name__}")
        if (not isinstance(name, str) or name.splitlines() != [name]
                or name != name.strip() or name.startswith("#") or ":" in name):
            raise ValueError(f"bad command name {name!r}: need one non-empty line "
                             "with no surrounding whitespace, leading '#' or ':'")
        if name in self._frames:
            raise ValueError(f"duplicate command name {name!r}")
        if frame.data in self._by_bytes:
            raise ValueError(f"command {name!r} has the same bytes as "
                             f"{self._by_bytes[frame.data]!r}")
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
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "CommandRegistry":
        reg = cls()
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
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
            try:
                reg.add(name.strip(), CommandFrame(bytes(ints)))
            except (ValueError, BadLength) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
        return reg


def standard_registry() -> CommandRegistry:
    """A fresh registry holding the five stock commands."""
    reg = CommandRegistry()
    for name, channels, aux21, trailer in _STANDARD:
        aux = bytearray(9)
        aux[2] = aux21
        reg.add(name, encode_command(channels, bytes(aux), bytes(trailer)))
    return reg
