"""Controller and controlee state machines with address-based resynchronization.

The sender burns one key block per frame and labels the frame with the
block's address in clear.  The receiver accepts only strictly advancing
addresses, burning any skipped blocks, so a lost frame costs its keys but
never desynchronizes the pair.  A frame is executed only when the
decrypted bytes equal a registered ``CommandFrame`` exactly; anything
else burns its key block and is dropped silently.  That match is the one
acceptance check: frames are validated once, when they are registered,
and an accepted outcome carries the registry's own frame.  Strictly
increasing addresses double as replay protection: a replayed address has
no unconsumed key.

Each state machine is single-threaded; a controller/controlee pair may
live on different threads and meet only through the channel.
"""

import enum
from array import array
from dataclasses import dataclass
from pathlib import Path

from .channel import Delivery
from .errors import BadLength, KeyExhausted, KeyReused, OutOfRange
from .frame import (
    MAX_ADDRESS,
    CommandFrame,
    CommandRegistry,
    WireFrame,
    otp_decrypt,
    otp_encrypt,
    parse_wire,
    standard_registry,
)
from .keystore import SksStore


class DiscardReason(enum.Enum):
    BAD_LENGTH = "bad_length"
    REPLAY_OR_STALE = "replay_or_stale"
    KEY_EXHAUSTED = "key_exhausted"
    VALIDATION_FAILED = "validation_failed"
    ADDRESS_JUMP = "address_jump"


@dataclass(slots=True)
class RxOutcome:
    """Result of processing one received frame."""

    frame: CommandFrame | None = None
    name: str | None = None
    reason: DiscardReason | None = None

    @property
    def accepted(self) -> bool:
        return self.frame is not None

    @classmethod
    def accept(cls, frame: CommandFrame, name: str | None = None) -> "RxOutcome":
        return cls(frame, name)

    @classmethod
    def discard(cls, reason: DiscardReason) -> "RxOutcome":
        return cls(None, None, reason)


class Controller:
    """Sender side: encrypt each command with the next unconsumed block."""

    def __init__(self, store: SksStore) -> None:
        self.store = store
        self.frames_sent = 0

    def send(self, cmd: CommandFrame) -> WireFrame:
        """Consume one key block and emit the wire frame carrying its address."""
        addr = self.store.next_expected
        if addr >= self.store.block_count:
            raise KeyExhausted(
                f"store exhausted after {self.frames_sent} frames; recharge required"
            )
        key = self.store.take_block(addr)
        self.frames_sent += 1
        return otp_encrypt(cmd, key, addr, self.store.mode)


class Controlee:
    """Receiver side: decrypt, verify, and track the session state.

    Hostile input is allowed; every failure maps to a Discarded outcome
    and no error escapes.  ``max_address_jump`` caps how far ahead of
    next_expected a frame may point before it is rejected outright
    (without burning the skipped blocks); by default there is no cap.
    """

    def __init__(self, store: SksStore, registry: CommandRegistry | None = None,
                 max_address_jump: int | None = None) -> None:
        self.store = store
        self.registry = registry if registry is not None else standard_registry()
        self.max_address_jump = max_address_jump
        self.accepted = 0
        self.discarded = 0

    def _discard(self, reason: DiscardReason) -> RxOutcome:
        self.discarded += 1
        return RxOutcome.discard(reason)

    def receive(self, wire_bytes: bytes) -> RxOutcome:
        """Process one frame off the air."""
        try:
            wire = parse_wire(wire_bytes)
        except BadLength:
            return self._discard(DiscardReason.BAD_LENGTH)
        addr = wire.address
        next_expected = self.store.next_expected
        if addr < next_expected:
            # Already consumed (or burned): a replayed or stale frame.
            return self._discard(DiscardReason.REPLAY_OR_STALE)
        if (self.max_address_jump is not None
                and addr - next_expected > self.max_address_jump):
            return self._discard(DiscardReason.ADDRESS_JUMP)
        self.store.discard_through(addr)
        try:
            key = self.store.take_block(addr)
        except OutOfRange:
            return self._discard(DiscardReason.KEY_EXHAUSTED)
        except KeyReused:
            # Unreachable through this flow (consumed blocks sit below
            # next_expected), but a shared store could get here.
            return self._discard(DiscardReason.REPLAY_OR_STALE)
        name = self.registry.match(otp_decrypt(wire, key, self.store.mode))
        if name is None:
            return self._discard(DiscardReason.VALIDATION_FAILED)
        self.accepted += 1
        return RxOutcome.accept(self.registry.lookup(name), name)


@dataclass(frozen=True, slots=True)
class SessionRecord:
    """One line of the session log.

    ``direction`` is tx (controller), ch (channel) or rx (controlee);
    ``data`` holds the wire bytes, except for accepted records which hold
    the decrypted plaintext.
    """

    seq: int
    direction: str
    address: int | None
    event: str
    data: bytes

    def line(self) -> str:
        addr = "" if self.address is None else str(self.address)
        return f"{self.seq},{self.direction},{addr},{self.event},{self.data.hex()}"

    @classmethod
    def from_line(cls, line: str) -> "SessionRecord":
        return cls(*_fields(line))


def _fields(line: str) -> tuple:
    """(seq, direction, address, event, data) of one log line; ValueError if malformed."""
    seq_s, direction, addr_s, event, hexdata = line.split(",")
    return (int(seq_s), direction, int(addr_s) if addr_s else None,
            event, bytes.fromhex(hexdata))


# Every (direction, event) pair the program logs; a record's kind code is
# its index here, and a log holds no other pair.
_KINDS = (("tx", "sent"), ("tx", "exhausted"),
          *(("ch", d.value) for d in Delivery),
          ("rx", "accepted"), *(("rx", f"discarded:{r.value}") for r in DiscardReason))
_KIND = {kind: code for code, kind in enumerate(_KINDS)}
_TX_SENT, _TX_EXHAUSTED = _KIND["tx", "sent"], _KIND["tx", "exhausted"]
_CH = {d: _KIND["ch", d.value] for d in Delivery}
_RX_ACCEPTED = _KIND["rx", "accepted"]
_RX_DISCARDED = {r: _KIND["rx", f"discarded:{r.value}"] for r in DiscardReason}


def _checked_kind(seq: int, direction: str, address: int | None, event: str) -> int:
    """The kind code of a record's fields; ValueError if the log cannot hold them."""
    kind = _KIND.get((direction, event))
    if kind is None:
        if direction not in {d for d, _ in _KINDS}:
            raise ValueError(f"unknown direction {direction!r}")
        raise ValueError(f"unknown {direction} event {event!r}")
    if not 0 <= seq < 2 ** 63:
        raise ValueError(f"seq {seq} is outside 0..{2 ** 63 - 1}")
    if address is not None and not 0 <= address <= MAX_ADDRESS:
        raise ValueError(f"address {address} is outside 0..{MAX_ADDRESS}")
    return kind


class SessionLog:
    """Ordered record of every send, channel event and receive outcome.

    The log is columnar: one bytearray of record data, plus array columns
    for each record's seq, address (-1 for none), kind (its index in the
    fixed table of (direction, event) pairs) and the offset and length of
    its data.  ``append`` and ``load`` refuse any pair outside that table.
    A record whose data equals the previous record's stores no new bytes,
    so a channel record repeats its tx record's bytes unless the frame was
    tampered with.  SessionRecords are built only when the log is read:
    ``records`` is a new list on each access.
    """

    def __init__(self, records=None) -> None:
        self._seq = array("q")
        self._address = array("q")
        self._kind = array("B")
        self._offset = array("q")
        self._length = array("q")
        self._data = bytearray()
        self._last = None
        for record in records or ():
            self.append(record)

    def append(self, record: SessionRecord) -> None:
        seq, address = record.seq, record.address
        kind = _checked_kind(seq, record.direction, address, record.event)
        self._add(seq, kind, address, record.data)

    def _add(self, seq: int, kind: int, address: int | None, data: bytes) -> None:
        self._seq.append(seq)
        self._address.append(-1 if address is None else address)
        self._kind.append(kind)
        if data != self._last:
            self._offset.append(len(self._data))
            self._data += data
            self._last = bytes(data)  # a copy if the caller's data can change
        else:
            self._offset.append(self._offset[-1])
        self._length.append(len(data))

    def _rows(self, kinds=None):
        """SessionRecords in log order, only those of ``kinds`` when given."""
        data = bytes(self._data)
        for seq, kind, address, offset, length in zip(
                self._seq, self._kind, self._address, self._offset, self._length):
            if kinds is None or kind in kinds:
                direction, event = _KINDS[kind]
                yield SessionRecord(seq, direction, None if address < 0 else address,
                                    event, data[offset:offset + length])

    @property
    def records(self) -> list[SessionRecord]:
        return list(self)

    def events(self, event: str) -> list[SessionRecord]:
        """Records whose event equals or prefixes ``event`` (reasons included)."""
        return list(self._rows({code for code, (_, e) in enumerate(_KINDS)
                                if e == event or e.startswith(event + ":")}))

    def save(self, path) -> None:
        lines = []
        with memoryview(self._data) as data:
            for seq, kind, address, offset, length in zip(
                    self._seq, self._kind, self._address, self._offset, self._length):
                direction, event = _KINDS[kind]
                addr = "" if address < 0 else address
                lines.append(f"{seq},{direction},{addr},{event},"
                             f"{data[offset:offset + length].hex()}")
        text = "\n".join(lines)
        Path(path).write_text(text + "\n" if text else "")

    @classmethod
    def load(cls, path) -> "SessionLog":
        log = cls()
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                seq, direction, address, event, data = _fields(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected "
                                 "'seq,direction,address,event,hexdata'") from None
            try:
                kind = _checked_kind(seq, direction, address, event)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
            log._add(seq, kind, address, data)
        return log

    def __len__(self) -> int:
        return len(self._seq)

    def __iter__(self):
        return self._rows()

    def __eq__(self, other) -> bool:
        # Equal record sequences are laid out identically.
        if not isinstance(other, SessionLog):
            return NotImplemented
        return self._columns() == other._columns()

    def _columns(self) -> tuple:
        return (self._seq, self._address, self._kind, self._offset, self._length,
                self._data)


def run_session(controller: Controller, controlee: Controlee, script,
                channel) -> SessionLog:
    """Drive a scripted command sequence end to end and log everything.

    ``script`` is an iterable of CommandFrames; ``channel`` is anything
    with ``transmit``, such as a Channel.  Sender-side key exhaustion ends
    the session and is logged.
    """
    log = SessionLog()
    add = log._add
    for seq, cmd in enumerate(script):
        try:
            wire = controller.send(cmd)
        except KeyExhausted:
            add(seq, _TX_EXHAUSTED, None, b"")
            break
        wire_bytes = wire.to_bytes()
        addr = wire.address
        add(seq, _TX_SENT, addr, wire_bytes)
        tx = channel.transmit(wire_bytes)
        # A dropped frame (no data out of the link) is logged as it was sent.
        data = wire_bytes if tx.data is None else tx.data
        add(seq, _CH[tx.outcome], addr, data)
        if tx.data is None:
            continue
        outcome = controlee.receive(data)
        if outcome.accepted:
            add(seq, _RX_ACCEPTED, addr, outcome.frame.data)
        else:
            add(seq, _RX_DISCARDED[outcome.reason], addr, data)
    return log
