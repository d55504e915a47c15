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

from .channel import Delivery, _lines
from .errors import BadLength, KeyExhausted, OutOfRange
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
        store = self.store
        addr = store.next_expected
        if addr >= store.block_count:
            raise KeyExhausted(
                f"store exhausted after {self.frames_sent} frames; recharge required"
            )
        key = store.take_block(addr)
        self.frames_sent += 1
        return otp_encrypt(cmd, key, addr, store.mode)


class Controlee:
    """Receiver side: decrypt, verify, and track the session state.

    Hostile input is allowed; every failure maps to a Discarded outcome
    and no error escapes.
    """

    def __init__(self, store: SksStore, registry: CommandRegistry | None = None) -> None:
        self.store = store
        self.registry = registry if registry is not None else standard_registry()
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
        store, addr = self.store, wire.address
        if addr < store.next_expected:
            # Already consumed (or burned): a replayed or stale frame.
            return self._discard(DiscardReason.REPLAY_OR_STALE)
        store.discard_through(addr)
        try:
            key = store.take_block(addr)
        except OutOfRange:
            return self._discard(DiscardReason.KEY_EXHAUSTED)
        registry = self.registry
        name = registry.match(otp_decrypt(wire, key, store.mode))
        if name is None:
            return self._discard(DiscardReason.VALIDATION_FAILED)
        self.accepted += 1
        return RxOutcome.accept(registry.lookup(name), name)


@dataclass(frozen=True, slots=True)
class SessionRecord:
    """One record of the session log.

    ``direction`` is tx (controller), ch (channel) or rx (controlee);
    ``data`` holds the wire bytes, except for accepted records which hold
    the decrypted plaintext.
    """

    seq: int
    direction: str
    address: int | None
    event: str
    data: bytes


def _line(seq: int, direction: str, addr, event: str, hexdata: str) -> str:
    """A record as one line of a saved log; ``addr`` is "" for no address."""
    return f"{seq},{direction},{addr},{event},{hexdata}"


# Every (direction, event) pair the program logs; a record's kind code is
# its index here, and a log holds no other pair.
_KINDS = (("tx", "sent"), ("tx", "exhausted"),
          *(("ch", d.value) for d in Delivery),
          ("rx", "accepted"), *(("rx", f"discarded:{r.value}") for r in DiscardReason))
_KIND = {kind: code for code, kind in enumerate(_KINDS)}
_TX_SENT, _TX_EXHAUSTED = _KIND["tx", "sent"], _KIND["tx", "exhausted"]
_RX_ACCEPTED = _KIND["rx", "accepted"]
# Keyed by the member's value string, which run_session reads as ``_value_``,
# a plain attribute: Enum.__hash__ and the ``value`` property are Python
# functions, and these lookups run once a frame.
_CH = {d.value: _KIND["ch", d.value] for d in Delivery}
_RX_DISCARDED = {r.value: _KIND["rx", f"discarded:{r.value}"] for r in DiscardReason}
# Flags on a record's kind byte, above its kind code: the record starts a
# group, and its data repeats the previous record's (no bytes stored).
_STARTS, _REPEATS = 0x40, 0x80
_CODE = _STARTS - 1


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

    The log is grouped and columnar.  A maximal run of consecutive records
    with the same seq and address is one group: one row in the int64
    ``_seq`` and ``_address`` columns (-1 for no address).  Each record
    keeps one kind byte: its index in the fixed table of (direction,
    event) pairs, plus a flag when it starts a group and one when its data
    repeats the previous record's.  Data that does not repeat is appended
    to one bytearray and its length to an int64 column; a repeat stores
    nothing, and offsets are running sums of the lengths.  So a command's
    tx, ch and rx records share one group row, and its frame is stored
    once: the ch record repeats the tx record's bytes unless the frame was
    tampered with, and a discarding rx record repeats the ch record's.
    Both writers, ``_add`` (one record) and ``_command`` (one command),
    keep this layout canonical, so equal logs have equal columns.
    ``append`` and ``load`` refuse any pair outside the table.
    SessionRecords are built only when the log is read: ``records`` is a
    new list on each access.
    """

    def __init__(self, records=None) -> None:
        self._seq = array("q")
        self._address = array("q")
        self._kind = array("B")
        self._length = array("q")
        self._data = bytearray()
        self._last = None  # the previous record's data
        for record in records or ():
            self.append(record)

    def append(self, record: SessionRecord) -> None:
        seq, address = record.seq, record.address
        kind = _checked_kind(seq, record.direction, address, record.event)
        self._add(seq, kind, address, record.data)

    def _add(self, seq: int, kind: int, address: int | None, data: bytes) -> None:
        """Append one checked record, opening a group when its seq or address differs."""
        if data == self._last:
            kind |= _REPEATS
        else:
            self._data += data
            self._length.append(len(data))
            self._last = bytes(data)  # a copy if the caller's data can change
        address = -1 if address is None else address
        if not self._seq or seq != self._seq[-1] or address != self._address[-1]:
            self._seq.append(seq)
            self._address.append(address)
            kind |= _STARTS
        self._kind.append(kind)

    def _command(self, seq: int, address: int, wire: bytes, ch: int, data,
                 rx: int | None = None, plain: bytes | None = None) -> None:
        """Append one sent command's records as a new group, laid out as ``_add`` would.

        The records are tx ``sent`` with ``wire``; the ``ch`` kind with
        ``data``, or with ``wire`` when ``data`` is None (a dropped frame);
        and, unless ``rx`` is None, the ``rx`` kind with the accepted
        ``plain`` text, or with the received ``data`` when ``plain`` is None.
        ``seq`` must differ from the last group's, as each command's does.
        """
        stored, lengths, kinds = self._data, self._length, self._kind
        self._seq.append(seq)
        self._address.append(address)
        if wire == self._last:
            kinds.append(_TX_SENT | _STARTS | _REPEATS)
        else:
            stored += wire
            lengths.append(len(wire))
            kinds.append(_TX_SENT | _STARTS)
        if data is None or data == wire:
            kinds.append(ch | _REPEATS)
            data = wire
        else:
            stored += data
            lengths.append(len(data))
            kinds.append(ch)
            data = bytes(data)  # a copy if the channel's data can change
        if rx is None:
            self._last = data
        elif plain is None or plain == data:
            kinds.append(rx | _REPEATS)
            self._last = data
        else:
            stored += plain
            lengths.append(len(plain))
            kinds.append(rx)
            self._last = plain  # a registry frame's bytes are hashable, so they stay put

    def _rows(self, kinds=None):
        """SessionRecords in log order, only those of ``kinds`` when given."""
        data = bytes(self._data)
        groups, lengths = zip(self._seq, self._address), iter(self._length)
        end = 0
        for kind in self._kind:
            if kind & _STARTS:
                seq, address = next(groups)
                address = None if address < 0 else address
            if not kind & _REPEATS:
                start, end = end, end + next(lengths)
                chunk = data[start:end]
            kind &= _CODE
            if kinds is None or kind in kinds:
                direction, event = _KINDS[kind]
                yield SessionRecord(seq, direction, address, event, chunk)

    @property
    def records(self) -> list[SessionRecord]:
        return list(self)

    def events(self, event: str) -> list[SessionRecord]:
        """Records whose event equals or prefixes ``event`` (reasons included)."""
        return list(self._rows({code for code, (_, e) in enumerate(_KINDS)
                                if e == event or e.startswith(event + ":")}))

    def save(self, path) -> None:
        lines = []
        groups, lengths = zip(self._seq, self._address), iter(self._length)
        end = 0
        with memoryview(self._data) as data:
            for kind in self._kind:
                if kind & _STARTS:
                    seq, address = next(groups)
                    addr = "" if address < 0 else address
                if not kind & _REPEATS:
                    start, end = end, end + next(lengths)
                    hexdata = data[start:end].hex()
                direction, event = _KINDS[kind & _CODE]
                lines.append(_line(seq, direction, addr, event, hexdata))
        text = "\n".join(lines)
        # bytes: text mode writes "\r\n" on Windows, which load refuses
        Path(path).write_bytes(f"{text}\n".encode() if text else b"")

    @classmethod
    def load(cls, path) -> "SessionLog":
        """Read a saved log; ValueError naming ``path:line`` unless ``save``
        would write the file back byte for byte."""
        log = cls()
        for lineno, line in enumerate(_lines(path), start=1):
            try:
                seq_s, direction, addr_s, event, hexdata = line.split(",")
                seq, data = int(seq_s), bytes.fromhex(hexdata)
                address = int(addr_s) if addr_s else None
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected "
                                 "'seq,direction,address,event,hexdata'") from None
            try:
                kind = _checked_kind(seq, direction, address, event)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
            canonical = _line(seq, direction, "" if address is None else address,
                              event, data.hex())
            if line != canonical:
                raise ValueError(f"{path}:{lineno}: not in the form save writes: {canonical!r}")
            log._add(seq, kind, address, data)
        return log

    def __len__(self) -> int:
        return len(self._kind)

    def __iter__(self):
        return self._rows()

    def __eq__(self, other) -> bool:
        # Both writers lay equal record sequences out identically.
        if not isinstance(other, SessionLog):
            return NotImplemented
        return self._columns() == other._columns()

    def _columns(self) -> tuple:
        return self._seq, self._address, self._kind, self._length, self._data


def run_session(controller: Controller, controlee: Controlee, script,
                channel) -> SessionLog:
    """Drive a scripted command sequence end to end and log everything.

    ``script`` is an iterable of CommandFrames; ``channel`` is anything
    with ``transmit``, such as a Channel.  Sender-side key exhaustion ends
    the session and is logged.
    """
    log = SessionLog()
    command = log._command
    send, transmit, receive = controller.send, channel.transmit, controlee.receive
    for seq, cmd in enumerate(script):
        try:
            wire = send(cmd)
        except KeyExhausted:
            log._add(seq, _TX_EXHAUSTED, None, b"")
            break
        wire_bytes = wire.to_bytes()
        tx = transmit(wire_bytes)
        addr, ch, data = wire.address, _CH[tx.outcome._value_], tx.data
        if data is None:
            command(seq, addr, wire_bytes, ch, None)
            continue
        outcome = receive(data)
        frame = outcome.frame
        if frame is not None:
            command(seq, addr, wire_bytes, ch, data, _RX_ACCEPTED, frame.data)
        else:
            command(seq, addr, wire_bytes, ch, data, _RX_DISCARDED[outcome.reason._value_])
    return log
