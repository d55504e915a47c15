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

from ._textfile import check_written_back, read_lines, write_lines
from .channel import Delivery
from .errors import BadLength, KeyExhausted, OutOfRange
from .frame import (
    FRAME_LEN,
    WIRE_LEN,
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


# Module names for what runs once a frame or once a log record: a member
# read through its Enum class, or a method through a builtin type, is an
# attribute lookup each time (a classmethod's builds a new bound method).
_BAD_LENGTH = DiscardReason.BAD_LENGTH
_REPLAY_OR_STALE = DiscardReason.REPLAY_OR_STALE
_KEY_EXHAUSTED = DiscardReason.KEY_EXHAUSTED
_VALIDATION_FAILED = DiscardReason.VALIDATION_FAILED
_new = object.__new__
_from_bytes = int.from_bytes
_fromhex = bytes.fromhex


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
    def accept(cls, frame: CommandFrame, name: str) -> "RxOutcome":
        outcome = _new(cls)
        outcome.frame, outcome.name, outcome.reason = frame, name, None
        return outcome

    @classmethod
    def discard(cls, reason: DiscardReason) -> "RxOutcome":
        outcome = _new(cls)
        outcome.frame, outcome.name, outcome.reason = None, None, reason
        return outcome


class Controller:
    """Sender side: encrypt each command with the next unconsumed block."""

    def __init__(self, store: SksStore) -> None:
        self.store = store
        self.frames_sent = 0

    def send(self, cmd: CommandFrame) -> WireFrame:
        """Consume one key block and emit the wire frame carrying its address.

        TypeError, before the ledger moves, for anything but a CommandFrame."""
        if not isinstance(cmd, CommandFrame):
            raise TypeError(f"send takes a CommandFrame, got {type(cmd).__name__}")
        store = self.store
        addr = store.consumed_count
        try:
            key = store.take_block(addr)
        except OutOfRange:  # the ledger has reached the end of the store
            raise KeyExhausted(
                f"store exhausted: all {store.block_count} blocks consumed; recharge required"
            ) from None
        wire = otp_encrypt(cmd, key, addr, store.mode)
        self.frames_sent += 1
        return wire


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
        """Process one frame off the air.  Each discard is decided by a
        compare before the call that would refuse the frame, so nothing is
        raised on a hostile frame; TypeError for input with no length."""
        if len(wire_bytes) != WIRE_LEN:
            return self._discard(_BAD_LENGTH)
        wire = parse_wire(wire_bytes)
        store, addr = self.store, wire.address
        if addr < store.consumed_count:
            # Already consumed (or burned): a replayed or stale frame.
            return self._discard(_REPLAY_OR_STALE)
        store.discard_through(addr)
        if addr >= store.block_count:  # past the end: every block is burned now
            return self._discard(_KEY_EXHAUSTED)
        key = store.take_block(addr)
        registry = self.registry
        name = registry.match(otp_decrypt(wire, key, store.mode))
        if name is None:
            return self._discard(_VALIDATION_FAILED)
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


# Every (direction, event) pair the program logs; a record's kind code is
# its index here, and a log holds no other pair.  The tx kinds come first.
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
# A flag on a record's kind byte, above its kind code: the record's data
# repeats the previous record's (no bytes stored).
_REPEATS, _CODE = 0x80, 0x7F
# The column layout, one entry per kind byte, repeat flag included: the
# size of the record's stored data, or _REPEATED (none stored: it is the
# previous record's) or _IN_COLUMN (the length column's next value); then
# its ",direction," and ",event," text for a saved line.  Only a sent frame
# (36 bytes), "exhausted" (none) and an accepted plaintext (32) fix a size.
_REPEATED, _IN_COLUMN = -1, -2
_FIXED = {_TX_SENT: WIRE_LEN, _TX_EXHAUSTED: 0, _RX_ACCEPTED: FRAME_LEN}
_TEXT = [(f",{direction},", f",{event},") for direction, event in _KINDS]
_LAYOUT = [None] * 256
_LAYOUT[:len(_KINDS)] = [(_FIXED.get(code, _IN_COLUMN), *text) for code, text in enumerate(_TEXT)]
_LAYOUT[_REPEATS:_REPEATS + len(_KINDS)] = [(_REPEATED, *text) for text in _TEXT]


class SessionLog:
    """Ordered record of every send, channel event and receive outcome.

    The log is columnar and stores nothing it can derive.  Each record keeps
    one kind byte, its index in the fixed table of (direction, event) pairs
    plus a flag when its data repeats the previous record's; other data goes
    to one bytearray and its length, unless its kind fixes it, to an int64
    column.  So a frame is stored once: the ch record repeats the tx
    record's bytes unless the frame was tampered with, and a discarding rx
    record repeats the ch record's.  Every command opens with a tx record,
    so a record's seq is its command's index and its address is the address
    field of that command's frame (none for ``exhausted``).  ``_command``
    and ``_exhausted`` are the writers; the two readers, ``_walk`` for
    records and ``_save_lines`` for the saved text, find each record's data
    through the one ``_LAYOUT`` table; and ``load`` replays a file through
    the writers, so equal logs have equal columns.  Records are built only
    when the log is read: ``records`` is a new list on each access."""

    def __init__(self) -> None:
        self._kind = array("B")
        self._length = array("q")
        self._data = bytearray()

    def _command(self, wire: bytes, ch: int, data, rx: int | None = None,
                 plain: bytes | None = None) -> None:
        """Append one sent command's records: tx ``sent`` with ``wire``; the
        ``ch`` kind with ``data``, or with ``wire`` when ``data`` is None (a
        dropped frame); and, unless ``rx`` is None, the ``rx`` kind with the
        accepted ``plain`` text, or with the received ``data`` when ``plain``
        is None."""
        stored, kinds = self._data, self._kind
        stored += wire
        kinds.append(_TX_SENT)
        if data is None or data == wire:
            kinds.append(ch | _REPEATS)
        else:
            stored += data
            self._length.append(len(data))
            kinds.append(ch)
        if rx is None:
            return
        if plain is None:
            kinds.append(rx | _REPEATS)
        else:
            stored += plain
            kinds.append(rx)

    def _exhausted(self) -> None:
        """Append the tx ``exhausted`` record, which has no data."""
        self._kind.append(_TX_EXHAUSTED)

    def _walk(self):
        """(seq, address, kind code, data) of each record in log order: a tx
        record opens the next command, whose address is its frame's last 4
        bytes, and a ``_REPEATS`` record yields the previous record's data."""
        data = bytes(self._data)
        lengths = iter(self._length)
        seq, end = -1, 0
        for kind in self._kind:
            size = _LAYOUT[kind][0]
            if size != _REPEATED:
                start, end = end, end + (size if size >= 0 else next(lengths))
                chunk = data[start:end]
            if kind <= _TX_EXHAUSTED:  # a tx record opens the next command
                seq += 1
                address = _from_bytes(chunk[FRAME_LEN:], "big") if kind == _TX_SENT else None
            yield seq, address, kind & _CODE, chunk

    def _rows(self, kinds=None):
        """SessionRecords in log order, only those of ``kinds`` when given."""
        for seq, address, kind, data in self._walk():
            if kinds is None or kind in kinds:
                direction, event = _KINDS[kind]
                yield SessionRecord(seq, direction, address, event, data)

    def _save_lines(self):
        """The lines ``save`` writes, without their newlines, made as read in
        one pass over the columns: each stored chunk is hexed once, and seq
        and address become text once a command."""
        data, lengths = self._data, iter(self._length)
        seq, end = -1, 0
        for kind in self._kind:
            size, direction, event = _LAYOUT[kind]
            if size != _REPEATED:
                start, end = end, end + (size if size >= 0 else next(lengths))
                hexdata = data[start:end].hex()
            if kind <= _TX_EXHAUSTED:  # a tx record opens the next command
                seq += 1
                seq_s = str(seq)
                addr = str(_from_bytes(data[start + FRAME_LEN:end], "big")) \
                    if kind == _TX_SENT else ""
            yield f"{seq_s}{direction}{addr}{event}{hexdata}"

    @property
    def records(self) -> list[SessionRecord]:
        return list(self)

    def events(self, event: str) -> list[SessionRecord]:
        """Records whose event equals or prefixes ``event`` (reasons included)."""
        return list(self._rows({code for code, (_, e) in enumerate(_KINDS)
                                if e == event or e.startswith(event + ":")}))

    def save(self, path) -> None:
        write_lines(path, self._save_lines())

    @classmethod
    def load(cls, path) -> "SessionLog":
        """Read a saved log; ValueError naming its first faulty ``path:line``
        unless ``run_session`` could have written it: command k is a tx
        ``sent`` line holding a wire frame, a ch line and, unless the frame
        was dropped, an rx line whose data fits its event, and a tx
        ``exhausted`` line ends the file.  ``save`` must write the replayed
        log back byte for byte, which fixes each seq, address and repeat."""
        log, lines = cls(), read_lines(path)
        # The line due next: command k's tx, ch or rx line, or None after
        # "exhausted"; and the open command's _command arguments.
        k, due, args, lineno, fault = 0, "tx", [], 0, None
        try:
            for lineno, line in enumerate(lines, start=1):
                try:
                    seq_s, direction, addr_s, event, hexdata = line.split(",")
                    int(seq_s), int(addr_s or "0")  # each an integer, or ValueError
                    data = _fromhex(hexdata)
                except ValueError:
                    raise ValueError("expected 'seq,direction,address,event,hexdata'") from None
                kind = _KIND.get((direction, event))
                if kind is None:
                    if direction not in {"tx", "ch", "rx"}:
                        raise ValueError(f"unknown direction {direction!r}")
                    raise ValueError(f"unknown {direction} event {event!r}")
                if direction != due:
                    expected = f"command {k}'s {due} line" if due else "nothing after 'exhausted'"
                    raise ValueError(f"expected {expected}, not {direction}")
                if kind == _TX_SENT:
                    if len(data) != WIRE_LEN:
                        raise ValueError(f"sent data is {len(data)} bytes, not {WIRE_LEN}")
                    args, due = [data], "ch"
                elif kind == _TX_EXHAUSTED:
                    log._exhausted()
                    due = None
                elif direction == "ch" and kind != _CH["dropped"]:
                    args += (kind, data)
                    due = "rx"
                else:
                    if kind == _RX_ACCEPTED:
                        try:
                            CommandFrame(data)
                        except (BadLength, ValueError):
                            raise ValueError("accepted data is not a command frame") from None
                    elif direction == "rx" and ((kind == _RX_DISCARDED["bad_length"])
                                                == (len(data) == WIRE_LEN)):
                        # a frame is discarded for its length exactly when it is not 36 bytes
                        raise ValueError(f"{event} data is {len(data)} bytes")
                    # a dropped or discarded record repeats the data before it
                    log._command(*args, kind, data if kind == _RX_ACCEPTED else None)
                    args, k, due = [], k + 1, "tx"
            lineno += 1
            if due in ("ch", "rx"):
                raise ValueError(f"expected command {k}'s {due} line, not the end of the file")
        except ValueError as e:
            fault = e
        if args:  # the open command's tx line, and its ch line if read
            log._command(*args) if len(args) == 3 else log._command(args[0], _CH["dropped"], None)
        check_written_back(path, lines[:lineno - 1], log._save_lines(), "save")
        if fault is not None:
            raise ValueError(f"{path}:{lineno}: {fault}")
        return log

    def __len__(self) -> int:
        return len(self._kind)

    def __iter__(self):
        return self._rows()

    def __eq__(self, other) -> bool:
        # One writer lays equal record sequences out identically.
        if not isinstance(other, SessionLog):
            return NotImplemented
        return (self._kind, self._length, self._data) == (other._kind, other._length, other._data)


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
    for cmd in script:
        try:
            wire = send(cmd)
        except KeyExhausted:
            log._exhausted()
            break
        wire_bytes = wire.to_bytes()
        tx = transmit(wire_bytes)
        ch, data = _CH[tx.outcome._value_], tx.data
        if data is None:
            command(wire_bytes, ch, None)
            continue
        outcome = receive(data)
        frame = outcome.frame
        if frame is not None:
            command(wire_bytes, ch, data, _RX_ACCEPTED, frame.data)
        else:
            command(wire_bytes, ch, data, _RX_DISCARDED[outcome.reason._value_])
    return log
