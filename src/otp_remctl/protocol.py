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
from dataclasses import dataclass
from pathlib import Path

from .errors import BadLength, KeyExhausted, KeyReused, OutOfRange
from .frame import (
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


@dataclass(frozen=True)
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
        return cls(frame=frame, name=name)

    @classmethod
    def discard(cls, reason: DiscardReason) -> "RxOutcome":
        return cls(reason=reason)


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
        seq_s, direction, addr_s, event, hexdata = line.split(",")
        return cls(int(seq_s), direction, int(addr_s) if addr_s else None,
                   event, bytes.fromhex(hexdata))


# Events each direction may log; a ch event is the channel's own outcome
# name, which this module does not import, so it is not checked.
_EVENTS = {"tx": {"sent", "exhausted"}, "ch": None,
           "rx": {"accepted", *(f"discarded:{r.value}" for r in DiscardReason)}}


class SessionLog:
    """Ordered record of every send, channel event and receive outcome."""

    def __init__(self, records=None) -> None:
        self.records: list[SessionRecord] = list(records) if records else []

    def append(self, record: SessionRecord) -> None:
        self.records.append(record)

    def events(self, event: str) -> list[SessionRecord]:
        """Records whose event equals or prefixes ``event`` (reasons included)."""
        return [r for r in self.records
                if r.event == event or r.event.startswith(event + ":")]

    def save(self, path) -> None:
        text = "\n".join(r.line() for r in self.records)
        Path(path).write_text(text + "\n" if text else "")

    @classmethod
    def load(cls, path) -> "SessionLog":
        records = []
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = SessionRecord.from_line(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected "
                                 "'seq,direction,address,event,hexdata'") from None
            if record.direction not in _EVENTS:
                raise ValueError(f"{path}:{lineno}: unknown direction {record.direction!r}")
            events = _EVENTS[record.direction]
            if events is not None and record.event not in events:
                raise ValueError(f"{path}:{lineno}: unknown {record.direction} "
                                 f"event {record.event!r}")
            records.append(record)
        return cls(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SessionLog):
            return NotImplemented
        return self.records == other.records


def run_session(controller: Controller, controlee: Controlee, script,
                channel) -> SessionLog:
    """Drive a scripted command sequence end to end and log everything.

    ``script`` is an iterable of CommandFrames; ``channel`` is anything
    with ``transmit``, such as a Channel.  Sender-side key exhaustion ends
    the session and is logged.
    """
    log = SessionLog()
    for seq, cmd in enumerate(script):
        try:
            wire = controller.send(cmd)
        except KeyExhausted:
            log.append(SessionRecord(seq, "tx", None, "exhausted", b""))
            break
        wire_bytes = wire.to_bytes()
        addr = wire.address
        log.append(SessionRecord(seq, "tx", addr, "sent", wire_bytes))
        tx = channel.transmit(wire_bytes)
        # A dropped frame (no data out of the link) is logged as it was sent.
        data = wire_bytes if tx.data is None else tx.data
        log.append(SessionRecord(seq, "ch", addr, tx.outcome.value, data))
        if tx.data is None:
            continue
        outcome = controlee.receive(data)
        if outcome.accepted:
            log.append(SessionRecord(seq, "rx", addr, "accepted", outcome.frame.data))
        else:
            log.append(SessionRecord(
                seq, "rx", addr, f"discarded:{outcome.reason.value}", data))
    return log
