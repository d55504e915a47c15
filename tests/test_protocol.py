import dataclasses
import enum
import functools
import random
import re
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from otp_remctl.channel import Channel, ChannelConfig, Delivery, TamperModel, Transmission
from otp_remctl.entropy import SeededSource
from otp_remctl.errors import BadLength, KeyExhausted, KeyReused, OutOfRange
from otp_remctl.frame import (
    HEADER,
    MAX_ADDRESS,
    WIRE_LEN,
    CipherMode,
    CommandFrame,
    CommandRegistry,
    WireFrame,
    otp_decrypt,
    otp_encrypt,
    parse_wire,
    standard_registry,
)
from otp_remctl.keystore import SksStore, charge
from otp_remctl.protocol import (
    Controlee,
    Controller,
    DiscardReason,
    RxOutcome,
    SessionLog,
    SessionRecord,
    run_session,
)

REG = standard_registry()
CONNECTION = REG.lookup("Connection")
FORWARD = REG.lookup("Forward")


def _pair(blocks=16, block_size=32, seed=1):
    tx, rx = charge(SeededSource(seed), block_size, blocks)
    return Controller(tx), Controlee(rx)


def test_send_uses_consecutive_addresses():
    ctrl, _ = _pair()
    assert ctrl.send(CONNECTION).address == 0
    assert ctrl.send(FORWARD).address == 1
    assert ctrl.frames_sent == 2


def test_send_exhaustion():
    ctrl, _ = _pair(blocks=3)
    for _ in range(3):
        ctrl.send(CONNECTION)
    with pytest.raises(KeyExhausted):
        ctrl.send(CONNECTION)


def test_send_exhaustion_names_the_store_state():
    # a store loaded with its whole prefix consumed: this controller has
    # sent nothing, so a count of its own sends would say "after 0 frames"
    ctrl, _ = _pair(blocks=3)
    ctrl.store.discard_through(3)
    with pytest.raises(KeyExhausted) as exc:
        ctrl.send(CONNECTION)
    assert str(exc.value) == "store exhausted: all 3 blocks consumed; recharge required"


@pytest.mark.parametrize("mode", list(CipherMode))
@pytest.mark.parametrize("cmd", [CONNECTION.data, bytearray(CONNECTION.data), None],
                         ids=["bytes", "bytearray", "None"])
def test_send_refuses_what_is_no_command_frame_before_the_ledger_moves(mode, cmd):
    ctrl, _ = _pair(block_size=mode.key_length)
    with pytest.raises(TypeError, match=f"got {type(cmd).__name__}$"):
        ctrl.send(cmd)
    assert (ctrl.store.consumed_count, ctrl.frames_sent) == (0, 0)
    assert ctrl.send(CONNECTION).address == 0
    assert ctrl.frames_sent == 1


def test_matched_roundtrip_accepts():
    ctrl, clee = _pair()
    out = clee.receive(ctrl.send(CONNECTION).to_bytes())
    assert out.accepted
    assert out.name == "Connection"
    assert out.frame.data == CONNECTION.data
    assert out.frame is clee.registry.lookup(out.name)


def test_loss_burns_skipped_blocks():
    ctrl, clee = _pair()
    w0 = ctrl.send(CONNECTION).to_bytes()
    ctrl.send(FORWARD)  # lost in transit
    w2 = ctrl.send(FORWARD).to_bytes()
    assert clee.receive(w0).accepted
    assert clee.receive(w2).accepted
    # block 1 is burned, never usable again
    with pytest.raises(KeyReused):
        clee.store.take_block(1)
    assert clee.store.consumed_count == 3
    assert clee.accepted == 2 and clee.discarded == 0


def test_plaintext_frame_is_discarded():
    _, clee = _pair()
    wire = CONNECTION.data + (0).to_bytes(4, "big")
    out = clee.receive(wire)
    assert not out.accepted
    assert out.reason is DiscardReason.VALIDATION_FAILED
    # the probed block is burned
    assert clee.store.consumed_count == 1


def test_replay_of_accepted_frame():
    ctrl, clee = _pair()
    wire = ctrl.send(CONNECTION).to_bytes()
    assert clee.receive(wire).accepted
    for _ in range(3):
        out = clee.receive(wire)
        assert out.reason is DiscardReason.REPLAY_OR_STALE
    assert clee.discarded == 3


def test_out_of_order_low_address_is_stale():
    ctrl, clee = _pair()
    w0 = ctrl.send(CONNECTION).to_bytes()
    w1 = ctrl.send(FORWARD).to_bytes()
    assert clee.receive(w1).accepted
    out = clee.receive(w0)
    assert out.reason is DiscardReason.REPLAY_OR_STALE


def test_bad_length_is_discarded():
    _, clee = _pair()
    out = clee.receive(b"\x00" * 35)
    assert out.reason is DiscardReason.BAD_LENGTH
    assert clee.store.consumed_count == 0


def test_exhausted_store_discards():
    ctrl, clee = _pair(blocks=2)
    wire = CONNECTION.data + (5).to_bytes(4, "big")
    out = clee.receive(wire)
    assert out.reason is DiscardReason.KEY_EXHAUSTED
    # everything below the requested address is burned
    assert clee.store.consumed_count == 2


@pytest.mark.parametrize("wire", [None, 5])
def test_receive_refuses_input_with_no_length_before_anything_moves(wire):
    ctrl, clee = _pair(blocks=4)
    assert clee.receive(ctrl.send(CONNECTION).to_bytes()).accepted
    before = _receiver_state(clee)
    with pytest.raises(TypeError):
        clee.receive(wire)
    assert _receiver_state(clee) == before == (1, b"\x80", 1, 0)


def test_tampered_ciphered_byte_burns_and_discards():
    ctrl, clee = _pair()
    wire = bytearray(ctrl.send(CONNECTION).to_bytes())
    wire[12] ^= 0x40
    out = clee.receive(bytes(wire))
    assert out.reason is DiscardReason.VALIDATION_FAILED
    assert clee.store.consumed_count == 1
    # the true frame replayed afterwards cannot be recovered
    assert clee.receive(ctrl.send(CONNECTION).to_bytes()).accepted


def test_selective_mode_roundtrip_and_tamper():
    tx, rx = charge(SeededSource(4), 23, 8)
    ctrl, clee = Controller(tx), Controlee(rx)
    assert clee.receive(ctrl.send(FORWARD).to_bytes()).accepted
    wire = bytearray(ctrl.send(FORWARD).to_bytes())
    wire[10] ^= 0x01  # ciphered channel byte
    out = clee.receive(bytes(wire))
    assert out.reason is DiscardReason.VALIDATION_FAILED
    wire = bytearray(ctrl.send(FORWARD).to_bytes())
    wire[30] ^= 0x01  # clear trailer byte: registry match fails
    assert clee.receive(bytes(wire)).reason is DiscardReason.VALIDATION_FAILED


_WIRE = otp_encrypt(FORWARD, bytes(32), 0, CipherMode.FULL).to_bytes()


def _transmitted(delivery: Delivery) -> Transmission:
    """Channel.transmit's value for _WIRE when the link ``delivery``s it."""
    config = {Delivery.DELIVERED: ChannelConfig(),
              Delivery.DROPPED: ChannelConfig(loss_prob=1.0),
              Delivery.TAMPERED: ChannelConfig(
                  tamper_prob=1.0, tamper_model=TamperModel.RANDOMIZE_PAYLOAD)}[delivery]
    return Channel(config).transmit(_WIRE)


def _tampered() -> bytes:
    # seed 0's draws: the loss roll, the tamper roll, then 32 payload bytes
    rng = random.Random(0)
    rng.random(), rng.random()
    return rng.randbytes(32) + _WIRE[32:]


def _to_receive(reason: DiscardReason | None) -> tuple[Controlee, bytes]:
    """A controlee and a frame it accepts (None) or discards for ``reason``."""
    ctrl, clee = _pair(blocks=4)
    wire = ctrl.send(FORWARD).to_bytes()
    if reason is DiscardReason.BAD_LENGTH:
        wire = wire[:-1]
    elif reason is DiscardReason.REPLAY_OR_STALE:
        clee.receive(wire)
    elif reason is DiscardReason.KEY_EXHAUSTED:
        wire = wire[:32] + (4).to_bytes(4, "big")  # one past the last block
    elif reason is DiscardReason.VALIDATION_FAILED:
        wire = bytes([wire[0] ^ 1]) + wire[1:]
    return clee, wire


def _received(reason: DiscardReason | None) -> RxOutcome:
    """Controlee.receive's value for a frame it accepts (None) or discards for ``reason``."""
    clee, wire = _to_receive(reason)
    return clee.receive(wire)


# (make, built): ``make`` returns a fresh per-frame value, which may come from
# a builder that skips the dataclass __init__; ``built`` is the same value made
# by the constructor.
@pytest.mark.parametrize("make, built", [
    (lambda: WireFrame(7, bytes(32)), WireFrame(7, bytes(32))),
    (lambda: Transmission(Delivery.TAMPERED, bytes(36)),
     Transmission(Delivery.TAMPERED, bytes(36))),
    (lambda: RxOutcome.accept(standard_registry().lookup("Forward"), "Forward"),
     RxOutcome(FORWARD, "Forward")),
    (lambda: RxOutcome.discard(DiscardReason.REPLAY_OR_STALE),
     RxOutcome(None, None, DiscardReason.REPLAY_OR_STALE)),
    (lambda: parse_wire(_WIRE), WireFrame(0, _WIRE[:32])),
    (lambda: otp_encrypt(FORWARD, bytes(32), 0, CipherMode.FULL), WireFrame(0, _WIRE[:32])),
    (lambda: _transmitted(Delivery.DELIVERED), Transmission(Delivery.DELIVERED, _WIRE)),
    (lambda: _transmitted(Delivery.DROPPED), Transmission(Delivery.DROPPED, None)),
    (lambda: _transmitted(Delivery.TAMPERED), Transmission(Delivery.TAMPERED, _tampered())),
    (lambda: _received(None), RxOutcome(FORWARD, "Forward")),
    *((lambda r=r: _received(r), RxOutcome(None, None, r)) for r in DiscardReason),
], ids=["wire", "transmission", "accepted", "discarded", "parse_wire", "otp_encrypt",
        *(f"transmit-{d.value}" for d in Delivery), "receive-accepted",
        *(f"receive-{r.value}" for r in DiscardReason)])
def test_per_frame_records_are_slotted_values(make, built):
    a, b = make(), make()
    # every field is set: a slot left unset raises AttributeError here
    assert [getattr(a, f.name) for f in dataclasses.fields(a)] == [
        getattr(built, f.name) for f in dataclasses.fields(built)]
    assert a == b == built and a is not b and repr(a) == repr(b) == repr(built)
    assert type(a) is type(built) and not hasattr(a, "__dict__")
    with pytest.raises(TypeError):
        hash(a)


def test_store_without_cipher_mode_is_rejected():
    with pytest.raises(ValueError, match="no cipher mode uses 17-byte key blocks"):
        SksStore(17, 4, bytes(68))


def test_lossless_session():
    ctrl, clee = _pair(blocks=8)
    script = [REG.lookup(n) for n in REG.names()]
    log = run_session(ctrl, clee, script, Channel(ChannelConfig(rng_seed=0)))
    accepted = log.events("accepted")
    assert len(accepted) == 5
    assert [r.address for r in accepted] == [0, 1, 2, 3, 4]
    assert [r.data for r in accepted] == [f.data for f in script]


def test_total_loss_session():
    ctrl, clee = _pair(blocks=8)
    log = run_session(ctrl, clee, [CONNECTION] * 5,
                      Channel(ChannelConfig(loss_prob=1.0, rng_seed=3)))
    assert len(log.events("accepted")) == 0
    assert len(log.events("dropped")) == 5
    assert ctrl.store.consumed_count == 5
    assert clee.store.consumed_count == 0


def test_exhaustion_ends_session_with_log_record():
    ctrl, clee = _pair(blocks=3)
    log = run_session(ctrl, clee, [CONNECTION] * 5, Channel(ChannelConfig(rng_seed=0)))
    assert len(log.events("accepted")) == 3
    tail = log.records[-1]
    assert (tail.direction, tail.event) == ("tx", "exhausted")


def test_accepted_equals_delivered_under_loss():
    ctrl, clee = _pair(blocks=2000)
    script = [REG.lookup(REG.names()[i % 5]) for i in range(2000)]
    log = run_session(ctrl, clee, script, Channel(ChannelConfig(loss_prob=0.2, rng_seed=7)))
    assert len(log.events("accepted")) == len(log.events("delivered"))
    assert clee.accepted == len(log.events("delivered"))
    assert clee.discarded == 0


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.integers(10, 120))
@settings(max_examples=30, deadline=None)
def test_every_accepted_frame_matches_its_script_entry(seed, ch_seed, n):
    # random loss and tamper schedules never cause a wrong decode
    tx, rx = charge(SeededSource(seed), 32, n)
    ctrl, clee = Controller(tx), Controlee(rx)
    script = [REG.lookup(REG.names()[i % 5]) for i in range(n)]
    cfg = ChannelConfig(loss_prob=0.25, tamper_prob=0.25, rng_seed=ch_seed)
    log = run_session(ctrl, clee, script, Channel(cfg))
    for rec in log.events("accepted"):
        assert rec.data == script[rec.seq].data
    # key parity: every address consumed by the controlee was consumed
    # by the controller too (the controller is always ahead or equal)
    assert clee.store.consumed_count <= ctrl.store.consumed_count


def test_liveness_delivered_untampered_is_accepted():
    ctrl, clee = _pair(blocks=64)
    drop = Channel(ChannelConfig(loss_prob=0.5, rng_seed=11))
    for i in range(64):
        tx = drop.transmit(ctrl.send(CONNECTION).to_bytes())
        if tx.outcome is Delivery.DELIVERED:
            assert clee.receive(tx.data).accepted


_BURST_BLOCKS = 1024


@pytest.mark.parametrize("burst", [1, 2, 10, 1000, _BURST_BLOCKS - 2])
@pytest.mark.parametrize("mode", list(CipherMode))
def test_next_genuine_frame_after_a_loss_burst_is_accepted(mode, burst):
    # one frame through, a burst lost in a row, then the next frame: it
    # must be accepted however long the burst, up to the last block
    tx, rx = charge(SeededSource(burst), mode.key_length, _BURST_BLOCKS)
    ctrl, clee = Controller(tx), Controlee(rx)
    assert clee.receive(ctrl.send(CONNECTION).to_bytes()).accepted
    for _ in range(burst):
        ctrl.send(FORWARD)
    out = clee.receive(ctrl.send(FORWARD).to_bytes())
    assert out.accepted and out.name == "Forward"
    assert clee.store.consumed_count == ctrl.store.consumed_count == burst + 2


class _HeaderCheckControlee(Controlee):
    """Reference receive chain that Controlee.receive must equal: an
    explicit header check before the exact registry match, and an
    accepted frame rebuilt from the plaintext."""

    def receive(self, wire_bytes):
        try:
            wire = parse_wire(wire_bytes)
        except BadLength:
            return self._discard(DiscardReason.BAD_LENGTH)
        addr = wire.address
        if addr < self.store.consumed_count:
            return self._discard(DiscardReason.REPLAY_OR_STALE)
        self.store.discard_through(addr)
        try:
            key = self.store.take_block(addr)
        except OutOfRange:
            return self._discard(DiscardReason.KEY_EXHAUSTED)
        except KeyReused:
            return self._discard(DiscardReason.REPLAY_OR_STALE)
        plain = otp_decrypt(wire, key, self.store.mode)
        if plain[:5] != HEADER:
            return self._discard(DiscardReason.VALIDATION_FAILED)
        name = self.registry.match(plain)
        if name is None:
            return self._discard(DiscardReason.VALIDATION_FAILED)
        self.accepted += 1
        return RxOutcome.accept(CommandFrame(plain), name)


def _receiver_state(clee):
    store = clee.store
    return (store.consumed_count, store.consumed_bitmap(), clee.accepted, clee.discarded)


@pytest.mark.parametrize("mode", list(CipherMode))
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_receive_matches_header_check_chain_under_hostile_input(mode, data):
    blocks = data.draw(st.integers(1, 24), label="blocks")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    tx, rx = charge(SeededSource(seed), mode.key_length, blocks)
    _, twin = charge(SeededSource(seed), mode.key_length, blocks)
    material = rx.key_material
    ctrl = Controller(tx)
    clee = Controlee(rx)
    ref = _HeaderCheckControlee(twin)
    names = REG.names()
    for _ in range(data.draw(st.integers(1, 30), label="frames")):
        kind = data.draw(st.sampled_from(["sent", "random", "header", "length"]))
        if kind == "length":
            # anything but a wire frame's length, 36 bytes
            size = data.draw(st.integers(0, 40).filter(lambda n: n != WIRE_LEN))
            wire = data.draw(st.binary(min_size=size, max_size=size))
        elif kind == "sent" and ctrl.store.consumed_count < blocks:
            # a genuine frame, delivered whole or with one byte flipped
            cmd = REG.lookup(data.draw(st.sampled_from(names)))
            wire = bytearray(ctrl.send(cmd).to_bytes())
            flip = data.draw(st.none() | st.integers(0, 31))
            if flip is not None:
                wire[flip] ^= data.draw(st.integers(1, 255))
            wire = bytes(wire)
        else:
            addr = data.draw(st.integers(max(rx.consumed_count - 1, 0), blocks + 1))
            if kind == "header":
                # decrypts to an intact header (in selective mode the header
                # is sent in clear); the rest is random, or a stock command
                plain = HEADER + data.draw(st.binary(min_size=27, max_size=27))
                if data.draw(st.booleans()):
                    plain = REG.lookup(data.draw(st.sampled_from(names))).data
                size = mode.key_length
                key = (material[addr * size:(addr + 1) * size] if addr < blocks
                       else bytes(size))
                wire = otp_encrypt(CommandFrame(plain), key, addr, mode).to_bytes()
            else:
                payload = data.draw(st.binary(min_size=32, max_size=32))
                wire = payload + addr.to_bytes(4, "big")
        got, want = clee.receive(wire), ref.receive(wire)
        assert (got.accepted, got.name, got.reason) == \
            (want.accepted, want.name, want.reason)
        if got.accepted:
            assert got.frame == want.frame
            assert got.frame is clee.registry.lookup(got.name)
        assert _receiver_state(clee) == _receiver_state(ref)


def test_session_log_roundtrip(tmp_path):
    ctrl, clee = _pair(blocks=16)
    log = run_session(ctrl, clee, [CONNECTION] * 10,
                      Channel(ChannelConfig(loss_prob=0.3, tamper_prob=0.3, rng_seed=2)))
    assert all(log.events(d.value) for d in Delivery) and log.events("discarded")
    p = tmp_path / "s.log"
    log.save(p)
    assert SessionLog.load(p) == log


class _ScriptedLink:
    """A channel that answers each frame as its script says.

    A step is (outcome, what comes out, mutable).  What comes out is
    "wire" the frame as sent, "short"/"long" it cut to 35 or grown to 37
    bytes, "flip" it with its first byte flipped, "far" its payload at the
    last address, "replay" the first frame sent, or given bytes; a mutable
    step hands it out as a bytearray.  A DROPPED step drops.  Each
    bytearray handed out is overwritten with the next frame sent, so a log
    that kept it rather than a copy would see that frame.  ``returned``
    holds each answer as it was when handed out.
    """

    def __init__(self, steps) -> None:
        self.steps = iter(steps)
        self.sent = []
        self.returned = []
        self.handed_out = []

    def transmit(self, wire: bytes) -> Transmission:
        self.sent.append(wire)
        for old in self.handed_out:
            old[:] = wire
        outcome, out, mutable = next(self.steps)
        if outcome is Delivery.DROPPED:
            self.returned.append((outcome, None))
            return Transmission(outcome, None)
        data = {"wire": wire, "short": wire[:35], "long": wire + b"\x00",
                "flip": bytes([wire[0] ^ 1]) + wire[1:], "far": wire[:32] + bytes([255] * 4),
                "replay": self.sent[0]}.get(out, out)
        self.returned.append((outcome, data))
        if mutable:
            data = bytearray(data)
            self.handed_out.append(data)
        return Transmission(outcome, data)


def _fly(steps, blocks, block_size):
    """A run_session log over a _ScriptedLink, and the records it should
    hold, built from what the link and the receiver returned."""
    tx, rx = charge(SeededSource(blocks), block_size, blocks)
    link, clee = _ScriptedLink(steps), Controlee(rx)
    received, receive = [], clee.receive

    def capture(data):
        outcome = receive(data)
        received.append((bytes(data), outcome))
        return outcome

    clee.receive = capture
    script = [REG.lookup(REG.names()[i % 5]) for i in range(len(steps))]
    log = run_session(Controller(tx), clee, script, link)
    assert len(link.sent) == min(len(steps), blocks)
    records, outcomes = [], iter(received)
    for seq, (wire, (delivery, data)) in enumerate(zip(link.sent, link.returned)):
        address = parse_wire(wire).address
        records.append(SessionRecord(seq, "tx", address, "sent", wire))
        records.append(SessionRecord(seq, "ch", address, delivery.value,
                                     wire if data is None else data))
        if data is not None:
            got_data, got = next(outcomes)
            assert got_data == data
            records.append(SessionRecord(seq, "rx", address, "accepted", got.frame.data)
                           if got.accepted else
                           SessionRecord(seq, "rx", address, f"discarded:{got.reason.value}",
                                         data))
    if len(steps) > blocks:  # the store ran out mid-script
        records.append(SessionRecord(blocks, "tx", None, "exhausted", b""))
    return log, records


def _render(records) -> str:
    """Records as lines of a saved log."""
    return "".join(f"{r.seq},{r.direction},{'' if r.address is None else r.address},"
                   f"{r.event},{r.data.hex()}\n" for r in records)


_STEPS = st.lists(st.tuples(
    st.sampled_from(Delivery),
    st.sampled_from(["wire", "short", "long", "flip", "far", "replay"]) | st.binary(max_size=40),
    st.booleans(),
), max_size=16)
_FLIGHTS = st.tuples(_STEPS, st.integers(1, 16), st.sampled_from([32, 23]))


@given(_FLIGHTS, st.data(), st.sampled_from(["sent", "accepted", "discarded", "delivered",
                                              "discarded:replay_or_stale", "exhausted"]))
@settings(max_examples=200, deadline=None)
def test_columnar_log_matches_a_list_of_records(flight, data, event):
    log, records = _fly(*flight)
    assert list(log) == records and log.records == records and len(log) == len(records)
    assert log.events(event) == [r for r in records
                                 if r.event == event or r.event.startswith(event + ":")]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.log"
        log.save(path)
        assert path.read_text() == _render(records)
        assert SessionLog.load(path) == log
    # The same flight, or steps differing only in what is mutable, must
    # compare equal; any other flight equal only if its records are.
    other_flight = data.draw(st.just(flight)
                             | st.just(([(o, out, not m) for o, out, m in flight[0]], *flight[1:]))
                             | _FLIGHTS)
    other, other_records = _fly(*other_flight)
    assert (log == other) == (records == other_records)


# One flight that logs all 10 events: accepted, dropped, then each discard
# reason, and the store runs out on the last command.
_FLIGHT_STEPS = [(Delivery.DELIVERED, "wire", False), (Delivery.DROPPED, "wire", False),
                 *((Delivery.TAMPERED, out, False) for out in ("short", "replay", "flip", "far")),
                 (Delivery.DELIVERED, "wire", False)]


def _flight_lines() -> list[str]:
    """The lines, without newlines, of a saved log of the flight above:
    command k's lines start at line 1, 4, 6, 9, 12 and 15, and line 18 is
    "6,tx,,exhausted,"."""
    return _render(_fly(_FLIGHT_STEPS, 6, 32)[1]).splitlines()


def _write(path, lines) -> None:
    path.write_bytes("".join(f"{line}\n" for line in lines).encode("latin-1"))


# Lines that parse but name an unknown direction or event, with their error.
_BAD_EVENTS = {
    "0,zz,0,bogus,00": "unknown direction 'zz'",
    "0,tx,0,delivered,00": "unknown tx event 'delivered'",
    "0,rx,0,discarded:sunspots,00": "unknown rx event 'discarded:sunspots'",
    "0,ch,0,jammed,00": "unknown ch event 'jammed'",
}


@pytest.mark.parametrize("line", [
    "0,tx,0,sent",                  # four fields
    "0,tx,zero,sent,00ff",          # address is not an int
    "0,tx,0,sent,0g",               # data is not hex
    "first,tx,0,sent,00ff",         # seq is not an int
    pytest.param("", id="blank-line"),
    pytest.param("0,tx,0,sent,00\xff", id="non-ascii"),
    *_BAD_EVENTS,
])
def test_session_log_load_names_file_and_line(tmp_path, line):
    p = tmp_path / "s.log"
    error = _BAD_EVENTS.get(line, "expected 'seq,direction,address,event,hexdata'")
    flight = _flight_lines()
    # the line second in the file, then first
    for lines, lineno in [([flight[0], line, *flight[1:]], 2), ([line, *flight], 1)]:
        _write(p, lines)
        with pytest.raises(ValueError, match=rf"s\.log:{lineno}: {error}$"):
            SessionLog.load(p)


# Every (direction, event) pair the program logs, and no other.
_LOGGED_EVENTS = [("tx", "sent"), ("tx", "exhausted"), *(("ch", d.value) for d in Delivery),
                  ("rx", "accepted"), *(("rx", f"discarded:{r.value}") for r in DiscardReason)]


def test_session_log_loads_every_logged_event(tmp_path):
    assert len(_LOGGED_EVENTS) == 10  # 2 tx, 3 ch, rx accepted and 4 discard reasons
    log, records = _fly(_FLIGHT_STEPS, 6, 32)
    assert sorted({(r.direction, r.event) for r in records}) == sorted(_LOGGED_EVENTS)
    p = tmp_path / "s.log"
    text = _render(records)
    p.write_text(text)
    loaded = SessionLog.load(p)
    assert loaded == log and list(loaded) == records
    loaded.save(p)
    assert p.read_text() == text
    p.write_text(text[:-1])
    with pytest.raises(ValueError, match=r"s\.log:18: no newline at the end of the file$"):
        SessionLog.load(p)


def test_session_log_event_filter():
    log, _ = _fly(_FLIGHT_STEPS, 6, 32)
    assert len(log.events("accepted")) == 1
    assert len(log.events("discarded")) == 4
    assert len(log.events("discarded:replay_or_stale")) == 1


def _set(lines, k, field, value) -> list[str]:
    """``lines`` with field ``field`` of line ``k`` (both from 0) set to ``value``."""
    fields = lines[k].split(",")
    fields[field] = value
    return [*lines[:k], ",".join(fields), *lines[k + 1:]]


# The error for a line that save would write otherwise: the flight's own line.
_SAVED = None


# Each is a file that run_session could not have written: an edit of the
# flight's lines, the line the loader names, and its error.
@pytest.mark.parametrize("edit, lineno, error", [
    pytest.param(lambda f: f[1:], 1, "expected command 0's tx line, not ch", id="ch-first"),
    pytest.param(lambda f: f[2:], 1, "expected command 0's tx line, not rx", id="rx-first"),
    pytest.param(lambda f: [f[0], *f[2:]], 2, "expected command 0's ch line, not rx",
                 id="missing-ch"),
    pytest.param(lambda f: [*f[:5], f[4].replace(",ch,1,dropped,", ",rx,1,discarded:bad_length,"),
                            *f[5:]],
                 6, "expected command 2's tx line, not rx", id="rx-after-dropped"),
    pytest.param(lambda f: [*f[:2], *f[3:]], 3, "expected command 0's rx line, not tx",
                 id="missing-rx"),
    pytest.param(lambda f: [*f[:2], *f[1:]], 3, "expected command 0's rx line, not ch",
                 id="second-ch"),
    pytest.param(lambda f: [*f, f[0]], 19, "expected nothing after 'exhausted', not tx",
                 id="line-after-exhausted"),
    pytest.param(lambda f: [*f, "7,tx,,exhausted,"], 19,
                 "expected nothing after 'exhausted', not tx", id="second-exhausted"),
    pytest.param(lambda f: [*f[:3], "1,tx,,exhausted,", *f[3:]], 5,
                 "expected nothing after 'exhausted', not tx", id="exhausted-mid-flight"),
    pytest.param(lambda f: _set(f, 17, 2, "6"), 18, _SAVED, id="exhausted-with-address"),
    pytest.param(lambda f: _set(f, 17, 4, "00"), 18, _SAVED, id="exhausted-with-data"),
    pytest.param(lambda f: _set(f, 0, 0, "1"), 1, _SAVED, id="seq-of-the-first-line"),
    pytest.param(lambda f: _set(f, 3, 0, "2"), 4, _SAVED, id="seq-of-a-tx-line"),
    pytest.param(lambda f: _set(f, 1, 0, "1"), 2, _SAVED, id="seq-of-a-ch-line"),
    pytest.param(lambda f: _set(f, 2, 0, "1"), 3, _SAVED, id="seq-of-an-rx-line"),
    pytest.param(lambda f: _set(f, 17, 0, "7"), 18, _SAVED, id="seq-of-exhausted"),
    pytest.param(lambda f: _set(f, 1, 0, "-1"), 2, _SAVED, id="seq-negative"),
    pytest.param(lambda f: _set(f, 1, 0, str(2 ** 63)), 2, _SAVED, id="seq-over-int64"),
    pytest.param(lambda f: _set(f, 3, 2, "0"), 4, _SAVED, id="address-of-a-sent-line"),
    pytest.param(lambda f: _set(f, 1, 2, "1"), 2, _SAVED, id="address-of-a-ch-line"),
    pytest.param(lambda f: _set(f, 2, 2, "1"), 3, _SAVED, id="address-of-an-rx-line"),
    pytest.param(lambda f: _set(f, 4, 2, ""), 5, _SAVED, id="address-missing"),
    pytest.param(lambda f: _set(f, 1, 2, "-1"), 2, _SAVED, id="address-negative"),
    pytest.param(lambda f: _set(f, 1, 2, str(MAX_ADDRESS + 1)), 2, _SAVED,
                 id="address-over-32-bits"),
    pytest.param(lambda f: _set(f, 3, 4, f[3][-72:-2]), 4,
                 "sent data is 35 bytes, not 36", id="sent-35-bytes"),
    pytest.param(lambda f: _set(f, 3, 4, f[3][-72:] + "00"), 4,
                 "sent data is 37 bytes, not 36", id="sent-37-bytes"),
    pytest.param(lambda f: _set(f, 4, 4, f[3][-72:-2] + "00"), 5, _SAVED, id="dropped-data"),
    pytest.param(lambda f: _set(f, 7, 4, "00"), 8, _SAVED, id="discarded-data"),
    # the first faulty line is named, also when a later line breaks the
    # order of lines, and also within the command that line breaks
    pytest.param(lambda f: _set([*f[:8], *f[9:]], 1, 0, "1"), 2, _SAVED,
                 id="seq-before-a-missing-tx"),
    pytest.param(lambda f: _set([*f[:4], *f[5:]], 3, 0, "2"), 4, _SAVED,
                 id="seq-of-a-tx-line-without-ch"),
    pytest.param(lambda f: _set([*f[:2], *f[3:]], 1, 2, "1"), 2, _SAVED,
                 id="address-of-a-ch-line-without-rx"),
    # rx lines whose data contradicts their event (a discard's ch line
    # holds the same data, so only the rx line is at fault)
    pytest.param(lambda f: _set(f, 2, 4, "00"), 3, "accepted data is not a command frame",
                 id="accepted-short"),
    pytest.param(lambda f: _set(f, 2, 4, "00" * 32), 3, "accepted data is not a command frame",
                 id="accepted-without-header"),
    pytest.param(lambda f: _set(_set(f, 6, 4, f[5][-72:]), 7, 4, f[5][-72:]), 8,
                 "discarded:bad_length data is 36 bytes", id="bad-length-of-a-wire-frame"),
    pytest.param(lambda f: _set(_set(f, 9, 4, f[8][-72:-2]), 10, 4, f[8][-72:-2]), 11,
                 "discarded:replay_or_stale data is 35 bytes", id="stale-of-35-bytes"),
    pytest.param(lambda f: f[:1], 2, "expected command 0's ch line, not the end of the file",
                 id="open-after-tx"),
    pytest.param(lambda f: f[:2], 3, "expected command 0's rx line, not the end of the file",
                 id="open-after-ch"),
])
def test_session_log_refuses_what_run_session_cannot_write(tmp_path, edit, lineno, error):
    p = tmp_path / "s.log"
    flight = _flight_lines()
    if error is _SAVED:
        error = f"not in the form save writes: {flight[lineno - 1]!r}"
    _write(p, edit(flight))
    with pytest.raises(ValueError, match=rf"s\.log:{lineno}: {re.escape(error)}$"):
        SessionLog.load(p)


# Characters an edit may put in a saved log: its own alphabet, and what
# save never writes (upper-case hex, signs, spaces, "\r", a non-ASCII byte).
_EDIT_CHARS = st.sampled_from("0123456789abcdefABCDEF,\n\r +-_:txchrsendpulogv\xff")


@given(_FLIGHTS, st.data())
@settings(max_examples=60, deadline=None)
def test_session_log_load_refuses_or_writes_back_an_edited_log(flight, data):
    # The loader's one rule: a file it reads is one save writes back.
    lines = _render(_fly(*flight)[1]).splitlines(keepends=True)
    if lines:
        k = data.draw(st.integers(0, len(lines) - 1))
        edit = data.draw(st.sampled_from(["char", "delete", "duplicate", "swap"]))
        if edit == "char":
            text = "".join(lines)
            at = data.draw(st.integers(0, len(text) - 1))
            lines = [text[:at], data.draw(_EDIT_CHARS), text[at + 1:]]
        elif edit == "delete":
            del lines[k]
        elif edit == "duplicate":
            lines.insert(k, lines[k])
        elif k + 1 < len(lines):
            lines[k:k + 2] = lines[k + 1], lines[k]
    edited = "".join(lines).encode("latin-1")
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.log"
        path.write_bytes(edited)
        try:
            log = SessionLog.load(path)
        except ValueError as e:
            assert re.match(rf"{re.escape(str(path))}:[1-9][0-9]*: ", str(e))
        else:
            log.save(path)
            assert path.read_bytes() == edited


def test_run_session_hashes_no_enum_member(monkeypatch):
    # Enum.__hash__ is a Python function; the per-frame path keys nothing by
    # a CipherMode, Delivery or DiscardReason member.  Patching the base
    # class reaches every enum, whose hash slot follows Enum's.
    calls = []
    original = enum.Enum.__hash__

    def counting_hash(self):
        calls.append(self)
        return original(self)

    for block_size in (32, 23):
        tx, rx = charge(SeededSource(3), block_size, 600)
        channel = Channel(ChannelConfig(loss_prob=0.2, tamper_prob=0.2, rng_seed=4))
        script = [REG.lookup(REG.names()[k % 5]) for k in range(600)]
        monkeypatch.setattr(enum.Enum, "__hash__", counting_hash)
        log = run_session(Controller(tx), Controlee(rx), script, channel)
        monkeypatch.undo()
        assert calls == []
        assert all(log.events(d.value) for d in Delivery)
        assert log.events("accepted") and log.events("discarded:validation_failed")


# Line 2 of the flight is "0,ch,0,delivered,{h}": {h} is the frame in hex,
# {H} in upper case and {s} with a space after its first byte.
@pytest.mark.parametrize("line, saved", [
    ("+0,ch,0,delivered,{h}", "0,ch,0,delivered,{h}"),
    ("0_0,ch,0,delivered,{h}", "0,ch,0,delivered,{h}"),
    (" 0,ch,0,delivered,{h}", "0,ch,0,delivered,{h}"),
    ("0,ch,00,delivered,{h}", "0,ch,0,delivered,{h}"),
    ("0,ch,0,delivered,{s}", "0,ch,0,delivered,{h}"),
    ("0,ch,0,delivered,{H}", "0,ch,0,delivered,{h}"),
    ("0,ch,0,delivered,{h}\r", "0,ch,0,delivered,{h}"),
], ids=["plus-sign", "underscore", "leading-space", "zero-padded-address", "spaced-hex",
        "upper-hex", "crlf"])
def test_session_log_load_refuses_a_line_save_would_write_otherwise(tmp_path, line, saved):
    p = tmp_path / "s.log"
    flight = _flight_lines()
    h = flight[1].split(",")[4]
    line, saved = (t.format(h=h, H=h.upper(), s=f"{h[:2]} {h[2:]}") for t in (line, saved))
    _write(p, [flight[0], line, *flight[2:]])
    with pytest.raises(ValueError, match=rf"s\.log:2: not in the form save writes: "
                                         rf"{re.escape(repr(saved))}$"):
        SessionLog.load(p)
    _write(p, [flight[0], saved, *flight[2:]])
    SessionLog.load(p).save(p)
    assert p.read_text() == "".join(f"{line}\n" for line in flight)


def test_records_is_a_fresh_read_only_list():
    log, records = _fly(_FLIGHT_STEPS, 6, 32)
    assert log.records is not log.records
    log.records.clear()
    assert len(log) == len(records) == 18
    with pytest.raises(AttributeError):
        log.records = []


def test_session_log_memory_per_command():
    n = 2000
    tx, rx = charge(SeededSource(6), 32, n)
    script = [REG.lookup(REG.names()[i % 5]) for i in range(n)]
    ctrl, clee = Controller(tx), Controlee(rx)
    channel = Channel(ChannelConfig(loss_prob=0.2, tamper_prob=0.02, rng_seed=8))
    tracemalloc.start()
    try:
        log = run_session(ctrl, clee, script, channel)
        del channel  # the tap is the channel's; count only what the log holds
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(log.events("sent")) == n
    assert held / n <= 98  # 84.9 B measured with no seq or address column, plus 15%


def test_session_log_save_memory_is_bounded(tmp_path):
    # ~60 000 lines, many write batches: the whole text, held at once,
    # would peak at several times the file's size.
    n = 20_000
    tx, rx = charge(SeededSource(6), 32, n)
    script = [REG.lookup(REG.names()[i % 5]) for i in range(n)]
    log = run_session(Controller(tx), Controlee(rx), script,
                      Channel(ChannelConfig(loss_prob=0.2, tamper_prob=0.02, rng_seed=8)))
    p = tmp_path / "s.log"
    tracemalloc.start()
    try:
        log.save(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.read_bytes() == "".join(f"{line}\n" for line in log._save_lines()).encode()
    assert peak < p.stat().st_size


class _Mangler:
    """A link that passes frame 0 on, flips a ciphered byte of frame 1 and
    hands frame 0 back in place of frame 2: an accept, a validation discard
    and a replay."""

    def __init__(self) -> None:
        self.channel, self.delivered = Channel(ChannelConfig()), []

    def transmit(self, wire: bytes) -> Transmission:
        data = self.channel.transmit(wire).data
        self.delivered.append(data)
        if len(self.delivered) == 1:
            return Transmission(Delivery.DELIVERED, data)
        if len(self.delivered) == 2:
            return Transmission(Delivery.TAMPERED, data[:10] + bytes([data[10] ^ 1]) + data[11:])
        return Transmission(Delivery.TAMPERED, self.delivered[0])


def _spy_on_the_traced_names(monkeypatch) -> Counter:
    """Spies wrapped the way the tracer wraps (each class attribute, each
    module's alias of a function); the counter they fill maps each
    (caller, callee) pair to its calls."""
    calls, stack = Counter(), ["run_session"]

    def spy(name, fn):
        @functools.wraps(fn)
        def spied(*args, **kwargs):
            calls[stack[-1], name] += 1
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return spied

    for owner, attr in ((Controller, "send"), (Channel, "transmit"), (Controlee, "receive"),
                        (SksStore, "discard_through"), (SksStore, "take_block"),
                        (CommandRegistry, "match")):
        monkeypatch.setattr(owner, attr, spy(f"{owner.__name__}.{attr}", vars(owner)[attr]))
    monkeypatch.setattr(RxOutcome, "accept",
                        classmethod(spy("RxOutcome.accept", vars(RxOutcome)["accept"].__func__)))
    for fn in (otp_encrypt, parse_wire, otp_decrypt):
        spied = spy(fn.__name__, fn)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "otp_remctl" and vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, spied)
    return calls


@pytest.mark.parametrize("mode", list(CipherMode))
def test_run_session_calls_the_public_names_the_tracer_reads(mode, monkeypatch):
    """The traced benchmark run (bench/tracing.py) finds each per-frame span
    by its public name and its parent, so a public call inlined away breaks
    that run while every other test passes.  The spies pin the call graph
    of a run_session flight here; this test goes when ROADMAP item 17
    deletes the tracer."""
    calls = _spy_on_the_traced_names(monkeypatch)
    tx, rx = charge(SeededSource(1), mode.key_length, 4)
    log = run_session(Controller(tx), Controlee(rx), [FORWARD] * 3, _Mangler())
    assert [r.event for r in log if r.direction == "rx"] == [
        "accepted", "discarded:validation_failed", "discarded:replay_or_stale"]
    receive = "Controlee.receive"
    assert calls == {
        ("run_session", "Controller.send"): 3,
        ("Controller.send", "SksStore.take_block"): 3,
        ("Controller.send", "otp_encrypt"): 3,
        ("run_session", "Channel.transmit"): 3,
        ("run_session", receive): 3,
        (receive, "parse_wire"): 3,
        (receive, "SksStore.discard_through"): 2,  # the replay is refused before
        (receive, "SksStore.take_block"): 2,
        (receive, "otp_decrypt"): 2,
        (receive, "CommandRegistry.match"): 2,
        (receive, "RxOutcome.accept"): 1,
    }


def test_an_exhausted_send_calls_take_block_alone(monkeypatch):
    """The graph of a send on an empty store: ``take_block`` refuses the
    address at the end of the store, and nothing is encrypted or sent."""
    calls = _spy_on_the_traced_names(monkeypatch)
    tx, rx = charge(SeededSource(1), 32, 1)
    log = run_session(Controller(tx), Controlee(rx), [FORWARD] * 3, Channel(ChannelConfig()))
    assert [r.event for r in log] == ["sent", "delivered", "accepted", "exhausted"]
    receive = "Controlee.receive"
    assert calls == {
        ("run_session", "Controller.send"): 2,
        ("Controller.send", "SksStore.take_block"): 2,
        ("Controller.send", "otp_encrypt"): 1,
        ("run_session", "Channel.transmit"): 1,
        ("run_session", receive): 1,
        (receive, "parse_wire"): 1,
        (receive, "SksStore.discard_through"): 1,
        (receive, "SksStore.take_block"): 1,
        (receive, "otp_decrypt"): 1,
        (receive, "CommandRegistry.match"): 1,
        (receive, "RxOutcome.accept"): 1,
    }


# What receive calls on each discard path, beyond the compare that decides it:
# a discard calls nothing that refuses the frame by raising.
_DISCARD_CALLS = {
    DiscardReason.BAD_LENGTH: (),
    DiscardReason.REPLAY_OR_STALE: ("parse_wire",),
    DiscardReason.KEY_EXHAUSTED: ("parse_wire", "SksStore.discard_through"),
    # the accept path's calls, but for RxOutcome.accept
    DiscardReason.VALIDATION_FAILED: ("parse_wire", "SksStore.discard_through",
                                      "SksStore.take_block", "otp_decrypt",
                                      "CommandRegistry.match"),
}


@pytest.mark.parametrize("reason", list(DiscardReason))
def test_each_receive_discard_calls_only_what_decides_it(reason, monkeypatch):
    clee, wire = _to_receive(reason)
    calls = _spy_on_the_traced_names(monkeypatch)
    assert clee.receive(wire).reason is reason
    receive = "Controlee.receive"
    assert calls == {("run_session", receive): 1,
                     **{(receive, callee): 1 for callee in _DISCARD_CALLS[reason]}}
