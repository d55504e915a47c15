import pytest
from hypothesis import given, settings, strategies as st

from otp_remctl.channel import Channel, ChannelConfig, Delivery, TamperModel
from otp_remctl.entropy import SeededSource
from otp_remctl.errors import BadLength, KeyExhausted, KeyReused, OutOfRange
from otp_remctl.frame import (
    HEADER,
    CipherMode,
    CommandFrame,
    otp_decrypt,
    otp_encrypt,
    parse_wire,
    standard_registry,
    validate_frame,
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


def test_matched_roundtrip_accepts():
    ctrl, clee = _pair()
    out = clee.receive(ctrl.send(CONNECTION).to_bytes())
    assert out.accepted
    assert out.name == "Connection"
    assert out.frame.data == CONNECTION.data
    assert out.frame is clee.registry.lookup(out.name)
    assert clee.last_accepted_addr == 0


def test_loss_burns_skipped_blocks():
    ctrl, clee = _pair()
    w0 = ctrl.send(CONNECTION).to_bytes()
    ctrl.send(FORWARD)  # lost in transit
    w2 = ctrl.send(FORWARD).to_bytes()
    assert clee.receive(w0).accepted
    assert clee.receive(w2).accepted
    # block 1 is burned, never usable again
    assert clee.store.is_consumed(1)
    assert clee.store.consumed_count == 3
    assert clee.accepted == 2 and clee.discarded == 0


def test_plaintext_frame_is_discarded():
    _, clee = _pair()
    wire = CONNECTION.data + (0).to_bytes(4, "big")
    out = clee.receive(wire)
    assert not out.accepted
    assert out.reason is DiscardReason.VALIDATION_FAILED
    # the probed block is burned
    assert clee.store.is_consumed(0)


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


def test_address_jump_guard_rejects_without_burning():
    ctrl, clee = _pair(blocks=100)
    clee.max_address_jump = 10
    wire = CONNECTION.data + (50).to_bytes(4, "big")
    out = clee.receive(wire)
    assert out.reason is DiscardReason.ADDRESS_JUMP
    assert clee.store.consumed_count == 0
    # within the window frames still flow
    assert clee.receive(ctrl.send(CONNECTION).to_bytes()).accepted


def test_tampered_ciphered_byte_burns_and_discards():
    ctrl, clee = _pair()
    wire = bytearray(ctrl.send(CONNECTION).to_bytes())
    wire[12] ^= 0x40
    out = clee.receive(bytes(wire))
    assert out.reason is DiscardReason.VALIDATION_FAILED
    assert clee.store.is_consumed(0)
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


def test_store_without_cipher_mode_is_rejected():
    store = SksStore(17, 4, bytes(68))
    with pytest.raises(ValueError):
        Controller(store)
    with pytest.raises(ValueError):
        Controlee(store)


def test_lossless_session():
    ctrl, clee = _pair(blocks=8)
    script = [REG.lookup(n) for n in REG.names()]
    log = run_session(ctrl, clee, script, ChannelConfig(rng_seed=0))
    accepted = log.events("accepted")
    assert len(accepted) == 5
    assert [r.address for r in accepted] == [0, 1, 2, 3, 4]
    assert [r.data for r in accepted] == [f.data for f in script]


def test_total_loss_session():
    ctrl, clee = _pair(blocks=8)
    log = run_session(ctrl, clee, [CONNECTION] * 5,
                      ChannelConfig(loss_prob=1.0, rng_seed=3))
    assert len(log.events("accepted")) == 0
    assert len(log.events("dropped")) == 5
    assert ctrl.store.consumed_count == 5
    assert clee.store.consumed_count == 0


def test_exhaustion_ends_session_with_log_record():
    ctrl, clee = _pair(blocks=3)
    log = run_session(ctrl, clee, [CONNECTION] * 5, ChannelConfig(rng_seed=0))
    assert len(log.events("accepted")) == 3
    tail = log.records[-1]
    assert (tail.direction, tail.event) == ("tx", "exhausted")


def test_accepted_equals_delivered_under_loss():
    ctrl, clee = _pair(blocks=2000)
    script = [REG.lookup(REG.names()[i % 5]) for i in range(2000)]
    log = run_session(ctrl, clee, script, ChannelConfig(loss_prob=0.2, rng_seed=7))
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
    log = run_session(ctrl, clee, script, cfg)
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
        next_expected = self.store.next_expected
        if addr < next_expected:
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
            return self._discard(DiscardReason.REPLAY_OR_STALE)
        plain = otp_decrypt(wire, key, self.mode)
        if not validate_frame(plain):
            return self._discard(DiscardReason.VALIDATION_FAILED)
        name = self.registry.match(plain)
        if name is None:
            return self._discard(DiscardReason.VALIDATION_FAILED)
        self.accepted += 1
        self.last_accepted_addr = addr
        return RxOutcome.accept(CommandFrame(plain), name)


def _receiver_state(clee):
    store = clee.store
    return (store.consumed_count, store.next_expected, store.consumed_bitmap(),
            clee.accepted, clee.discarded, clee.last_accepted_addr)


@pytest.mark.parametrize("mode", list(CipherMode))
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_receive_matches_header_check_chain_under_hostile_input(mode, data):
    blocks = data.draw(st.integers(1, 24), label="blocks")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    jump = data.draw(st.none() | st.integers(0, 4), label="max_address_jump")
    tx, rx = charge(SeededSource(seed), mode.key_length, blocks)
    _, twin = charge(SeededSource(seed), mode.key_length, blocks)
    material = rx.key_material
    ctrl = Controller(tx)
    clee = Controlee(rx, max_address_jump=jump)
    ref = _HeaderCheckControlee(twin, max_address_jump=jump)
    names = REG.names()
    for _ in range(data.draw(st.integers(1, 30), label="frames")):
        kind = data.draw(st.sampled_from(["sent", "random", "header"]))
        if kind == "sent" and ctrl.store.next_expected < blocks:
            # a genuine frame, delivered whole or with one byte flipped
            cmd = REG.lookup(data.draw(st.sampled_from(names)))
            wire = bytearray(ctrl.send(cmd).to_bytes())
            flip = data.draw(st.none() | st.integers(0, 31))
            if flip is not None:
                wire[flip] ^= data.draw(st.integers(1, 255))
            wire = bytes(wire)
        else:
            addr = data.draw(st.integers(max(rx.next_expected - 1, 0), blocks + 1))
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


def test_session_record_line_roundtrip():
    rec = SessionRecord(3, "rx", 7, "discarded:validation_failed", b"\x01\x02")
    assert SessionRecord.from_line(rec.line()) == rec
    none_addr = SessionRecord(0, "tx", None, "exhausted", b"")
    assert SessionRecord.from_line(none_addr.line()) == none_addr


def test_session_log_roundtrip(tmp_path):
    ctrl, clee = _pair(blocks=16)
    log = run_session(ctrl, clee, [CONNECTION] * 10,
                      ChannelConfig(loss_prob=0.3, rng_seed=2))
    p = tmp_path / "s.log"
    log.save(p)
    assert SessionLog.load(p) == log


def test_session_log_event_filter():
    log = SessionLog([
        SessionRecord(0, "rx", 0, "accepted", b""),
        SessionRecord(1, "rx", 1, "discarded:replay_or_stale", b""),
        SessionRecord(2, "rx", 2, "discarded:validation_failed", b""),
    ])
    assert len(log.events("accepted")) == 1
    assert len(log.events("discarded")) == 2
    assert len(log.events("discarded:replay_or_stale")) == 1
