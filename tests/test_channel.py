import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from otp_remctl.channel import (
    Channel,
    ChannelConfig,
    Delivery,
    Intercept,
    InterceptLog,
    TamperModel,
    export_intercepts,
    extract_ciphertext,
    load_intercepts,
)
from otp_remctl.frame import CipherMode


def _wire(i: int) -> bytes:
    return bytes([i % 256]) * 32 + i.to_bytes(4, "big")


def test_clean_channel_delivers_identically():
    ch = Channel(ChannelConfig(rng_seed=0))
    tx = ch.transmit(_wire(1))
    assert tx.outcome is Delivery.DELIVERED
    assert tx.data == _wire(1)


class _SubBytes(bytes):
    pass


@pytest.mark.parametrize("make", [bytearray, lambda b: memoryview(bytearray(b)), _SubBytes],
                         ids=["bytearray", "memoryview", "bytes-subclass"])
def test_delivered_frame_is_a_copy_of_a_buffer_that_is_not_bytes(make):
    ch = Channel(ChannelConfig(rng_seed=0))
    buf = make(_wire(1))
    tx = ch.transmit(buf)
    assert tx.outcome is Delivery.DELIVERED and type(tx.data) is bytes and tx.data == _wire(1)
    if not isinstance(buf, bytes):  # nothing kept aliases the caller's buffer
        buf[:] = bytes(36)
    assert tx.data == _wire(1) and ch.intercepts.frames() == [_wire(1)]


def test_full_loss_drops_everything():
    ch = Channel(ChannelConfig(loss_prob=1.0, rng_seed=0))
    for i in range(50):
        tx = ch.transmit(_wire(i))
        assert tx.outcome is Delivery.DROPPED and tx.data is None


def test_probabilities_are_validated():
    with pytest.raises(ValueError):
        ChannelConfig(loss_prob=1.5)
    with pytest.raises(ValueError):
        ChannelConfig(tamper_prob=-0.1)


def test_negative_seed_is_refused():
    # random.Random(-5) draws what random.Random(5) draws, so a negative
    # seed would name no schedule of its own.
    with pytest.raises(ValueError, match=r"^rng_seed must be non-negative, got -5$"):
        ChannelConfig(rng_seed=-5)
    ChannelConfig(rng_seed=0)


def test_drop_count_matches_binomial_bound():
    ch = Channel(ChannelConfig(loss_prob=0.2, rng_seed=5))
    drops = sum(ch.transmit(_wire(i)).outcome is Delivery.DROPPED
                for i in range(10_000))
    assert 1880 <= drops <= 2120  # 2000 +- 3 sigma


def test_intercepts_include_dropped_frames():
    ch = Channel(ChannelConfig(loss_prob=1.0, rng_seed=1))
    for i in range(5):
        ch.transmit(_wire(i))
    assert len(ch.intercepts) == 5
    assert ch.intercepts.frames() == [_wire(i) for i in range(5)]
    assert all(r.outcome is Delivery.DROPPED for r in ch.intercepts)


def test_identical_seeds_identical_schedules():
    def outcomes(seed):
        ch = Channel(ChannelConfig(loss_prob=0.3, tamper_prob=0.2, rng_seed=seed))
        return [ch.transmit(_wire(i)).outcome for i in range(200)]

    assert outcomes(9) == outcomes(9)
    assert outcomes(9) != outcomes(10)


def test_flip_model_touches_one_payload_byte():
    ch = Channel(ChannelConfig(tamper_prob=1.0, rng_seed=2))
    for i in range(100):
        sent = _wire(i)
        tx = ch.transmit(sent)
        assert tx.outcome is Delivery.TAMPERED
        diff = [k for k in range(36) if tx.data[k] != sent[k]]
        assert len(diff) == 1
        assert diff[0] < 32  # address bytes are exempt


def test_randomize_model_keeps_address():
    ch = Channel(ChannelConfig(tamper_prob=1.0, rng_seed=3,
                               tamper_model=TamperModel.RANDOMIZE_PAYLOAD))
    sent = _wire(7)
    tx = ch.transmit(sent)
    assert tx.data[32:] == sent[32:]
    assert tx.data[:32] != sent[:32]


def test_export_length_and_roundtrip(tmp_path):
    ch = Channel(ChannelConfig(loss_prob=0.5, rng_seed=4))
    for i in range(5):
        ch.transmit(_wire(i))
    p = tmp_path / "corpus.bin"
    export_intercepts(ch.intercepts, p)
    assert p.stat().st_size == 180
    loaded = load_intercepts(p)
    assert loaded.frames() == ch.intercepts.frames()
    assert [r.outcome for r in loaded] == [r.outcome for r in ch.intercepts]


def test_export_empty_log(tmp_path):
    p = tmp_path / "empty.bin"
    export_intercepts(InterceptLog(), p)
    assert p.stat().st_size == 0
    assert (tmp_path / "empty.bin.idx").read_bytes() == b""
    assert len(load_intercepts(p)) == 0


@pytest.mark.parametrize("length", [35, 37])
def test_tap_holds_only_wire_frames(length):
    good, bad = Intercept(0, _wire(0)), Intercept(1, bytes(length))
    for records in ([bad], [good, bad]):
        with pytest.raises(ValueError, match=f"^a tap frame is 36 bytes, got {length}$"):
            InterceptLog(records)


@pytest.mark.parametrize("bad, message", [
    (Intercept(2 ** 63, _wire(1)), f"^seq {2 ** 63} is outside {-2 ** 63}..{2 ** 63 - 1}$"),
    (Intercept(-2 ** 63 - 1, _wire(1)), f"^seq {-2 ** 63 - 1} is outside"),
    (Intercept(1, _wire(1), "delivered"), "^unknown outcome 'delivered'$"),
    (Intercept(1, _wire(1), 1), "^unknown outcome 1$"),
    (Intercept(1.5, _wire(1)), "^seq 1.5 is not an integer$"),
    (Intercept("7", _wire(1)), "^seq '7' is not an integer$"),
    (Intercept(None, _wire(1)), "^seq None is not an integer$"),
], ids=["seq-over-int64", "seq-under-int64", "outcome-string", "outcome-code",
        "seq-float", "seq-string", "seq-none"])
def test_tap_append_refuses_a_bad_record(bad, message):
    # A tap grows only by Channel.transmit; InterceptLog(records) checks each record.
    good = Intercept(0, _wire(0), Delivery.DELIVERED)
    for records in ([bad], [good, bad]):
        with pytest.raises(ValueError, match=message):
            InterceptLog(records)


@pytest.mark.parametrize("model", TamperModel)
@pytest.mark.parametrize("loss, tamper", [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.3, 0.3)],
                         ids=["lost", "tampered", "delivered", "mixed"])
@pytest.mark.parametrize("length", [10, 35, 37])
def test_transmit_refuses_a_frame_that_is_not_36_bytes(model, loss, tamper, length):
    config = ChannelConfig(loss_prob=loss, tamper_prob=tamper, tamper_model=model, rng_seed=11)
    ch, fresh = Channel(config), Channel(config)
    assert ch.transmit(_wire(0)) == fresh.transmit(_wire(0))
    with pytest.raises(ValueError, match=f"got {length}$"):
        ch.transmit(bytes(length))
    assert ch.intercepts.records == fresh.intercepts.records
    assert ([ch.transmit(_wire(i)) for i in range(1, 30)]
            == [fresh.transmit(_wire(i)) for i in range(1, 30)])


def test_load_rejects_ragged_corpus(tmp_path):
    p = tmp_path / "ragged.bin"
    p.write_bytes(b"\x00" * 37)
    with pytest.raises(ValueError):
        load_intercepts(p)


def test_load_rejects_unknown_outcome(tmp_path):
    p = tmp_path / "corpus.bin"
    p.write_bytes(_wire(0))
    (tmp_path / "corpus.bin.idx").write_text("0,0,lost\n")
    with pytest.raises(ValueError, match="unknown outcome"):
        load_intercepts(p)


@pytest.mark.parametrize("frames, sidecar, where", [
    (3, "0,0,delivered\n1,36,dropped\n2,72,tampered\n9,108,dropped\n", ":4:"),
    (3, "0,0,delivered\n1,37,dropped\n2,72,tampered\n", ":2:"),
    (3, "0,0,delivered\n5,0,dropped\n", ":2:"),
    (1, "0,0,delivered\n1,36,dropped\n2,72,tampered\n", ":2:"),
    (3, "0,0,delivered\n1,36,dropped\n", ":3:"),
    (2, "0,0,delivered\n1,36\n", ":2:"),
    (1, "x,0,delivered\n", ":1:"),
    (1, f"{2 ** 63},0,delivered\n", ":1:"),
    (3, "0,0,delivered\n\n1,36,dropped\n", ":2:"),
    (2, "\n0,0,delivered\n", ":1:"),
    (1, "0,0,delivered\r\n", ":1:"),
    (2, "0,0,delivered\n1,36,dropped", ":2:"),
    (1, "0\xff,0,delivered\n", ":1:"),
    (1, "+0,0,delivered\n", ":1:"),
    (2, "0,0,delivered\n1_0,36,dropped\n", ":2:"),
    (1, " 0,0,delivered\n", ":1:"),
    (2, "0,0,delivered\n1,00036,dropped\n", ":2:"),
], ids=["extra-line", "wrong-offset", "repeated-offset", "more-lines-than-frames",
        "missing-line", "missing-field", "non-integer-seq", "seq-over-int64",
        "blank-line", "leading-blank-line", "crlf", "no-final-newline", "non-ascii",
        "plus-sign", "underscore", "leading-space", "zero-padded-offset"])
def test_load_rejects_sidecar_that_contradicts_corpus(tmp_path, frames, sidecar, where):
    p = tmp_path / "corpus.bin"
    p.write_bytes(b"".join(_wire(i) for i in range(frames)))
    (tmp_path / "corpus.bin.idx").write_bytes(sidecar.encode("latin-1"))
    with pytest.raises(ValueError, match=f"corpus.bin.idx{where}"):
        load_intercepts(p)


def test_load_without_sidecar_numbers_frames(tmp_path):
    p = tmp_path / "corpus.bin"
    p.write_bytes(_wire(0) + _wire(1))
    loaded = load_intercepts(p)
    assert [(r.seq, r.outcome) for r in loaded] == [(0, None), (1, None)]


def _tap(frames) -> InterceptLog:
    return InterceptLog(Intercept(k, f) for k, f in enumerate(frames))


def test_extract_ciphertext_modes():
    frames = _tap([_wire(0), _wire(1)])
    full = extract_ciphertext(frames, CipherMode.FULL)
    sel = extract_ciphertext(frames, CipherMode.SELECTIVE)
    assert len(full) == 64 and full[:32] == _wire(0)[:32]
    assert len(sel) == 46 and sel[:23] == _wire(0)[5:28]
    distinct = [bytes(range(k * 36, k * 36 + 36)) for k in range(3)]
    assert extract_ciphertext(_tap(distinct), CipherMode.FULL) == b"".join(f[:32] for f in distinct)
    assert (extract_ciphertext(_tap(distinct), CipherMode.SELECTIVE)
            == b"".join(f[5:28] for f in distinct))


def test_extract_ciphertext_accepts_log():
    ch = Channel(ChannelConfig(rng_seed=0))
    ch.transmit(_wire(3))
    assert extract_ciphertext(ch.intercepts, CipherMode.FULL) == _wire(3)[:32]


def test_outcomes_and_fresh_records():
    ch = Channel(ChannelConfig(loss_prob=0.5, tamper_prob=0.5, rng_seed=6))
    sent = [ch.transmit(_wire(i)).outcome for i in range(20)]
    assert ch.intercepts.outcomes() == sent
    assert ch.intercepts.records is not ch.intercepts.records
    with pytest.raises(AttributeError):
        ch.intercepts.records = []


_INTERCEPTS = st.lists(st.builds(
    Intercept, st.integers(-2 ** 63, 2 ** 63 - 1),
    st.sampled_from([_wire(0), _wire(7)]) | st.binary(min_size=36, max_size=36),
    st.none() | st.sampled_from(Delivery)), max_size=10)


@given(_INTERCEPTS)
@settings(max_examples=150, deadline=None)
def test_columnar_tap_matches_a_list_of_intercepts(records):
    log = InterceptLog(records)
    assert list(log) == records and log.records == records and len(log) == len(records)
    assert log.frames() == [r.frame for r in records]
    assert log.outcomes() == [r.outcome for r in records]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "corpus.bin"
        export_intercepts(log, path)
        assert path.read_bytes() == b"".join(r.frame for r in records)
        sidecar = "\n".join(f"{r.seq},{36 * k},{r.outcome.value if r.outcome else ''}"
                            for k, r in enumerate(records))
        assert Path(d, "corpus.bin.idx").read_text() == (sidecar + "\n" if sidecar else "")
        assert list(load_intercepts(path)) == records
    for mode in CipherMode:
        assert extract_ciphertext(log, mode) == b"".join(f[mode.ciphered] for f in log.frames())


# Characters an edit may put in a sidecar: its own alphabet, and what
# export_intercepts never writes (signs, spaces, "_", "\r", a non-ASCII byte).
_SIDECAR_CHARS = st.sampled_from("0123456789,\n\r +-_delivrdopamt\xff")


@given(st.integers(0, 2 ** 16), st.integers(0, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_load_intercepts_refuses_or_writes_back_an_edited_sidecar(seed, frames, data):
    # The loader's one rule: a sidecar it reads is one export_intercepts writes back.
    ch = Channel(ChannelConfig(loss_prob=0.3, tamper_prob=0.3, rng_seed=seed))
    for i in range(frames):
        ch.transmit(_wire(seed + i))
    with tempfile.TemporaryDirectory() as d:
        path, idx = Path(d) / "corpus.bin", Path(d) / "corpus.bin.idx"
        export_intercepts(ch.intercepts, path)
        corpus, lines = path.read_bytes(), idx.read_text().splitlines(keepends=True)
        if lines:
            k = data.draw(st.integers(0, len(lines) - 1))
            edit = data.draw(st.sampled_from(["char", "delete", "duplicate", "swap"]))
            if edit == "char":
                text = "".join(lines)
                at = data.draw(st.integers(0, len(text) - 1))
                lines = [text[:at], data.draw(_SIDECAR_CHARS), text[at + 1:]]
            elif edit == "delete":
                del lines[k]
            elif edit == "duplicate":
                lines.insert(k, lines[k])
            elif k + 1 < len(lines):
                lines[k:k + 2] = lines[k + 1], lines[k]
        edited = "".join(lines).encode("latin-1")
        idx.write_bytes(edited)
        try:
            log = load_intercepts(path)
        except ValueError as e:
            assert re.match(rf"{re.escape(str(idx))}:[1-9][0-9]*: ", str(e))
        else:
            export_intercepts(log, path)
            assert (path.read_bytes(), idx.read_bytes()) == (corpus, edited)
