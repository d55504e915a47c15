import pytest

from otp_remctl.channel import (
    Channel,
    ChannelConfig,
    Delivery,
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
    assert tx.delivered and tx.data == _wire(1)


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
    assert len(load_intercepts(p)) == 0


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
], ids=["extra-line", "wrong-offset", "repeated-offset", "more-lines-than-frames",
        "missing-line", "missing-field", "non-integer-seq"])
def test_load_rejects_sidecar_that_contradicts_corpus(tmp_path, frames, sidecar, where):
    p = tmp_path / "corpus.bin"
    p.write_bytes(b"".join(_wire(i) for i in range(frames)))
    (tmp_path / "corpus.bin.idx").write_text(sidecar)
    with pytest.raises(ValueError, match=f"corpus.bin.idx{where}"):
        load_intercepts(p)


def test_load_without_sidecar_numbers_frames(tmp_path):
    p = tmp_path / "corpus.bin"
    p.write_bytes(_wire(0) + _wire(1))
    loaded = load_intercepts(p)
    assert [(r.seq, r.outcome) for r in loaded] == [(0, None), (1, None)]


def test_extract_ciphertext_modes():
    frames = [_wire(0), _wire(1)]
    full = extract_ciphertext(frames, CipherMode.FULL)
    sel = extract_ciphertext(frames, CipherMode.SELECTIVE)
    assert len(full) == 64 and full[:32] == _wire(0)[:32]
    assert len(sel) == 46 and sel[:23] == _wire(0)[5:28]
    distinct = [bytes(range(k * 36, k * 36 + 36)) for k in range(3)]
    assert extract_ciphertext(iter(distinct)) == b"".join(f[:32] for f in distinct)
    assert (extract_ciphertext(distinct, CipherMode.SELECTIVE)
            == b"".join(f[5:28] for f in distinct))
    with pytest.raises(ValueError):
        extract_ciphertext([b"\x00" * 35])


def test_extract_ciphertext_accepts_log():
    ch = Channel(ChannelConfig(rng_seed=0))
    ch.transmit(_wire(3))
    assert extract_ciphertext(ch.intercepts) == _wire(3)[:32]
