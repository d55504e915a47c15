import copy
import dataclasses
import hashlib
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from otp_remctl.entropy import SeededSource
from otp_remctl.errors import BadLength, OutOfRange
from otp_remctl.frame import (
    FRAME_LEN,
    HEADER,
    WIRE_LEN,
    CipherMode,
    CommandFrame,
    CommandRegistry,
    WireFrame,
    encode_command,
    otp_decrypt,
    otp_encrypt,
    parse_wire,
    standard_registry,
)

# Fixed command rows, frozen from the deployed system's byte captures.
CONNECTION = bytes([36, 77, 60, 16, 105, 221, 5, 221, 5, 219, 5, 220, 5,
                    220, 5, 220, 5, 221, 5, 0, 0, 166, 0, 0, 0, 0, 0, 0,
                    221, 255, 223, 255])
FORWARD_PREFIX = bytes([36, 77, 60, 16, 105, 220, 5, 220, 5, 220, 5, 208, 7])

# CONNECTION xored with an all-0xFF 32-byte key (independent hand oracle).
CONNECTION_FF = bytes([219, 178, 195, 239, 150, 34, 250, 34, 250, 36, 250,
                       35, 250, 35, 250, 35, 250, 34, 250, 255, 255, 89,
                       255, 255, 255, 255, 255, 255, 34, 0, 32, 0])


def test_connection_row_is_exact():
    assert standard_registry().lookup("Connection").data == CONNECTION


def test_forward_row_prefix():
    assert standard_registry().lookup("Forward").data.startswith(FORWARD_PREFIX)


def test_registry_has_five_commands():
    reg = standard_registry()
    assert set(reg.names()) == {"Connection", "Backward", "Turn Left",
                                "Turn Right", "Forward"}
    for _, frame in reg:
        assert frame.data[:5] == HEADER


def test_standard_commands_differ_in_two_bytes_min():
    # a single flipped byte can never turn one command into another
    frames = [f.data for _, f in standard_registry()]
    for i in range(len(frames)):
        for j in range(i + 1, len(frames)):
            diff = sum(a != b for a, b in zip(frames[i], frames[j]))
            assert diff >= 2


def test_encode_command_layout():
    frame = encode_command((1501, 1501, 1499, 1500, 1500, 1500, 1501),
                           bytes([0, 0, 166, 0, 0, 0, 0, 0, 0]),
                           bytes([221, 255, 223, 255]))
    assert frame.data == CONNECTION


def test_encode_command_validation():
    aux, trailer = bytes(9), bytes(4)
    with pytest.raises(ValueError):
        encode_command((1, 2, 3), aux, trailer)
    with pytest.raises(ValueError):
        encode_command((65536, 0, 0, 0, 0, 0, 0), aux, trailer)
    with pytest.raises(ValueError):
        encode_command((0,) * 7, bytes(8), trailer)
    with pytest.raises(ValueError):
        encode_command((0,) * 7, aux, bytes(5))


def test_command_frame_rejects_bad_input():
    with pytest.raises(BadLength):
        CommandFrame(b"\x00" * 31)
    with pytest.raises(ValueError):
        CommandFrame(b"\x00" * 32)


def test_validate_random_ciphertexts_never_pass():
    # spot-check through the real pipeline
    source = SeededSource(31)
    frame = CommandFrame(CONNECTION)
    for i in range(200):
        wire = otp_encrypt(frame, source.fill(32), i, CipherMode.FULL)
        assert wire.payload[:5] != HEADER
    # mass check: the ciphered header is valid only if the key bytes
    # covering it are all zero; expect zero such keys in 1e5 draws
    rng = np.random.default_rng(2024)
    keys = rng.integers(0, 256, size=(10**5, 5), dtype=np.uint8)
    header = np.frombuffer(HEADER, np.uint8)
    hits = np.count_nonzero(((keys ^ header) == header).all(axis=1))
    assert hits == 0


def test_zero_key_is_identity():
    frame = CommandFrame(CONNECTION)
    wire = otp_encrypt(frame, bytes(32), 0, CipherMode.FULL)
    assert wire.payload == CONNECTION
    wire = otp_encrypt(frame, bytes(23), 0, CipherMode.SELECTIVE)
    assert wire.payload == CONNECTION


def test_all_ff_key_oracle():
    wire = otp_encrypt(CommandFrame(CONNECTION), b"\xff" * 32, 9, CipherMode.FULL)
    assert wire.payload == CONNECTION_FF
    assert wire.address == 9


def test_selective_mode_keeps_header_and_trailer_clear():
    key = SeededSource(5).fill(23)
    wire = otp_encrypt(CommandFrame(CONNECTION), key, 0,
                       CipherMode.SELECTIVE)
    assert wire.payload[:5] == CONNECTION[:5]
    assert wire.payload[28:] == CONNECTION[28:]
    assert wire.payload[5:28] != CONNECTION[5:28]


def test_key_length_is_checked():
    frame = CommandFrame(CONNECTION)
    with pytest.raises(BadLength, match=r"^full mode needs a 32-byte key, got 23$"):
        otp_encrypt(frame, bytes(23), 0, CipherMode.FULL)
    with pytest.raises(BadLength, match=r"^full mode needs a 32-byte key, got 31$"):
        otp_decrypt(otp_encrypt(frame, bytes(32), 0, CipherMode.FULL), bytes(31),
                    CipherMode.FULL)


_channels = st.tuples(*[st.integers(0, 0xFFFF)] * 7)
_aux = st.binary(min_size=9, max_size=9)
_trailer = st.binary(min_size=4, max_size=4)


@given(_channels, _aux, _trailer, st.binary(min_size=32, max_size=32),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_full_mode_involution(channels, aux, trailer, key, addr):
    frame = encode_command(channels, aux, trailer)
    wire = otp_encrypt(frame, key, addr, CipherMode.FULL)
    assert otp_decrypt(wire, key, CipherMode.FULL) == frame.data


@given(_channels, _aux, _trailer, st.binary(min_size=23, max_size=23),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_selective_mode_involution(channels, aux, trailer, key, addr):
    frame = encode_command(channels, aux, trailer)
    wire = otp_encrypt(frame, key, addr, CipherMode.SELECTIVE)
    assert otp_decrypt(wire, key, CipherMode.SELECTIVE) == frame.data


def _bytewise_pad(data: bytes, key: bytes, mode: CipherMode) -> bytes:
    """An independent pad: XOR byte by byte over mode.ciphered, copy the rest."""
    region = mode.ciphered
    return (data[:region.start] + bytes(a ^ b for a, b in zip(data[region], key))
            + data[region.stop:])


@pytest.mark.parametrize("mode", list(CipherMode))
@given(body=st.binary(min_size=27, max_size=27), data=st.binary(min_size=32, max_size=32),
       key=st.binary(min_size=32, max_size=32), addr=st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_pad_matches_a_bytewise_xor(mode, body, data, key, addr):
    key = key[:mode.key_length]
    frame = CommandFrame(HEADER + body)
    wire = otp_encrypt(frame, key, addr, mode)
    assert wire.payload == _bytewise_pad(frame.data, key, mode)
    assert otp_decrypt(wire, key, mode) == frame.data
    # A payload off the air is any 32 bytes, header or not.
    assert otp_decrypt(WireFrame(addr, data), key, mode) == _bytewise_pad(data, key, mode)


@pytest.mark.parametrize("mode", list(CipherMode))
@pytest.mark.parametrize("length", [31, 33])
def test_pad_refuses_a_payload_reassigned_to_another_length(mode, length):
    key = bytes(mode.key_length)
    wire = otp_encrypt(CommandFrame(CONNECTION), key, 0, mode)
    wire.payload = bytes(length)
    with pytest.raises(BadLength, match=f"got {length}$"):
        otp_decrypt(wire, key, mode)


def test_parse_wire_address_is_last():
    data = bytes(32) + bytes([0, 0, 0, 5])
    wire = parse_wire(data)
    assert wire.address == 5
    assert wire.payload == bytes(32)


def test_parse_wire_rejects_bad_length():
    with pytest.raises(BadLength):
        parse_wire(bytes(35))
    with pytest.raises(BadLength):
        parse_wire(bytes(37))


@given(st.binary(min_size=36, max_size=36))
@settings(max_examples=200)
def test_wire_roundtrip(data):
    assert parse_wire(data).to_bytes() == data


def test_wire_frame_length():
    wire = WireFrame(1, bytes(32))
    assert len(wire.to_bytes()) == WIRE_LEN
    with pytest.raises(BadLength):
        WireFrame(1, bytes(31))


def test_ciphered_bytes_are_uniform_per_position():
    # fixed plaintext, fresh keys: chi-square per byte position, alpha 0.001
    n = 10**4
    source = SeededSource(77)
    frame = CommandFrame(CONNECTION)
    rows = np.empty((n, FRAME_LEN), dtype=np.uint8)
    for i in range(n):
        rows[i] = np.frombuffer(
            otp_encrypt(frame, source.fill(32), i, CipherMode.FULL).payload, np.uint8)
    critical = scipy.stats.chi2.ppf(1 - 0.001, 255)
    for pos in range(FRAME_LEN):
        counts = np.bincount(rows[:, pos], minlength=256)
        chi2 = float(((counts - n / 256) ** 2 / (n / 256)).sum())
        assert chi2 < critical, f"position {pos}: chi2 {chi2:.1f}"


def test_two_encryptions_collide_at_chance_rate():
    n = 2000
    source = SeededSource(88)
    frame = CommandFrame(CONNECTION)
    a = np.frombuffer(b"".join(
        otp_encrypt(frame, source.fill(32), i, CipherMode.FULL).payload
        for i in range(n)), np.uint8).reshape(n, FRAME_LEN)
    agree = np.count_nonzero(a[: n // 2] == a[n // 2:]) / (n // 2 * FRAME_LEN)
    # expectation 1/256 = 0.0039; 5 sigma of 32000 comparisons
    assert abs(agree - 1 / 256) < 5 * np.sqrt((1 / 256) * (255 / 256) / 32000)


def test_cipher_mode_for_block_size():
    assert CipherMode.for_block_size(32) is CipherMode.FULL
    assert CipherMode.for_block_size(23) is CipherMode.SELECTIVE
    with pytest.raises(ValueError):
        CipherMode.for_block_size(16)
    assert CipherMode.FULL.key_length == 32
    assert CipherMode.SELECTIVE.key_length == 23


def test_registry_roundtrip(tmp_path):
    reg = standard_registry()
    p = tmp_path / "cmds.reg"
    reg.save(p)
    loaded = CommandRegistry.load(p)
    assert loaded.names() == reg.names()
    for name, frame in reg:
        assert loaded.lookup(name).data == frame.data
    # names a registry file would read back wrong, or not at all
    for name in ("#hash", "a:b", " pad ", "", "two\nlines", "cr\r", 5):
        with pytest.raises(ValueError, match="bad command name"):
            CommandRegistry().add(name, CommandFrame(CONNECTION))


def test_registry_file_bytes_are_pinned(tmp_path):
    """The five stock rows as ``name: b0,...,b31`` lines, each ending in "\n"."""
    p = tmp_path / "cmds.reg"
    standard_registry().save(p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "c052b7f9a7020a047092326ae5fb17920311ff61e5b928af07b037def7e063ee")


@given(st.lists(st.text(max_size=12), max_size=6, unique=True))
@settings(max_examples=200, deadline=None)
def test_registry_names_add_accepts_survive_save_and_load(tmp_path_factory, names):
    reg = CommandRegistry()
    for i, name in enumerate(names):
        try:
            reg.add(name, encode_command([i] * 7, bytes(9), bytes(4)))
        except ValueError:
            pass
    p = tmp_path_factory.mktemp("reg") / "cmds.reg"
    reg.save(p)
    assert list(CommandRegistry.load(p)) == list(reg)


def test_registry_match_and_membership():
    reg = standard_registry()
    assert reg.match(CONNECTION) == "Connection"
    assert reg.match(b"\x00" * 32) is None
    assert "Forward" in reg and "Sideways" not in reg
    with pytest.raises(KeyError):
        reg.lookup("Sideways")


def test_registry_rejects_duplicates():
    # a second frame under a taken name, and taken bytes under a second name
    for name, message in (("Connection", "duplicate command name"),
                          ("Linkup", "'Linkup' has the same bytes as 'Connection'")):
        reg = standard_registry()
        with pytest.raises(ValueError, match=message):
            reg.add(name, CommandFrame(CONNECTION))
        assert reg.names() == standard_registry().names()
        assert reg.match(CONNECTION) == "Connection"


@pytest.mark.parametrize("data", [CONNECTION, bytes(32)])
def test_registry_add_requires_command_frame(data):
    # a stand-in with the right attribute is refused whatever its bytes,
    # so every registered frame has passed CommandFrame's checks
    reg = standard_registry()
    with pytest.raises(TypeError):
        reg.add("Hover", SimpleNamespace(data=data))
    assert "Hover" not in reg and len(reg) == 5
    assert reg.match(bytes(32)) is None


def test_registry_load_errors(tmp_path):
    p = tmp_path / "bad.reg"
    p.write_text("no separator line\n")
    with pytest.raises(ValueError):
        CommandRegistry.load(p)
    p.write_text("Hover: 1,2,three\n")
    with pytest.raises(ValueError):
        CommandRegistry.load(p)
    bad_header = bytes(5) + CONNECTION[5:]
    p.write_text("Hover: " + ",".join(str(b) for b in bad_header) + "\n")
    with pytest.raises(ValueError, match="header"):
        CommandRegistry.load(p)
    p.write_text("Hover: " + ",".join(str(b) for b in CONNECTION[:31]) + "\n")
    with pytest.raises(BadLength):
        CommandRegistry.load(p)
    p.write_text("Hover: " + ",".join(str(b) for b in CONNECTION[:31]) + ",300\n")
    with pytest.raises(ValueError, match=r"bad\.reg:1: byte values must be 0\.\.255"):
        CommandRegistry.load(p)
    row = ",".join(str(b) for b in CONNECTION)
    p.write_text(f"Hover: {row}\nHover: {row[:-3]}254\n")
    with pytest.raises(ValueError, match=r"bad\.reg:2: duplicate command name 'Hover'$"):
        CommandRegistry.load(p)
    p.write_text(f"Hover: {row}\nLinkup: {row}\n")
    with pytest.raises(ValueError,
                       match=r"bad\.reg:2: command 'Linkup' has the same bytes as 'Hover'$"):
        CommandRegistry.load(p)
    p.write_text(f"# header\nHover: {','.join(str(b) for b in bad_header)}\n")
    with pytest.raises(ValueError, match=r"bad\.reg:2: bad frame header"):
        CommandRegistry.load(p)
    p.write_text(f"Hover: {row},0\n")
    with pytest.raises(BadLength, match=r"bad\.reg:1: command frame is 32 bytes, got 33$"):
        CommandRegistry.load(p)


def test_registry_load_skips_comments(tmp_path):
    p = tmp_path / "one.reg"
    p.write_text("# stock connect row\n\n"
                 "Connect: " + ",".join(str(b) for b in CONNECTION) + "\n")
    reg = CommandRegistry.load(p)
    assert reg.names() == ("Connect",)
    assert reg.lookup("Connect").data == CONNECTION


@pytest.mark.parametrize("address", [-1, 2**32])
def test_wire_frame_rejects_out_of_range_address(address):
    with pytest.raises(OutOfRange):
        WireFrame(address, bytes(32))
    # otp_encrypt checks the address itself before it builds its frame.
    for mode in CipherMode:
        with pytest.raises(OutOfRange):
            otp_encrypt(CommandFrame(CONNECTION), bytes(mode.key_length), address, mode)


@pytest.mark.parametrize("mode", list(CipherMode))
@pytest.mark.parametrize("address", [0, 1, 2**32 - 1])
def test_parse_wire_roundtrips_int_addresses(address, mode):
    key = SeededSource(5).fill(mode.key_length)
    wire = otp_encrypt(CommandFrame(CONNECTION), key, address, mode)
    back = parse_wire(wire.to_bytes())
    assert back == wire
    # Both build their frames without the constructor's checks; each frame
    # equals the one the checked constructor builds from its fields.
    assert wire == WireFrame(address, wire.payload) == back
    assert type(back.payload) is bytes and len(back.payload) == FRAME_LEN
    assert type(back.address) is int and back.address == address
    assert otp_decrypt(back, key, mode) == CONNECTION


class _SubBytes(bytes):
    pass


# Inputs that are not exact bytes: each must be copied, never kept.
BUFFERS = {"bytearray": bytearray, "memoryview": lambda b: memoryview(bytearray(b)),
           "bytes-subclass": _SubBytes}


@pytest.mark.parametrize("kind", BUFFERS)
def test_parse_wire_and_match_copy_a_buffer_that_is_not_bytes(kind):
    reg = standard_registry()
    plain = reg.lookup("Forward").data
    wire = otp_encrypt(reg.lookup("Forward"), bytes(32), 7, CipherMode.FULL).to_bytes()
    wire_buf, plain_buf = BUFFERS[kind](wire), BUFFERS[kind](plain)
    parsed = parse_wire(wire_buf)
    assert type(parsed.payload) is bytes and parsed == parse_wire(wire)
    assert reg.match(plain_buf) == "Forward"
    if kind != "bytes-subclass":  # the mutable ones: nothing returned aliases them
        wire_buf[:] = bytes(WIRE_LEN)
        plain_buf[:] = bytes(FRAME_LEN)
        assert parsed.payload == plain and parsed.address == 7
        assert reg.match(plain_buf) is None
    assert reg.match(plain) == "Forward" and reg.names() == standard_registry().names()


@pytest.mark.parametrize("mode", list(CipherMode))
@pytest.mark.parametrize("name", standard_registry().names())
@given(key=st.binary(min_size=32, max_size=32), addr=st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_encrypt_pads_the_integer_of_the_frame_bytes(mode, name, key, addr):
    frame, key = standard_registry().lookup(name), key[:mode.key_length]
    shift = 8 * (FRAME_LEN - mode.ciphered.stop)
    padded = int.from_bytes(frame.data, "big") ^ (int.from_bytes(key, "big") << shift)
    wire = otp_encrypt(frame, key, addr, mode)
    assert wire == WireFrame(addr, padded.to_bytes(FRAME_LEN, "big"))


def test_command_frame_integer_survives_copy_pickle_and_replace():
    frame, backward = CommandFrame(CONNECTION), standard_registry().lookup("Backward")
    buffer = bytearray(backward.data)
    from_buffer = CommandFrame(buffer)
    buffer[5:] = bytes(27)  # a copy was kept, so this changes nothing
    twins = [copy.copy(frame), copy.deepcopy(frame), pickle.loads(pickle.dumps(frame)),
             dataclasses.replace(frame), dataclasses.replace(backward, data=CONNECTION)]
    for twin in twins:
        assert twin == frame and hash(twin) == hash(frame)
        assert repr(twin) == repr(frame) == f"CommandFrame(data={CONNECTION!r})"
    assert dataclasses.replace(frame, data=backward.data) == backward == from_buffer
    assert type(from_buffer.data) is bytes and [f.name for f in dataclasses.fields(frame)] == ["data"]
    key = bytes(range(32))
    for twin in [*twins, from_buffer, dataclasses.replace(frame, data=backward.data)]:
        wire = otp_encrypt(twin, key, 3, CipherMode.FULL)
        assert wire.payload == _bytewise_pad(twin.data, key, CipherMode.FULL)
