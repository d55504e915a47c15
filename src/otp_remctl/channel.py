"""Simulated lossy/tampering radio link with an eavesdropper tap.

Every transmitted frame lands in the tap's intercept log exactly as sent,
whatever happens to it on the link, together with that outcome.  Delivery
is in order; there is no duplication or reordering.

The ``.idx`` sidecar is a line file (``_textfile``), read back only if
export_intercepts writes it again.
"""

import enum
import operator
import random
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._textfile import check_written_back, read_lines, write_lines
from .frame import FRAME_LEN, WIRE_LEN, CipherMode


class TamperModel(enum.Enum):
    """How a tampered frame is corrupted; each value is its ``--tamper-model``
    name. ``flip``: one random payload byte; ``randomize``: the whole payload."""

    FLIP_ONE_RANDOM_BYTE = "flip"
    RANDOMIZE_PAYLOAD = "randomize"


class Delivery(enum.Enum):
    DELIVERED = "delivered"
    DROPPED = "dropped"
    TAMPERED = "tampered"


@dataclass(frozen=True)
class ChannelConfig:
    """Loss/tamper probabilities and the seed that fixes the event schedule."""

    loss_prob: float = 0.0
    tamper_prob: float = 0.0
    tamper_model: TamperModel = TamperModel.FLIP_ONE_RANDOM_BYTE
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("loss_prob", "tamper_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        # random.Random seeds with abs(), so -s would fly the schedule of s
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")


@dataclass(slots=True)
class Transmission:
    """What came out the far end of the link for one frame."""

    outcome: Delivery
    data: bytes | None


@dataclass(slots=True)
class Intercept:
    seq: int
    frame: bytes
    outcome: Delivery | None = None


# The tap's outcome column holds an index into _BY_CODE (0: no outcome),
# and _FIELDS is the sidecar's outcome field for each code.
_BY_CODE = (None, *Delivery)
_CODE = {outcome: code for code, outcome in enumerate(_BY_CODE)}
_DELIVERED, _DROPPED, _TAMPERED = (
    _CODE[d] for d in (Delivery.DELIVERED, Delivery.DROPPED, Delivery.TAMPERED))
_FIELDS = tuple("" if d is None else d.value for d in _BY_CODE)
_FIELD_CODE = {field: code for code, field in enumerate(_FIELDS)}


# Module names for what transmit and _tamper read once a frame: a member read
# through its Enum class, or a method through a builtin type, is an attribute
# lookup each time.
_RANDOMIZE_PAYLOAD = TamperModel.RANDOMIZE_PAYLOAD
_new = object.__new__


def _width_error(frame) -> ValueError:
    return ValueError(f"a tap frame is {WIRE_LEN} bytes, got {len(frame)}")


class InterceptLog:
    """Everything seen on the air, in transmission order.

    The log is columnar: the frames sit back to back in one bytearray,
    frame k at offset ``36*k``, and array columns hold each frame's seq
    and outcome code.  ``InterceptLog(records)`` raises ValueError unless
    every frame is a 36-byte wire frame, every seq is an integer in int64
    and every outcome is a Delivery or None; then only
    ``Channel.transmit`` appends rows.  Intercepts are built
    only when the log is iterated, and ``records`` is a new list on each
    access; ``frames()`` and ``outcomes()`` are the cheap reads.
    """

    def __init__(self, records=()) -> None:
        self._frames = bytearray()
        self._seq = array("q")
        self._outcome = array("B")
        for record in records:
            try:
                seq = operator.index(record.seq)
            except TypeError:
                raise ValueError(f"seq {record.seq!r} is not an integer") from None
            outcome, frame = record.outcome, bytes(record.frame)
            if not -2 ** 63 <= seq < 2 ** 63:
                raise ValueError(f"seq {seq} is outside {-2 ** 63}..{2 ** 63 - 1}")
            if outcome is not None and not isinstance(outcome, Delivery):
                raise ValueError(f"unknown outcome {outcome!r}")
            if len(frame) != WIRE_LEN:
                raise _width_error(frame)
            self._seq.append(seq)
            self._frames += frame
            self._outcome.append(_CODE[outcome])

    @property
    def records(self) -> list[Intercept]:
        return list(self)

    def frames(self) -> list[bytes]:
        data = bytes(self._frames)
        return [data[k:k + WIRE_LEN] for k in range(0, len(data), WIRE_LEN)]

    def outcomes(self) -> list[Delivery | None]:
        return [_BY_CODE[code] for code in self._outcome]

    def __len__(self) -> int:
        return len(self._seq)

    def __iter__(self):
        return map(Intercept, self._seq, self.frames(), self.outcomes())


class Channel:
    """One per session, single-threaded; the tap log is append-only."""

    def __init__(self, config: ChannelConfig) -> None:
        self.config = config
        self.intercepts = InterceptLog()
        self._rng = random.Random(config.rng_seed)

    def transmit(self, wire: bytes) -> Transmission:
        """Push one wire frame through the link.

        The frame is dropped with loss_prob, else tampered with
        tamper_prob, else delivered intact; the tap records it as sent,
        with that outcome.  A frame that is not 36 bytes raises ValueError
        before the link draws anything.
        """
        if len(wire) != WIRE_LEN:
            raise _width_error(wire)
        rng, config = self._rng, self.config
        if rng.random() < config.loss_prob:
            code, data = _DROPPED, None
        elif rng.random() < config.tamper_prob:
            code, data = _TAMPERED, self._tamper(wire)
        else:
            code, data = _DELIVERED, wire if type(wire) is bytes else bytes(wire)
        tap = self.intercepts
        tap._seq.append(len(tap._seq))
        tap._frames += wire
        tap._outcome.append(code)
        tx = _new(Transmission)
        tx.outcome, tx.data = _BY_CODE[code], data
        return tx

    def _tamper(self, wire: bytes) -> bytes:
        # Only payload bytes; the clear address bytes stay untouched so the
        # test isolates ciphertext integrity.
        if self.config.tamper_model is _RANDOMIZE_PAYLOAD:
            return self._rng.randbytes(FRAME_LEN) + wire[FRAME_LEN:]
        mutated = bytearray(wire)
        i = self._rng.randrange(FRAME_LEN)
        mutated[i] ^= self._rng.randrange(1, 256)
        return bytes(mutated)


def _sidecar_lines(seqs, codes):
    """The ``.idx`` lines of these columns, frame k's at ``36*k``, made as read."""
    fields, offsets = _FIELDS, range(0, WIRE_LEN * len(seqs), WIRE_LEN)
    return (f"{seq},{offset},{fields[code]}" for seq, offset, code in zip(seqs, offsets, codes))


def export_intercepts(log: InterceptLog, path) -> None:
    """Write the corpus (concatenated frames) plus a ``.idx`` sidecar."""
    path = Path(path)
    path.write_bytes(log._frames)
    write_lines(str(path) + ".idx", _sidecar_lines(log._seq, log._outcome))


def load_intercepts(path) -> InterceptLog:
    """Re-read a corpus written by export_intercepts.

    The ``.idx`` sidecar, when present, holds one line per frame, three
    fields with an int64 seq and a known outcome, that export_intercepts
    writes back; else ValueError names its first faulty line.  Without a
    sidecar frame k gets seq k and no outcome.
    """
    path, sidecar = Path(path), Path(str(path) + ".idx")
    blob = path.read_bytes()
    if len(blob) % WIRE_LEN:
        raise ValueError(f"{path}: length {len(blob)} is not a multiple of {WIRE_LEN}")
    count = len(blob) // WIRE_LEN
    log = InterceptLog()
    log._frames = bytearray(blob)
    if not sidecar.exists():
        log._seq, log._outcome = array("q", range(count)), array("B", bytes(count))
        return log
    lines = read_lines(sidecar)
    if len(lines) > count:
        raise ValueError(f"{sidecar}:{count + 1}: more lines than the {count} frames")
    seqs, codes, field_code, fault = log._seq, log._outcome, _FIELD_CODE, None
    try:
        for line in lines:
            try:
                seq_s, _, outcome_s = line.split(",")
                seq = int(seq_s)
            except ValueError:
                raise ValueError("expected 'seq,offset,outcome'") from None
            code = field_code.get(outcome_s)
            if code is None:
                raise ValueError(f"unknown outcome {outcome_s!r}")
            try:
                seqs.append(seq)
            except OverflowError:
                raise ValueError(f"seq {seq} does not fit in 64 bits") from None
            codes.append(code)
    except ValueError as e:
        fault = e
    # each line read before a fault added one row, so the rows end before it
    check_written_back(sidecar, lines, _sidecar_lines(seqs, codes), "export_intercepts")
    if fault is not None:
        raise ValueError(f"{sidecar}:{len(codes) + 1}: {fault}")
    if len(lines) < count:
        raise ValueError(f"{sidecar}:{len(lines) + 1}: no line for frame {len(lines)} "
                         f"of {count}")
    return log


def extract_ciphertext(frames: InterceptLog, mode: CipherMode) -> bytes:
    """Concatenate the ciphered bytes of a tap's wire frames, skipping clear fields:
    ``mode.ciphered`` of each frame's 32-byte payload."""
    wire = np.frombuffer(frames._frames, dtype=np.uint8).reshape(-1, WIRE_LEN)
    return wire[:, mode.ciphered].tobytes()
