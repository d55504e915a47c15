"""Simulated lossy/tampering radio link with an eavesdropper tap.

The tap sits before loss and tampering are decided: every transmitted
frame lands in the intercept log exactly as sent, whatever happens to it
afterwards.  Delivery is in order; there is no duplication or reordering.
"""

import enum
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .frame import FRAME_LEN, WIRE_LEN, CipherMode


class TamperModel(enum.Enum):
    FLIP_ONE_RANDOM_BYTE = "flip_one_random_byte"
    RANDOMIZE_PAYLOAD = "randomize_payload"


class Delivery(enum.Enum):
    DELIVERED = "delivered"
    DROPPED = "dropped"
    TAMPERED = "tampered"


# Sidecar outcome field -> Delivery; an empty field means no outcome.
_OUTCOMES = {"": None, **{d.value: d for d in Delivery}}


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


@dataclass(frozen=True)
class Transmission:
    """What came out the far end of the link for one frame."""

    outcome: Delivery
    data: bytes | None

    @property
    def delivered(self) -> bool:
        return self.outcome is not Delivery.DROPPED


@dataclass(slots=True)
class Intercept:
    seq: int
    frame: bytes
    outcome: Delivery | None = None


@dataclass
class InterceptLog:
    """Everything seen on the air, in transmission order."""

    records: list = field(default_factory=list)

    def append(self, record: Intercept) -> None:
        self.records.append(record)

    def frames(self) -> list:
        return [r.frame for r in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


class Channel:
    """One per session, single-threaded; the tap log is append-only."""

    def __init__(self, config: ChannelConfig) -> None:
        self.config = config
        self.intercepts = InterceptLog()
        self._rng = random.Random(config.rng_seed)
        self._seq = 0

    def transmit(self, wire: bytes) -> Transmission:
        """Push one wire frame through the link.

        The frame is logged to the tap first; then it is dropped with
        loss_prob, else tampered with tamper_prob, else delivered intact.
        """
        record = Intercept(self._seq, bytes(wire))
        self.intercepts.append(record)
        self._seq += 1
        if self._rng.random() < self.config.loss_prob:
            record.outcome = Delivery.DROPPED
            return Transmission(Delivery.DROPPED, None)
        if self._rng.random() < self.config.tamper_prob:
            record.outcome = Delivery.TAMPERED
            return Transmission(Delivery.TAMPERED, self._tamper(wire))
        record.outcome = Delivery.DELIVERED
        return Transmission(Delivery.DELIVERED, bytes(wire))

    def _tamper(self, wire: bytes) -> bytes:
        mutated = bytearray(wire)
        if self.config.tamper_model is TamperModel.FLIP_ONE_RANDOM_BYTE:
            # Only payload bytes; the clear address bytes stay untouched so
            # the test isolates ciphertext integrity.
            i = self._rng.randrange(FRAME_LEN)
            mutated[i] ^= self._rng.randrange(1, 256)
        else:
            mutated[:FRAME_LEN] = self._rng.randbytes(FRAME_LEN)
        return bytes(mutated)


def export_intercepts(log: InterceptLog, path) -> None:
    """Write the corpus (concatenated frames) plus a ``.idx`` sidecar.

    Sidecar lines are ``seq,offset,outcome``, one per frame.
    """
    path = Path(path)
    path.write_bytes(b"".join(r.frame for r in log))
    lines = []
    offset = 0
    for r in log:
        outcome = r.outcome.value if r.outcome is not None else ""
        lines.append(f"{r.seq},{offset},{outcome}")
        offset += len(r.frame)
    sidecar = "\n".join(lines)
    Path(str(path) + ".idx").write_text(sidecar + "\n" if sidecar else "")


def load_intercepts(path) -> InterceptLog:
    """Re-read a corpus written by export_intercepts.

    The ``.idx`` sidecar, when present, must hold exactly one line per
    frame, line k giving offset ``36*k``; without it frame k gets seq k
    and no outcome.
    """
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) % WIRE_LEN:
        raise ValueError(f"{path}: length {len(blob)} is not a multiple of {WIRE_LEN}")
    count = len(blob) // WIRE_LEN
    sidecar = Path(str(path) + ".idx")
    if not sidecar.exists():
        index = [(k, None) for k in range(count)]
    else:
        index = []
        lineno = 0
        for lineno, line in enumerate(sidecar.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            k = len(index)
            if k == count:
                raise ValueError(f"{sidecar}:{lineno}: more lines than the {count} frames")
            try:
                seq_s, offset_s, outcome_s = line.split(",")
                seq, offset = int(seq_s), int(offset_s)
            except ValueError:
                raise ValueError(f"{sidecar}:{lineno}: expected 'seq,offset,outcome'") from None
            if offset != k * WIRE_LEN:
                raise ValueError(
                    f"{sidecar}:{lineno}: offset {offset}, frame {k} is at {k * WIRE_LEN}")
            if outcome_s not in _OUTCOMES:
                raise ValueError(f"{sidecar}:{lineno}: unknown outcome {outcome_s!r}")
            index.append((seq, _OUTCOMES[outcome_s]))
        if len(index) != count:
            raise ValueError(f"{sidecar}:{lineno + 1}: no line for frame {len(index)} "
                             f"of {count}")
    log = InterceptLog()
    for k, (seq, outcome) in enumerate(index):
        offset = k * WIRE_LEN
        log.append(Intercept(seq, blob[offset:offset + WIRE_LEN], outcome))
    return log


def extract_ciphertext(frames, mode: CipherMode = CipherMode.FULL) -> bytes:
    """Concatenate the ciphered bytes of wire frames, skipping clear fields.

    ``frames`` is an InterceptLog or an iterable of 36-byte frames.  Full
    mode keeps the whole 32-byte payload; selective mode keeps only bytes
    5..27 of it.
    """
    frames = frames.frames() if isinstance(frames, InterceptLog) else list(frames)
    for f in frames:
        if len(f) != WIRE_LEN:
            raise ValueError(f"wire frame is {WIRE_LEN} bytes, got {len(f)}")
    wire = np.frombuffer(b"".join(frames), dtype=np.uint8).reshape(-1, WIRE_LEN)
    return wire[:, mode.ciphered].tobytes()
