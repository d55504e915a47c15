"""Random-byte supplies: OS entropy, deterministic seeded streams, and replayed files.

Every source hands out a non-overlapping stream of bytes.  Bit order is
MSB-first wherever bytes are expanded to bits, here and in the rest of the
package.
"""

import os
import random
from pathlib import Path

from .errors import ExhaustedSource

# Seeded streams are generated in fixed-size quanta so that the byte at a
# given stream offset does not depend on how reads were split up.
_CHUNK = 4096

MAX_SEED = 2**64 - 1


class EntropySource:
    """A single-consumer stream of bytes.

    Distinct sources are independent and may be used from different
    threads; a single source must not be shared.
    """

    kind = "abstract"

    def __init__(self) -> None:
        self.bits_emitted = 0

    def fill(self, n: int) -> bytes:
        """Return the next ``n`` bytes of the stream."""
        if n < 0:
            raise ValueError(f"byte count must be non-negative, got {n}")
        data = self._draw(n)
        self.bits_emitted += 8 * len(data)
        return data

    def dump(self, n: int, path) -> None:
        """Write the next ``n`` bytes of the stream to ``path`` as a raw file."""
        Path(path).write_bytes(self.fill(n))

    def _draw(self, n: int) -> bytes:
        raise NotImplementedError


class SystemSource(EntropySource):
    """Bytes from the operating system's entropy pool."""

    kind = "system"

    def _draw(self, n: int) -> bytes:
        return os.urandom(n)


class SeededSource(EntropySource):
    """Deterministic stream: equal seeds emit identical byte streams.

    The stream is defined as the concatenation of successive 4096-byte
    Mersenne Twister draws, so ``fill`` is a pure function of the seed and
    the total number of bytes already drawn, whatever the read sizes.
    """

    kind = "seeded"

    def __init__(self, seed: int) -> None:
        super().__init__()
        if not 0 <= seed <= MAX_SEED:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self.seed = seed
        self._rng = random.Random(seed)
        self._buffer = bytearray()

    def _draw(self, n: int) -> bytes:
        while len(self._buffer) < n:
            self._buffer += self._rng.randbytes(_CHUNK)
        out = bytes(self._buffer[:n])
        del self._buffer[:n]
        return out


class FileSource(EntropySource):
    """Replays a raw byte file, e.g. a previously dumped key file.

    Never emits bytes past end-of-file; the cursor only moves forward, and
    only by the bytes actually emitted.  The file is opened per draw, so a
    source holds no handle between draws and needs no closing.
    """

    kind = "file"

    def __init__(self, path) -> None:
        super().__init__()
        self.path = Path(path)
        self.cursor = 0

    def _draw(self, n: int) -> bytes:
        with open(self.path, "rb") as fh:
            fh.seek(self.cursor)
            data = fh.read(n)
        if len(data) < n:
            raise ExhaustedSource(
                f"{self.path}: requested {n} bytes, only {len(data)} remain"
            )
        self.cursor += n
        return data


def make_source(spec: str) -> EntropySource:
    """Build a source from a CLI-style spec.

    Accepted forms: ``system``, ``seeded:<u64>``, ``file:<path>``.
    """
    if spec == "system":
        return SystemSource()
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"bad source spec {spec!r}: expected system, seeded:<u64> or file:<path>")
    if kind == "seeded":
        try:
            seed = int(arg)
        except ValueError:
            raise ValueError(f"bad seed {arg!r}: expected an unsigned integer") from None
        return SeededSource(seed)
    if kind == "file":
        if not arg:
            raise ValueError("file source needs a path")
        return FileSource(arg)
    raise ValueError(f"unknown source kind {kind!r}")
