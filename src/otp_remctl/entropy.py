"""Random-byte supplies: OS entropy, deterministic seeded streams, and replayed files.

Every source hands out a non-overlapping stream of bytes.  Bit order is
MSB-first wherever bytes are expanded to bits, here and in the rest of the
package.
"""

import os
import random
from pathlib import Path

import numpy as np

from .errors import KeyExhausted

# Seeded streams are generated in fixed-size quanta so that the byte at a
# given stream offset does not depend on how reads were split up.
_CHUNK = 4096
# Mersenne Twister words per numpy call while drawing chunks; bounds numpy's
# 64-bit scratch array to 2 MiB however large the draw.
_BATCH = 1 << 18

MAX_SEED = 2**64 - 1


class EntropySource:
    """A single-consumer stream of bytes.

    Distinct sources are independent and may be used from different
    threads; a single source must not be shared.
    """

    kind = "abstract"

    def fill(self, n: int) -> bytes:
        """Return the next ``n`` bytes of the stream."""
        if n < 0:
            raise ValueError(f"byte count must be non-negative, got {n}")
        return self._draw(n)

    def _draw(self, n: int) -> bytes:
        raise NotImplementedError


class SystemSource(EntropySource):
    """Bytes from the operating system's entropy pool."""

    kind = "system"

    def _draw(self, n: int) -> bytes:
        return os.urandom(n)


class SeededSource(EntropySource):
    """Deterministic stream: equal seeds emit identical byte streams.

    The stream is defined as the concatenation of successive
    ``random.Random(seed).randbytes(4096)`` draws, so ``fill`` is a pure
    function of the seed and the total number of bytes already drawn,
    whatever the read sizes.

    One such draw is 1024 successive 32-bit Mersenne Twister outputs, each
    laid out little-endian.  The source therefore loads the seeded
    generator's state into its own numpy ``MT19937`` once, at construction,
    and ``fill`` draws every chunk it lacks from that generator in one
    vectorised step.  Bytes drawn past ``n`` (less than one chunk) are held
    for the next ``fill``.
    """

    kind = "seeded"

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= MAX_SEED:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self.seed = seed
        _, internal, _ = random.Random(seed).getstate()
        self._mt = np.random.MT19937(0)  # the seed is a placeholder: the state is set next
        self._mt.state = {"bit_generator": "MT19937",
                          "state": {"key": np.array(internal[:-1], np.uint32),
                                    "pos": internal[-1]}}
        self._buffer = b""

    def _draw(self, n: int) -> bytes:
        held = len(self._buffer)
        if n <= held:
            out, self._buffer = self._buffer[:n], self._buffer[n:]
            return out
        stream = np.empty(held + -(-(n - held) // _CHUNK) * _CHUNK, np.uint8)
        stream[:held] = np.frombuffer(self._buffer, np.uint8)
        words = stream[held:].view("<u4")
        for start in range(0, len(words), _BATCH):
            part = words[start:start + _BATCH]
            part[:] = self._mt.random_raw(len(part))
        self._buffer = stream[n:].tobytes()
        return stream[:n].tobytes()


class FileSource(EntropySource):
    """Replays a raw byte file, e.g. a previously dumped key file.

    Never emits bytes past end-of-file; the cursor only moves forward, and
    only by the bytes actually emitted.  The file is opened per draw, so a
    source holds no handle between draws and needs no closing.
    """

    kind = "file"

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.cursor = 0

    def _draw(self, n: int) -> bytes:
        with open(self.path, "rb") as fh:
            fh.seek(self.cursor)
            data = fh.read(n)
        if len(data) < n:
            raise KeyExhausted(f"{self.path}: requested {n} bytes, only {len(data)} remain")
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
