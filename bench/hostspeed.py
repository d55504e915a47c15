"""Host-speed references timed beside every measurement.

A shared host's speed drifts by tens of percent over minutes, so a raw
timing does not repeat.  Each measurement is therefore bracketed by a
fixed reference workload that does not touch the program, and reported
as ``raw * nominal / reference``: the time the work would take on a host
whose reference runs in its nominal time.

Two references cover the program's two kinds of work:

- ``py``: a pure-Python loop (integer arithmetic, dict stores, int-to-bytes);
  it tracks the interpreter-bound code of the flight and the store ledger.
- ``np``: lagged ``numpy.dot`` products over a fixed 1 Mi-element vector;
  it tracks BLAS and memory-bound array work, which the Python loop does not.

``mix`` is their sum, for work that is part loop, part bulk memory
(charging, saving and loading stores).
"""

import time
from collections import defaultdict

import numpy as np

# Reference times on the host the benchmark was calibrated on (2-core x86-64,
# CPython 3.11, OpenBLAS with one thread).  They only fix the scale of the
# reported numbers; any constant would keep runs comparable with each other.
NOMINAL_S = {"py": 0.0055, "np": 0.0190}
NOMINAL_S["mix"] = NOMINAL_S["py"] + NOMINAL_S["np"]

_PY_ITERATIONS = 10_000
_NP_LAGS = 40


def _py_reference() -> int:
    table = {}
    x = 1
    for _ in range(_PY_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 1023] = x.to_bytes(4, "big")
    return len(table)


class HostSpeed:
    """Times the references and turns raw timings into normalized ones."""

    def __init__(self) -> None:
        self._vec = np.random.default_rng(0).standard_normal(1 << 20)
        self.factors = defaultdict(list)

    def _np_reference(self) -> float:
        v = self._vec
        return sum(float(np.dot(v[:-lag], v[lag:])) for lag in range(1, _NP_LAGS + 1))

    def reference(self, kind: str) -> float:
        """Seconds the ``kind`` reference takes right now."""
        if kind == "mix":
            return self.reference("py") + self.reference("np")
        work = _py_reference if kind == "py" else self._np_reference
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0

    def factor(self, kind: str, before: float, after: float) -> float:
        """Normalization factor from the references taken before and after."""
        factor = NOMINAL_S[kind] / ((before + after) / 2)
        self.factors[kind].append(factor)
        return factor

    def timed(self, kind: str, fn, *args):
        """Run ``fn`` between two references.

        Returns ``(result, raw_seconds, factor)``; ``raw_seconds * factor``
        is the normalized time.
        """
        before = self.reference(kind)
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        return result, raw, self.factor(kind, before, self.reference(kind))
