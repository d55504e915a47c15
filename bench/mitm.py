"""A seeded man-in-the-middle between the Channel and the Controlee.

It wraps a ``Channel`` and is passed wherever a channel is expected
(``run_session`` and the closed loop only call ``transmit``).  The tap
stays the channel's own.  In every window of ``WINDOW`` frames, a seeded
draw picks ``FORGERIES + PLAINTEXTS + REPLAYS`` positions; at each one the
attacker suppresses whatever the channel passed on and delivers its own
frame, reported as tampered:

- forgery: the intercepted frame of this very position, XORed with
  (sent command XOR another stock command).  The attacker knows the
  plaintext (the stock table is public) and the one-time pad is
  malleable, so the controlee executes the other command;
- plaintext: the sent command in clear, under the intercepted address;
- replay: the last frame the controlee was handed.

The number of forgeries is the same in every window, so forged commands
are the same share of every run whatever the seed.  A replay with nothing
to replay yet (only possible early in a flight) is not substituted.
"""

import random

from otp_remctl import Delivery, Transmission

WINDOW = 20
FORGERIES = 2
PLAINTEXTS = 2
REPLAYS = 4


class ManInTheMiddle:
    def __init__(self, channel, names, registry, seed: int) -> None:
        self.channel = channel
        self.intercepts = channel.intercepts
        self._names = names
        self._plain = {name: frame.data for name, frame in registry}
        self._stock = sorted(self._plain)
        self._rng = random.Random(seed)
        self._schedule = {}
        self._seq = 0
        self._last = None
        self.substituted = {}
        self.forged_to = {}
        self.addresses = {}

    def _plan_window(self) -> None:
        picks = self._rng.sample(range(WINDOW), FORGERIES + PLAINTEXTS + REPLAYS)
        kinds = ["forgery"] * FORGERIES + ["plaintext"] * PLAINTEXTS + ["replay"] * REPLAYS
        self._schedule = dict(zip(picks, kinds))

    def transmit(self, wire: bytes):
        seq = self._seq
        self._seq += 1
        if seq % WINDOW == 0:
            self._plan_window()
        tx = self.channel.transmit(wire)
        kind = self._schedule.get(seq % WINDOW)
        if kind == "replay" and self._last is None:
            kind = None
        if kind is None:
            if tx.data is not None:
                self._last = tx.data
            return tx
        sent = self._names[seq]
        if kind == "replay":
            data = self._last
        elif kind == "plaintext":
            data = self._plain[sent] + wire[32:]
        else:
            target = self._rng.choice([n for n in self._stock if n != sent])
            delta = bytes(a ^ b for a, b in zip(self._plain[sent], self._plain[target]))
            payload = bytes(a ^ b for a, b in zip(wire[:32], delta))
            data = payload + wire[32:]
            self.forged_to[seq] = target
        self.substituted[seq] = kind
        self.addresses[seq] = int.from_bytes(data[32:36], "big")
        self._last = data
        return Transmission(Delivery.TAMPERED, data)
