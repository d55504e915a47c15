"""The three workloads, each the paper's experiment: precharge -> flight -> audit.

mission  full mode (32-byte blocks) on a 10^6-block store.  A long flight of
         seeded stock commands through ``run_session`` at 20% loss with 2%
         single-byte flips, then a closed loop timing each command, then a
         light audit of the intercepted corpus.  Store I/O at scale and the
         accept path do the work.
hostile  selective mode (23-byte blocks) on a 2*10^5-block store; the channel
         randomizes 40% of payloads and a man-in-the-middle substitutes
         replays, plaintexts and forgeries, so most frames take the discard
         path.  Forgeries the controlee executes are failed operations.
audit    the ``otp-remctl`` CLI in-process: charge, gen-keys, intercept-export
         of a short flight, randtest on the raw keys and on the corpus.

A run sets up several times, then repeats whole rounds until its time is
up; every timing is normalized by hostspeed.  ``peak_rss_mb`` is the
process's high-water mark when the first round's program work is done,
before the benchmark checks that round's outputs.  With tracing on, every
second round (and two extra set-ups) runs traced with a tenth of the
flight, and the per-layer metrics come from those spans.
"""

import contextlib
import ctypes
import ctypes.util
import hashlib
import io
import itertools
import random
import resource
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import otp_remctl as otp
from otp_remctl import cli

from . import checks
from .checks import require
from .hostspeed import HostSpeed
from .mitm import ManInTheMiddle
from .tracing import LAYERS, SpanStats, Tracer

SLICE = 2000            # commands per timed slice, each between two references
SETUP_REPEATS = 5       # untraced precharges; setup_s is their median
TRACED_SETUPS = 2
TRACE_SHRINK = 10       # traced rounds fly a tenth of the commands
AUDIT_FRAMES = 4096     # frames per light-audit chunk: 2^20 bits in full mode
AUDIT_CHUNKS = 8
LIGHT_MAX_LAG = 100
SPLIT_BITS = 8192       # --split-bits of the audit workload
LIGHT_SPLIT_BITS = 65536  # the light audit's split: few sequences, little Python


def _libc_malloc_trim():
    try:
        return ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None


_MALLOC_TRIM = _libc_malloc_trim()


def release_freed_memory() -> None:
    """Hand heap pages freed so far back to the system (glibc ``malloc_trim``).

    Freed large blocks (a 10^6-block store is 32 MB) otherwise stay resident
    or not by where they lay in the heap, so mission's peak_rss_mb read 260
    or 349 MB depending on the seed.  Called before each precharge and
    before the first round, outside every timed piece.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def derive(seed: int, *labels) -> int:
    """A 64-bit input seed for one purpose, fixed by the run's --seed."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def median(values) -> float:
    return statistics.median(values)


class Tally:
    """Samples and counters gathered by the rounds of one kind (plain or traced)."""

    def __init__(self) -> None:
        self.samples = defaultdict(list)
        self.counts = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.peak_rss_mb = None

    def mark_peak_rss(self) -> None:
        """Record the process's high-water mark once, after the first round's program work."""
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)


def run_cli(argv, tracer=None, label=None, size=-1):
    """``otp-remctl`` in-process with output captured: (exit code, stdout).

    Traced, the call sits in a ``bench.<label>`` span (default ``cli.<subcommand>``).
    """
    out, err = io.StringIO(), io.StringIO()
    span = (tracer.span(f"bench.{label or 'cli.' + argv[0]}", size) if tracer
            else contextlib.nullcontext())
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([str(a) for a in argv])
    require(code in (0, 3), f"otp-remctl {argv[0]} exited {code}: {err.getvalue().strip()}")
    return code, out.getvalue()


def traced(tracer):
    return tracer.installed() if tracer else contextlib.nullcontext()


def held_bytes(fn, *args):
    """``(fn(*args), bytes)``: the memory allocated during the call and still held after it."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


REGISTRY = otp.standard_registry()
BY_BYTES = {frame.data: name for name, frame in REGISTRY}


def log_results(log) -> dict:
    """seq -> ("accepted", name) or ("discarded", reason) from a session log's rx records."""
    return {rec.seq: (("accepted", BY_BYTES.get(rec.data, "?")) if rec.event == "accepted"
                      else ("discarded", rec.event.partition(":")[2]))
            for rec in log.records if rec.direction == "rx"}


def plaintexts(names) -> np.ndarray:
    """The scripted commands' bytes, one row per frame."""
    table = {name: frame.data for name, frame in REGISTRY}
    return np.frombuffer(b"".join(table[n] for n in names), dtype=np.uint8).reshape(-1, 32)


class Workload:
    def __init__(self, seed: int, work: Path, host: HostSpeed) -> None:
        self.seed = seed
        self.work = work
        self.host = host
        self.stock = REGISTRY.names()
        self.key_seed = derive(seed, "keys")
        self.paths = (work / "controller.sks", work / "controlee.sks")

    def script(self, r: int, n: int) -> list:
        rng = random.Random(derive(self.seed, "script", r))
        return [rng.choice(self.stock) for _ in range(n)]

    def census(self, tracer: Tracer) -> None:
        """A small CLI pass, traced, for the cli metrics of workloads that never call it."""
        d = self.work / "census"
        d.mkdir()
        (d / "script.txt").write_text("\n".join(self.script(-1, 64)) + "\n")
        with tracer.installed():
            run_cli(["gen-keys", "--source", "seeded:1", "--bytes", 4096, "--out", d / "keys.bin"],
                    tracer)
            run_cli(["charge", "--source", "seeded:2", "--blocks", 256, "--mode", self.mode,
                     "--controller", d / "a.sks", "--controlee", d / "b.sks"], tracer)
            run_cli(["intercept-export", "--controller", d / "a.sks", "--controlee", d / "b.sks",
                     "--script", d / "script.txt", "--loss", 0.2, "--out", d / "corpus.bin"],
                    tracer)
            run_cli(["randtest", "--input", d / "keys.bin", "--max-lag", 16], tracer)


@dataclass(frozen=True)
class FlightSpec:
    mode: str
    block_count: int
    session_cmds: int   # through run_session, timed per slice
    loop_cmds: int      # closed loop, timed per command
    loss: float
    tamper: float
    tamper_model: otp.TamperModel
    hostile: bool


MISSION = FlightSpec("full", 1_000_000, 200_000, 40_000, 0.2, 0.02,
                     otp.TamperModel.FLIP_ONE_RANDOM_BYTE, False)
HOSTILE = FlightSpec("selective", 200_000, 60_000, 40_000, 0.2, 0.4,
                     otp.TamperModel.RANDOMIZE_PAYLOAD, True)


class FlightWorkload(Workload):
    def __init__(self, spec: FlightSpec, seed: int, work: Path, host: HostSpeed) -> None:
        super().__init__(seed, work, host)
        self.spec = spec
        self.mode = spec.mode
        self.selective = spec.mode == "selective"
        self.cipher = otp.CipherMode.SELECTIVE if self.selective else otp.CipherMode.FULL
        self.block_size = self.cipher.key_length
        self.material = None
        self.loaded = None

    def _precharge(self):
        tx, rx = otp.charge(otp.SeededSource(self.key_seed), self.block_size, self.spec.block_count)
        tx.save(self.paths[0])
        rx.save(self.paths[1])
        return otp.SksStore.load(self.paths[0]), otp.SksStore.load(self.paths[1])

    def setup(self, tracer=None) -> float:
        self.material = self.loaded = None
        release_freed_memory()
        stores, raw, factor = self.host.timed("mix", self._precharge)
        self.material = stores[0].key_material
        self.loaded = stores
        return raw * factor

    def check_setup(self) -> None:
        for path, store in zip(self.paths, self.loaded):
            checks.check_fresh_store(path, self.block_size, self.spec.block_count,
                                     self.key_seed, store.key_material)
            require(store.remaining == store.block_count, f"{path}: loaded store has burned blocks")
        self.loaded = None

    def round(self, r: int, tally: Tally, tracer=None) -> None:
        spec = self.spec
        shrink = TRACE_SHRINK if tracer else 1
        n_session, n_loop = spec.session_cmds // shrink, spec.loop_cmds // shrink
        names = self.script(r, n_session + n_loop)
        frames = [REGISTRY.lookup(n) for n in names]
        tx = otp.SksStore(self.block_size, spec.block_count, self.material)
        rx = otp.SksStore(self.block_size, spec.block_count, self.material)
        controller = otp.Controller(tx)
        controlee = otp.Controlee(rx, registry=REGISTRY)
        channel = otp.Channel(otp.ChannelConfig(
            loss_prob=spec.loss, tamper_prob=spec.tamper,
            tamper_model=spec.tamper_model,
            rng_seed=derive(self.seed, "channel", r)))
        link = (ManInTheMiddle(channel, names, REGISTRY, derive(self.seed, "mitm", r))
                if spec.hostile else channel)
        results = {}
        with traced(tracer):
            log = otp.run_session(controller, controlee,
                                  self._sliced(frames, n_session, tally, tracer), link)
            for s in range(n_session, n_session + n_loop, SLICE):
                before = self.host.reference("py")
                latencies = self._closed_loop(controller, controlee, link,
                                              frames[s:s + SLICE], s, results, tracer)
                factor = self.host.factor("py", before, self.host.reference("py"))
                tally.samples["latency_us"].extend(ns * factor / 1e3 for ns in latencies)
            self._light_audit(channel.intercepts.records, tally, tracer)
        tally.mark_peak_rss()

        if r == 0 and not tracer:
            tally.add("log_bytes_per_cmd", self._log_bytes_per_cmd(frames[:SLICE]))
        results.update(log_results(log))
        del log
        flight = checks.Flight(
            names=names,
            tap=[(rec.frame, rec.outcome.value) for rec in channel.intercepts.records],
            results=results,
            controller_sent=controller.frames_sent,
            controller_consumed=tx.consumed_count,
            controlee_consumed=rx.consumed_count,
            controlee_accepted=controlee.accepted,
            controlee_discarded=controlee.discarded,
            substituted=getattr(link, "substituted", {}),
            forged_to=getattr(link, "forged_to", {}),
            addresses=getattr(link, "addresses", {}))
        counts = checks.check_flight(flight)
        image = checks.parse_sks(self.paths[0])
        checks.check_tap(b"".join(rec.frame for rec in channel.intercepts.records),
                         plaintexts(names), image.keys(), self.selective)
        if r == 0:
            self._check_ledger_roundtrip(rx, image.material)
        tally.rounds += 1
        tally.attempted += len(names)
        tally.failed += counts["forged_accepted"]
        count_blocks(tally, counts, rx.consumed_count, rx.remaining)

    def _sliced(self, frames, n: int, tally: Tally, tracer):
        """Yield the first ``n`` frames to ``run_session``, timing every SLICE of them.

        ``run_session`` asks for the next frame only once the last one is
        through, so the time between two asks covers whole commands; every
        SLICE frames the py reference runs (in a ``bench`` span when traced,
        so it stays out of ``run_session``'s self time) and the slice's rate
        is recorded.  One session log grows across the whole flight.
        """
        host, clock = self.host, time.perf_counter

        def reference():
            with tracer.span("bench.reference") if tracer else contextlib.nullcontext():
                return host.reference("py")

        def close_slice(count):
            raw = clock() - t0
            after = reference()
            tally.add("cmd_per_s", count / (raw * host.factor("py", before, after)))
            return after

        before = reference()
        t0 = clock()
        for i, frame in enumerate(itertools.islice(frames, n)):
            if i and i % SLICE == 0:
                before = close_slice(SLICE)
                t0 = clock()
            if tracer:
                tracer.cmd_id = i
            yield frame
        close_slice(n - (n - 1) // SLICE * SLICE)

    def _log_bytes_per_cmd(self, frames) -> float:
        """Memory a session log holds per command, on a side session through the
        plain channel.  The channel and its tap are gone when ``held_bytes``
        reads; the frame bytes the two shared count to the log."""
        def session():
            stores = [otp.SksStore(self.block_size, self.spec.block_count, self.material)
                      for _ in range(2)]
            channel = otp.Channel(otp.ChannelConfig(
                loss_prob=self.spec.loss, tamper_prob=self.spec.tamper,
                tamper_model=self.spec.tamper_model, rng_seed=derive(self.seed, "side")))
            return otp.run_session(otp.Controller(stores[0]),
                                   otp.Controlee(stores[1], registry=REGISTRY), frames, channel)

        return held_bytes(session)[1] / len(frames)

    @staticmethod
    def _closed_loop(controller, controlee, link, frames, first, results, tracer):
        """One command in flight at a time: send -> transmit -> receive, timed per command."""
        clock = time.perf_counter_ns
        latencies = []
        outcomes = []
        for i, cmd in enumerate(frames):
            if tracer:
                tracer.cmd_id = first + i
            t0 = clock()
            tx = link.transmit(controller.send(cmd).to_bytes())
            got = controlee.receive(tx.data) if tx.data is not None else None
            latencies.append(clock() - t0)
            outcomes.append(got)
        for i, got in enumerate(outcomes):
            if got is not None:
                results[first + i] = (("accepted", got.name) if got.accepted
                                      else ("discarded", got.reason.value))
        return latencies

    def _light_audit(self, records, tally: Tally, tracer) -> None:
        path = self.work / "corpus.bin"
        for k in range(min(AUDIT_CHUNKS, len(records) // AUDIT_FRAMES)):
            chunk = records[k * AUDIT_FRAMES:(k + 1) * AUDIT_FRAMES]
            otp.export_intercepts(otp.InterceptLog(chunk), path)
            loaded = otp.load_intercepts(path)
            data = otp.extract_ciphertext(loaded, self.cipher)
            results, raw, factor = self.host.timed("np", self._randtests, data, tracer)
            tally.add("audit_mbit_per_s", 8 * len(data) / (raw * factor) / 1e6)

            blob, outcomes = checks.read_corpus(path, k * AUDIT_FRAMES)
            require(blob == b"".join(rec.frame for rec in chunk)
                    and outcomes == [rec.outcome.value for rec in chunk],
                    "exported corpus differs from the tap")
            require([rec.frame for rec in loaded.records] == [rec.frame for rec in chunk],
                    "reloaded corpus differs from the tap")
            require(data == checks.corpus_ciphertext(blob, self.selective),
                    "extracted ciphertext is not the ciphered bytes of the corpus")
            freq, runs, balance, runlen, series, *split = results
            checks.check_test_results(checks.Bits(data), freq, runs, balance, series)
            require(runlen.worst_excess >= 0 and runlen.geometric_ok == (runlen.worst_excess <= 1),
                    "run-length verdict disagrees with its worst excess")
            checks.check_split_rows(split_rows(*split), data, LIGHT_SPLIT_BITS)

    @staticmethod
    def _randtests(data: bytes, tracer):
        bits = otp.BitSequence.from_bytes(data)
        results = [otp.monobit_frequency(bits), otp.nist_runs(bits), otp.golomb_balance(bits),
                   otp.golomb_run_lengths(bits), otp.autocorrelation(bits, LIGHT_MAX_LAG)]
        m = bits.n // LIGHT_SPLIT_BITS
        with tracer.span("bench.split", m) if tracer else contextlib.nullcontext():
            seqs = [otp.BitSequence(bits.bits[i * LIGHT_SPLIT_BITS:(i + 1) * LIGHT_SPLIT_BITS])
                    for i in range(m)]
            freq = [otp.monobit_frequency(s) for s in seqs]
            runs = [otp.nist_runs(s) for s in seqs]
            results += [freq, runs, otp.pass_proportion(freq), otp.pass_proportion(runs)]
        return results

    def _check_ledger_roundtrip(self, rx, material: bytes) -> None:
        path = self.work / "after.sks"
        rx.save(path)
        checks.check_store(path, self.block_size, self.spec.block_count, material,
                           consumed_prefix=rx.consumed_count)
        back = otp.SksStore.load(path)
        require(back == rx and back.consumed_count == rx.consumed_count,
                "controlee store does not round-trip through save/load")
        path.unlink()


def split_rows(freq, runs, freq_prop, runs_prop) -> list:
    """Library split results in the row form of the CLI's --split-bits report."""
    rows = []
    for results, prop in ((freq, freq_prop), (runs, runs_prop)):
        rows += [{"test": r.test_name, "n": r.n, "statistic": r.statistic,
                  "p_value": r.p_value, "pass": r.passed} for r in results]
        rows.append({"test": f"{results[0].test_name}_proportion", "n": prop.m,
                     "statistic": prop.proportion, "p_value": None, "pass": prop.ok})
    return rows


def count_blocks(tally: Tally, counts: dict, consumed: int, left: int) -> None:
    """Controlee key economy: consumed = used + skip-burned + invalid-burned."""
    used, invalid = counts["accepted"], counts["validation_failed"]
    tally.counts["blocks_used"] += used
    tally.counts["blocks_invalid_burned"] += invalid
    tally.counts["blocks_skip_burned"] += consumed - used - invalid
    tally.counts["controlee_consumed"] += consumed
    tally.counts["blocks_left"] += left


class AuditWorkload(Workload):
    """The statistical verification step, all through ``otp-remctl``."""

    BLOCKS = 65_536
    KEY_BYTES = 125_000     # 1 Mbit of raw key stream
    FLIGHT = 4_000          # commands: a 1.024 Mbit corpus
    FLIGHT_REPEATS = 4      # identical intercept-export calls per round, each timed
    MAX_LAG = 1000

    def _precharge(self, tracer):
        run_cli(["charge", "--source", f"seeded:{self.key_seed}", "--blocks", self.BLOCKS,
                 "--controller", self.paths[0], "--controlee", self.paths[1]], tracer)
        return otp.SksStore.load(self.paths[0]), otp.SksStore.load(self.paths[1])

    def setup(self, tracer=None) -> float:
        self.loaded = None
        release_freed_memory()
        self.loaded, raw, factor = self.host.timed("mix", self._precharge, tracer)
        return raw * factor

    def check_setup(self) -> None:
        self.expected = checks.seeded_stream(self.key_seed, 32 * self.BLOCKS)
        for path, store in zip(self.paths, self.loaded):
            checks.check_store(path, 32, self.BLOCKS, self.expected)
            require(store.key_material == self.expected and store.remaining == self.BLOCKS,
                    f"{path}: loaded store differs from the charged one")
        self.loaded = None

    def round(self, r: int, tally: Tally, tracer=None) -> None:
        d = self.work
        names = self.script(r, self.FLIGHT)
        (d / "script.txt").write_text("\n".join(names) + "\n")
        raw_seed = derive(self.seed, "raw", r)
        corpus = d / "corpus.bin"
        flight = ["intercept-export", "--controller", self.paths[0],
                  "--controlee", self.paths[1], "--script", d / "script.txt",
                  "--loss", 0.2, "--tamper", 0.05, "--seed", derive(self.seed, "channel", r),
                  "--out", corpus, "--log", d / "session.log"]
        splits = 256 * self.FLIGHT // SPLIT_BITS
        # (span label, span size, stem of the reports, bits, reference, argv).  The
        # split run is mostly Python (one small sequence at a time), so it is
        # normalized by the py reference; the others by np (autocorrelation).
        audits = [
            ("cli.randtest", -1, d / "raw", 8 * self.KEY_BYTES, "np",
             ["randtest", "--input", d / "keys.bin", "--max-lag", self.MAX_LAG,
              "--autocorr-out", d / "raw-ac.csv"]),
            ("cli.randtest", -1, d / "corpus", 256 * self.FLIGHT, "np",
             ["randtest", "--input", corpus, "--format", "corpus-full",
              "--max-lag", self.MAX_LAG]),
            ("split", splits, d / "split", 256 * self.FLIGHT, "py",
             ["randtest", "--input", corpus, "--format", "corpus-full",
              "--tests", "freq,runs", "--split-bits", SPLIT_BITS]),
        ]
        outputs = []
        with traced(tracer):
            run_cli(["gen-keys", "--source", f"seeded:{raw_seed}", "--bytes", self.KEY_BYTES,
                     "--out", d / "keys.bin"], tracer)
            summaries = []
            for _ in range(self.FLIGHT_REPEATS):
                (_, summary), raw, factor = self.host.timed("py", run_cli, flight, tracer)
                summaries.append(summary)
                tally.add("cmd_per_s", self.FLIGHT / (raw * factor))
                tally.add("latency_us", raw * factor / self.FLIGHT * 1e6)
            seconds = 0.0
            for label, size, stem, _, kind, argv in audits:
                argv = argv + ["--report", stem.with_suffix(".csv"),
                               "--json", stem.with_suffix(".json")]
                result, raw, factor = self.host.timed(kind, run_cli, argv, tracer, label, size)
                outputs.append(result)
                seconds += raw * factor
            tally.add("audit_mbit_per_s", sum(a[3] for a in audits) / seconds / 1e6)
        tally.mark_peak_rss()

        require((d / "keys.bin").read_bytes() == checks.seeded_stream(raw_seed, self.KEY_BYTES),
                "gen-keys output differs from the seeded stream")
        require(summaries.count(summary) == len(summaries), "repeated flights differ")
        counts = self._check_flight(names, summary, corpus)
        if not tracer:
            tally.add("log_bytes_per_cmd",
                      held_bytes(otp.SessionLog.load, d / "session.log")[1] / self.FLIGHT)
        blob = corpus.read_bytes()
        cipher = checks.corpus_ciphertext(blob, selective=False)
        raw_bits, cipher_bits = checks.Bits((d / "keys.bin").read_bytes()), checks.Bits(cipher)
        for (label, _, stem, *_), (code, stdout), bits in zip(
                audits, outputs, (raw_bits, cipher_bits, cipher_bits)):
            rows = checks.report_rows(stem.with_suffix(".csv").read_text(),
                                      stem.with_suffix(".json").read_text())
            if label == "split":
                failures = checks.check_split_rows(rows, cipher, SPLIT_BITS)
                checks.check_verdict_line(stdout, 2, failures)
            else:
                failures = checks.check_report_rows(rows, bits, self.MAX_LAG)
                checks.check_verdict_line(stdout, 5, failures)
            require(code == (3 if failures else 0), f"randtest exit {code} with {failures} failed")
        series = [line.split(",") for line in (d / "raw-ac.csv").read_text().split()[1:]]
        checks.check_series([t for t, _ in series], [c for _, c in series], raw_bits)
        tally.rounds += 1
        tally.attempted += self.FLIGHT * self.FLIGHT_REPEATS
        tally.failed += counts["forged_accepted"]
        count_blocks(tally, counts, counts["controlee_consumed"],
                     self.BLOCKS - counts["controlee_consumed"])

    def _check_flight(self, names, summary: str, corpus: Path) -> dict:
        blob, outcomes = checks.read_corpus(corpus)
        images = [checks.check_store(path, 32, self.BLOCKS, self.expected) for path in self.paths]
        checks.check_tap(blob, plaintexts(names), images[0].keys(), selective=False)
        results = {}
        for line in (self.work / "session.log").read_text().splitlines():
            seq, direction, _, event, data = line.split(",")  # the documented log format
            if direction == "rx":
                results[int(seq)] = (("accepted", BY_BYTES.get(bytes.fromhex(data), "?"))
                                     if event == "accepted" else
                                     ("discarded", event.partition(":")[2]))
        said = checks.session_summary(summary)
        counts = checks.check_flight(checks.Flight(
            names=names, tap=[(blob[36 * k:36 * k + 36], o) for k, o in enumerate(outcomes)],
            results=results,
            controller_sent=said["sent"], controller_consumed=said["controller_consumed"],
            controlee_consumed=said["controlee_consumed"], controlee_accepted=said["accepted"],
            controlee_discarded=said["discarded"]))
        require(said["dropped"] == counts["dropped"] and said["tampered"] == counts["tampered"],
                f"summary says {said['dropped']} dropped, {said['tampered']} tampered; "
                f"the corpus sidecar says {counts['dropped']}, {counts['tampered']}")
        counts["controlee_consumed"] = said["controlee_consumed"]
        return counts


MAKERS = {
    "mission": lambda seed, work, host: FlightWorkload(MISSION, seed, work, host),
    "hostile": lambda seed, work, host: FlightWorkload(HOSTILE, seed, work, host),
    "audit": AuditWorkload,
}

END_TO_END = (("setup_s", "s"), ("cmd_per_s", "1/s"), ("cmd_latency_p50_us", "us"),
              ("audit_mbit_per_s", "Mbit/s"), ("peak_rss_mb", "MB"))


def end_to_end(tally: Tally) -> dict:
    s = tally.samples
    return {
        "setup_s": median(s["setup_s"]),
        "cmd_per_s": median(s["cmd_per_s"]),
        "cmd_latency_p50_us": median(s["latency_us"]),
        "audit_mbit_per_s": median(s["audit_mbit_per_s"]),
        "peak_rss_mb": tally.peak_rss_mb,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Run one workload; returns (plain tally, traced tally, tracer, span marks)."""
    host = HostSpeed()
    workload = MAKERS[name](seed, work, host)
    plain, traced_tally = Tally(), Tally()
    tracer = Tracer() if trace else None
    for _ in range(SETUP_REPEATS):
        plain.add("setup_s", workload.setup())
    workload.check_setup()
    if trace:
        for _ in range(TRACED_SETUPS):
            with tracer.installed():
                traced_tally.add("setup_s", workload.setup(tracer))
        workload.check_setup()
    marks = [len(tracer) if trace else 0]
    release_freed_memory()  # what set-up and its checks freed; peak_rss_mb is read in round 0
    start = time.perf_counter()
    r = 0
    while True:
        use = trace and r % 2 == 1
        workload.round(r, traced_tally if use else plain, tracer if use else None)
        r += 1
        if time.perf_counter() - start >= seconds and (not trace or r >= 2):
            break
    if trace:
        marks.append(len(tracer))
        if name != "audit":
            workload.census(tracer)
        marks.append(len(tracer))
    return plain, traced_tally, tracer, marks, host


# ------------------------------------------------------------- per layer

def _layer_metric(out: dict, name: str, value: float, unit: str) -> None:
    out[name] = (float(value), unit)


def per_layer(name: str, plain: Tally, traced_tally: Tally, tracer: Tracer, marks, host) -> dict:
    """Per-layer metrics from the traced spans (and the untraced rounds' counters)."""
    setups = SpanStats(tracer, 0, marks[0])
    rounds = SpanStats(tracer, marks[0], marks[1])
    both = SpanStats(tracer, 0, marks[1])
    cli_stats = both if name == "audit" else SpanStats(tracer, marks[1], marks[2])
    factors = {kind: median(vals) for kind, vals in host.factors.items()}
    py, npf, mix = factors["py"], factors["np"], factors["mix"]
    out = {}

    def med_ns(stats, span, factor, where=None):
        d = stats.durations(span, where)
        require(d.size > 0, f"traced run recorded no {span} span")
        return float(np.median(d)) * factor

    def rate(stats, span, per_size, factor):
        d = stats.durations(span)
        require(d.size > 0, f"traced run recorded no {span} span")
        return float(stats.sizes(span).sum()) * per_size / (float(d.sum()) / 1e9) / factor

    fill = "entropy.EntropySource.fill"
    _layer_metric(out, "entropy.fill_mb_per_s", rate(both, fill, 1e-6, mix), "MB/s")
    _layer_metric(out, "keystore.charge_s", med_ns(both, "keystore.charge", mix) / 1e9, "s")
    _layer_metric(out, "keystore.save_s", med_ns(both, "keystore.SksStore.save", mix) / 1e9, "s")
    _layer_metric(out, "keystore.load_s", med_ns(both, "keystore.SksStore.load", mix) / 1e9, "s")
    _layer_metric(out, "keystore.take_block_ns", med_ns(rounds, "keystore.SksStore.take_block", py), "ns")
    _layer_metric(out, "keystore.discard_through_ns",
                  med_ns(rounds, "keystore.SksStore.discard_through", py), "ns")
    c, n = traced_tally.counts, traced_tally.rounds
    for key in ("blocks_used", "blocks_skip_burned", "blocks_invalid_burned", "blocks_left"):
        _layer_metric(out, f"keystore.{key}", c[key] / n, "count")
    _layer_metric(out, "keystore.controlee_blocks_consumed", c["controlee_consumed"] / n, "count")
    _layer_metric(out, "keystore.useful_block_ratio", c["blocks_used"] / c["controlee_consumed"], "ratio")
    block = 23 if name == "hostile" else 32
    _layer_metric(out, "keystore.pad_bytes_per_accepted",
                  block * c["controlee_consumed"] / c["blocks_used"], "B")
    for metric, span in (("encrypt_ns", "otp_encrypt"), ("decrypt_ns", "otp_decrypt"),
                         ("parse_wire_ns", "parse_wire"),
                         ("registry_match_ns", "CommandRegistry.match")):
        _layer_metric(out, f"frame.{metric}", med_ns(rounds, f"frame.{span}", py), "ns")
    _layer_metric(out, "protocol.send_ns", med_ns(rounds, "protocol.Controller.send", py), "ns")
    accepting = rounds.children_of("protocol.Controlee.receive") & rounds.mask("protocol.RxOutcome.accept")
    accept_parents = np.zeros(len(rounds.c["name"]), bool)
    accept_parents[rounds.c["parent"][accepting]] = True
    receive = "protocol.Controlee.receive"
    _layer_metric(out, "protocol.receive_accept_ns", med_ns(rounds, receive, py, accept_parents), "ns")
    _layer_metric(out, "protocol.receive_discard_ns", med_ns(rounds, receive, py, ~accept_parents), "ns")
    sends = rounds.children_of("protocol.run_session") & rounds.mask("protocol.Controller.send")
    _layer_metric(out, "protocol.session_self_ns",
                  rounds.self_total("protocol.run_session") / max(int(sends.sum()), 1) * py, "ns")
    _layer_metric(out, "protocol.log_bytes_per_cmd", median(plain.samples["log_bytes_per_cmd"]), "B")
    lat = plain.samples["latency_us"]
    p99 = statistics.quantiles(lat, n=100, method="inclusive")[98] if len(lat) > 1 else lat[0]
    _layer_metric(out, "protocol.cmd_latency_p99_us", p99, "us")
    _layer_metric(out, "channel.transmit_ns", med_ns(rounds, "channel.Channel.transmit", py), "ns")
    _layer_metric(out, "channel.export_s", med_ns(rounds, "channel.export_intercepts", mix) / 1e9, "s")
    _layer_metric(out, "channel.load_intercepts_s",
                  med_ns(rounds, "channel.load_intercepts", mix) / 1e9, "s")
    _layer_metric(out, "channel.extract_mb_per_s",
                  rate(rounds, "channel.extract_ciphertext", block * 1e-6, mix), "MB/s")
    _layer_metric(out, "randtest.from_bytes_mbit_per_s",
                  rate(rounds, "randtest.BitSequence.from_bytes", 8e-6, npf), "Mbit/s")
    for metric, span in (("frequency", "monobit_frequency"), ("runs", "nist_runs"),
                         ("runlen", "golomb_run_lengths")):
        _layer_metric(out, f"randtest.{metric}_mbit_per_s",
                      rate(rounds, f"randtest.{span}", 1e-6, npf), "Mbit/s")
    _layer_metric(out, "randtest.autocorr_s",
                  med_ns(rounds, "randtest.autocorrelation", npf) / 1e9, "s")
    _layer_metric(out, "randtest.split_seq_per_s", rate(rounds, "bench.split", 1.0, py), "1/s")
    for metric, sub, factor in (("gen_keys_s", "gen-keys", mix), ("charge_s", "charge", mix),
                                ("intercept_export_s", "intercept-export", py),
                                ("randtest_s", "randtest", npf)):
        where = cli_stats.children_of(f"bench.cli.{sub}")
        _layer_metric(out, f"cli.{metric}", med_ns(cli_stats, "cli.run", factor, where) / 1e9, "s")

    self_kind = {"entropy": mix, "keystore": py, "frame": py, "protocol": py,
                 "channel": py, "randtest": npf, "cli": py}
    per_setup = setups.layer_self_ns()
    per_round = rounds.layer_self_ns()
    census = cli_stats.layer_self_ns() if name != "audit" else None
    for layer in LAYERS:
        if layer == "cli" and census is not None:
            ns = census["cli"]
        else:
            ns = per_setup[layer] / TRACED_SETUPS + per_round[layer] / n
        _layer_metric(out, f"{layer}.self_s", ns * self_kind[layer] / 1e9, "s")
    return out
