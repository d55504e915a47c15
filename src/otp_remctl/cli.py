"""Command-line front end for the precharged one-time-pad control stack.

Subcommands: gen-keys (dump raw key bytes), charge (build a matched pair
of key stores), simulate (scripted session over a lossy channel),
intercept-export (same, capturing the eavesdropper corpus), randtest
(statistical checks on byte files or corpora), demo (encrypt the five
stock commands repeatedly and show that ciphertexts never repeat).

Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 randtest ran
to completion but at least one check failed.  Every subcommand is
deterministic given its flags alone: the CLI reads no env variable, and
ambient randomness only when ``--source system`` is requested explicitly.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from ._textfile import write_lines
from .channel import Channel, ChannelConfig, Delivery, TamperModel, \
    export_intercepts, extract_ciphertext, load_intercepts
from .entropy import FileSource, SeededSource, make_source
from .errors import OtpRemctlError
from .frame import FRAME_LEN, CipherMode, CommandRegistry, standard_registry
from .keystore import SksStore, charge
from .protocol import Controlee, Controller, run_session
from . import randtest as rt

_TEST_TOKENS = ("freq", "runs", "balance", "runlen", "autocorr")


class _UsageError(Exception):
    """Bad flag grammar, or two file flags that name one file; mapped to exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here wants 1,
    # so errors are raised and handled in run().
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _source_arg(text):
    try:
        return make_source(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _seed_arg(text):
    """A key-material seed, held to the seeded source's own 0..2^64-1 rule."""
    return _source_arg(f"seeded:{text}").seed


def _number(kind, least, most=float("inf")):
    """The argparse type of a flag holding an int or float ``kind`` in
    least..most; its usage errors name the form and bound, not this function."""
    form = "an integer" if kind is int else "a number"
    rule = (f"in [{least}, {most}]" if most < float("inf")
            else f"at least {least}" if least > 1
            else "positive" if least else "non-negative")

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
        if not least <= value <= most:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    return parse


def _tests_arg(text):
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError("no tests named")
    for t in tokens:
        if t not in _TEST_TOKENS:
            raise argparse.ArgumentTypeError(
                f"unknown test {t!r}; choose from {', '.join(_TEST_TOKENS)}")
    return tuple(tokens)


def _refuse_shared_files(args, files: dict) -> None:
    """Refuse two file flags that name one file, before anything is read or
    written.  ``files`` maps each flag, inputs first, to its path or to None;
    Path.resolve() decides what is one file, and the later flag is named first."""
    taken = {}
    for flag, path in files.items():
        if not path:
            continue
        key = Path(path).resolve()
        if key in taken:
            raise _UsageError(f"otp-remctl {args.command}: error: {flag} and "
                              f"{taken[key]} name the same file {path}")
        taken[key] = flag


def _read_script(path, registry: CommandRegistry):
    """Command frames for a script file: one name per line, # comments ok.

    A registered name has no surrounding whitespace and no leading ``#``, so
    a line that is exactly a name is found by one dict lookup; only other
    lines are stripped and checked for a comment."""
    by_name = dict(registry)
    frames = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        frame = by_name.get(raw)
        if frame is None:
            name = raw.strip()
            if not name or name.startswith("#"):
                continue
            frame = by_name.get(name)
            if frame is None:
                raise ValueError(
                    f"{path}:{lineno}: unknown command {name!r}; "
                    f"registry has {', '.join(registry.names())}")
        frames.append(frame)
    return frames


def _source_path(args):
    """The file of a key command's --source, or None."""
    return args.source.path if isinstance(args.source, FileSource) else None


def _cmd_gen_keys(args) -> int:
    _refuse_shared_files(args, {"--source": _source_path(args), "--out": args.out})
    Path(args.out).write_bytes(args.source.fill(args.bytes))
    print(f"wrote {args.bytes} bytes ({args.source.kind}) to {args.out}")
    return 0


def _cmd_charge(args) -> int:
    _refuse_shared_files(args, {"--source": _source_path(args),
                                "--controller": args.controller, "--controlee": args.controlee})
    block_size = CipherMode(args.mode).key_length
    tx_store, rx_store = charge(args.source, block_size, args.blocks)
    tx_store.save(args.controller)
    rx_store.save(args.controlee)
    print(f"charged {args.blocks} blocks of {block_size} bytes "
          f"into {args.controller} and {args.controlee}")
    return 0


def _cmd_session(args) -> int:
    """simulate and intercept-export: fly the script, then report the flight."""
    _refuse_shared_files(
        args, {"--controller": args.controller, "--controlee": args.controlee,
               "--script": args.script, "--registry": args.registry, "--out": args.out,
               "the --out sidecar": args.out and f"{args.out}.idx", "--log": args.log})
    controller = Controller(SksStore.load(args.controller))
    registry = (standard_registry() if args.registry is None
                else CommandRegistry.load(args.registry))
    controlee = Controlee(SksStore.load(args.controlee), registry=registry)
    script = _read_script(args.script, registry)
    channel = Channel(ChannelConfig(loss_prob=args.loss, tamper_prob=args.tamper,
                                    tamper_model=TamperModel(args.tamper_model),
                                    rng_seed=args.seed))
    log = run_session(controller, controlee, script, channel)
    if args.out:
        export_intercepts(channel.intercepts, args.out)
    if args.log:
        log.save(args.log)
    outcomes = channel.intercepts.outcomes()
    print(f"frames sent      : {controller.frames_sent}")
    print(f"dropped          : {outcomes.count(Delivery.DROPPED)}")
    print(f"tampered         : {outcomes.count(Delivery.TAMPERED)}")
    print(f"accepted         : {controlee.accepted}")
    print(f"discarded        : {controlee.discarded}")
    print(f"keys consumed    : controller {controller.store.consumed_count}, "
          f"controlee {controlee.store.consumed_count}")
    if args.out:
        print(f"intercepts       : {len(channel.intercepts)} frames "
              f"to {args.out} (+ .idx)")
    elif args.log:
        print(f"session log      : {args.log}")
    return 0


def _load_test_bytes(args) -> bytes:
    if args.format == "raw":
        return Path(args.input).read_bytes()
    # A corpus is 36-byte wire frames; strip the clear fields so only
    # ciphered bytes are tested.
    mode = CipherMode(args.format.removeprefix("corpus-"))
    return extract_ciphertext(load_intercepts(args.input), mode)


_REPORT_FIELDS = ("test", "n", "statistic", "p_value", "alpha", "pass")


def _report_row(test: str, n: int, statistic, p_value, alpha, passed: bool) -> dict:
    """One report row keyed by _REPORT_FIELDS; None marks a value a check lacks."""
    return dict(zip(_REPORT_FIELDS, (test, n, statistic, p_value, alpha, passed)))


def _result_row(r: rt.TestResult) -> dict:
    """A test result as a report row."""
    return _report_row(r.test_name, r.n, r.statistic, r.p_value, rt.ALPHA, r.passed)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _report_csv(rows):
    """CSV lines of report rows: None cells empty, floats .10g, booleans lowercase."""
    yield ",".join(_REPORT_FIELDS)
    for row in rows:
        yield ",".join(_csv_cell(row[k]) for k in _REPORT_FIELDS)


def _autocorr_csv(series: rt.AutocorrSeries):
    """CSV lines of the full symmetric series: tau, c."""
    yield "tau,c"
    yield from map("{},{:.10g}".format, series.lags.tolist(), series.values.tolist())


# One report row as json.dumps(rows, indent=2) lays out a row of its list,
# from json's C encoder: indent would select the pure-Python one.
_json_row = json.JSONEncoder(separators=(",\n    ", ": ")).encode


def _report_json(rows) -> str:
    """``json.dumps(rows, indent=2)`` for a non-empty list of report rows,
    each a non-empty dict of scalars."""
    return "[\n  " + ",\n  ".join("{\n    " + _json_row(row)[1:-1] + "\n  }"
                                  for row in rows) + "\n]"


# --split-bits tests: token -> (report name, per-sequence test).
_SPLIT_TESTS = {"freq": ("frequency", rt.monobit_frequency),
                "runs": ("runs", rt.nist_runs)}


def _cmd_randtest(args) -> int:
    sidecar = None if args.format == "raw" else f"{args.input}.idx"
    _refuse_shared_files(
        args, {"--input": args.input, "the --input sidecar": sidecar, "--report": args.report,
               "--json": args.json, "--autocorr-out": args.autocorr_out})
    data = _load_test_bytes(args)
    if not data:
        raise ValueError(f"{args.input}: no bytes to test")
    bits = rt.BitSequence.from_bytes(data)
    rows = []
    failures = 0

    def record(row, line, ok):
        nonlocal failures
        rows.append(row)
        print(f"{line} {'pass' if ok else 'FAIL'}")
        if not ok:
            failures += 1

    split = args.split_bits
    if split and not _SPLIT_TESTS.keys().isdisjoint(args.tests):
        seqs = bits.pieces(split)
        if not seqs:
            raise ValueError(
                f"--split-bits {split} exceeds the {bits.n} input bits")
    for token in args.tests:
        if split and token in _SPLIT_TESTS:
            name, test = _SPLIT_TESTS[token]
            results = [test(s) for s in seqs]
            rows.extend(map(_result_row, results))
            prop = rt.pass_proportion(results)
            record(_report_row(f"{name}_proportion", prop.m, prop.proportion,
                               None, rt.ALPHA, prop.ok),
                   f"{name:<10}: {prop.passed}/{prop.m} sequences passed "
                   f"(proportion {prop.proportion:.4f}, "
                   f"acceptance >= {prop.lower:.4f})", prop.ok)
        elif token == "freq":
            r = rt.monobit_frequency(bits)
            record(_result_row(r),
                   f"frequency : n={r.n} statistic={r.statistic:.4f} "
                   f"p={r.p_value:.4f}", r.passed)
        elif token == "runs":
            r = rt.nist_runs(bits)
            note = f" ({r.note})" if r.note else ""
            record(_result_row(r),
                   f"runs      : n={r.n} V={r.statistic:.0f} "
                   f"p={r.p_value:.4f}{note}", r.passed)
        elif token == "balance":
            b = rt.golomb_balance(bits)
            record(_report_row("balance", b.n, b.deviation, None, None, b.passed),
                   f"balance   : n={b.n} deviation={b.deviation:.6f} "
                   f"(limit {b.limit:.6f})", b.passed)
        elif token == "runlen":
            rl = rt.golomb_run_lengths(bits)
            record(_report_row("run_lengths", bits.n, rl.worst_excess, None,
                               None, rl.geometric_ok),
                   f"run-length: runs={rl.total_runs} "
                   f"checked 1..{rl.max_checked} "
                   f"worst-excess={rl.worst_excess:.3f}", rl.geometric_ok)
        else:
            max_lag = min(args.max_lag, bits.n - 1)
            series = rt.autocorrelation(bits, max_lag)
            fraction = series.fraction_within_bound()
            ok = series.passed
            record(_report_row("autocorrelation", bits.n, fraction, None, None, ok),
                   f"autocorr  : n={bits.n} lags=1..{max_lag} "
                   f"within-bound={100 * fraction:.2f}% c0={series.c(0):g}",
                   ok)
            if args.autocorr_out:
                write_lines(args.autocorr_out, _autocorr_csv(series))
    if args.report:
        write_lines(args.report, _report_csv(rows))
    if args.json:
        write_lines(args.json, [_report_json(rows)])
    print(f"{failures} of {len(args.tests)} checks failed" if failures
          else f"all {len(args.tests)} checks passed")
    return 3 if failures else 0


def demo_end_to_end(seed: int, out=None) -> int:
    """Encrypt the five stock commands five times each with fresh blocks.

    Prints plaintext rows (identical across repetitions) and ciphertext
    rows (no visible structure) to stdout, and optionally writes a CSV of
    both for plotting byte-value traces.
    """
    registry = standard_registry()
    reps = 5
    names = registry.names()
    tx_store, _ = charge(SeededSource(seed), CipherMode.FULL.key_length, len(names) * reps)
    controller = Controller(tx_store)
    rows = []
    for name in names:
        frame = registry.lookup(name)
        print(f"== {name} ==")
        print(f"plain      : {frame.data.hex()}")
        for rep in range(reps):
            wire = controller.send(frame)
            rows.append((name, rep, wire.address, frame.data, wire.payload))
            print(f"cipher[{wire.address:3d}]: {wire.payload.hex()}")
    addresses = [r[2] for r in rows]
    ciphers = np.frombuffer(b"".join(r[4] for r in rows),
                            dtype=np.uint8).reshape(len(rows), FRAME_LEN)
    # Each unordered pair once: all n*n row comparisons less the n
    # self-matches, halved.
    n = len(rows)
    matches = (int(np.count_nonzero(ciphers[:, None] == ciphers)) - n * FRAME_LEN) // 2
    total = n * (n - 1) // 2 * FRAME_LEN
    print(f"addresses consumed in order: {addresses[0]}..{addresses[-1]}")
    print(f"pairwise ciphertext byte-agreement rate: {matches / total:.4f} "
          f"(uniform expectation {1 / 256:.4f})")
    if out:
        write_lines(out, ["name,rep,address,kind," + ",".join(f"b{i}" for i in range(FRAME_LEN)),
                          *(f"{name},{rep},{addr},{kind}," + ",".join(map(str, data))
                            for name, rep, addr, plain, cipher in rows
                            for kind, data in (("plain", plain), ("cipher", cipher)))])
        print(f"csv: {out}")
    return 0


def _cmd_demo(args) -> int:
    return demo_end_to_end(seed=args.seed, out=args.out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The otp-remctl parser, built on the first call and then shared.

    argparse keeps no state between ``parse_args`` calls, and every default
    is immutable, so each in-process ``run`` parses as a fresh parser would;
    ``build_parser.cache_clear()`` drops the shared one."""
    parser = _Parser(prog="otp-remctl",
                     description="Precharged one-time-pad remote-control toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-keys", help="dump raw key bytes from an entropy source")
    p.add_argument("--source", required=True, type=_source_arg,
                   help="system | seeded:<u64> | file:<path>")
    p.add_argument("--bytes", required=True, type=_number(int, 0),
                   help="number of bytes to write")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=_cmd_gen_keys)

    p = sub.add_parser("charge", help="precharge a matched pair of key stores")
    p.add_argument("--source", required=True, type=_source_arg,
                   help="system | seeded:<u64> | file:<path>")
    p.add_argument("--blocks", required=True, type=_number(int, 1),
                   help="number of key blocks")
    p.add_argument("--mode", choices=[m.value for m in CipherMode],
                   default=CipherMode.FULL.value,
                   help="; ".join(f"{m.value}: {m.key_length}-byte blocks"
                                  for m in CipherMode))
    p.add_argument("--controller", required=True, help="controller store file")
    p.add_argument("--controlee", required=True, help="controlee store file")
    p.set_defaults(func=_cmd_charge)

    def session_parser(name, help, out_help=None):
        """A flight subcommand; ``out_help`` adds a required --out, listed
        before --log as the help text always has."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--controller", required=True, help="controller store file")
        p.add_argument("--controlee", required=True, help="controlee store file")
        p.add_argument("--script", required=True,
                       help="command script, one name per line")
        p.add_argument("--loss", type=_number(float, 0, 1), default=0.0,
                       help="frame loss probability")
        p.add_argument("--tamper", type=_number(float, 0, 1), default=0.0,
                       help="in-flight corruption probability")
        p.add_argument("--tamper-model", choices=[m.value for m in TamperModel],
                       default=TamperModel.FLIP_ONE_RANDOM_BYTE.value, help="corruption model")
        p.add_argument("--seed", type=_number(int, 0), default=0, help="channel seed")
        p.add_argument("--registry", default=None,
                       help="command registry file (default: the built-in five commands)")
        if out_help is None:
            p.set_defaults(out=None)
        else:
            p.add_argument("--out", required=True, help=out_help)
        p.add_argument("--log", default=None, help="write the session log here")
        p.set_defaults(func=_cmd_session)

    session_parser("simulate", "run a scripted session over a lossy channel")
    session_parser("intercept-export", "run a session and export the eavesdropped corpus",
                   out_help="corpus file (sidecar: <out>.idx)")

    p = sub.add_parser("randtest", help="statistical randomness checks on a byte file")
    p.add_argument("--input", required=True, help="input file")
    p.add_argument("--format", choices=["raw", *(f"corpus-{m.value}" for m in CipherMode)],
                   default="raw",
                   help="raw bytes, or an intercept corpus stripped to its "
                        "ciphered bytes")
    p.add_argument("--tests", type=_tests_arg, default=_TEST_TOKENS,
                   help=f"comma-separated subset of {','.join(_TEST_TOKENS)}")
    p.add_argument("--split-bits", type=_number(int, rt.MIN_TEST_BITS), default=None,
                   help="split the input into sequences of this many bits and "
                        "report the pass proportion for freq/runs")
    p.add_argument("--max-lag", type=_number(int, 1), default=1000,
                   help="largest autocorrelation lag")
    p.add_argument("--report", default=None, help="write a CSV report here")
    p.add_argument("--json", default=None, help="write a JSON report here")
    p.add_argument("--autocorr-out", default=None,
                   help="write the tau,c series here")
    p.set_defaults(func=_cmd_randtest)

    p = sub.add_parser("demo", help="five commands, five encryptions each")
    p.add_argument("--seed", type=_seed_arg, default=7, help="key-material seed")
    p.add_argument("--out", default=None, help="write plot-ready CSV here")
    p.set_defaults(func=_cmd_demo)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (OtpRemctlError, OSError, ValueError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # one the allocator raises carries no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
