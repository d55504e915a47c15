#!/usr/bin/env python3
"""otp-remctl benchmark: precharge -> flight -> audit, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py                       # all three workloads, one process each
    python3 bench/run.py --workload mission --seed 3 --seconds 10
    python3 bench/run.py --workload audit --trace 1   # per-layer metrics

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics, or with
``--trace 1`` the per-layer ones).  The same object is written to
``bench/results/<workload>-trace<0|1>.json``; a traced run also writes its
spans to ``bench/results/<workload>-spans.npz``.
"""

import os

# One BLAS thread: with two, autocorrelation timings on a 2-core host swing
# with whatever else runs.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("mission", "hostile", "audit")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1, help="makes every input of the run")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measure whole rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run, printing the per-layer metrics")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a process of its own; the last line maps workload -> result."""
    combined, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        combined[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(combined))
    return status


def fmt(value: float) -> str:
    return f"{value:>14.6g}"


def run_one(args) -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    import otp_remctl

    if not Path(otp_remctl.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported otp_remctl from {otp_remctl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench import workloads as wl
    from bench.checks import CheckFailed

    results_dir = BENCH / "results"
    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    correct, message = True, ""
    try:
        plain, traced, tracer, marks, host = wl.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
        if args.trace:
            metrics = wl.per_layer(args.workload, plain, traced, tracer, marks, host)
    except CheckFailed as exc:
        correct, message = False, str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not correct:
        print(f"CHECK FAILED ({args.workload}): {message}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 0

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    print(f"# {args.workload}  seed {args.seed}  rounds {plain.rounds} untraced"
          f"{f' + {traced.rounds} traced' if args.trace else ''}  "
          f"commands attempted {attempted}  failed {failed}")
    e2e = wl.end_to_end(plain)
    units = dict(wl.END_TO_END)
    if args.trace:
        t2e = wl.end_to_end(traced)
        print(f"# end to end{'untraced':>24}{'traced':>15}  overhead")
        for name, unit in wl.END_TO_END[:4]:
            higher = name in ("cmd_per_s", "audit_mbit_per_s")
            ratio = e2e[name] / t2e[name] if higher else t2e[name] / e2e[name]
            print(f"{name:<20}{fmt(e2e[name])} {fmt(t2e[name])}  {100 * (ratio - 1):+.1f}%  {unit}")
        metrics["trace.overhead_pct"] = (100 * (e2e["cmd_per_s"] / t2e["cmd_per_s"] - 1), "%")
        print("# per layer (self_s: self time per set-up plus per traced round)")
        for name, (value, unit) in metrics.items():
            print(f"{name:<36}{fmt(value)} {unit}")
        out = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        results_dir.mkdir(exist_ok=True)
        tracer.save(results_dir / f"{args.workload}-spans.npz")
    else:
        for name, value in e2e.items():
            print(f"{name:<20}{fmt(value)} {units[name]}")
        out = {name: {"value": v, "unit": units[name]} for name, v in e2e.items()}
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": out}
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, workload=args.workload, seed=args.seed), indent=1) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "otp_remctl" / "__init__.py").is_file():
        print(f"error: no otp_remctl package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
