"""Benchmark of iskk's lemma verifications (see README.md in this directory).

    python3 perfbench/run.py --workload ks-blocks --seed 1 --seconds 30 --trace 0

One single-threaded process is one closed-loop caller: it runs each case of
the workload and waits for its verdict before starting the next. It repeats
passes over the workload (in a seed-given order) until ``--seconds`` have
elapsed, checks every verdict against expected.json and prints one JSON
object as its last line. ``--trace 1`` alternates untraced and traced passes
and reports per-layer metrics instead. Without ``--workload`` it runs every
workload, each in its own process, and prints their results in turn.
"""

import os

# One BLAS/OpenMP thread: the numeric oracle calls eigvals, and this process
# is meant to be the only busy one. Must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import cases  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
TRACE_DIR = HERE.parent / ".bench_out"
SETUP_PROBES = 16  # half before the passes, half after


def setup(workload, seed):
    """Everything a run does before its first verification call."""
    with open(cases.EXPECTED_PATH) as fh:
        expected = json.load(fh)[workload]
    return expected, random.Random(seed)


def measure_setup_s(workload, seed, probes):
    """Wall times from starting a fresh interpreter to the point where it
    would make its first verification call."""
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return times


def run_pass(order, expected, tracer=None):
    """Run every case once, in the given order.

    Returns ({case id: seconds}, list of (case id, reasons)).
    """
    records, case_s = [], {}
    for i, case in enumerate(order):
        if tracer is not None:
            tracer.case_id = i
        gc.collect()  # each case starts from the same collector state, whatever ran before
        t0 = perf_counter()
        records.append(cases.run_case(case))
        case_s[case.id] = perf_counter() - t0
    failures = [(case.id, bad) for case, rec in zip(order, records)
                if (bad := cases.verdict(case, rec, expected))]
    return case_s, failures


def per_case_median(passes):
    """Median seconds of each case over the passes: a pass time robust to a
    burst of load on the machine that slows one case of one pass."""
    return [median(p[case_id] for p in passes) for case_id in passes[0]]


def measure(workload, seed, seconds, trace):
    """Repeat passes (with ``trace``, untraced/traced pairs) while the next
    one is expected to end within ``seconds``; always at least one."""
    expected, rng = setup(workload, seed)
    setup_times = [] if trace else measure_setup_s(workload, seed, SETUP_PROBES // 2)
    base = cases.WORKLOADS[workload]
    untraced, traced, layer_runs, rounds = [], [], [], []
    attempted, failures = 0, []
    start = perf_counter()
    while not rounds or perf_counter() - start + median(rounds) <= seconds:
        t_round = perf_counter()
        order = list(base)
        rng.shuffle(order)
        case_s, bad = run_pass(order, expected)
        untraced.append(case_s)
        attempted += len(order)
        failures += bad
        if trace:
            with Tracer(cases.MODULES) as tracer:
                case_s, bad = run_pass(order, expected, tracer)
            traced.append(case_s)
            layer_runs.append(tracer.metrics())
            attempted += len(order)
            failures += bad
            tracer.write(TRACE_DIR / f"trace-{workload}.npz", [c.id for c in order])
        rounds.append(perf_counter() - t_round)

    verify = per_case_median(untraced)
    if trace:
        metrics = {name: (median(run[name][0] for run in layer_runs), unit)
                   for name, (_, unit) in layer_runs[0].items()}
        metrics["trace.overhead_ratio"] = (sum(per_case_median(traced)) / sum(verify), "ratio")
    else:
        setup_times += measure_setup_s(workload, seed, SETUP_PROBES - SETUP_PROBES // 2)
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "verify_s": (sum(verify), "s"),
            "slowest_case_s": (max(verify), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return metrics, attempted, failures, len(untraced)


def report(workload, metrics, attempted, failures, passes):
    for case_id, bad in failures:
        print(f"MISMATCH {workload} {case_id}: {'; '.join(bad)}", file=sys.stderr)
    print(f"{workload}: {passes} pass(es), {len(cases.WORKLOADS[workload])} cases each")
    for name, (value, unit) in metrics.items():
        shown = f"{value:>14g}" if unit == "count" else f"{value:>14.6f}"
        print(f"  {name:40s} {shown} {unit}")
    print(f"  {'fail_frac':40s} {len(failures) / attempted:>14.6f} share "
          f"({len(failures)} of {attempted} attempted)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)


def record_expected():
    """Rewrite expected.json from the program's current results.

    Only for adding cases or for a result that changed for a stated reason;
    it refuses to record a result that breaks an invariant.
    """
    out = {}
    for workload, base in cases.WORKLOADS.items():
        out[workload] = {}
        for case in base:
            rec = cases.run_case(case)
            bad = [] if "error" in rec else case.invariants(rec)
            if bad:
                raise SystemExit(f"{case.id}: {'; '.join(bad)}; not recorded")
            out[workload][case.id] = rec
    # one case per line, so a changed result shows as a one-line diff
    blocks = [f" {json.dumps(workload)}: {{\n"
              + ",\n".join(f"  {json.dumps(cid)}: {json.dumps(rec)}" for cid, rec in recs.items())
              + "\n }" for workload, recs in out.items()]
    with open(cases.EXPECTED_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


def run_all(args):
    """Each workload in a child process, so peak memory is per workload."""
    code = 0
    for workload in cases.WORKLOADS:
        code |= subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help=record_expected.__doc__.splitlines()[0])
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.record:
        record_expected()
        return 0
    if args.workload is None:
        return run_all(args)
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    metrics, attempted, failures, passes = measure(args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, metrics, attempted, failures, passes)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
