#!/usr/bin/env python3
"""Benchmark of ssvlib: three workloads, checked outputs, optional tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload moduli-enum --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (set-up time, time per round of
operations, operation latency, peak memory); with ``--trace 1`` they are the
per-layer ones from spans around calls into ssvlib.  Progress and any failed
check go to standard error.  See README.md in this directory.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("moduli-enum", "toric-gluing", "cli-reports")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only import ssvlib, build the inputs and run the warm-up (used by set-up timing)",
    )
    return parser.parse_args(argv)


def _import_ssvlib():
    """Import ssvlib from this checkout's src, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "ssvlib", "__init__.py")):
        sys.stderr.write(f"perfbench: no ssvlib sources under {SRC}; run from a checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import ssvlib

    if os.path.dirname(os.path.dirname(os.path.abspath(ssvlib.__file__))) != SRC:
        sys.stderr.write(f"perfbench: imported ssvlib from {ssvlib.__file__}, not {SRC}\n")
        sys.exit(2)


def _build(name, seed, workdir):
    import workloads

    if name == "moduli-enum":
        return workloads.ModuliEnum(seed)
    if name == "toric-gluing":
        return workloads.ToricGluing(seed)
    return workloads.CliReports(seed, workdir, ROOT)


def _workdir(args):
    """A fresh directory for the run's input documents, under perfbench/out."""
    os.makedirs(OUT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)


def _setup_probe(args):
    _import_ssvlib()
    workdir = _workdir(args)
    try:
        _build(args.workload, args.seed, workdir).warmup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_setup(args):
    """Median wall time of fresh interpreters doing import, inputs and warm-up."""
    argv = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _run(args):
    _import_ssvlib()
    setup_s = None if args.trace else _measure_setup(args)
    workdir = _workdir(args)
    try:
        return _measure(args, _build(args.workload, args.seed, workdir), setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, setup_s):
    workload.warmup()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    op_spans, problems, errors = [], [], []
    attempted = failed = 0
    k = 0
    with hostspeed.HostSpeed() as host:
        started = time.perf_counter()
        # Whole rounds only, until the run has lasted --seconds and has done
        # the workload's minimum number of rounds.  A traced run does exactly
        # the minimum, so that its counts repeat exactly for a seed.
        while k < workload.min_rounds or (
            not args.trace and time.perf_counter() - started < args.seconds
        ):
            ops = workload.round(k)
            results = []
            for i, (label, op) in enumerate(ops):
                attempted += 1
                host.sample()
                op_started = time.perf_counter()
                try:
                    if tracer is not None:
                        with tracer.span("bench.op"):
                            result = op()
                    else:
                        result = op()
                except Exception as exc:  # an operation failing is counted, not fatal
                    failed += 1
                    errors.append(f"round {k} op {i} {label}: {exc!r}")
                    continue
                op_spans.append((k, op_started, time.perf_counter()))
                results.append((i, result))
            host.sample()
            for i, result in results:
                try:
                    workload.record(k, i, result)
                except Exception as exc:  # an unusable result fails the checks
                    problems.append(f"round {k} op {i}: cannot read result: {exc!r}")
            k += 1

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks_started = time.perf_counter()
    problems.extend(workload.check())
    checks_s = time.perf_counter() - checks_started
    latencies = [host.at_reference_speed(a, b) for _, a, b in op_spans]
    round_times, raw_rounds = [0.0] * k, [0.0] * k
    for (k_, a, b), latency in zip(op_spans, latencies):
        round_times[k_] += latency
        raw_rounds[k_] += b - a
    wall_s = statistics.median(round_times)

    raw_latencies = sorted(b - a for _, a, b in op_spans)
    sys.stderr.write(
        f"perfbench: {args.workload} seed {args.seed}: {k} rounds, {attempted} ops, "
        f"{failed} failed; round times {[round(t, 3) for t in raw_rounds]} s measured, "
        f"{[round(t, 3) for t in round_times]} s at reference speed; measured op p50 "
        f"{statistics.median(raw_latencies) * 1000:.3f} ms, p90 {_percentile(raw_latencies, 0.9) * 1000:.3f} ms; "
        f"checks took {checks_s:.1f} s\n"
    )
    if hasattr(workload, "repeat_share"):
        sys.stderr.write(
            f"perfbench: share of operations repeating an earlier subdivision: "
            f"{workload.repeat_share():.3f}\n"
        )
    for line in errors + problems:
        sys.stderr.write(f"perfbench: {line}\n")

    if tracer is not None:
        metrics = tracer.metrics(wall_s, zip(host.starts, host.ends))
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": len(tracer.name), "rounds": k, "metrics": metrics}, handle, indent=2)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
            "op_p90_ms": {"value": _percentile(latencies, 0.9) * 1000, "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    result = _run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
