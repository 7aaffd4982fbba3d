#!/usr/bin/env python3
"""Collect perfbench medians into BENCH_<label>.json.

Run from the root of a checkout:

    python3 tools/bench.py --label change --root ../parent-checkout
    python3 tools/bench.py --label change

For each workload perfbench declares and each seed in ``SEEDS`` this runs
``python3 perfbench/run.py --workload W --seed S --trace 0``, one run at a
time, with perfbench's own run length, and reads the JSON object on the last
line of its output.  With ``--root`` every seed is a pair: the checkout given
there and this one run directly after each other, the first of the pair
alternating from seed to seed, so that both sides meet the same load on the
host.  The runs of this checkout go to ``BENCH_<label>.json`` and, with
``--root``, those of the other to ``BENCH_parent.json``, both at the root of
this checkout.  Each file holds every run and, per workload, the median of
each end-to-end metric and of ``attempted``, the operations run (perfbench
keeps every round's outputs, so peak memory grows with them), the Python
version and ``nproc``; with ``--root``,
``BENCH_<label>.json`` also counts, per metric, the pairs in which this
checkout read lower and gives the quartiles of the parent's runs, and holds,
per end-to-end metric of ``BENCHMARK.json``, the ratio of this checkout's
median to the parent's and whether that ratio keeps the metric's bound; a
table of these verdicts is printed last.  A metric within its bound reads
``unresolved`` there when the parent's own runs spread wider than the bound
and the change does not read better in every run.  The ``peak_rss_mib``
verdict also carries the same ratio for ``attempted``, so that a rise in the
peak can be read against the operations completed.  Each file also records
``src_lines``, the line count of its checkout's ``src/ssvlib/*.py``, and
``tests_lines``, that of its ``tests/*.py``, and the paired run prints both
checkouts' counts under the verdict table, so that a change that grows the
library, or shrinks it only by moving code into the tests, shows on every
paired run.  After each run the set-up
probe (``perfbench/run.py --setup-probe``: import, inputs and warm-up in a
fresh interpreter) is timed ``PROBES`` times directly, and the run keeps the
median as ``probe_s``; perfbench's own ``setup_s`` waits on each probe with a
timeout, and that wait polls in steps of up to 50 ms, which hide a
difference of a few tens of milliseconds.  The paired run prints, under the
verdict table, each workload's median ``probe_s`` of both checkouts, their
ratio, the quartiles of the parent's probes and the pairs in which this
checkout read lower, and ``unresolved`` when this checkout's median lies
between the parent's quartiles, where the probe's own noise could put it.
That wait polls at 1, 3, 7, 15, 31 and 63 ms and every 50 ms
after; when the quartiles of either checkout's ``probe_s`` straddle one of
those instants, the same code reads ``setup_s`` one step apart from run to
run, and the workload's ``setup_s`` verdict is printed with ``at a poll
step``.  perfbench itself is only invoked, never changed.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ten pairs: a claimed gain must hold in at least nine of them
SEEDS = tuple(range(301, 311))
PROBES = 5
# perfbench's set-up wait, subprocess.run with a timeout, polls after sleeps
# of 1, 2, 4, ... ms capped at 50 ms
POLL_INSTANTS = tuple((2 ** k - 1) / 1000 for k in range(1, 7)) + tuple(
    0.063 + 0.05 * j for j in range(1, 60)
)

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import WORKLOADS  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--root", help="parent checkout, measured in pairs with this one")
    args = parser.parse_args(argv)
    if args.root and args.label == "parent":
        parser.error("--label parent would overwrite the --root side")
    return args


def run_once(root, workload, seed):
    """One perfbench run: its final JSON object, or an incorrect stand-in."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit_code": proc.returncode}


def probe_s(root, workload, seed, run=subprocess.run, clock=time.perf_counter):
    """Median wall time of ``PROBES`` set-up probes, each awaited with no timeout; None if one fails."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(PROBES):
        started = clock()
        if run(argv, cwd=root, stdout=subprocess.DEVNULL).returncode:
            return None
        times.append(clock() - started)
    return statistics.median(times)


def _probes(runs):
    return [run["probe_s"] for run in runs if run.get("probe_s") is not None]


def _probe_median(runs):
    probes = _probes(runs)
    return statistics.median(probes) if probes else None


def poll_step(*sides):
    """The first poll instant of perfbench's set-up wait that the quartiles of
    some side's ``probe_s`` straddle, or None."""
    for probes in map(_probes, sides):
        if len(probes) > 1:
            q1, _, q3 = statistics.quantiles(probes, n=4)
            for instant in POLL_INSTANTS:
                if q1 <= instant <= q3:
                    return instant
    return None


def probe_comparison(runs, parent_runs):
    """Median ``probe_s`` of both sides and their ratio, the parent's quartiles,
    the pairs in which this side read lower, and whether its median lies
    outside those quartiles; None when a side has no probe."""
    change, parent = _probe_median(runs), _probe_median(parent_runs)
    if change is None or parent is None:
        return None
    probes = _probes(parent_runs)
    q1, _, q3 = statistics.quantiles(probes, n=4) if len(probes) > 1 else (parent,) * 3
    pairs = [(run["probe_s"], other["probe_s"]) for run, other in zip(runs, parent_runs)
             if run.get("probe_s") is not None and other.get("probe_s") is not None]
    return {"change": change, "parent": parent, "ratio": change / parent,
            "parent_q1": q1, "parent_q3": q3, "lower_in": sum(a < b for a, b in pairs),
            "pairs": len(pairs), "resolved": not q1 <= change <= q3}


def _lines(pattern):
    total = 0
    for path in glob.glob(pattern):
        with open(path) as handle:
            total += sum(1 for _ in handle)
    return total


def src_lines(root):
    """Lines in the library modules, ``src/ssvlib/*.py``, of a checkout."""
    return _lines(os.path.join(root, "src", "ssvlib", "*.py"))


def tests_lines(root):
    """Lines in the test modules, ``tests/*.py``, of a checkout."""
    return _lines(os.path.join(root, "tests", "*.py"))


def _values(runs, name):
    return [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]


def summarize(runs):
    """Median of each metric over the runs that report it."""
    names = sorted({name for run in runs for name in run["metrics"]})
    return {
        name: {
            "median": statistics.median(_values(runs, name)),
            "unit": next(run["metrics"][name]["unit"] for run in runs if name in run["metrics"]),
        }
        for name in names
    }


def compare(runs, parent_runs):
    """Per metric: pairs in which this checkout read lower, and parent quartiles."""
    out = {}
    for name in sorted({name for run in runs for name in run["metrics"]}):
        pairs = [
            (run["metrics"][name]["value"], other["metrics"][name]["value"])
            for run, other in zip(runs, parent_runs)
            if name in run["metrics"] and name in other["metrics"]
        ]
        q1, _, q3 = statistics.quantiles(_values(parent_runs, name), n=4)
        out[name] = {"lower_in": sum(a < b for a, b in pairs), "pairs": len(pairs),
                     "parent_q1": q1, "parent_q3": q3}
    return out


def verdicts(runs, parent_runs, end_to_end):
    """Per end-to-end metric: change/parent ratio of the medians, and whether it keeps the bound.

    ``end_to_end`` is the list of that name in BENCHMARK.json.  A metric whose
    ``better`` is "lower" may rise by at most ``bound`` (a fraction of the
    parent's median), one whose ``better`` is "higher" may fall by at most that.
    perfbench keeps every round's outputs, so ``peak_rss_mib`` grows with the
    operations run; its verdict adds ``attempted_ratio``, the change/parent
    ratio of the median ``attempted`` (None when the parent attempted none).

    ``spread`` is the distance between the quartiles of the parent's runs as
    a fraction of their median.  A metric whose spread exceeds its bound is
    not ``resolved``: the runs cannot tell a change within the bound from
    none, unless every run of the change reads better than every run of the
    parent.
    """
    done, parent_done = (statistics.median(r["attempted"] for r in rs) for rs in (runs, parent_runs))
    out = {}
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        change, parent = _values(runs, name), _values(parent_runs, name)
        if not change or not parent:
            continue
        median = statistics.median(parent)
        ratio = statistics.median(change) / median
        if metric["better"] == "lower":
            within, dominates = ratio <= 1 + bound, max(change) < min(parent)
        else:
            within, dominates = ratio >= 1 - bound, min(change) > max(parent)
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (median,) * 3
        spread = (q3 - q1) / median
        out[name] = {"ratio": ratio, "bound": bound, "better": metric["better"],
                     "within_bound": within, "spread": spread,
                     "resolved": spread <= bound or dominates}
        if name == "peak_rss_mib":
            out[name]["attempted_ratio"] = done / parent_done if parent_done else None
    return out


def _print_verdicts(report, parent):
    print(f"{'workload':<14}{'metric':<14}{'ratio':>8}{'bound':>8}  verdict")
    for workload, entry in report["workloads"].items():
        for name, v in entry["verdicts"].items():
            sign = "+" if v["better"] == "lower" else "-"
            verdict = "within" if v["resolved"] else "unresolved"
            line = (f"{workload:<14}{name:<14}{v['ratio']:>8.3f}{sign + format(v['bound'], '.0%'):>8}  "
                    f"{verdict if v['within_bound'] else 'OUT OF BOUND'}")
            if "attempted_ratio" in v:
                done = v["attempted_ratio"]
                line += f"  attempted {done:.3f}" if done is not None else "  attempted n/a"
            if v.get("poll_step") is not None:
                line += f"  at a poll step ({v['poll_step']:.3f} s)"
            print(line)
    for workload, entry in report["workloads"].items():
        if "probe" in entry:
            probe = entry["probe"]
            line = (f"{workload:<14}probe_s: parent {probe['parent']:.4f} s, "
                    f"change {probe['change']:.4f} s, ratio {probe['ratio']:.3f}")
            if "parent_q1" in probe:
                line += (f", parent quartiles {probe['parent_q1']:.4f}-{probe['parent_q3']:.4f} s, "
                         f"lower in {probe['lower_in']}/{probe['pairs']}")
                line += "" if probe["resolved"] else "  unresolved"
            print(line)
    for key, files in (("src_lines", "src/ssvlib/*.py"), ("tests_lines", "tests/*.py")):
        lines, before = report[key], parent[key]
        print(f"{files} lines: parent {before}, change {lines} ({lines - before:+d})")


def _report(label, sides, name, root):
    return {
        "label": label,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seeds": list(SEEDS),
        "src_lines": src_lines(root),
        "tests_lines": tests_lines(root),
        "workloads": {
            workload: {
                "attempted": statistics.median(run["attempted"] for run in runs[name]),
                "probe_s": _probe_median(runs[name]),
                "metrics": summarize(runs[name]),
                "runs": runs[name],
            }
            for workload, runs in sides.items()
        },
    }


def _write(report):
    path = os.path.join(ROOT, f"BENCH_{report['label']}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def main(argv=None):
    args = _parse(argv)
    roots = {"change": ROOT}
    if args.root:
        roots["parent"] = os.path.abspath(args.root)
    sides = {}
    all_ok = True
    for workload in WORKLOADS:
        sides[workload] = {name: [] for name in roots}
        for pair, seed in enumerate(SEEDS):
            order = list(roots) if pair % 2 else list(roots)[::-1]
            for position, name in enumerate(order):
                run = run_once(roots[name], workload, seed)
                run.update(seed=seed, pair=pair, first=position == 0,
                           probe_s=probe_s(roots[name], workload, seed))
                sides[workload][name].append(run)
                all_ok = all_ok and run["correct"] and run["failed"] == 0
                wall = run["metrics"].get("wall_s", {}).get("value")
                print(f"{workload} seed {seed} {name}: correct={run['correct']} "
                      f"attempted={run['attempted']} failed={run['failed']} wall_s={wall} "
                      f"probe_s={run['probe_s']}",
                      flush=True)
    report = _report(args.label, sides, "change", roots["change"])
    if args.root:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            end_to_end = json.load(handle)["end_to_end"]
        for workload, runs in sides.items():
            entry = report["workloads"][workload]
            entry["pairs"] = compare(runs["change"], runs["parent"])
            entry["verdicts"] = verdicts(runs["change"], runs["parent"], end_to_end)
            if "setup_s" in entry["verdicts"]:
                entry["verdicts"]["setup_s"]["poll_step"] = poll_step(runs["change"], runs["parent"])
            probe = probe_comparison(runs["change"], runs["parent"])
            if probe is not None:
                entry["probe"] = probe
        parent = _report("parent", sides, "parent", roots["parent"])
        _write(parent)
    _write(report)
    if args.root:
        _print_verdicts(report, parent)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
