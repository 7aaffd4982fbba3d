"""`tools/bench.py`: the bound verdicts and library and test line counts it prints after a paired run."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(attempted=None, **series):
    count = len(next(iter(series.values())))
    attempted = attempted or [1] * count
    return [
        {"attempted": attempted[i],
         "metrics": {name: {"value": values[i], "unit": "x"} for name, values in series.items()}}
        for i in range(count)
    ]


def test_verdicts_read_the_median_ratio_against_the_bound(capsys):
    bench = _bench()
    end_to_end = [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mib", "better": "lower", "bound": 0.05},
        {"name": "ops_per_s", "better": "higher", "bound": 0.1},
        {"name": "absent", "better": "lower", "bound": 0.25},
    ]
    parent = _runs(wall_s=[2.0, 1.0, 9.0], peak_rss_mib=[20.0, 20.0, 21.0], ops_per_s=[10.0, 10.0, 10.0],
                   attempted=[400, 380, 300])
    change = _runs(wall_s=[0.5, 0.4, 0.6], peak_rss_mib=[21.2, 21.0, 30.0], ops_per_s=[8.0, 9.5, 9.0],
                   attempted=[500, 475, 900])
    out = bench.verdicts(change, parent, end_to_end)
    assert set(out) == {"wall_s", "peak_rss_mib", "ops_per_s"}
    assert out["wall_s"]["ratio"] == 0.25 and out["wall_s"]["within_bound"]
    # 21.2 / 20 = 1.06: six percent up against a five percent bound
    assert abs(out["peak_rss_mib"]["ratio"] - 1.06) < 1e-12
    assert not out["peak_rss_mib"]["within_bound"]
    assert out["ops_per_s"]["ratio"] == 0.9 and out["ops_per_s"]["within_bound"]
    # the peak's verdict, and only it, reads against the operations run: 500 / 380
    assert out["peak_rss_mib"]["attempted_ratio"] == 500 / 380
    assert all("attempted_ratio" not in out[name] for name in ("wall_s", "ops_per_s"))
    bench._print_verdicts({"workloads": {"w": {"verdicts": out}}, "src_lines": 4090, "tests_lines": 5210},
                          {"src_lines": 4104, "tests_lines": 5150})
    printed = capsys.readouterr().out.splitlines()
    peak_line = next(line for line in printed if "peak_rss_mib" in line)
    assert peak_line.endswith("OUT OF BOUND  attempted 1.316")
    # the line counts of both checkouts' library and tests close the table
    assert printed[-2:] == ["src/ssvlib/*.py lines: parent 4104, change 4090 (-14)",
                            "tests/*.py lines: parent 5150, change 5210 (+60)"]
    # a parent that attempted nothing has no ratio
    idle = bench.verdicts(change, _runs(peak_rss_mib=[20.0] * 3, attempted=[0] * 3), end_to_end[1:2])
    assert idle["peak_rss_mib"]["attempted_ratio"] is None
    # exactly at the bound still keeps it
    edge = bench.verdicts(_runs(wall_s=[1.25]), _runs(wall_s=[1.0]), end_to_end[:1])
    assert edge["wall_s"]["within_bound"]


def test_a_within_bound_reading_wider_than_its_bound_is_unresolved(capsys):
    bench = _bench()
    end_to_end = [{"name": "setup_s", "better": "lower", "bound": 0.25}]
    # setup_s moves in 50 ms steps: the parent's runs sit at 0.168 or 0.215 s,
    # whose quartiles lie 28% of the median apart
    parent = _runs(setup_s=[0.168] * 6 + [0.215] * 4)
    bimodal = bench.verdicts(_runs(setup_s=[0.215, 0.168] * 5), parent, end_to_end)["setup_s"]
    assert abs(bimodal["ratio"] - 0.1915 / 0.168) < 1e-12 and bimodal["within_bound"]
    assert abs(bimodal["spread"] - 0.047 / 0.168) < 1e-12 and not bimodal["resolved"]
    # the same spread, but every run of the change reads lower than every parent run
    faster = bench.verdicts(_runs(setup_s=[0.120] * 10), parent, end_to_end)["setup_s"]
    assert faster["within_bound"] and faster["resolved"]
    # a tight parent resolves a reading within the bound
    tight = bench.verdicts(_runs(setup_s=[0.171, 0.169] * 5),
                           _runs(setup_s=[0.168, 0.170] * 5), end_to_end)["setup_s"]
    assert tight["within_bound"] and tight["resolved"] and tight["spread"] < 0.25
    # out of bound whatever the spread
    slower = bench.verdicts(_runs(setup_s=[0.215] * 10), parent, end_to_end)["setup_s"]
    assert not slower["within_bound"] and not slower["resolved"]
    report = {"workloads": {"bimodal": {"verdicts": {"setup_s": bimodal}},
                            "tight": {"verdicts": {"setup_s": tight}},
                            "slower": {"verdicts": {"setup_s": slower}}},
              "src_lines": 1, "tests_lines": 1}
    bench._print_verdicts(report, report)
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in printed[1:4]] == ["unresolved", "within", "BOUND"]


def test_src_lines_counts_the_library_modules_only(tmp_path):
    bench = _bench()
    library = tmp_path / "src" / "ssvlib"
    library.mkdir(parents=True)
    (library / "a.py").write_text("x = 1\ny = 2\n")
    (library / "b.py").write_text("z = 3")  # no final newline
    (library / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert bench.src_lines(tmp_path) == 3
    # this checkout's own count is what its BENCH file records
    root = Path(bench.ROOT)
    assert bench.src_lines(root) == sum(
        len(path.read_text().splitlines()) for path in (root / "src" / "ssvlib").glob("*.py")
    )
    runs = {"w": {"change": [{"attempted": 1, "metrics": {}}]}}
    report = bench._report("x", runs, "change", tmp_path)
    assert report["src_lines"] == 3


def test_the_set_up_probe_is_timed_directly_without_a_timeout(capsys):
    bench = _bench()
    calls = []

    class Done:
        returncode = 0

    def run(argv, **kwargs):
        calls.append((argv, kwargs))
        return Done()

    # five probes of 0.3, 0.1, 0.2, 0.5 and 0.4 s: the median is 0.3 s
    ticks = iter([0.0, 0.3, 1.0, 1.1, 2.0, 2.2, 3.0, 3.5, 4.0, 4.4])
    assert abs(bench.probe_s("/parent", "moduli-enum", 301, run, lambda: next(ticks)) - 0.3) < 1e-12
    assert len(calls) == bench.PROBES == 5
    argv, kwargs = calls[0]
    assert argv[1:] == ["perfbench/run.py", "--workload", "moduli-enum", "--seed", "301", "--setup-probe"]
    # a timeout makes the wait poll in steps of up to 50 ms
    assert kwargs["cwd"] == "/parent" and "timeout" not in kwargs

    Done.returncode = 1
    assert bench.probe_s("/parent", "moduli-enum", 301, run, lambda: 0.0) is None

    runs = [{"attempted": 1, "metrics": {}, "probe_s": p} for p in (0.12, None, 0.10, 0.11)]
    assert bench._report("x", {"w": {"change": runs}}, "change", "/none")["workloads"]["w"]["probe_s"] == 0.11
    report = {"workloads": {"w": {"verdicts": {}, "probe": {"parent": 0.1315, "change": 0.1096,
                                                           "ratio": 0.1096 / 0.1315}}},
              "src_lines": 1, "tests_lines": 1}
    bench._print_verdicts(report, report)
    printed = capsys.readouterr().out.splitlines()
    assert printed[1] == "w             probe_s: parent 0.1315 s, change 0.1096 s, ratio 0.833"


def test_a_paired_run_records_and_prints_library_and_test_lines(tmp_path, monkeypatch, capsys):
    bench = _bench()
    roots = {}
    for name, library, tests in (("change", 3, 5), ("parent", 4, 2)):
        root = tmp_path / name
        (root / "src" / "ssvlib").mkdir(parents=True)
        (root / "src" / "ssvlib" / "a.py").write_text("x = 1\n" * library)
        (root / "tests").mkdir()
        (root / "tests" / "test_a.py").write_text("y = 2\n" * tests)
        (root / "tests" / "data.json").write_text("not\ncounted\n")
        roots[name] = root
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]}))

    def run_once(root, workload, seed):
        wall = 1.0 if root == str(roots["change"]) else 1.1
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": 0.165, "unit": "s"}}}

    monkeypatch.setattr(bench, "ROOT", str(roots["change"]))
    monkeypatch.setattr(bench, "WORKLOADS", ["w"])
    monkeypatch.setattr(bench, "SEEDS", (301, 302))
    monkeypatch.setattr(bench, "run_once", run_once)
    # probes of 0.111 and 0.115 s on both sides straddle the poll at 0.113 s
    monkeypatch.setattr(bench, "probe_s", lambda root, workload, seed: 0.111 if seed == 301 else 0.115)
    assert bench.main(["--label", "x", "--root", str(roots["parent"])]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert next(line for line in printed if "setup_s" in line).endswith("at a poll step (0.113 s)")
    assert "poll step" not in next(line for line in printed if "wall_s " in line)
    assert printed[-2:] == ["src/ssvlib/*.py lines: parent 4, change 3 (-1)",
                            "tests/*.py lines: parent 2, change 5 (+3)"]
    for label, lines in (("x", (3, 5)), ("parent", (4, 2))):
        report = json.loads((roots["change"] / f"BENCH_{label}.json").read_text())
        assert (report["src_lines"], report["tests_lines"]) == lines
    verdict = json.loads((roots["change"] / "BENCH_x.json").read_text())["workloads"]["w"]["verdicts"]["setup_s"]
    assert abs(verdict["poll_step"] - 0.113) < 1e-12


def test_a_set_up_reading_whose_probes_straddle_a_poll_instant_is_flagged(capsys):
    bench = _bench()
    assert bench.POLL_INSTANTS[:8] == (0.001, 0.003, 0.007, 0.015, 0.031, 0.063, 0.113, 0.163)

    def probes(*values):
        return [{"probe_s": p} for p in values] + [{"probe_s": None}]

    # probes of 111-115 ms: the quartiles straddle the poll at 113 ms, so
    # setup_s reads 0.114 or 0.165 s from run to run
    straddling = probes(0.111, 0.112, 0.112, 0.114, 0.115, 0.115)
    tight = probes(0.120, 0.121, 0.122, 0.121)
    assert abs(bench.poll_step(straddling) - 0.113) < 1e-12
    assert bench.poll_step(tight) is None
    # either side straddling flags the workload
    assert abs(bench.poll_step(tight, straddling) - 0.113) < 1e-12
    assert bench.poll_step(tight, probes(0.150, 0.160, 0.155)) is None
    # fewer than two probes have no quartiles
    assert bench.poll_step(probes(0.113)) is None

    verdict = {"ratio": 1.3, "bound": 0.25, "better": "lower", "within_bound": False,
               "resolved": False, "poll_step": 0.113}
    report = {"workloads": {"w": {"verdicts": {"setup_s": verdict,
                                               "wall_s": dict(verdict, poll_step=None)}}},
              "src_lines": 1, "tests_lines": 1}
    bench._print_verdicts(report, report)
    printed = capsys.readouterr().out.splitlines()
    assert printed[1].endswith("OUT OF BOUND  at a poll step (0.113 s)")
    assert printed[2].endswith("OUT OF BOUND")


def test_the_probe_ratio_carries_the_parent_spread_and_the_pairs(capsys):
    bench = _bench()

    def probes(*values):
        return [{"probe_s": p} for p in values]

    # a bimodal parent, 0.20 or 0.24 s, and a change that reads the same
    parent = probes(0.20, 0.24, 0.20, 0.24, 0.20, 0.24, 0.20, 0.24, 0.20, 0.24)
    same = probes(0.24, 0.20, 0.24, 0.20, 0.24, 0.20, 0.24, 0.20, 0.24, 0.20, None)
    noise = bench.probe_comparison(same, parent)
    assert noise["change"] == noise["parent"] == 0.22 and noise["ratio"] == 1.0
    assert (noise["parent_q1"], noise["parent_q3"]) == (0.2, 0.24)
    assert (noise["lower_in"], noise["pairs"]) == (5, 10) and not noise["resolved"]
    # every probe of the change below every probe of the parent
    faster = bench.probe_comparison(probes(*[0.15] * 10), parent)
    assert faster["lower_in"] == 10 and faster["resolved"] and faster["ratio"] < 0.7
    assert bench.probe_comparison(probes(None, None), parent) is None
    report = {"workloads": {"noise": {"verdicts": {}, "probe": noise},
                            "faster": {"verdicts": {}, "probe": faster}},
              "src_lines": 1, "tests_lines": 1}
    bench._print_verdicts(report, report)
    printed = capsys.readouterr().out.splitlines()
    assert printed[1] == ("noise         probe_s: parent 0.2200 s, change 0.2200 s, ratio 1.000, "
                          "parent quartiles 0.2000-0.2400 s, lower in 5/10  unresolved")
    assert printed[2] == ("faster        probe_s: parent 0.2200 s, change 0.1500 s, ratio 0.682, "
                          "parent quartiles 0.2000-0.2400 s, lower in 10/10")
