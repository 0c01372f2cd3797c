import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from lrpictures.verify import SUITE_NAMES, SuiteReport

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_lr_table_routes_agree():
    out = run_script("lr_table.py", "--max-size", "6")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1].endswith(" 0 route disagreements")


def test_run_verification_prints_an_ok_row():
    out = run_script("run_verification.py", "knuth-crystal")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0].startswith("knuth-crystal  ok ")


def test_run_verification_takes_max_cells():
    out = run_script("run_verification.py", "roundtrip", "--max-cells", "3")
    assert out.returncode == 0, out.stderr
    row, total = out.stdout.splitlines()
    assert re.fullmatch(r"roundtrip  ok +\d+\.\d\ds  contexts=\d+, .*", row), row
    assert re.fullmatch(r"total \d+\.\ds", total), total


def test_run_verification_times_each_suite(monkeypatch, capsys):
    # each suite runs in its own run_suite call, and its row shows that
    # call's seconds: on this clock the k-th call takes k seconds
    script = load_script("run_verification")
    calls, now = [], [0.0]

    def run_suite(name, **kwargs):
        calls.append(name)
        now[0] += len(calls)
        report = SuiteReport(name)
        report.count("checks")
        return [report]

    monkeypatch.setattr(script, "run_suite", run_suite)
    monkeypatch.setattr(script, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(sys, "argv", ["run_verification.py"])
    assert script.main() == 0
    assert calls == list(SUITE_NAMES)
    width = max(map(len, SUITE_NAMES))
    assert capsys.readouterr().out.splitlines() == [
        f"{name:<{width}}  ok   {k:6.2f}s  checks=1" for k, name in enumerate(SUITE_NAMES, 1)
    ] + ["total 21.0s"]


def test_run_verification_refuses_negative_instances():
    out = run_script("run_verification.py", "bumping-lemma", "--instances", "-5")
    assert out.returncode == 2
    assert out.stdout == "" and "must not be negative" in out.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seed", "+2"], "invalid int value: '+2'"),
        (["--seed", " 2"], "invalid int value: ' 2'"),
        (["nosuch"], "error: unknown suite 'nosuch'"),
        (["--max-cells", "9"], "error: max_cells 9 exceeds the picture enumeration bound 8"),
        (["roundtrip", "--max-cells", "-1"], "must not be negative"),
    ],
)
def test_run_verification_refuses_what_the_cli_refuses(argv, message):
    out = run_script("run_verification.py", *argv)
    assert out.returncode == 2
    assert out.stdout == "" and message in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [["--max-size", "-1"], ["--box", "4", "-1"]])
def test_lr_table_refuses_negative_sizes(argv):
    out = run_script("lr_table.py", *argv)
    assert out.returncode == 2
    assert out.stdout == "" and "must not be negative" in out.stderr


def canned_pair(seed, parent, change, first="parent", failed=(0, 0), metric="ops_per_s",
                workload="roundtrip"):
    def result(value, failed):
        return {"correct": failed == 0, "attempted": 1000, "failed": failed,
                "metrics": {metric: {"value": value}}}

    return {"workload": workload, "seed": seed, "first": first,
            "parent": result(parent, failed[0]), "change": result(change, failed[1])}


def test_bench_pairs_summarizes_canned_pairs(tmp_path):
    bench = load_script("bench_pairs")
    parent = [3000, 3100, 3050, 2950, 3200, 3020, 3080, 3110, 2990, 3060]
    change = [4500, 4600, 4550, 4400, 3100, 4700, 4650, 4480, 4520, 4610]
    pairs = [canned_pair(31 + k, p, c) for k, (p, c) in enumerate(zip(parent, change))]
    s = bench.summarize(pairs, "ops_per_s", "higher")
    # seed 35 is lost (3,200 -> 3,100): 9 wins of 10
    assert (s["wins"], s["pairs"], s["gain_stands"]) == (9, 10, True)
    assert (s["parent_median"], s["change_median"]) == (3055, 4535)
    assert s["parent_quartile_distance"] == 3095 - 3005
    assert bench.claim_line(s) == (
        "roundtrip ops_per_s; pairs on seeds 31-40: change better in 9 of 10, "
        "median 3,055 -> 4,535 (+48%), parent quartile distance 90; the gain stands"
    )
    # Lower is better for a latency: the same pairs are all losses but one.
    assert bench.summarize(pairs, "ops_per_s", "lower")["wins"] == 1
    # Two losses of ten, or a gain inside the parent's spread, do not stand.
    pairs[0] = canned_pair(31, 3000, 2900)
    assert not bench.summarize(pairs, "ops_per_s", "higher")["gain_stands"]
    close = [canned_pair(31 + k, p, p + 50) for k, p in enumerate(parent)]
    assert not bench.summarize(close, "ops_per_s", "higher")["gain_stands"]
    path = tmp_path / "BENCH.json"
    bench.write_bench(path, {"claim": "x", "pairs": pairs[:2]})
    assert json.loads(path.read_text()) == {"claim": "x", "pairs": pairs[:2]}
    assert len(path.read_text().splitlines()) == 7  # one line per pair


def test_bench_pairs_summarizes_a_lower_is_better_claim():
    bench = load_script("bench_pairs")
    parent = [0.100, 0.101, 0.099, 0.103, 0.100, 0.098, 0.102, 0.100, 0.104, 0.101]
    change = [0.080, 0.082, 0.079, 0.081, 0.099, 0.080, 0.078, 0.101, 0.080, 0.083]
    pairs = [canned_pair(3 + k, p, c, metric="setup_s", workload="lr_coeff")
             for k, (p, c) in enumerate(zip(parent, change))]
    s = bench.summarize(pairs, "setup_s", "lower")
    # seed 10 is lost (0.100 -> 0.101): 9 wins of 10
    assert (s["wins"], s["pairs"], s["gain_stands"]) == (9, 10, True)
    assert (s["parent_median"], s["change_median"]) == (0.1005, 0.0805)
    assert bench.claim_line(s) == (
        "lr_coeff setup_s; pairs on seeds 3-12: change better in 9 of 10, "
        "median 0.101 -> 0.0805 (-20%), parent quartile distance 0.00175; the gain stands"
    )
    # Read as higher-is-better, the same pairs lose nine of ten.
    assert bench.summarize(pairs, "setup_s", "higher")["wins"] == 1


@pytest.mark.parametrize("metric", ["ops", "SETUP_S", ""])
def test_bench_pairs_refuses_a_claim_on_no_end_to_end_metric(metric, capsys):
    bench = load_script("bench_pairs")
    with pytest.raises(SystemExit) as exc:
        bench.main(["no-such-parent", "lr_coeff", "3-12", "--pr", "0", "--claim", metric])
    assert exc.value.code == 2
    assert (f"--claim {metric!r} is not an end-to-end metric of BENCHMARK.json; choose from "
            "setup_s, ops_per_s, op_p50_ms, op_p90_ms, peak_rss_mb") in capsys.readouterr().err
    assert not (ROOT / "BENCH_0.json").exists()


def test_bench_pairs_refuses_a_gain_with_more_failed_ops():
    bench = load_script("bench_pairs")
    parent = [3000, 3100, 3050, 2950, 3200, 3020, 3080, 3110, 2990, 3060]
    pairs = [canned_pair(31 + k, p, p + 1500) for k, p in enumerate(parent)]
    assert bench.summarize(pairs, "ops_per_s", "higher")["gain_stands"]
    # Ten wins of ten, but the change failed 3 ops where the parent failed 1.
    pairs[2] = canned_pair(33, 3050, 4550, failed=(1, 3))
    s = bench.summarize(pairs, "ops_per_s", "higher")
    assert (s["wins"], s["failed_more_seeds"], s["gain_stands"]) == (10, [33], False)
    assert bench.claim_line(s).endswith(
        "; the gain does not stand (the change failed more ops than the parent on seeds 33)"
    )
    [row] = bench.failed_rows(pairs)
    assert (row["parent_failed_ratio"], row["change_failed_ratio"]) == (1 / 10000, 3 / 10000)
    assert bench.failed_line(row) == (
        "roundtrip failed ratio: parent 0.0001, change 0.0003; "
        "the change failed more ops than the parent on seeds 33"
    )
    # Fewer failed ops than the parent do not refuse the gain.
    pairs[2] = canned_pair(33, 3050, 4550, failed=(3, 1))
    assert bench.summarize(pairs, "ops_per_s", "higher")["gain_stands"]
    assert bench.failed_line(bench.failed_rows(pairs)[0]).endswith(
        "the change failed no more ops than the parent on any seed"
    )


def test_bench_pairs_reports_no_regression():
    bench = load_script("bench_pairs")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def result(ops_per_s, rss):
        return {"metrics": {"ops_per_s": {"value": ops_per_s}, "peak_rss_mb": {"value": rss}}}

    def pair(workload, seed, parent, change):
        return {"workload": workload, "seed": seed, "parent": result(*parent),
                "change": result(*change)}

    pairs = [
        pair("lr_coeff", 1, (20000, 20.0), (19000, 20.5)),
        pair("lr_coeff", 2, (22000, 20.0), (21000, 20.5)),
        pair("lr_coeff", 3, (21000, 20.0), (20000, 20.5)),
        # peak_rss_mb +25% breaks its bound of 20%; ops_per_s -25% is on its bound
        pair("pictures", 4, (280, 24.0), (210, 30.0)),
    ]
    rows = bench.no_regression(pairs, end_to_end)
    assert [(r["workload"], r["metric"]) for r in rows] == [
        ("lr_coeff", "ops_per_s"), ("lr_coeff", "peak_rss_mb"),
        ("pictures", "ops_per_s"), ("pictures", "peak_rss_mb"),
    ]
    assert (rows[0]["parent_median"], rows[0]["change_median"]) == (21000, 20000)
    assert [r["worse_beyond_bound"] for r in rows] == [False, False, False, True]
    assert (rows[3]["change"], rows[3]["bound"]) == (0.25, 0.2)
    assert bench.regression_line(rows[0]) == (
        "lr_coeff ops_per_s: median 21,000 -> 20,000 (-4.8%), bound 25%; within its bound"
    )
    assert bench.regression_line(rows[3]) == (
        "pictures peak_rss_mb: median 24 -> 30 (+25.0%), bound 20%; WORSE beyond its bound"
    )


def test_bench_pairs_reads_a_seed_range():
    bench = load_script("bench_pairs")
    assert bench.seed_range("31-40") == range(31, 41)
    assert bench.seed_range("7") == range(7, 8)
    assert bench.seed_range("5-5") == range(5, 6)


@pytest.mark.parametrize(
    "seeds, message",
    [
        ("5-3", "seed range runs backwards: '5-3'"),
        ("+5", "invalid int value: '+5'"),
        ("", "invalid int value: ''"),
        ("5-", "invalid int value: ''"),
        ("5-+7", "invalid int value: '+7'"),
        (" 5", "invalid int value: ' 5'"),
    ],
)
def test_bench_pairs_refuses_a_bad_seed_range(seeds, message, capsys):
    bench = load_script("bench_pairs")
    with pytest.raises(SystemExit) as exc:
        bench.main(["no-such-parent", "roundtrip", seeds, "--pr", "0"])
    assert exc.value.code == 2
    assert f"argument seeds: {message}" in capsys.readouterr().err
    assert not (ROOT / "BENCH_0.json").exists()


def test_bench_pairs_warns_on_a_parent_without_a_commit(tmp_path, capsys):
    bench = load_script("bench_pairs")
    assert bench.parent_commit(tmp_path) is None
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and str(tmp_path) in err
    # a copy inside some other checkout is not taken for that checkout
    copy = tmp_path / "copy"
    copy.mkdir()
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@example.org"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "t"], check=True)
    assert bench.parent_commit(copy) is None
    assert str(copy) in capsys.readouterr().err
    head = subprocess.run([*git, "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    assert bench.parent_commit(tmp_path) == head.stdout.strip()
    assert capsys.readouterr().err == ""


def test_bench_pairs_refuses_checkouts_with_bytecode_caches(tmp_path, monkeypatch, capsys):
    bench = load_script("bench_pairs")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in (parent / "tests" / "__pycache__", change / "perfbench"):
        d.mkdir(parents=True)
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    # a cache outside src/ and perfbench/ is not read by a benchmark child
    assert bench.bytecode_caches(parent) == bench.bytecode_caches(change) == []
    stale = [parent / "src" / "lrpictures" / "__pycache__", change / "perfbench" / "__pycache__"]
    for d in stale:
        d.mkdir(parents=True)
        (d / "cli.cpython-311.pyc").write_bytes(b"")
    assert bench.bytecode_caches(parent) == stale[:1]
    monkeypatch.setattr(bench, "ROOT", change)
    with pytest.raises(SystemExit) as exc:
        bench.main([str(parent), "roundtrip", "1", "--pr", "0"])
    assert exc.value.code == 2
    assert (f"error: remove the bytecode caches a run would read: {stale[0]}, {stale[1]}"
            in capsys.readouterr().err)
    # nothing is run, written or deleted
    assert not (change / "BENCH_0.json").exists()
    assert all((d / "cli.cpython-311.pyc").exists() for d in stale)
