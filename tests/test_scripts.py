import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def canned_pair(seed, parent, change, first="parent"):
    def result(ops_per_s):
        return {"correct": True, "attempted": 1000, "failed": 0,
                "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"}}}

    return {"workload": "roundtrip", "seed": seed, "first": first,
            "parent": result(parent), "change": result(change)}


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
