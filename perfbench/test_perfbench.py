"""Tests of the benchmark itself: seeds, checkers and the declared metrics.

Run with ``python3 -m pytest -q perfbench/test_perfbench.py`` from the
repository root.  Each planted-failure test starts real child interpreters
for three short passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, dumps  # noqa: E402


def _two_passes(name, seed):
    wl = WORKLOADS[name](seed)
    wl.pass_ops(1)
    return dumps(wl.ops)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    first = _two_passes(name, 7)
    assert first == _two_passes(name, 7)
    assert first != _two_passes(name, 8)


def test_lr_coeff_draws_without_replacement():
    wl = WORKLOADS["lr_coeff"](3)
    assert wl.pass_ops(4) == range(4 * wl.PASS_SIZE, 5 * wl.PASS_SIZE)
    assert len(wl.keys) == len(set(wl.keys)) == 5 * wl.PASS_SIZE


def _wrong(name, right):
    if name == "lr_coeff":
        return right + 1
    if name == "pictures":
        return (*right[:3], right[3] | {frozenset()})
    return "{}\n"


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_planted_wrong_answer_is_a_failed_op(name, trace, capsys):
    wl = WORKLOADS[name](11, pass_size=12)
    wl.pass_ops(0)
    wl.answers[0] = _wrong(name, wl.answer(0))
    result = run.measure(wl, 1.0, trace)
    assert result["attempted"] % 12 == 0
    assert result["attempted"] >= (12 if trace else 12 * run.MIN_PASSES)
    assert result["failed"] == 1
    assert result["correct"] is False
    units = run.per_layer_units() if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert "failed_ratio" in capsys.readouterr().out


def test_unreadable_output_is_a_failed_op():
    wl = WORKLOADS["pictures"](11, pass_size=1)
    wl.pass_ops(0)
    record = {"code": 0, "out": "not json", "error": None, "latency_s": 0.0}
    assert run._checked(wl, 0, record) is False
    assert run._checked(wl, 0, {**record, "out": "", "error": "ValueError: boom"}) is False


def test_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_repeat_that_differs_from_the_first_run_is_a_failed_op():
    wl = WORKLOADS["roundtrip"](11, pass_size=2)
    wl.pass_ops(0)
    good = [{"code": 0, "out": wl.answer(i), "error": None, "latency_s": 0.001} for i in range(2)]
    bad = [good[0], {**good[1], "out": "{}\n"}]
    summary = {"done": 2, "wall_s": 0.002, "peak_rss_mb": 1.0}
    runs = [run.ChildRun(range(2), good, summary), run.ChildRun(range(2), bad, summary)]
    assert run.check_repeats(wl, runs) == [True, False]
