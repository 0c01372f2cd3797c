"""Benchmark of the lrpictures command-line path.

    python3 perfbench/run.py --workload roundtrip|lr_coeff|pictures \
        --seed N --seconds S --trace 0|1

Load model: a closed loop with one client and no think time.  The seed
gives a stream of ops, cut into passes of a fixed size (workloads.py).  Each
pass runs in a fresh child interpreter (child.py), started one at a time,
that calls ``lrpictures.cli.cmd_run`` in-process on argv lists generated
here from the seed.  Inputs are built before a child starts and outputs are
checked after the last one ends, so neither falls inside a timed window.

``--trace 0`` runs pass after pass for ``--seconds`` seconds (at least
MIN_PASSES of them) with set-up spawns before each, and reports the
end-to-end metrics over the latencies of all passes.  The machine is shared
and its speed swings by half, within seconds and over minutes.  So every
time is scaled to a fixed reference speed: the child times a fixed piece of
pure-Python work (child.reference_work) between ops, and each op's latency
is multiplied by REF_S over the median of the reference timings taken
around it; a set-up spawn is scaled by the reference timings just before
and after it.  A
summary line gives the unscaled throughput and the machine's speed.

``--trace 1`` runs the first pass once with every layer wrapped
(tracer.py), so that its counts are exact for a seed, and once untraced
just before and just after it to give the tracing overhead; it reports the
per-layer metrics.

The last stdout line is the result object; the line before it is a
human-readable summary with the failure ratio and the sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import NamedTuple

from child import REF_S, reference_s
from tracer import layer_metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"  # ops files and raw spans; listed in .gitignore
SETUP_PER_PASS = 3  # set-up spawns before each pass, spread over the run
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60  # a child that runs a pass this long has hung
MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
# An op's speed is judged from the reference timings taken from this long
# before it starts to this long after it ends; the machine's speed holds
# for about a second at a time.
SPEED_WINDOW_S = 0.15

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every metric of a traced run, with its unit."""
    return {**layer_metric_units(), "trace.overhead_ratio": "ratio",
            "workload.distinct_mu_n": "count"}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


class ChildRun(NamedTuple):
    ops: range  # the workload's indices of the pass's ops
    records: list[dict]  # one per op: code, out, error, latency_s
    summary: dict  # done, wall_s, peak_rss_mb, refs and, when traced, layers


def _child_command(*flags: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *flags]


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a child and return the rest of its stdout; kill it if it hangs."""
    try:
        return proc.communicate(timeout=timeout)[0]
    except BaseException as exc:
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError("a child process hung and was killed") from None
        raise


def setup_seconds() -> float:
    """Wall time from spawning a fresh interpreter to lrpictures.cli being
    imported, at the reference speed."""
    ref_before = reference_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(_child_command(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        _finish(proc, CHILD_TIMEOUT_S)
    if proc.returncode != 0 or line != "ready\n":
        raise BenchError(f"set-up child failed (exit {proc.returncode})")
    return elapsed * 2 * REF_S / (ref_before + reference_s())


def run_pass(wl, p: int, *, trace: bool = False, spans: Path | None = None) -> ChildRun:
    """Run pass p of the workload in one fresh child and collect its records."""
    ops = wl.pass_ops(p)
    SCRATCH.mkdir(exist_ok=True)
    path = SCRATCH / f"ops-{os.getpid()}.jsonl"  # read lazily by the child
    path.write_text("".join(json.dumps(wl.ops[i]) + "\n" for i in ops))
    flags = ["--ops", str(path), "--trace", str(int(trace))]
    if spans is not None:
        flags += ["--spans", str(spans)]
    env = {**os.environ, "PYTHONHASHSEED": "0", **wl.env}
    try:
        proc = subprocess.Popen(_child_command(*flags), stdout=subprocess.PIPE, env=env, text=True)
        lines = _finish(proc, CHILD_TIMEOUT_S).splitlines()
    finally:
        path.unlink()
    if proc.returncode != 0 or lines[:1] != ["ready"] or len(lines) < 2:
        raise BenchError(f"child exited {proc.returncode}")
    run = ChildRun(ops, [json.loads(line) for line in lines[1:-1]], json.loads(lines[-1]))
    if not run.summary["done"] == len(run.records) == len(ops):
        raise BenchError("child lost op records")
    return run


def _checked(wl, i: int, record: dict) -> bool:
    if record["error"] is not None:
        return False
    try:
        return wl.check(i, record["code"], record["out"])
    except (ValueError, KeyError, TypeError) as exc:  # malformed output fails the op
        print(f"op {i}: unreadable output: {exc}", file=sys.stderr)
        return False


def check_repeats(wl, runs: list[ChildRun]) -> list[bool]:
    """Per op of one pass run several times: the first run's output passes
    its check and every other run repeats it."""
    first = runs[0].records
    return [
        _checked(wl, i, record)
        and all((run.records[k]["code"], run.records[k]["out"]) == (record["code"], record["out"])
                for run in runs[1:])
        for k, (i, record) in enumerate(zip(runs[0].ops, first))
    ]


def scaled_latencies(run: ChildRun) -> list[float]:
    """Each op's latency in seconds at the reference speed."""
    refs = run.summary["refs"]  # [start, seconds], in time order
    starts = [start for start, _ in refs]
    out = []
    for r in run.records:
        lo = bisect_left(starts, r["start_s"] - SPEED_WINDOW_S)
        hi = bisect_right(starts, r["start_s"] + r["latency_s"] + SPEED_WINDOW_S)
        near = [seconds for _, seconds in refs[lo:hi]]
        out.append(r["latency_s"] * REF_S / statistics.median(near))
    return out


def measure(wl, seconds: float, trace: bool) -> dict:
    """One run of the workload: the result object of the benchmark contract."""
    if wl.pass_size < MIN_OPS:
        print(f"warning: only {wl.pass_size} ops a pass; p90 rests on few samples",
              file=sys.stderr)
    if not trace:
        setup, passes = [], []
        began = time.perf_counter()
        while True:
            setup += [setup_seconds() for _ in range(SETUP_PER_PASS)]
            passes.append(run_pass(wl, len(passes)))
            elapsed = time.perf_counter() - began
            if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
                break  # the next pass would end after --seconds
        ok = [_checked(wl, i, r) for run in passes for i, r in zip(run.ops, run.records)]
    else:
        # Untraced runs of the same pass go just before and just after the
        # traced one, so that a change in machine speed between children
        # does not read as tracing overhead.
        passes = [run_pass(wl, 0), run_pass(wl, 0, trace=True, spans=SCRATCH / f"{wl.name}.spans"),
                  run_pass(wl, 0)]
        ok = check_repeats(wl, passes)
    if not trace:
        latencies = [1000 * s for run in passes for s in scaled_latencies(run)]
        raw_busy = sum(r["latency_s"] for run in passes for r in run.records)
        ref_ms = 1000 * statistics.median(t for run in passes for _, t in run.summary["refs"])
        print(f"unscaled: {len(latencies) / raw_busy:.4g} ops/s; reference_work took "
              f"{ref_ms:.3g} ms, {1000 * REF_S:g} ms at the reference speed")
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": 1000 * len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "peak_rss_mb": statistics.median(run.summary["peak_rss_mb"] for run in passes),
        }
        units = END_TO_END
    else:
        traced = passes[1]
        values = dict(traced.summary["layers"])
        busy_s = [sum(scaled_latencies(run)) for run in passes]
        values["trace.overhead_ratio"] = busy_s[1] / statistics.mean((busy_s[0], busy_s[2]))
        values["workload.distinct_mu_n"] = wl.distinct_mu_n(traced.ops)
        units = per_layer_units()
    attempted, failed = len(ok), ok.count(False)
    print(
        f"{wl.name}: {attempted} ops in {len(passes)} passes, {failed} failed "
        f"(failed_ratio {failed / attempted:.4f}), trace={int(trace)}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "lrpictures" / "__init__.py").is_file():
        print(f"error: no lrpictures sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    try:
        result = measure(wl, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
