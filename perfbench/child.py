"""One closed-loop client in a fresh interpreter.

run.py starts this script once per pass and once per set-up spawn.  It

1. imports ``lrpictures.cli`` from the checkout's ``src`` and prints ``ready``
   (run.py times spawn to ready as set-up); without ``--ops`` it stops there;
2. with ``--trace 1`` wraps the library layers (see tracer.py);
3. reads the ops one JSON line at a time from the ``--ops`` file, so the op
   list never sits in this process's memory, and runs each through
   ``cmd_run``, back to back with no think time, until the file ends.
   Between ops, at most every REF_EVERY_S, and once at the end, it times
   reference_work, a fixed piece of pure-Python work whose time tracks the
   machine's speed;
4. prints one JSON line per op (exit code, stdout, error, start, latency),
   so no output is retained here either, then a last line with the op
   count, the wall time of the loop, the peak RSS at its end, the reference
   timings and, when traced, the per-layer metrics.

An op is a list of argv steps run in order; an argv value equal to PREV is
replaced by the previous step's stdout without its trailing newline.  A
step with a nonzero exit code ends the op.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PREV = "{prev}"
REF_EVERY_S = 0.1
# The reference speed: the benchmark reports times as they would read on a
# machine where reference_work takes this long, about the median under
# Python 3.11 on a shared 2-vCPU virtual machine.
REF_S = 0.002


def reference_work() -> None:
    """A fixed mix of the interpreter work the library does: tuples, dicts,
    integer arithmetic, sorting."""
    table: dict[tuple[int, int], list[int]] = {}
    for i in range(2000):
        table[(i % 97, i)] = [i * i % 13, i // 7]
    sorted(table.items(), key=lambda kv: (kv[1][0], -kv[0][1]))


def reference_s() -> float:
    """Wall time of one reference_work."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def run_op(cmd_run, steps: list[list[str]]) -> tuple[int, str]:
    code, out = 0, ""
    for argv in steps:
        argv = [out.rstrip("\n") if a == PREV else a for a in argv]
        code, out = cmd_run(argv)
        if code != 0:
            break
    return code, out


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space.

    Linux carries the parent's high-water mark across exec into ru_maxrss,
    so the parent's size would leak into it; VmHWM counts only this image.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=Path, help="JSON-lines file of ops; omit to stop after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its raw spans")
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lrpictures.cli

    if src not in Path(lrpictures.cli.__file__).resolve().parents:
        print(f"lrpictures was imported from outside {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.ops is None:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cmd_run = lrpictures.cli.cmd_run  # looked up after install, so the wrapped one

    emit = sys.stdout.write
    clock = time.perf_counter
    done = 0
    refs = []  # [start, seconds] of each reference timing
    with open(args.ops) as ops:
        began = clock()
        for steps in map(json.loads, ops):
            if not refs or clock() - began - refs[-1][0] >= REF_EVERY_S:
                refs.append([clock() - began, reference_s()])
            if tracer is not None:
                tracer.op = done
            error = None
            t0 = clock()
            try:
                code, out = run_op(cmd_run, steps)
            except Exception as exc:  # a crashing op counts as failed; the run goes on
                code, out, error = None, "", f"{type(exc).__name__}: {exc}"
            latency = clock() - t0
            emit(json.dumps({"code": code, "out": out, "error": error,
                             "start_s": t0 - began, "latency_s": latency}) + "\n")
            done += 1
        wall = clock() - began
        refs.append([wall, reference_s()])
    summary = {"done": done, "wall_s": wall, "peak_rss_mb": peak_rss_mb(), "refs": refs}
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        if args.spans is not None:
            tracer.dump(args.spans)
    emit(json.dumps(summary) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
