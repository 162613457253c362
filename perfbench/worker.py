"""One workload process: set up, run ops for a fixed time, check each.

``run.py`` starts this script in a fresh interpreter and reads the one
JSON object it prints.  With ``--setup-only`` it stops once rydcat is
imported and the inputs are built, and prints the monotonic clock at
that moment, so the parent can time set-up from its own spawn.

Untraced (``--trace 0``) it alternates ops at 1 and 2 workers and
reports each op's wall time and the process's peak memory.  Traced
(``--trace 1``) it cycles an untraced op, the same op with the tracer
installed, and, where an in-process workload has a worker pool, an
untraced op at 2 workers with its CPU time; the layer summaries come
from the traced ops only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import subprocess
import sys
import time
import traceback
from time import perf_counter


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class Runner:
    """Runs and checks ops of one workload, counting failures."""

    def __init__(self, wl, inputs, refs):
        self.wl = wl
        self.inputs = inputs
        self.refs = refs
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, workers: int, around=None, **kwargs):
        """One checked op; returns (wall seconds, CPU seconds, result) or None.

        ``around`` is a context manager entered around the op alone.
        """
        self.attempted += 1
        cpu = time.process_time()
        start = perf_counter()
        try:
            with around or contextlib.nullcontext():
                result = self.wl.op(self.inputs, workers, **kwargs)
        except Exception:
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return None
        wall = perf_counter() - start
        cpu = time.process_time() - cpu
        problems = self.wl.check(self.inputs, self.refs, result, self.first)
        if problems:
            self.failed += 1
            self.problems.extend(f"workers={workers}: {p}" for p in problems)
        if self.first is None:
            self.first = result
        return wall, cpu, result


def _untraced(runner: Runner, seconds: float) -> dict:
    walls = {1: [], 2: []}
    deadline = perf_counter() + seconds
    order = (1, 2)
    while True:
        for workers in order:
            done = runner.run(workers)
            if done is not None:
                walls[workers].append(done[0])
        order = order[::-1]
        if perf_counter() >= deadline:
            break
    return {"wall_1": walls[1], "wall_2": walls[2]}


def _interp_probe(code: str) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
    return perf_counter() - start


def _traced(runner: Runner, seconds: float) -> dict:
    import tracer

    wl = runner.wl
    out = {"plain": [], "traced": [], "layers": [], "wall_2": [], "cpu_2": [],
           "interp": [], "import": [], "commands": {}}
    if not wl.in_process:
        # Bare interpreter start and the package import, as floors
        # under every command-line call.
        for _ in range(5):
            out["interp"].append(_interp_probe("pass"))
            out["import"].append(_interp_probe("import rydcat"))
    tr = tracer.Tracer()
    deadline = perf_counter() + seconds
    while True:
        done = runner.run(1)
        if done is not None:
            out["plain"].append(done[0])
            if not wl.in_process:
                for command, _, _, _, _, wall in done[2]:
                    out["commands"].setdefault(command, []).append(wall)
        if wl.in_process:
            tr.install()
            try:
                done = runner.run(1, around=tr.root())
            finally:
                tr.uninstall()
            summary = tr.take()
        else:
            done = runner.run(1, traced=True)
            summary = wl.trace_summary(done[2]) if done is not None else None
            if summary is not None:
                # The pass wall, not the children's cli.main spans, is the
                # traced op's wall time.
                summary["op"]["total_s"] = done[0]
        if done is not None:
            out["traced"].append(summary["op"]["total_s"])
            out["layers"].append(summary)
        if wl.in_process and wl.parallel:
            done = runner.run(2)
            if done is not None:
                out["wall_2"].append(done[0])
                out["cpu_2"].append(done[1])
        if perf_counter() >= deadline:
            break
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed, args.tiny)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0
    runner = Runner(wl, inputs, wl.prepare(inputs))
    # A cold command-line call pays its start-up every time, so only the
    # in-process workloads get a warm-up op.
    warmup = runner.run(1) if wl.in_process else None
    scores = wl.scores(warmup[2]) if warmup is not None else {}
    if args.trace:
        samples = _traced(runner, args.seconds)
    else:
        samples = _untraced(runner, args.seconds)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    report = {
        "setup_done": setup_done,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "scores": scores,
        "params": wl.params(args.tiny),
        "env": workloads.environment(),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        **samples,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
