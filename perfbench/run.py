"""Benchmark entry point: one workload, one run, one result line.

    python3 perfbench/run.py --workload mc-ref --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and measures the rydcat package
under ``src/``.  Set-up is timed in nine fresh interpreters spawned by
this process (``worker.py``): four before and four after the ops stop
once ``import rydcat`` has finished and the inputs are built, and the
one in between goes on to run the ops.  Prints the run's provenance, a
table of every metric with its median, quartiles and sample count, and,
as the last line, the JSON result: with ``--trace 0`` the end-to-end
metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.
Exits 2 without a result if the checkout has no rydcat sources, and 1
if a workload process fails or overruns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "rydcat"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 8
DEADLINE_S = 170.0


class BenchError(Exception):
    """A workload process failed or produced no report."""


def _child(cmd: list[str], env: dict, timeout: float) -> str:
    """Run ``cmd`` in its own process group; return its standard output.

    On a timeout or error the whole group is killed and reaped, so no
    descendant outlives the run.
    """
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1:4]} ran past {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:4]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def _last_json(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed nothing")
    return json.loads(lines[-1])


def _stats(values: list[float]) -> tuple[float, float, float, int]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def _commit() -> str | None:
    # The ceiling keeps git from looking above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def end_to_end(setups: list[float], report: dict) -> dict[str, list[float]]:
    return {
        "setup_s": setups,
        "wall_s": report["wall_1"],
        "wall_s_2w": report["wall_2"],
        "peak_rss_mb": [report["peak_rss_mb"]],
    }


def per_layer(report: dict, layer_names: list[str], commands: list[str]) -> dict[str, list[float]]:
    """Samples of every per-layer metric, one per traced op unless derived."""
    ops = report["layers"]
    out: dict[str, list[float]] = {}
    for name in layer_names:
        out[f"{name}.calls"] = [op[name]["calls"] for op in ops]
        out[f"{name}.self_s"] = [op[name]["self_s"] for op in ops]

    def per(num, den, scale):
        return [scale * num(op) / den(op) if den(op) else 0.0 for op in ops]

    def work(key):
        return lambda op: op["work"][key]

    out["bessel.elements"] = [op["work"]["bessel.elements"] for op in ops]
    out["bessel.ns_per_element"] = per(
        lambda op: op["bessel.j0"]["self_s"] + op["bessel.j2"]["self_s"],
        work("bessel.elements"), 1e9)
    out["overlap.matrix.pairs"] = [op["work"]["overlap.matrix.pairs"] for op in ops]
    # Per pair, the matrix build including its Bessel calls: the cost a
    # rewrite of the kernel has to beat, wherever it moves the work.
    out["overlap.matrix.ns_per_pair"] = per(
        lambda op: op["overlap.matrix"]["total_s"], work("overlap.matrix.pairs"), 1e9)
    out["montecarlo.runs"] = [op["work"]["montecarlo.runs"] for op in ops]
    out["montecarlo.us_per_run"] = per(
        lambda op: op["montecarlo"]["total_s"], work("montecarlo.runs"), 1e6)
    out["fock.dim"] = [op["work"]["fock.dim"] for op in ops]
    if report["wall_2"]:
        w1 = statistics.median(report["plain"])
        w2 = statistics.median(report["wall_2"])
        out["montecarlo.scaling_eff_2w"] = [w1 / (2.0 * w2)]
        # Core-seconds the two workers sat idle per op.
        out["montecarlo.wait_s"] = [
            2.0 * wall - cpu for wall, cpu in zip(report["wall_2"], report["cpu_2"])
        ]
    else:
        out["montecarlo.scaling_eff_2w"] = [0.0]
        out["montecarlo.wait_s"] = [0.0]
    if report["interp"]:
        interp = statistics.median(report["interp"])
        out["cli.interp_s"] = report["interp"]
        out["cli.import_s"] = [statistics.median(report["import"]) - interp]
    else:
        out["cli.interp_s"] = [0.0]
        out["cli.import_s"] = [0.0]
    for command in commands:
        out[f"cli.{command}_s"] = report["commands"].get(command, [0.0])
    out["trace.wall_s"] = report["traced"]
    out["trace.glue_s"] = [op["op"]["self_s"] for op in ops]
    out["trace.overhead_frac"] = [
        statistics.median(report["traced"]) / statistics.median(report["plain"]) - 1.0
    ]
    return out


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the ops and set-up sampling for a smoke test")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no rydcat sources under {PACKAGE}", file=sys.stderr)
        return 2

    start = time.monotonic()
    env = dict(os.environ)
    env.pop("RYDCAT_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    setups: list[float] = []

    def probe_setup():
        spawned = time.monotonic()
        left = DEADLINE_S - (spawned - start)
        done = _last_json(_child(worker + ["--setup-only"], env, min(60.0, left)))
        setups.append(done["setup_done"] - spawned)

    # Half the set-up probes run before the ops and half after, so that
    # set-up is sampled across the whole run as the ops are.
    probes = 0 if args.tiny else SETUP_PROBES // 2
    try:
        for _ in range(probes):
            probe_setup()
        spawned = time.monotonic()
        report = _last_json(_child(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, DEADLINE_S - (spawned - start),
        ))
        setups.append(report["setup_done"] - spawned)
        for _ in range(probes):
            probe_setup()
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        layer_names = [m["name"][: -len(".calls")] for m in spec["per_layer"]
                       if m["name"].endswith(".calls")]
        commands = [m["name"][4:-2] for m in spec["per_layer"]
                    if m["name"].startswith("cli.") and m["name"] not in
                    ("cli.interp_s", "cli.import_s")]
        samples = per_layer(report, layer_names, commands)
        wanted = spec["per_layer"]
    else:
        samples = end_to_end(setups, report)
        wanted = spec["end_to_end"]
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "params": report["params"],
        "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        **report["env"], "git_commit": _commit(), "source_sha256": _source_digest(),
        "setup_probes": len(setups),
    }
    print("provenance " + json.dumps(provenance))
    print(f"checks: attempted {report['attempted']}, failed {report['failed']}, "
          f"fail_ratio {report['failed'] / report['attempted']:.3g}; "
          "reference scores (combined SE) "
          + json.dumps({k: round(v, 3) for k, v in report["scores"].items()}))
    for problem in report["problems"]:
        print("  problem: " + problem.strip().replace("\n", "\n    "))
    missing = [m["name"] for m in wanted if not samples.get(m["name"])]
    if missing:
        print(f"perfbench: no samples for {missing}", file=sys.stderr)
        return 1
    print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>4s}  unit")
    metrics = {}
    for m in wanted:
        med, q1, q3, n = _stats(samples[m["name"]])
        print(f"{m['name']:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {n:4d}  {m['unit']}")
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
