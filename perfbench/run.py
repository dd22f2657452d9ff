"""Benchmark entry point for equicount.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``oracle-compare``, ``ldp-tail`` or ``identity-checks`` (see
``workloads.py`` and ``README.md`` beside this file). Each execution of the
workload runs in a fresh child interpreter pinned to one BLAS/OpenMP thread,
one at a time: a single-client closed loop. Execution k of a run uses the
execution seed N + 1000000 * k, so every execution does the same amount of
work on new inputs, and the first one runs the commands at seed N.
Executions go on until the next one would end after S seconds; at least one
always runs. A few extra children only import ``equicount.cli``, so that
set-up time is a median of several start-ups.

With ``--trace 0`` the last line of output is a JSON object whose metrics are
the end-to-end ones: medians of wall time, CPU time and peak RSS over the
executions, of set-up time over every child, and the time to a 1% result
from the median wall time and the variance pooled over the executions. With
``--trace 1`` each execution seed runs untraced and then traced, and the
metrics are per-layer numbers from the traced executions plus the tracing
overhead. The run checks every gate, and that both executions of one seed
wrote the same bytes; it exits 1 when a check fails. Outputs, traces and a
full result record go to ``.perfbench-out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("oracle-compare", "ldp-tail", "identity-checks")
SETUP_PROBES = 6
SEED_STRIDE = 1_000_000  # execution k of a run has seed N + SEED_STRIDE * k
Z_GATE = 3.0  # acceptance suite: every z below 3
CHILD_TIMEOUT_S = 150.0
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "time_to_1pct_s": "s", "setup_s": "s"}


class ChildFailed(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".ms_" in name:
        return "ms"
    if ".us_per_matrix." in name:
        return "us"
    if name.endswith(("bytes_computed", "output_bytes")):
        return "bytes"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith(("_fraction", "_ratio", "_per_sample")):
        return "ratio"
    return "count"


def launch(spec: dict, env: dict) -> tuple[float, dict | None]:
    """Start one child; return (set-up seconds, its result or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    return setup, (json.loads(out.splitlines()[-1]) if not spec["setup_only"] else None)


def host_environment() -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "git_revision": None,
           "git_dirty": None}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    # Stop git at the repository root so an enclosing repository is never read.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                             capture_output=True, text=True, timeout=30)
        if rev.returncode == 0:
            env["git_revision"] = rev.stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, env=git_env, capture_output=True, text=True,
                                    timeout=30)
            env["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def measure(workload: str, seed: int, seconds: float, trace: bool, out_base: Path):
    """Run the set-up probes and the executions; return (set-ups, results).

    With ``trace`` every execution seed runs twice, untraced then traced, and
    the loop only stops after a whole pair."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    base = {"root": str(ROOT), "workload": workload}
    setups = [launch({**base, "seed": seed, "setup_only": True}, env)[0]
              for _ in range(SETUP_PROBES)]
    per_seed = 2 if trace else 1
    results = []
    start = time.perf_counter()
    while True:
        index = len(results)
        k = index // per_seed
        traced = trace and index % 2 == 1
        spec = {**base, "seed": seed + SEED_STRIDE * k, "setup_only": False, "traced": traced,
                "run_id": f"{workload}-seed{seed}-{index}", "out_dir": str(out_base / str(index))}
        setup, result = launch(spec, env)
        setups.append(setup)
        results.append(result)
        elapsed = time.perf_counter() - start
        if len(results) % per_seed:
            continue
        if elapsed * (len(results) + per_seed) / len(results) > seconds:
            return setups, results


def z_score(gap: float, se: float) -> float:
    return abs(gap) / se if se > 0 else (0.0 if gap == 0 else math.inf)


def z_gates(results: list[dict]) -> dict:
    """The statistical gates, judged on the first execution only.

    z < 3 is a 3-sigma test of one CLI invocation, as in the acceptance
    suite. Judging every execution would multiply its false-alarm rate by
    their number; judging them pooled would test a tighter tolerance than one
    invocation is built to (the dimension lift refines its quadrature only
    down to one invocation's standard error)."""
    gates = {}
    for name, (gap, se) in results[0]["comparisons"].items():
        z = z_score(gap, se)
        gates[name] = {"ok": z < Z_GATE, "value": z}
    return gates


def pooled_z(results: list[dict]) -> dict:
    """For information: each comparison's mean difference over all executions
    in standard errors of that mean."""
    out = {}
    for name in results[0]["comparisons"]:
        pairs = [r["comparisons"][name] for r in results if name in r["comparisons"]]
        out[name] = z_score(statistics.fmean(d for d, _ in pairs),
                      math.sqrt(sum(e * e for _, e in pairs)) / len(pairs))
    return out


def time_to_1pct(results: list[dict]) -> float:
    """Time to bring every statistical result to 1% relative standard error
    at the measured cost, by the 1/sqrt(N) law: per command, the median wall
    time times the relative variance averaged over the executions."""
    total = 0.0
    for name in results[0]["scaled"]:
        scaled = [r["scaled"][name] for r in results if name in r["scaled"]]
        rel_var = statistics.fmean(rel_se ** 2 for _, rel_se in scaled)
        total += statistics.median(wall for wall, _ in scaled) * rel_var / 0.01 ** 2
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "equicount" / "cli.py").is_file():
        print(f"run.py: no equicount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_base = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_base, ignore_errors=True)
    out_base.mkdir(parents=True)
    try:
        setups, results = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_base)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    stat_gates = z_gates(results)
    attempted = sum(r["attempted"] for r in results) + len(stat_gates)
    failed = sum(r["failed"] for r in results) + sum(not g["ok"] for g in stat_gates.values())
    gates_ok = (all(gate["ok"] for r in results for gate in r["gates"].values())
                and all(gate["ok"] for gate in stat_gates.values()))
    # Same seed, same bytes: with tracing on or off (only --trace 1 repeats a seed).
    same_bytes = all(results[i]["digests"] == results[i + 1]["digests"]
                     for i in range(0, len(results) - 1, 2)) if args.trace else None
    correct = gates_ok and same_bytes is not False

    if args.trace:
        traced = results[1::2]
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        # Each traced execution against the untraced one on the same inputs.
        metrics["trace.overhead_ratio"] = statistics.median(
            t["wall_s"] / u["wall_s"] for u, t in zip(results[0::2], traced))
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {name: statistics.median(r[name] for r in results)
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["time_to_1pct_s"] = time_to_1pct(results)
        metrics["setup_s"] = statistics.median(setups)
        units = E2E_UNITS

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "executions": len(results), "setups": setups,
        "correct": correct, "same_bytes": same_bytes, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "metrics": metrics, "gates": {**results[0]["gates"], **stat_gates},
        # --trace 1 runs each seed twice; pool each seed once.
        "pooled_z": pooled_z(results[0::2] if args.trace else results),
        "digests": results[0]["digests"],
        "env": {**host_environment(), **results[0]["env"]},
        "results": results,
    }
    (out_base / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} executions={len(results)} "
          f"setups={len(setups)} same_bytes={same_bytes}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_frac = {record['failed_frac']!r} ({failed}/{attempted})")
    print("gates: " + json.dumps(record["gates"], sort_keys=True))
    print("pooled z (information): " + json.dumps(record["pooled_z"], sort_keys=True))
    print("digests: " + json.dumps(record["digests"], sort_keys=True))
    print("env: " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
