"""One workload execution in a fresh interpreter, started by ``run.py``.

Usage: ``python3 perfbench/child.py '<json spec>'``. The process prints
``ready`` once ``equicount.cli`` is imported (the parent times set-up up to
that line), then, unless the spec asks for set-up only, runs the workload and
prints one JSON line with its measurements.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    # BLAS and OpenMP read these once, when numpy loads them.
    unpinned = [var for var in THREAD_VARS if os.environ.get(var) != "1"]
    if unpinned:
        print(f"child: {', '.join(unpinned)} must be 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import equicount.cli  # noqa: F401  (the set-up being timed)

    print("ready", flush=True)
    if spec["setup_only"]:
        return 0

    import tracing
    import workloads

    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True)
    tracer = None
    if spec["traced"]:
        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        outcome = workloads.WORKLOADS[spec["workload"]](spec["seed"], out_dir)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,  # Linux reports KiB
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "gates": outcome.gates,
        "comparisons": outcome.comparisons,
        "scaled": outcome.scaled,
        "digests": outcome.digests,
        "env": environment(),
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, wall, outcome.output_bytes)
        result["layers"] = layers
        result["shares"] = tracing.layer_shares(layers)
        tracer.write(out_dir / "trace.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
