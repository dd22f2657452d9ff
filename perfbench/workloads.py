"""The benchmark workloads: README CLI commands run in-process, with their gates.

Each workload builds its inputs from an execution seed, runs them through
``equicount.cli.main`` (and, for ``identity-checks``, the public
``log_potential``), checks the outputs that are exact with the acceptance
suite's thresholds, and reports:

* ``attempted`` / ``failed`` operations (flagged field samples, tail points
  with fewer than 30 hits, failed identity gates; a CLI error exit fails
  every operation of that command);
* ``comparisons``: for each statistical comparison, the difference of its two
  sides and the standard error of that difference. ``run.py`` gates their
  z-scores on the first execution of a run, so each comparison is judged once
  per run, and reports them pooled over the run for information;
* ``scaled``: each statistical command's wall time and relative standard
  error, from which ``run.py`` computes ``time_to_1pct_s``;
* the sha256 of every data file the commands write.

Sizes are fixed per workload: every execution does the same amount of work,
and the same execution seed writes the same bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MIN_TAIL_HITS = 30  # acceptance suite: at least 30 hits per tail point
EXTERIOR_REL_TOL = 1e-6  # acceptance criterion 03
INTERIOR_ABS_TOL = 1e-9  # |psi + 1/2| on the support of the ellipse law

ORACLE_SAMPLES = {3: 150, 2: 150}
ORACLE_TRIALS = 50_000
TAIL_X = 1.2
TAIL_TRIALS = 8192
LIFT_TRIALS = 500_000
LIFT_TAU = 0.3
EXTERIOR_TAUS = (-0.5, 0.3, 0.9)
INTERIOR_POINTS = 24


@dataclass
class Outcome:
    """What one execution of a workload produced."""

    attempted: int = 0
    failed: int = 0
    gates: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    output_bytes: int = 0
    # comparison name -> [difference, standard error of the difference]
    comparisons: dict = field(default_factory=dict)
    # statistical command -> [wall seconds, relative standard error]
    scaled: dict = field(default_factory=dict)


def _run_cli(cli, argv: list[str], out: Path, outcome: Outcome) -> tuple[int, float]:
    """Run one CLI command writing to ``out``; record its digest and size."""
    start = time.perf_counter()
    rc = cli.main(argv + ["--out", str(out)])
    wall = time.perf_counter() - start
    if out.exists():
        data = out.read_bytes()
        outcome.digests[out.name] = hashlib.sha256(data).hexdigest()
        outcome.output_bytes += len(data)
    return rc, wall


def oracle_compare(seed: int, out_dir: Path) -> Outcome:
    """Brute-force root counts on the 2-sphere, then the circle, against the
    ensemble estimator."""
    from equicount import cli

    outcome = Outcome()
    for n, samples in ORACLE_SAMPLES.items():
        argv = ["oracle-compare", "--n", str(n), "--sigma2", "0.25", "--samples", str(samples),
                "--trials", str(ORACLE_TRIALS), "--seed", str(seed)]
        out = out_dir / f"oracle-compare-n{n}.json"
        rc, wall = _run_cli(cli, argv, out, outcome)
        outcome.attempted += samples
        # Exit 3 only says that a z reached 3; run.py judges the z-scores.
        if rc not in (0, 3):
            outcome.failed += samples
            outcome.gates[f"n{n}.exit"] = {"ok": False, "value": rc}
            continue
        record = json.loads(out.read_text())
        outcome.failed += round(record["flagged_rate"] * samples)
        for r in record["results"]:
            outcome.comparisons[f"n{n}.m{r['m']}.z"] = [
                r["estimate"] - r["oracle"], math.hypot(r["estimate_stderr"], r["oracle_stderr"])]
        # The CLI reports the total's z but not its combined standard error;
        # z = |estimate - oracle| / se recovers it (z = 0 has probability zero).
        total = record["total"]
        gap = total["estimate"] - total["oracle"]
        combined_se = abs(gap) / total["z_score"]
        outcome.comparisons[f"n{n}.total.z"] = [gap, combined_se]
        outcome.scaled[f"oracle-compare.n{n}"] = [wall, combined_se / total["oracle"]]
    return outcome


def ldp_tail(seed: int, out_dir: Path) -> Outcome:
    """Rare-event tail hits of the rank-1 eigenvalue at n = 10, 20, 40."""
    from equicount import cli

    outcome = Outcome()
    argv = ["ldp-tail", "--n-list", "10,20,40", "--m", "1", "--x", str(TAIL_X), "--tau", "0",
            "--trials", str(TAIL_TRIALS), "--seed", str(seed)]
    out = out_dir / "ldp-tail.csv"
    rc, wall = _run_cli(cli, argv, out, outcome)
    outcome.attempted += 3
    if rc != 0:
        outcome.failed += 3
        outcome.gates["exit"] = {"ok": False, "value": rc}
        return outcome
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    for row in rows:
        hits = int(row["hits"])
        ok = hits >= MIN_TAIL_HITS
        outcome.failed += not ok
        outcome.gates[f"hits.n{row['n']}"] = {"ok": ok, "value": hits}
    hits = int(rows[-1]["hits"])
    if hits:
        outcome.scaled["ldp-tail.n40"] = [wall, math.sqrt((1.0 - hits / TAIL_TRIALS) / hits)]
    return outcome


def interior_points(seed: int, tau: float, count: int) -> list[tuple[float, float]]:
    """Points strictly inside the ellipse with semi-axes (1+tau, 1-tau) and
    0 < y < 1 - tau, one per equal-area ring (so every seed spreads its
    points from the centre to the edge) at a random angle in (0, pi)."""
    rng = np.random.default_rng([seed, 1])
    radii = np.sqrt((np.arange(count) + rng.uniform(0.0, 1.0, count)) / count)
    angles = rng.uniform(0.0, math.pi, count)
    return [((1.0 + tau) * r * math.cos(a), (1.0 - tau) * r * math.sin(a))
            for r, a in zip(radii, angles) if 0.0 < r < 1.0 and 0.0 < a < math.pi]


def identity_checks(seed: int, out_dir: Path) -> Outcome:
    """The dimension-lift identity, then the logarithmic potential against
    its closed form outside the ellipse and its equilibrium value inside."""
    from equicount import cli, special_functions
    from equicount.errors import EquicountError

    outcome = Outcome()
    argv = ["verify-uppingdim", "--n", "3", "--m", "1", "--tau", str(LIFT_TAU),
            "--trials", str(LIFT_TRIALS), "--seed", str(seed)]
    out = out_dir / "verify-uppingdim.json"
    rc, wall = _run_cli(cli, argv, out, outcome)
    if rc not in (0, 3):
        outcome.gates["lift.exit"] = {"ok": False, "value": rc}
    else:
        record = json.loads(out.read_text())
        lhs, rhs = record["results"]
        se = math.hypot(lhs["stderr"], rhs["stderr"])
        outcome.comparisons["lift.z"] = [lhs["mean"] - rhs["mean"], se]
        outcome.scaled["verify-uppingdim"] = [wall, se / rhs["mean"]]

    spec = special_functions.QuadratureSpec()

    def exterior_error(x: float, tau: float) -> float:
        closed = x * x / (2.0 * (1.0 + tau)) - 0.5 - special_functions.rate_function(x, tau)
        return abs(special_functions.log_potential(x, 0.0, tau, spec) - closed) / abs(closed)

    def interior_error(x: float, y: float) -> float:
        phi = special_functions.log_potential(x, y, LIFT_TAU, spec)
        return abs(phi - x * x / (2.0 * (1.0 + LIFT_TAU)) - y * y / (2.0 * (1.0 - LIFT_TAU)) + 0.5)

    exterior = [(float(x), tau) for tau in EXTERIOR_TAUS for x in np.linspace(1.0 + tau, 4.0, 9)]
    interior = interior_points(seed, LIFT_TAU, INTERIOR_POINTS)
    checks = (
        ("exterior.rel_err", exterior_error, exterior, lambda worst: worst < EXTERIOR_REL_TOL),
        ("interior.abs_err", interior_error, interior, lambda worst: worst <= INTERIOR_ABS_TOL),
    )
    for gate, error, points, passes in checks:
        try:
            worst = max(error(*point) for point in points)
        except EquicountError as exc:
            outcome.gates[gate] = {"ok": False, "value": str(exc)}
        else:
            outcome.gates[gate] = {"ok": bool(passes(worst)), "value": float(worst)}

    outcome.attempted = 3
    outcome.failed = sum(not gate["ok"] for gate in outcome.gates.values())
    return outcome


WORKLOADS = {
    "oracle-compare": oracle_compare,
    "ldp-tail": ldp_tail,
    "identity-checks": identity_checks,
}
