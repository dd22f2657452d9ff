"""Command-line interface: experiment orchestration and CSV/JSON emission.

Determinism: identical invocations produce byte-identical data files. Data
files never carry timestamps; a run timestamp goes to a ``<out>.log`` sidecar
when writing to a file. Every output embeds the resolved parameters (and the
derived (tau, b) where applicable) so results are self-describing.

Exit codes: 0 success, 2 parameter-constraint violation, 3 failed statistical
gate (z >= 3 in verification commands), 4 I/O error, 5 insufficient support
(too few contributing trials for the gate to mean anything), 6 numerical
failure (an eigensolver or quadrature failure, or every field sample flagged).

Seeding: the master seed (--seed, default from EQUICOUNT_SEED or 0) is mapped
to a per-command stream, which estimators split into per-batch substreams by
index. Reimplementations can match trial counts, though not bit streams.

Serialization of infinities: CSV uses the literals "inf" / "-inf"; JSON uses
the tagged form {"kind": "-inf"} rather than a sentinel float.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import time

import numpy as np

try:
    import resource
except ImportError:  # Windows
    resource = None

from . import __version__
from .errors import ConstraintError, DomainError, EquicountError
from .montecarlo import (
    MIN_HITS,
    IntervalB,
    _eig_batches,
    eig_workers,
    empirical_spectral_test,
    empirical_tail_rate,
    estimate_equilibria_count,
    verify_dimension_lift,
)
from .rates import (
    ModelParams,
    derive_tau_b,
    multiplier_cutoff,
    rate_diverging_index,
    rate_fixed_index,
    rate_lagrange_window,
    threshold_tau,
)
from .sampling import derive_seed, z_score
from .sphere_field import field_model_params, oracle_mean_counts

#: Stable per-command stream indices (part of the seeding contract).
_COMMAND_STREAMS = {
    "rates": 0,
    "threshold-curve": 1,
    "s-gamma": 2,
    "sample-gee": 3,
    "spectral-test": 4,
    "estimate": 5,
    "verify-uppingdim": 6,
    "oracle-compare": 7,
    "ldp-tail": 8,
    "lagrange-rates": 9,
}

Z_GATE = 3.0

#: Exit codes other than 0 (success); argparse's usage error also exits 2.
EXIT_CONSTRAINT = 2
EXIT_GATE_FAILED = 3
EXIT_IO_ERROR = 4
EXIT_NO_SUPPORT = 5
EXIT_NUMERICAL = 6

#: Thread-count variables of BLAS and OpenMP, recorded in the sidecar log.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _json_cell(value):
    """JSON encoding of a table cell: infinities become tagged objects."""
    if isinstance(value, float) and math.isinf(value):
        return {"kind": "-inf" if value < 0 else "inf"}
    return value


def _fmt(value: float) -> str:
    """CSV cell for a float; infinities as bare literals."""
    if math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return repr(float(value))


def _parse_extended(text: str) -> float:
    if text in ("-inf", "-infinity"):
        return -math.inf
    if text in ("inf", "infinity", "+inf"):
        return math.inf
    return float(text)


def _parse_grid(text: str) -> np.ndarray:
    """start:stop:count inclusive grid of at least one point."""
    try:
        start, stop, count = text.split(":")
        grid = np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise DomainError(f"bad grid spec {text!r}; expected start:stop:count") from exc
    if grid.size < 1:
        raise DomainError(f"bad grid spec {text!r}; requires count >= 1")
    return grid


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise DomainError(f"bad --n-list {text!r}; expected comma-separated integers") from exc
    if not values:
        raise DomainError(f"bad --n-list {text!r}; expected at least one size")
    return values


def _require_at_least(command: str, flag: str, value: int, bound: int) -> None:
    """Reject a size below its bound; called before a command does any work."""
    if value < bound:
        raise DomainError(f"{command} requires {flag} >= {bound}, got {value}")


def _write_output(out_path: str | None, payload, sidecar=()) -> None:
    """Write ``payload``, a string or an iterable of string chunks written as
    they come, to ``out_path`` (stdout if None). A file gets a ``.log``
    sidecar with the run's environment, then the ``sidecar`` lines.

    The first chunk is made before the file is opened, and a file whose
    later chunks fail is removed: a data file is whole or absent.
    """
    chunks = iter((payload,) if isinstance(payload, str) else payload)
    first = next(chunks, "")
    if out_path is None:
        sys.stdout.writelines(itertools.chain((first,), chunks))
        return
    with open(out_path, "w") as fh:
        try:
            fh.writelines(itertools.chain((first,), chunks))
        except BaseException:
            fh.close()
            os.remove(out_path)
            raise
    with open(out_path + ".log", "w") as log:
        log.write(f"written at {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")
        log.write(f"eigensolve workers at n >= 4: {eig_workers(4)}\n")
        for var in _THREAD_VARS:
            log.write(f"{var}={os.environ.get(var, '(unset)')}\n")
        if resource is not None:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            kib = usage.ru_maxrss / (1024 if sys.platform == "darwin" else 1)
            log.write(f"peak resident memory MiB: {kib / 1024:.1f}\n"
                      f"cpu seconds: {usage.ru_utime + usage.ru_stime:.2f}\n")
        log.writelines(line + "\n" for line in sidecar)


def _csv_chunks(config: dict, header: list[str], batches):
    """CSV text in chunks: one per batch of typed rows, the first carrying the
    config comment and the header. Floats (numpy's too) go through the
    infinity-aware formatter, None is an empty cell, anything else its str()."""
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for rows in batches:
        writer.writerows([_fmt(v) if isinstance(v, float) else v for v in row] for row in rows)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()
    if buf.tell():
        yield buf.getvalue()


def _emit_record(args, op: str, params: dict, sidecar=(), **fields) -> None:
    """Write one JSON record: the command, its resolved parameters and its
    results, plus the master seed (when the command takes one) and the version."""
    record = {"op": op, "params": params, **fields, "version": __version__}
    if hasattr(args, "seed"):
        record["seed"] = args.seed
    _write_output(args.out, json.dumps(record, sort_keys=True, indent=2) + "\n", sidecar)


def _emit_table(args, command: str, config: dict, header: list[str], batches) -> None:
    """Write batches of typed rows as CSV (default), one batch at a time, or
    as the JSON record schema, which holds every row in memory; infinite
    floats take the tagged encoding in JSON.
    """
    if getattr(args, "format", "csv") == "csv":
        _write_output(args.out, _csv_chunks(config, header, batches))
        return
    results = [dict(zip(header, map(_json_cell, row))) for rows in batches for row in rows]
    _emit_record(args, command, config, results=results)


def _model_params(args) -> ModelParams:
    return ModelParams(phi1=args.phi1, dphi1=args.dphi1, phi2=args.phi2, sigma2=args.sigma2)


# ---------------------------------------------------------------------------
# Command implementations (each returns an exit code)
# ---------------------------------------------------------------------------


def _cmd_rates(args) -> int:
    if (args.b is None and args.b_grid is None) or (args.tau is None and args.tau_grid is None):
        raise DomainError("rates needs --b or --b-grid, and --tau or --tau-grid")
    bs = _parse_grid(args.b_grid) if args.b_grid else [args.b]
    taus = _parse_grid(args.tau_grid) if args.tau_grid else [args.tau]
    gammas = _parse_grid(args.gamma_grid) if args.gamma_grid else None
    config = {
        "command": "rates", "b": args.b, "tau": args.tau, "m": args.m,
        "b_grid": args.b_grid, "tau_grid": args.tau_grid, "gamma_grid": args.gamma_grid,
    }
    rows = []
    for b in bs:
        for tau in taus:
            if gammas is None:
                result = rate_fixed_index(float(b), float(tau))
                rows.append([float(b), float(tau), None, result.branch, result.rate])
            else:
                for gamma in gammas:
                    result = rate_diverging_index(float(b), float(tau), float(gamma))
                    rows.append([float(b), float(tau), float(gamma), result.branch, result.rate])
    _emit_table(args, "rates", config, ["b", "tau", "gamma_or_c", "branch", "rate"], [rows])
    return 0


def _cmd_threshold_curve(args) -> int:
    grid = _parse_grid(args.b_grid)
    config = {"command": "threshold-curve", "b_grid": args.b_grid}
    rows = []
    for b in grid:
        tau = threshold_tau(float(b))
        rows.append([float(b), tau, rate_fixed_index(float(b), tau).rate])
    _emit_table(args, "threshold-curve", config, ["b", "tau_threshold", "rate_at_threshold"], [rows])
    return 0


def _cmd_s_gamma(args) -> int:
    from .ellipse import tail_mass, tail_quantile

    s = tail_quantile(args.gamma, args.tau, tol=args.tol)
    config = {"command": "s-gamma", "gamma": args.gamma, "tau": args.tau, "tol": args.tol}
    rows = [[args.gamma, args.tau, s, float(tail_mass(s, args.tau))]]
    _emit_table(args, "s-gamma", config, ["gamma", "tau", "s_gamma", "tail_mass"], [rows])
    return 0


def _cmd_sample_gee(args) -> int:
    _require_at_least("sample-gee", "--n", args.n, 1)
    _require_at_least("sample-gee", "--trials", args.trials, 1)
    seed = derive_seed(args.seed, _COMMAND_STREAMS["sample-gee"])
    config = {
        "command": "sample-gee", "n": args.n, "tau": args.tau,
        "trials": args.trials, "seed": args.seed,
    }

    def batches():
        trial = 0
        for values, is_real in _eig_batches(args.n, args.tau, args.trials, seed, 1024):
            rows = []
            for t in range(values.shape[0]):
                for j in range(args.n):
                    rows.append([
                        trial, j + 1,
                        float(values[t, j].real), float(values[t, j].imag),
                        int(is_real[t, j]),
                    ])
                trial += 1
            yield rows

    _emit_table(args, "sample-gee", config, ["trial_index", "j", "re", "im", "is_real"], batches())
    return 0


def _cmd_spectral_test(args) -> int:
    _require_at_least("spectral-test", "--trials", args.trials, 1)
    seed = derive_seed(args.seed, _COMMAND_STREAMS["spectral-test"])
    ks = empirical_spectral_test(args.n, args.tau, args.trials, seed)
    params = {"n": args.n, "tau": args.tau, "trials": args.trials}
    _emit_record(args, "spectral-test", params, ks_distance=ks)
    return 0


def _cmd_estimate(args) -> int:
    _require_at_least("estimate", "--trials", args.trials, 1)
    if not 0 <= args.m <= args.n - 1:
        raise DomainError(f"requires 0 <= m <= n-1, got m={args.m}, n={args.n}")
    p = _model_params(args)
    tau, b = derive_tau_b(p)
    seed = derive_seed(args.seed, _COMMAND_STREAMS["estimate"])
    window = IntervalB(_parse_extended(args.lo), _parse_extended(args.hi))
    counts = estimate_equilibria_count(args.n, p, window, n_trials=args.trials, seed=seed)
    est = counts.per_m[args.m]
    params = {
        "n": args.n, "m": args.m, "phi1": args.phi1, "dphi1": args.dphi1,
        "phi2": args.phi2, "sigma2": args.sigma2, "lo": _fmt(window.lo),
        "hi": _fmt(window.hi), "trials": args.trials, "tau": tau, "b": b,
    }
    _emit_record(args, "estimate", params, mean=est.mean, stderr=est.stderr, n_trials=est.n_trials)
    return 0


def _cmd_verify_uppingdim(args) -> int:
    # One trial has no standard error, so its z-score would pass vacuously.
    _require_at_least("verify-uppingdim", "--trials", args.trials, 2)
    seed = derive_seed(args.seed, _COMMAND_STREAMS["verify-uppingdim"])
    report = verify_dimension_lift(
        args.n, args.m, args.tau, IntervalB(args.lo, args.hi),
        n_trials=args.trials, seed=seed,
    )
    params = {
        "n": args.n, "m": args.m, "tau": args.tau,
        "lo": args.lo, "hi": args.hi, "trials": args.trials,
    }
    results = [
        {"side": "lhs", "mean": report.lhs.mean, "stderr": report.lhs.stderr},
        {"side": "rhs", "mean": report.rhs.mean, "stderr": report.rhs.stderr},
    ]
    _emit_record(args, "verify-uppingdim", params, results=results, z_score=report.z_score)
    # A window the spectra rarely reach gives two near-zero sides whose
    # z-score passes vacuously. Each right-side reading must carry its own
    # support, so pairing does not loosen the gate.
    if min(report.lhs_support, report.rhs_support, report.rhs_mirror_support) < MIN_HITS:
        print(f"equicount: verify-uppingdim gate lacks support: {report.lhs_support} lhs and "
              f"{report.rhs_support} rhs contributing trials, {report.rhs_mirror_support} on "
              f"the rhs mirror reading; needs >= {MIN_HITS} on each",
              file=sys.stderr)
        return EXIT_NO_SUPPORT
    return 0 if report.z_score < Z_GATE else EXIT_GATE_FAILED


def _cmd_oracle_compare(args) -> int:
    # One sample has no oracle standard error to gate on.
    _require_at_least("oracle-compare", "--samples", args.samples, 2)
    _require_at_least("oracle-compare", "--trials", args.trials, 1)
    p = field_model_params(args.sigma2)
    tau, b = derive_tau_b(p)
    seed = derive_seed(args.seed, _COMMAND_STREAMS["oracle-compare"])
    collected = [] if args.dump_equilibria else None
    oracle = oracle_mean_counts(
        args.n, args.sigma2, args.samples, derive_seed(seed, 0), collect=collected
    )
    if args.dump_equilibria:
        config = {
            "command": "oracle-compare/equilibria", "n": args.n,
            "sigma2": args.sigma2, "samples": args.samples, "seed": args.seed,
        }
        header = ["sample_index", "eq_index", "m", "lagrange"]
        header += [f"x{i}" for i in range(args.n)] + ["residual"]
        rows = [
            [sample_index, eq_index, eq.m, eq.lagrange, *eq.position, eq.residual]
            for sample_index, group in itertools.groupby(collected, key=lambda item: item[0])
            for eq_index, (_, eq) in enumerate(group)
        ]
        _write_output(args.dump_equilibria, _csv_chunks(config, header, [rows]))
    counts = estimate_equilibria_count(args.n, p, n_trials=args.trials, seed=derive_seed(seed, 1))
    comparisons = []
    for m, est in enumerate(counts.per_m):
        ref = oracle.per_m[m]
        comparisons.append({
            "m": m, "estimate": est.mean, "estimate_stderr": est.stderr,
            "oracle": ref.mean, "oracle_stderr": ref.stderr, "z_score": z_score(est, ref),
        })
    total = {
        "estimate": counts.total.mean, "estimate_stderr": counts.total.stderr,
        "oracle": oracle.total.mean, "oracle_stderr": oracle.total.stderr,
        "z_score": z_score(counts.total, oracle.total),
    }
    worst = max(row["z_score"] for row in comparisons + [total])
    params = {
        "n": args.n, "sigma2": args.sigma2, "samples": args.samples,
        "trials": args.trials, "tau": tau, "b": b,
    }
    _emit_record(
        args, "oracle-compare", params,
        sidecar=[f"flagged {reason}: {k}" for reason, k in sorted(oracle.flag_reasons.items())],
        results=comparisons, total=total, flagged_rate=oracle.flagged_rate,
    )
    return 0 if worst < Z_GATE else EXIT_GATE_FAILED


def _cmd_ldp_tail(args) -> int:
    _require_at_least("ldp-tail", "--trials", args.trials, 1)
    seed = derive_seed(args.seed, _COMMAND_STREAMS["ldp-tail"])
    points = empirical_tail_rate(
        _parse_int_list(args.n_list), args.m, args.x, args.tau, args.trials, seed
    )
    config = {
        "command": "ldp-tail", "n_list": args.n_list, "m": args.m,
        "x": args.x, "tau": args.tau, "trials": args.trials, "seed": args.seed,
    }
    rows = [
        [pt.n, pt.rate_hat, pt.reference, pt.hits, int(not pt.sufficient)]
        for pt in points
    ]
    _emit_table(args, "ldp-tail", config, ["n", "rate_hat", "reference", "hits", "flagged"], [rows])
    return 0


def _cmd_lagrange_rates(args) -> int:
    c = _parse_extended(args.c)
    d = _parse_extended(args.d)
    result = rate_lagrange_window(args.b, args.tau, args.dphi1, args.m, c, d)
    config = {
        "command": "lagrange-rates", "b": args.b, "tau": args.tau,
        "dphi1": args.dphi1, "m": args.m, "c": args.c, "d": args.d,
    }
    rows = [[args.b, args.tau, c, result.branch, result.rate]]
    if args.with_cutoff:
        z0 = multiplier_cutoff(args.b, args.tau, args.dphi1, args.m)
        rows.append([args.b, args.tau, z0, "cutoff", 0.0])
    _emit_table(args, "lagrange-rates", config, ["b", "tau", "gamma_or_c", "branch", "rate"], [rows])
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equicount",
        description="Equilibrium-count rates and elliptic-ensemble verification experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    default_seed = int(os.environ.get("EQUICOUNT_SEED", "0"))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, trials_default=100_000):
        sp.add_argument("--seed", type=int, default=default_seed)
        sp.add_argument("--trials", type=int, default=trials_default)
        sp.add_argument("--out", default=None, help="output path (stdout if omitted)")

    sp = sub.add_parser("rates", help="fixed- or proportional-index rate table")
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--m", type=int, default=0, help="index (the fixed-index rate does not depend on it)")
    sp.add_argument("--b-grid", default=None, help="start:stop:count; overrides --b")
    sp.add_argument("--tau-grid", default=None, help="start:stop:count; overrides --tau")
    sp.add_argument("--gamma-grid", default=None,
                    help="start:stop:count of index fractions; switches to the diverging-index rate")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_rates)

    sp = sub.add_parser("threshold-curve", help="zero-rate curve tau(b) over a b grid")
    sp.add_argument("--b-grid", required=True, help="start:stop:count")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_threshold_curve)

    sp = sub.add_parser("s-gamma", help="tail quantile of the ellipse-law real marginal")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_s_gamma)

    sp = sub.add_parser("sample-gee", help="dump ordered spectra of sampled matrices")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--tau", type=float, required=True)
    common(sp, trials_default=100)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_sample_gee)

    sp = sub.add_parser("spectral-test", help="elliptic-law sup-distance check")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--tau", type=float, required=True)
    common(sp, trials_default=50)
    sp.set_defaults(func=_cmd_spectral_test)

    sp = sub.add_parser("estimate", help="mean equilibrium count via the ensemble estimator")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--phi1", type=float, required=True)
    sp.add_argument("--dphi1", type=float, required=True)
    sp.add_argument("--phi2", type=float, required=True)
    sp.add_argument("--sigma2", type=float, required=True)
    sp.add_argument("--lo", default="-inf")
    sp.add_argument("--hi", default="inf")
    common(sp)
    sp.set_defaults(func=_cmd_estimate)

    sp = sub.add_parser("verify-uppingdim", help="dimension-lift identity check (gate: z < 3)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--lo", type=float, default=1.0)
    sp.add_argument("--hi", type=float, default=1.4)
    common(sp)
    sp.set_defaults(func=_cmd_verify_uppingdim)

    sp = sub.add_parser("oracle-compare", help="ensemble estimator vs brute-force sphere count")
    sp.add_argument("--n", type=int, choices=(2, 3), required=True)
    sp.add_argument("--sigma2", type=float, required=True)
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--dump-equilibria", default=None, metavar="PATH",
                    help="also write every retained equilibrium as CSV")
    common(sp)
    sp.set_defaults(func=_cmd_oracle_compare)

    sp = sub.add_parser("ldp-tail", help="empirical tail rates across matrix sizes")
    sp.add_argument("--n-list", required=True, help="comma-separated sizes, e.g. 10,20,40")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--tau", type=float, required=True)
    common(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_ldp_tail)

    sp = sub.add_parser("lagrange-rates", help="multiplier-window rate and optional cutoff")
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--dphi1", type=float, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--c", default="-inf", help="window start; -inf for minus infinity")
    sp.add_argument("--d", default="inf")
    sp.add_argument("--with-cutoff", action="store_true")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_lagrange_rates)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join each negative number, or grid spec starting with one, to the
    --option in front of it ("--tau=-1e-05", "--tau-grid=-0.2:0.5:5").

    argparse takes "-1e-05", "-inf" or "-0.2:0.5:5" standing alone for an
    option; the commands have no positional arguments, so such a token can
    only be the value of the option before it.
    """
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and len(prev) > 2 and "=" not in prev and token.startswith("-"):
            try:
                float(token.split(":")[0])
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={token}"
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ConstraintError, DomainError) as exc:
        print(f"equicount: parameter constraint violated: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except OSError as exc:
        print(f"equicount: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except EquicountError as exc:
        # Past the parameter errors, the package raises only numerical
        # failures: EigensolverError, QuadratureToleranceError and
        # SampleFlaggedError (every field sample flagged).
        print(f"equicount: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
