"""Command-line interface: experiment orchestration and CSV/JSON emission.

Determinism: identical invocations produce byte-identical data files. Data
files never carry timestamps; a run timestamp goes to a ``<out>.log`` sidecar
when writing to a file. Every output embeds its parameters, so results are
self-describing: the parsed arguments less those that say where or how output
goes, plus the derived (tau, b) where applicable. A JSON record moves the
command to ``op`` and the master seed to the top level.

Exit codes: 0 success, 2 parameter-constraint violation or usage error (a
non-numeric or non-finite value among them), 3 failed statistical
gate (z >= 3 in verification commands), 4 I/O error, 5 insufficient support
(too few contributing trials for the gate to mean anything), 6 numerical
failure (an eigensolver or quadrature failure, or every field sample flagged).

Seeding: the master seed (--seed, else EQUICOUNT_SEED, else 0; exit 2 if
not an integer) is mapped to a per-command stream, which estimators split
into per-batch substreams by index. Reimplementations can match trial
counts, though not bit streams.

Serialization of infinities: CSV cells use the literals "inf" / "-inf"; every
JSON object, CSV config comments included, uses the tagged form
{"kind": "-inf"} rather than a sentinel float.
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
from .sphere_field import DIRECTION_FINDERS, field_model_params, oracle_mean_counts

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

#: Parsed arguments that say where or how output goes; the rest are parameters.
_OUTPUT_ARGS = ("func", "out", "format", "dump_equilibria")


def _json_cell(value):
    """JSON encoding of a cell or parameter: infinities become tagged objects."""
    if isinstance(value, float) and math.isinf(value):
        return {"kind": "-inf" if value < 0 else "inf"}
    return value


def _fmt(value: float) -> str:
    """CSV cell for a float; infinities as bare literals."""
    if math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return repr(float(value))


def _parse_grid(text: str) -> np.ndarray:
    """start:stop:count inclusive grid of at least one point, between finite ends."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise DomainError(f"bad grid spec {text!r}; expected start:stop:count") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"bad grid spec {text!r}; requires finite start and stop")
    if count < 1:
        raise DomainError(f"bad grid spec {text!r}; requires count >= 1")
    return np.linspace(start, stop, count)


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


def _params(args, derived=()) -> dict:
    """A command's parameters: its parsed arguments less ``_OUTPUT_ARGS``,
    plus the ``derived`` values, with infinities tagged."""
    params = {k: v for k, v in vars(args).items() if k not in _OUTPUT_ARGS}
    params.update(derived)
    return {k: _json_cell(v) for k, v in params.items()}


def _emit_record(args, derived=(), sidecar=(), **fields) -> None:
    """Write one JSON record: the command as ``op``, its parameters (plus the
    ``derived`` ones) and its results, the master seed (when the command takes
    one) and the version."""
    params = _params(args, derived)
    record = {"op": params.pop("command"), "params": params, **fields, "version": __version__}
    if "seed" in params:
        record["seed"] = params.pop("seed")
    _write_output(args.out, json.dumps(record, sort_keys=True, indent=2) + "\n", sidecar)


def _emit_table(args, header: list[str], batches, sidecar=()) -> None:
    """Write batches of typed rows as CSV (default), one batch at a time, or
    as the JSON record schema, which holds every row in memory; infinite
    floats take the tagged encoding in JSON. ``sidecar`` lines go to the
    ``.log`` sidecar.
    """
    if args.format == "csv":
        _write_output(args.out, _csv_chunks(_params(args), header, batches), sidecar)
        return
    results = [dict(zip(header, map(_json_cell, row))) for rows in batches for row in rows]
    _emit_record(args, sidecar=sidecar, results=results)


# ---------------------------------------------------------------------------
# Command implementations (each returns an exit code)
# ---------------------------------------------------------------------------


def _cmd_rates(args) -> int:
    if (args.b is None and args.b_grid is None) or (args.tau is None and args.tau_grid is None):
        raise DomainError("rates needs --b or --b-grid, and --tau or --tau-grid")
    bs = _parse_grid(args.b_grid) if args.b_grid else [args.b]
    taus = _parse_grid(args.tau_grid) if args.tau_grid else [args.tau]
    gammas = _parse_grid(args.gamma_grid) if args.gamma_grid else None
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
    _emit_table(args, ["b", "tau", "gamma_or_c", "branch", "rate"], [rows])
    return 0


def _cmd_threshold_curve(args) -> int:
    grid = _parse_grid(args.b_grid)
    rows = []
    for b in grid:
        tau = threshold_tau(float(b))
        rows.append([float(b), tau, rate_fixed_index(float(b), tau).rate])
    _emit_table(args, ["b", "tau_threshold", "rate_at_threshold"], [rows])
    return 0


def _cmd_s_gamma(args) -> int:
    from .ellipse import tail_mass, tail_quantile

    s = tail_quantile(args.gamma, args.tau, tol=args.tol)
    rows = [[args.gamma, args.tau, s, float(tail_mass(s, args.tau))]]
    _emit_table(args, ["gamma", "tau", "s_gamma", "tail_mass"], [rows])
    return 0


def _cmd_sample_gee(args) -> int:
    _require_at_least("sample-gee", "--n", args.n, 1)
    _require_at_least("sample-gee", "--trials", args.trials, 1)
    seed = derive_seed(args.seed, _COMMAND_STREAMS["sample-gee"])

    def batches():
        trial = 0
        spectra = _eig_batches(args.n, args.tau, args.trials, seed,
                               lambda values, is_real: (values, is_real), 1024)
        for values, is_real in spectra:
            count = values.shape[0]
            yield zip(
                np.repeat(np.arange(trial, trial + count), args.n).tolist(),
                np.tile(np.arange(1, args.n + 1), count).tolist(),
                values.real.ravel().tolist(), values.imag.ravel().tolist(),
                is_real.ravel().astype(int).tolist(),
            )
            trial += count

    _emit_table(args, ["trial_index", "j", "re", "im", "is_real"], batches())
    return 0


def _cmd_spectral_test(args) -> int:
    _require_at_least("spectral-test", "--trials", args.trials, 1)
    seed = derive_seed(args.seed, _COMMAND_STREAMS["spectral-test"])
    ks = empirical_spectral_test(args.n, args.tau, args.trials, seed)
    _emit_record(args, ks_distance=ks)
    return 0


def _cmd_estimate(args) -> int:
    _require_at_least("estimate", "--trials", args.trials, 1)
    if not 0 <= args.m <= args.n - 1:
        raise DomainError(f"requires 0 <= m <= n-1, got m={args.m}, n={args.n}")
    p = ModelParams(phi1=args.phi1, dphi1=args.dphi1, phi2=args.phi2, sigma2=args.sigma2)
    tau, b = derive_tau_b(p)
    seed = derive_seed(args.seed, _COMMAND_STREAMS["estimate"])
    window = IntervalB(args.lo, args.hi)
    counts = estimate_equilibria_count(args.n, p, window, n_trials=args.trials, seed=seed)
    est = counts.per_m[args.m]
    _emit_record(args, {"tau": tau, "b": b},
                 mean=est.mean, stderr=est.stderr, n_trials=est.n_trials)
    return 0


def _cmd_verify_uppingdim(args) -> int:
    # One trial has no standard error, so its z-score would pass vacuously.
    _require_at_least("verify-uppingdim", "--trials", args.trials, 2)
    seed = derive_seed(args.seed, _COMMAND_STREAMS["verify-uppingdim"])
    report = verify_dimension_lift(
        args.n, args.m, args.tau, IntervalB(args.lo, args.hi),
        n_trials=args.trials, seed=seed,
    )
    results = [
        {"side": "lhs", "mean": report.lhs.mean, "stderr": report.lhs.stderr},
        {"side": "rhs", "mean": report.rhs.mean, "stderr": report.rhs.stderr},
    ]
    _emit_record(args, results=results, z_score=report.z_score)
    # A window the spectra rarely reach gives two near-zero sides whose
    # z-score passes vacuously. Support is an effective sample size, since
    # every real right-side reading has a nonzero value, and each right-side
    # reading must carry its own, so pairing does not loosen the gate.
    if min(report.lhs_support, report.rhs_support, report.rhs_mirror_support) < MIN_HITS:
        print(f"equicount: verify-uppingdim gate lacks support: effective sample sizes "
              f"{report.lhs_support:g} lhs and {report.rhs_support:g} rhs, "
              f"{report.rhs_mirror_support:g} on the rhs mirror reading; needs >= {MIN_HITS} "
              f"on each", file=sys.stderr)
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
        config = {"command": "oracle-compare/equilibria", "n": args.n, "sigma2": args.sigma2,
                  "samples": args.samples, "seed": args.seed}
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
    _emit_record(
        args, {"tau": tau, "b": b},
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
    rows = [[pt.n, pt.rate_hat, pt.reference, pt.hits, int(not pt.sufficient)] for pt in points]
    sidecar = [f"n={pt.n}: eigensolved {pt.eigensolved} of {pt.n_trials}" for pt in points]
    _emit_table(args, ["n", "rate_hat", "reference", "hits", "flagged"], [rows], sidecar)
    return 0


def _cmd_lagrange_rates(args) -> int:
    result = rate_lagrange_window(args.b, args.tau, args.dphi1, args.m, args.c, args.d)
    rows = [[args.b, args.tau, args.c, result.branch, result.rate]]
    if args.with_cutoff:
        z0 = multiplier_cutoff(args.b, args.tau, args.dphi1, args.m)
        rows.append([args.b, args.tau, z0, "cutoff", 0.0])
    _emit_table(args, ["b", "tau", "gamma_or_c", "branch", "rate"], [rows])
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
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer (--seed, or EQUICOUNT_SEED without it)") from None

    def finite(text: str) -> float:
        # Every float option but the window ends, which may be infinite, has this type.
        value = float(text)  # argparse reports a ValueError as "invalid finite value"
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
        return value

    def command(name, func, help, table=False, trials=None):
        """A subparser with the options shared across commands: --out always,
        --format for table commands, --seed and --trials for sampling ones."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        sp.add_argument("--out", default=None, help="output path (stdout if omitted)")
        if table:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if trials is not None:
            # argparse type-converts a string default only when --seed is absent.
            sp.add_argument("--seed", type=seed, default=os.environ.get("EQUICOUNT_SEED", "0"))
            sp.add_argument("--trials", type=int, default=trials)
        return sp

    sp = command("rates", _cmd_rates, "fixed- or proportional-index rate table", table=True)
    sp.add_argument("--b", type=finite, default=None)
    sp.add_argument("--tau", type=finite, default=None)
    sp.add_argument("--m", type=int, default=0, help="index (the fixed-index rate does not depend on it)")
    sp.add_argument("--b-grid", default=None, help="start:stop:count; overrides --b")
    sp.add_argument("--tau-grid", default=None, help="start:stop:count; overrides --tau")
    sp.add_argument("--gamma-grid", default=None,
                    help="start:stop:count of index fractions; switches to the diverging-index rate")

    sp = command("threshold-curve", _cmd_threshold_curve,
                 "zero-rate curve tau(b) over a b grid", table=True)
    sp.add_argument("--b-grid", required=True, help="start:stop:count")

    sp = command("s-gamma", _cmd_s_gamma,
                 "tail quantile of the ellipse-law real marginal", table=True)
    sp.add_argument("--gamma", type=finite, required=True)
    sp.add_argument("--tau", type=finite, required=True)
    sp.add_argument("--tol", type=finite, default=1e-12)

    sp = command("sample-gee", _cmd_sample_gee, "dump ordered spectra of sampled matrices",
                 table=True, trials=100)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--tau", type=finite, required=True)

    sp = command("spectral-test", _cmd_spectral_test, "elliptic-law sup-distance check", trials=50)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--tau", type=finite, required=True)

    sp = command("estimate", _cmd_estimate, "mean equilibrium count via the ensemble estimator",
                 trials=100_000)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    for name in ("--phi1", "--dphi1", "--phi2", "--sigma2"):
        sp.add_argument(name, type=finite, required=True)
    sp.add_argument("--lo", type=float, default=-math.inf)
    sp.add_argument("--hi", type=float, default=math.inf)

    sp = command("verify-uppingdim", _cmd_verify_uppingdim,
                 "dimension-lift identity check (gate: z < 3)", trials=100_000)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--tau", type=finite, required=True)
    sp.add_argument("--lo", type=finite, default=1.0)
    sp.add_argument("--hi", type=finite, default=1.4)

    sp = command("oracle-compare", _cmd_oracle_compare,
                 "ensemble estimator vs brute-force sphere count", trials=100_000)
    sp.add_argument("--n", type=int, choices=DIRECTION_FINDERS, required=True)
    sp.add_argument("--sigma2", type=finite, required=True)
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--dump-equilibria", default=None, metavar="PATH",
                    help="also write every retained equilibrium as CSV")

    sp = command("ldp-tail", _cmd_ldp_tail, "empirical tail rates across matrix sizes",
                 table=True, trials=100_000)
    sp.add_argument("--n-list", required=True, help="comma-separated sizes, e.g. 10,20,40")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--x", type=finite, required=True)
    sp.add_argument("--tau", type=finite, required=True)

    sp = command("lagrange-rates", _cmd_lagrange_rates,
                 "multiplier-window rate and optional cutoff", table=True)
    sp.add_argument("--b", type=finite, required=True)
    sp.add_argument("--tau", type=finite, required=True)
    sp.add_argument("--dphi1", type=finite, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--c", type=float, default=-math.inf, help="window start; -inf for minus infinity")
    sp.add_argument("--d", type=float, default=math.inf)
    sp.add_argument("--with-cutoff", action="store_true")

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
