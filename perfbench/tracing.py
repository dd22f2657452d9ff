"""In-memory span and counter tracer that observes equicount from outside.

The tracer replaces public library functions with wrappers at the names the
calling modules resolve them by (for example ``equicount.montecarlo.eigvals_batch``),
so no file under ``src/`` changes. Each wrapped call records one span
``[id, name, start, end, parent]``; every span of one workload execution
shares the tracer's run id. Counts taken from arguments and return values sit
beside the spans. Nothing is written until :meth:`Tracer.write` is called at
the end of the run, and :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Matrix sizes whose eigensolve cost is reported separately; together they
#: cover every size the workloads use, so each traced run reports all of them.
EIG_SIZES = (2, 3, 10, 20, 40)
#: Sizes at which ``ldp-tail`` reports hits.
TAIL_SIZES = (10, 20, 40)
#: ``SampleFlaggedError.reason`` tags the oracle can produce.
FLAG_REASONS = (
    "degenerate-root",
    "alternation-violation",
    "count-not-stabilized",
    "near-zero-jacobian-eigenvalue",
    "euler-characteristic-violation",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``name`` is the span name, or a function of (args, kwargs) giving it.
        ``observe(tracer, args, kwargs, result, span)`` runs after each call
        that returns normally, to take counts from the call.
        """
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), name if isinstance(name, str) else name(args, kwargs),
                    clock(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result, span)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts its calls."""
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            self.count(name)
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        setattr(owner, attr, counted)
        self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)

    # -- reductions over the recorded spans --------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Time in ``name`` spans not covered by their direct child spans."""
        ids = {s[0] for s in self.spans if s[1] == name}
        covered = sum(s[3] - s[2] for s in self.spans if s[4] in ids)
        return self.busy(name) - covered


def tail_percentile(values, q: float) -> float:
    """The q-th percentile, lowered to the highest one that still has at least
    ten samples beyond it; 0.0 when fewer than eleven samples exist."""
    k = len(values)
    if k < 11:
        return 0.0
    q = min(q, 100.0 * (1.0 - 10.0 / k))
    return float(np.percentile(values, q))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each measured layer."""
    from equicount import cli, montecarlo, sampling, special_functions, sphere_field

    def on_sample(t, args, kwargs, result, span):
        t.count("gee.sample.matrices", result.shape[0])
        t.count("gee.sample.bytes_computed", result.nbytes)

    def on_eig(t, args, kwargs, result, span):
        batch, n, _ = args[0].shape
        t.count("gee.eig.matrices", batch)
        t.count("gee.eig.flops_computed", 10 * n**3 * batch)
        t.count(f"gee.eig.matrices.n{n}", batch)
        t.count(f"gee.eig.s.n{n}", span[3] - span[2])

    def on_moments(t, args, kwargs, result, span):
        values = args[1]
        t.count("sampling.moments.values", values.size)
        t.count("sampling.moments.nonzero", int(np.count_nonzero(values)))

    def on_tail(t, args, kwargs, result, span):
        for point in result:
            t.count(f"montecarlo.tail.hits.n{point.n}", point.hits)

    def on_lift(t, args, kwargs, result, span):
        panels = result.quadrature_panels
        t.count("montecarlo.lift.panels", panels)
        t.count("montecarlo.lift.node_evals_computed", 16 * (2 * panels - 1) * kwargs["n_trials"])

    def on_roots(kind):
        def observe(t, args, kwargs, result, span):
            t.count(f"sphere_field.{kind}.roots", len(result))
        return observe

    def on_oracle(t, args, kwargs, result, span):
        t.count("sphere_field.samples", result.n_samples)
        t.count("sphere_field.retained", result.n_retained)
        for reason, k in result.flag_reasons.items():
            t.count(f"sphere_field.flagged.{reason}", k)

    def potential_kind(args, kwargs):
        x, y, tau = args[:3]
        inside = (x / (1.0 + tau)) ** 2 + (y / (1.0 - tau)) ** 2 < 1.0
        return "special_functions.log_potential." + ("interior" if inside else "exterior")

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(montecarlo, "sample_gee_entries", "gee.sample", on_sample)
    tracer.wrap(montecarlo, "eigvals_batch", "gee.eig", on_eig)
    for module in (montecarlo, sphere_field):
        tracer.wrap(module, "substream", "sampling.substream")
    tracer.wrap(sampling.RunningMoments, "add", "sampling.moments", on_moments)
    tracer.wrap(cli, "estimate_equilibria_count", "montecarlo.estimate")
    tracer.wrap(cli, "empirical_tail_rate", "montecarlo.tail", on_tail)
    tracer.wrap(cli, "verify_dimension_lift", "montecarlo.lift", on_lift)
    tracer.wrap(cli, "oracle_mean_counts", "sphere_field.oracle", on_oracle)
    tracer.wrap(sphere_field, "sample_field", "sphere_field.sample_field")
    tracer.wrap(sphere_field, "find_equilibria_circle", "sphere_field.circle", on_roots("circle"))
    tracer.wrap(sphere_field, "find_equilibria_sphere", "sphere_field.sphere", on_roots("sphere"))
    tracer.wrap(sphere_field, "icosphere_vertices", "sphere_field.icosphere")
    tracer.wrap(special_functions, "log_potential", potential_kind)
    # Thousands of calls per potential: counted, not spanned.
    tracer.count_calls(special_functions, "adaptive_quadrature",
                       "special_functions.adaptive_quadrature.calls")


def layer_metrics(tracer: Tracer, wall_s: float, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload execution."""
    c = tracer.counts.get
    out: dict[str, float] = {}

    out["gee.sample.calls"] = len(tracer.durations("gee.sample"))
    out["gee.sample.busy_s"] = tracer.busy("gee.sample")
    out["gee.sample.matrices"] = c("gee.sample.matrices", 0)
    out["gee.sample.bytes_computed"] = c("gee.sample.bytes_computed", 0)
    out["gee.eig.calls"] = len(tracer.durations("gee.eig"))
    out["gee.eig.busy_s"] = tracer.busy("gee.eig")
    out["gee.eig.matrices"] = c("gee.eig.matrices", 0)
    for n in EIG_SIZES:
        matrices = c(f"gee.eig.matrices.n{n}", 0)
        out[f"gee.eig.us_per_matrix.n{n}"] = 1e6 * c(f"gee.eig.s.n{n}", 0.0) / matrices if matrices else 0.0
    out["gee.eig.flops_computed"] = c("gee.eig.flops_computed", 0)

    out["sampling.substreams"] = len(tracer.durations("sampling.substream"))
    out["sampling.substream.busy_s"] = tracer.busy("sampling.substream")
    out["sampling.moments.busy_s"] = tracer.busy("sampling.moments")
    out["sampling.moments.values"] = c("sampling.moments.values", 0)

    for layer in ("estimate", "tail", "lift"):
        out[f"montecarlo.{layer}.busy_s"] = tracer.busy(f"montecarlo.{layer}")
        out[f"montecarlo.{layer}.self_s"] = tracer.self_time(f"montecarlo.{layer}")
    for n in TAIL_SIZES:
        out[f"montecarlo.tail.hits.n{n}"] = c(f"montecarlo.tail.hits.n{n}", 0)
    out["montecarlo.lift.panels"] = c("montecarlo.lift.panels", 0)
    out["montecarlo.lift.node_evals_computed"] = c("montecarlo.lift.node_evals_computed", 0)
    values = c("sampling.moments.values", 0)
    out["montecarlo.hit_fraction"] = c("sampling.moments.nonzero", 0) / values if values else 0.0

    out["sphere_field.sample_field.busy_s"] = tracer.busy("sphere_field.sample_field")
    for kind in ("circle", "sphere"):
        ms = [1e3 * d for d in tracer.durations(f"sphere_field.{kind}")]
        out[f"sphere_field.{kind}.busy_s"] = 1e-3 * sum(ms)
        out[f"sphere_field.{kind}.samples"] = len(ms)
        out[f"sphere_field.{kind}.ms_p50"] = tail_percentile(ms, 50)
        out[f"sphere_field.{kind}.ms_p95"] = tail_percentile(ms, 95)
        out[f"sphere_field.{kind}.roots_per_sample"] = (
            c(f"sphere_field.{kind}.roots", 0) / len(ms) if ms else 0.0)
    spheres = out["sphere_field.sphere.samples"]
    out["sphere_field.sphere.mesh_levels_per_sample"] = (
        len(tracer.durations("sphere_field.icosphere")) / spheres if spheres else 0.0)
    out["sphere_field.oracle.self_s"] = tracer.self_time("sphere_field.oracle")
    samples = c("sphere_field.samples", 0)
    out["sphere_field.retained_fraction"] = c("sphere_field.retained", 0) / samples if samples else 0.0
    for reason in FLAG_REASONS:
        out[f"sphere_field.flagged.{reason}"] = c(f"sphere_field.flagged.{reason}", 0)

    for kind in ("exterior", "interior"):
        ms = [1e3 * d for d in tracer.durations(f"special_functions.log_potential.{kind}")]
        prefix = f"special_functions.log_potential.{kind}"
        out[f"{prefix}.calls"] = len(ms)
        out[f"{prefix}.busy_s"] = 1e-3 * sum(ms)
        out[f"{prefix}.ms_p50"] = tail_percentile(ms, 50)
        out[f"{prefix}.ms_p95"] = tail_percentile(ms, 95)
    out["special_functions.adaptive_quadrature.calls"] = c("special_functions.adaptive_quadrature.calls", 0)

    out["cli.self_s"] = tracer.self_time("cli.main")
    out["cli.output_bytes"] = output_bytes

    out["trace.wall_s"] = wall_s
    out["trace.spans"] = len(tracer.spans)
    return out


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Share of traced workload wall time spent in each layer: busy time, or
    self time for the layers that call other measured layers."""
    wall = metrics["trace.wall_s"]
    names = ("gee.sample.busy_s", "gee.eig.busy_s", "sampling.substream.busy_s",
             "sampling.moments.busy_s", "montecarlo.estimate.self_s", "montecarlo.tail.self_s",
             "montecarlo.lift.self_s", "sphere_field.sample_field.busy_s",
             "sphere_field.circle.busy_s", "sphere_field.sphere.busy_s",
             "sphere_field.oracle.self_s", "special_functions.log_potential.exterior.busy_s",
             "special_functions.log_potential.interior.busy_s", "cli.self_s")
    return {name: metrics[name] / wall for name in names}
