"""Spans recorded from outside the program, and the per-layer metrics.

The benchmark cannot put spans inside `specdet`, so it records them at the
layer boundaries it can reach: around the public calls it makes, and
around every product through `TracedOperator`, which wraps an operator and
records one leaf span per matvec or matmat. Spans stay in memory; a span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from specdet import (DegenerateSpectrumError, LinearOperator, MomentBasis,
                     NormalizedOperator, SparseOperator, UniformPrior,
                     estimate_moments, fit_beta_prior, gershgorin_upper_bound,
                     integrate_log_expectation, moments_to_power, solve)

NAME, PARENT, START, END, FLOPS, BYTES = range(6)


class Tracer:
    """In-memory spans: [name, parent index or -1, start, end, flops, bytes]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _parent(self) -> int:
        return self._open[-1] if self._open else -1

    @contextmanager
    def span(self, name: str, flops: float = 0.0):
        rec = [name, self._parent(), time.perf_counter(), 0.0, flops, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._open.pop()

    def leaf(self, name: str, flops: float, nbytes: float, fn, *args):
        """Call fn(*args) as a span with no children; cheaper than `span`."""
        t0 = time.perf_counter()
        out = fn(*args)
        self.spans.append([name, self._parent(), t0, time.perf_counter(), flops, nbytes])
        return out

    def by_name(self) -> dict:
        """name -> (durations, self times) in seconds, in one pass over the spans."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        out = {}
        for i, s in enumerate(self.spans):
            dur, own = out.setdefault(s[NAME], ([], []))
            dur.append(s[END] - s[START])
            own.append(s[END] - s[START] - covered[i])
        return out

    def descendant_counts(self, root_name: str, leaf_name: str) -> list:
        """Per span named root_name, the number of leaf_name spans under it."""
        top = []
        for s in self.spans:  # a parent is always recorded before its children
            top.append(len(top) if s[PARENT] < 0 else top[s[PARENT]])
        counts = {i: 0 for i, s in enumerate(self.spans)
                  if s[NAME] == root_name and s[PARENT] < 0}
        for i, s in enumerate(self.spans):
            if s[NAME] == leaf_name and top[i] in counts:
                counts[top[i]] += 1
        return list(counts.values())


class TracedOperator(LinearOperator):
    """Delegates to `inner`, recording each product as a leaf span.

    Products return exactly what the inner operator returns, so an estimate
    made through this wrapper is bit-identical to one made without it. The
    flop count is that of the full symmetric product; the bytes are computed
    (operator storage plus one read of X and one write of the result), not
    measured.
    """

    def __init__(self, inner: LinearOperator, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.n = inner.n
        self.symmetric = inner.symmetric
        if isinstance(inner, SparseOperator):
            lower = inner.lower
            full_nnz = 2 * lower.nnz - np.count_nonzero(inner.diagonal())
            self._flops_per_col = 2.0 * full_nnz
            # lower triangle plus the transpose copy the operator keeps
            self._op_bytes = 2.0 * (lower.data.nbytes + lower.indices.nbytes
                                    + lower.indptr.nbytes)
        else:
            self._flops_per_col = 2.0 * inner.n ** 2
            self._op_bytes = 8.0 * inner.n ** 2

    def _product(self, name: str, fn, X: np.ndarray):
        k = 1 if X.ndim == 1 else X.shape[1]
        return self.tracer.leaf(name, self._flops_per_col * k,
                                self._op_bytes + 16.0 * self.n * k, fn, X)

    def matvec(self, x):
        return self._product("linop.matvec", self.inner.matvec, x)

    def matmat(self, X):
        return self._product("linop.matmat", self.inner.matmat, X)

    def abs_row_sums(self):
        return self.tracer.leaf("linop.abs_row_sums", 0.0, 0.0, self.inner.abs_row_sums)

    def diagonal(self):
        return self.inner.diagonal()

    def to_dense(self):
        return self.inner.to_dense()


def maxent_replay(op, cfg, tracer: Tracer):
    """The steps of `logdet_maxent`, each in a span; returns (value, moments, result).

    Written against the public functions in the order `logdet_maxent` calls
    them. The benchmark checks that the value is bit-identical to
    `logdet_maxent`'s, so a change to that pipeline shows up as a failed
    check here rather than as a silently wrong trace. Only the `auto` prior
    choice, the one every workload uses, is replayed.
    """
    if cfg.prior != "auto":
        raise ValueError("the replay covers the auto prior only")
    with tracer.span("maxent"):
        with tracer.span("linop.gershgorin"):
            lam_u = gershgorin_upper_bound(op)
        with tracer.span("probes.moment_pass"):
            moments = estimate_moments(NormalizedOperator(op, lam_u),
                                       MomentBasis(cfg.basis, cfg.m), cfg.d, cfg.seed)
        with tracer.span("maxent.prior_fit"):
            p = moments_to_power(moments)
            try:
                prior = fit_beta_prior(float(p.values[1]), float(p.values[2]))
            except (DegenerateSpectrumError, ValueError):
                prior = UniformPrior()
        solver = cfg.solver
        if cfg.min_eigenvalue is not None and cfg.min_eigenvalue > 0.0:
            solver = replace(solver, floor=max(solver.floor, cfg.min_eigenvalue / lam_u))
        with tracer.span("maxent.solve"):
            result = solve(moments, prior, solver)
        with tracer.span("maxent.integrate"):
            log_expect = integrate_log_expectation(result.density, solver)
    value = op.n * log_expect + op.n * np.log(lam_u)
    return float(value), moments, result


def _median(xs, scale: float = 1.0):
    return statistics.median(xs) * scale if xs else None


def layer_metrics(tracer: Tracer, replays: list, read_mtx_s: float,
                  se_kernel_s: list, untraced_s: float, blas1_gflops: float) -> dict:
    """Per-layer metrics from the spans of a traced run.

    `replays` holds the (moments, solve result) of every traced maxent
    estimate; `untraced_s` is the untraced wall time of the same estimates
    the traced root spans cover.
    """
    ms = 1e3
    t = tracer
    spans = t.by_name()

    def dur(name):
        return spans.get(name, ([], []))[0]

    def own(name):
        return spans.get(name, ([], []))[1]

    products = [s for s in t.spans if s[NAME] == "linop.matmat"]
    rates = [s[FLOPS] / (s[END] - s[START]) / 1e9 for s in products]
    exact = [s[FLOPS] / (s[END] - s[START]) / 1e9 for s in t.spans if s[NAME] == "exact"]
    solve_s = dur("maxent.solve")
    iters = [r.iterations for _, r in replays]
    traced_s = sum(s[END] - s[START] for s in t.spans
                   if s[PARENT] < 0 and s[NAME] != "probes.probe_matrix")
    se = [float(np.sqrt(m.variance[1:] / m.probes).max()) for m, _ in replays]
    out = {
        "synth.se_kernel_ms": (_median(se_kernel_s, ms), "ms"),
        "linop.read_mtx_s": (read_mtx_s, "s"),
        "linop.gershgorin_ms": (_median(dur("linop.gershgorin"), ms), "ms"),
        "linop.matmat_calls.maxent": (_median(t.descendant_counts("maxent", "linop.matmat")), "count"),
        "linop.matmat_calls.taylor": (_median(t.descendant_counts("taylor", "linop.matmat")), "count"),
        "linop.matmat_calls.chebyshev": (_median(t.descendant_counts("chebyshev", "linop.matmat")), "count"),
        "linop.matvec_calls.slq": (_median(t.descendant_counts("slq", "linop.matvec")), "count"),
        "linop.matmat_ms": (_median(dur("linop.matmat"), ms), "ms"),
        "linop.matmat_gflops": (_median(rates), "GFLOP/s"),
        "linop.matmat_gflops_1thread": (blas1_gflops, "GFLOP/s"),
        "linop.matmat_ops_per_byte": (_median([s[FLOPS] / s[BYTES] for s in products]), "flop/B"),
        "probes.probe_matrix_ms": (_median(dur("probes.probe_matrix"), ms), "ms"),
        "probes.moment_pass_ms": (_median(dur("probes.moment_pass"), ms), "ms"),
        "probes.moment_self_ms": (_median(own("probes.moment_pass"), ms), "ms"),
        "probes.moment_se_max": (max(se) if se else None, "1"),
        "maxent.replay_ms": (_median(dur("maxent"), ms), "ms"),
        "maxent.prior_fit_ms": (_median(dur("maxent.prior_fit"), ms), "ms"),
        "maxent.solve_ms": (_median(solve_s, ms), "ms"),
        "maxent.newton_iters": (statistics.mean(iters) if iters else None, "count"),
        "maxent.solve_ms_per_iter": (
            sum(solve_s) * ms / max(sum(iters), 1) if iters else None, "ms"),
        "maxent.integrate_ms": (_median(dur("maxent.integrate"), ms), "ms"),
        "maxent.converged_frac": (
            sum(r.converged for _, r in replays) / len(replays) if replays else None, "ratio"),
        "maxent.grad_norm_max": (max((r.grad_norm for _, r in replays), default=None), "1"),
        "estimators.slq_self_ms": (_median(own("slq"), ms), "ms"),
        "estimators.exact_gflops": (_median(exact), "GFLOP/s"),
        "trace_overhead_frac": (traced_s / untraced_s - 1.0 if untraced_s else None, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def span_table(tracer: Tracer) -> list:
    """Lines summarising spans by name: count, total and self milliseconds."""
    lines = [f"{'span':<24} {'count':>8} {'total_ms':>12} {'self_ms':>12}"]
    for name, (dur, own) in sorted(tracer.by_name().items()):
        lines.append(f"{name:<24} {len(dur):>8} {sum(dur) * 1e3:>12.3f} {sum(own) * 1e3:>12.3f}")
    return lines
