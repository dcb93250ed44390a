"""Measurement, checks and reporting for one benchmark run; see run.py."""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checks
import machine
from specdet import (DenseOperator, KernelSpec, logdet_chebyshev, logdet_exact,
                     logdet_lanczos, logdet_maxent, logdet_taylor, probe_matrix,
                     se_kernel)
from spans import Tracer, TracedOperator, layer_metrics, maxent_replay, span_table
from workloads import ALL, POLY, WORKLOADS, rel_error, timed

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# CPUs a one-thread run moves between, one pass on each in turn; see Measurement.run.
PIN_CPUS = 2
# Shape of the single-threaded BLAS baseline when a workload has no dense cell.
DEFAULT_PRODUCT = (2000, 50)


def _estimator(fn):
    """(value, converged) of one estimate by fn."""
    def run(op, cfg):
        est = fn(op, cfg)
        return est.value, est.converged
    return run


ESTIMATORS = {"maxent": _estimator(logdet_maxent), "taylor": _estimator(logdet_taylor),
              "chebyshev": _estimator(logdet_chebyshev), "slq": _estimator(logdet_lanczos),
              "exact": lambda op, cfg: (logdet_exact(op), True)}


def tail(samples: list) -> str:
    """The highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        beyond = math.floor(len(ordered) * (1.0 - p / 100.0))
        if beyond >= 10:
            return f"p{p:g}={ordered[len(ordered) - beyond - 1] * 1e3:.3f}ms"
    return "no tail percentile has 10 samples beyond it"


class Measurement:
    """Timed, checked estimates over the workload's cells, set up afresh per pass."""

    def __init__(self, workload, inputs, timings: dict, cpus: list):
        self.workload = workload
        self.inputs = inputs
        self.timings = timings
        self.cpus = cpus  # empty: the run is not pinned
        self.cpu = None
        self.setup_s = []  # (CPU or None, seconds)
        self.cells = None
        self._place(0)
        self.setup()
        self.seconds = {m: [] for m in ESTIMATORS}  # (cell index, seconds)
        self.first = {}  # (cell index, method) -> value from the first pass
        self.attempted = 0
        self.failures = []
        self.replays = []
        self.untraced_s = 0.0

    def _place(self, k: int):
        """Pin the process to the k-th of `cpus`, cycling; no-op if not pinned."""
        if self.cpus:
            self.cpu = self.cpus[k % len(self.cpus)]
            os.sched_setaffinity(0, {self.cpu})

    def setup(self):
        """Build the cells afresh from the inputs, timed as one `setup_s` sample."""
        self.cells = None  # free the previous set before building the next
        t0 = time.perf_counter()
        self.cells = self.workload.setup(self.inputs, self.timings)
        self.setup_s.append((self.cpu, time.perf_counter() - t0))

    def check(self, failures: list):
        """Count one run-level check, failed if it returned messages."""
        self.attempted += 1
        self.failures += failures[:1]
        for msg in failures:
            print(f"check failed: {msg}", file=sys.stderr)

    def _fail(self, msg: str):
        self.failures.append(msg)
        print(f"check failed: {msg}", file=sys.stderr)

    def estimate(self, i: int, method: str):
        """One untraced estimate, timed and checked; returns its value or None."""
        cell = self.cells[i]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            value, converged = ESTIMATORS[method](cell.op, cell.cfg)
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            self._fail(f"{cell.label} {method} raised {exc!r}")
            return None
        self.seconds[method].append((i, time.perf_counter() - t0))
        if not math.isfinite(value):
            self._fail(f"{cell.label} {method} returned {value!r}")
        elif not converged:
            self._fail(f"{cell.label} {method} did not converge")
        elif self.first.setdefault((i, method), value) != value:
            self._fail(f"{cell.label} {method} gave {value!r}, first pass "
                       f"{self.first[(i, method)]!r}")
        else:
            return value
        return None

    def traced(self, i: int, method: str, tracer, expected: float):
        """The same estimate through the tracer; it must be bit-identical."""
        cell = self.cells[i]
        self.attempted += 1
        op = TracedOperator(cell.op, tracer)
        try:
            if method == "maxent":
                value, moments, result = maxent_replay(op, cell.cfg, tracer)
                self.replays.append((moments, result))
            elif method == "exact":
                with tracer.span("exact", flops=cell.op.n ** 3 / 3.0):
                    value = logdet_exact(cell.op)
            else:
                with tracer.span(method):
                    value = ESTIMATORS[method](op, cell.cfg)[0]
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            self._fail(f"{cell.label} traced {method} raised {exc!r}")
            return
        if value != expected:
            self._fail(f"{cell.label} traced {method} gave {value!r}, untraced {expected!r}")

    def run(self, seconds: float, one_pass) -> int:
        """Repeat passes until another would end after `seconds`; at least one.

        Each pass after the first runs on cells set up afresh. `setup_s` is
        then sampled across the whole run: set-ups repeated back to back
        fell into one of the host's slow spells of a few seconds together,
        and their median doubled in one run out of five.

        A one-thread run also moves to the next of `cpus` before each pass.
        On the shared host this was tuned on, one of the two vCPUs at a
        time often ran Python code at half speed for minutes (a set-up took
        0.13 s pinned to one and 0.25 s pinned to the other), so a run that
        stayed where the scheduler put it measured that CPU.
        """
        start = time.perf_counter()
        passes = 0
        while True:
            t0 = time.perf_counter()
            if passes:
                self._place(passes)
                self.setup()
            one_pass()
            passes += 1
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                return passes

    def untraced_pass(self):
        for i, cell in enumerate(self.cells):
            for method in cell.methods:
                for _ in range(cell.repeats):
                    self.estimate(i, method)

    def traced_pass(self, tracer):
        for i, cell in enumerate(self.cells):
            if cell.cfg is not None:
                with tracer.span("probes.probe_matrix"):
                    probe_matrix(cell.op.n, cell.cfg.d, cell.cfg.seed)
            for method in cell.methods:
                value = self.estimate(i, method)
                if value is not None:
                    self.untraced_s += self.seconds[method][-1][1]
                    self.traced(i, method, tracer, value)

    def rel_errors(self) -> dict:
        """Relative error of each first-pass estimate, checked against the ceilings."""
        errs = {m: [] for m in ESTIMATORS}
        for (i, method), value in sorted(self.first.items()):
            cell = self.cells[i]
            ref = cell.reference
            if ref is None:
                if method == "exact":
                    continue  # the oracle is its own reference
                ref = self.first.get((i, "exact"))
                if ref is None:
                    continue  # the oracle failed, which is already counted
            err = rel_error(value, ref)
            errs[method].append(err)
            if not err <= self.workload.ceilings[method]:
                self._fail(f"{cell.label} {method} relative error {err:.3g} above the "
                           f"ceiling {self.workload.ceilings[method]}")
        return errs


def _fmt(value) -> str:
    return "n/a" if value is None else repr(float(value))


def _by_cell(samples: list) -> dict:
    by_cell = {}
    for i, s in samples:
        by_cell.setdefault(i, []).append(s)
    return by_cell


def per_estimate_ms(samples: list):
    """Mean over cells of each cell's fastest time, in milliseconds.

    The estimates are deterministic CPU work, so a slower repeat of the same
    estimate measures interference, not the program. The shared host this
    was tuned on has slow spells of a few seconds (a fixed BLAS and Python
    loop took 290 ms at rest and up to 420 ms in them, with no steal time),
    which moved per-run medians by up to a third between runs of the same
    code; the fastest repeat is not moved by them. Cells differ in cost
    (sparse-mtx holds two matrices), so each cell is reduced on its own.
    """
    by_cell = _by_cell(samples)
    if not by_cell:
        return None
    return statistics.mean(min(v) for v in by_cell.values()) * 1e3


def setup_seconds(samples: list) -> float:
    """Median set-up time on the CPU where that median is lowest."""
    return min(statistics.median(v) for v in _by_cell(samples).values())


def median_ms(samples: list) -> float:
    """Mean over cells of each cell's median time, in milliseconds."""
    return statistics.mean(statistics.median(v) for v in _by_cell(samples).values()) * 1e3


def end_to_end(m: Measurement) -> dict:
    errs = m.rel_errors()
    out = {"setup_s": (setup_seconds(m.setup_s), "s", len(m.setup_s))}
    for method in ALL:
        out[f"{method}_ms"] = (per_estimate_ms(m.seconds[method]), "ms", len(m.seconds[method]))
    maxent, exact = out["maxent_ms"][0], out["exact_ms"][0]
    out["maxent_vs_exact"] = (maxent / exact if maxent and exact else None, "ratio",
                              min(len(m.seconds["maxent"]), len(m.seconds["exact"])))
    for method in POLY:
        e = errs[method]
        out[f"{method}_rel_err"] = (statistics.mean(e) if e else None, "ratio", len(e))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    return out


def main(argv, root: Path, one_thread: bool) -> int:
    """Run one workload; `root` is the checkout, where temporary files go.

    `one_thread`: the workload runs on one thread, so it is pinned to one
    CPU at a time and moved between the first PIN_CPUS it may use.
    """
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    record = machine.describe(args.seed)
    print("machine: " + " ".join(f"{k}={v}" for k, v in record.items()))
    print(f"workload: {workload.name}")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        tmp = Path(tmp)
        inputs = workload.prepare(args.seed, tmp)
        timings = {}
        cpus = sorted(os.sched_getaffinity(0))[:PIN_CPUS] if one_thread else []
        m = Measurement(workload, inputs, timings, cpus)
        failures, laplacian_path = checks.closed_forms(tmp, timings)
        m.check(failures)
        dense = next((c.op for c in m.cells if isinstance(c.op, DenseOperator)), None)
        if dense is None:
            dense = timed(timings, "synth.se_kernel", se_kernel,
                          KernelSpec(n=256, seed=args.seed))
        m.check(checks.slogdet_agrees(dense))
        m.check(checks.cli_matches_library(laplacian_path, args.seed))
        dense = None  # so that the next set-up can free this set

        if args.trace:
            tracer = Tracer()
            passes = m.run(args.seconds, lambda: m.traced_pass(tracer))
        else:
            passes = m.run(args.seconds, m.untraced_pass)
            for i in range(len(m.cells)):
                if (i, "maxent") in m.first:
                    m.traced(i, "maxent", Tracer(), m.first[(i, "maxent")])

    print(f"passes: {passes} over {len(m.cells)} cells")
    if args.trace:
        dense_cell = next((c for c in m.cells if isinstance(c.op, DenseOperator)), None)
        shape = (dense_cell.op.n, dense_cell.cfg.d) if dense_cell else DEFAULT_PRODUCT
        m.rel_errors()  # the accuracy ceilings are checked in traced runs too
        if "linop.read_mtx" in timings:
            read_mtx_s = sum(timings["linop.read_mtx"]) / len(m.setup_s)
        else:  # workloads that read no file: the two 900-node check files
            read_mtx_s = sum(timings["check.read_mtx"])
        metrics = layer_metrics(tracer, m.replays, read_mtx_s,
                                timings.get("synth.se_kernel", []), m.untraced_s,
                                machine.single_thread_gflops(*shape))
        print("\n".join(span_table(tracer)))
        for name, v in metrics.items():
            print(f"{name:<32} {_fmt(v['value']):>24} {v['unit']}")
    else:
        table = end_to_end(m)
        for name, (value, unit, n) in table.items():
            timed_samples = m.seconds.get(name[:-3], [])
            samples = [s for _, s in timed_samples]
            extra = (f"  median={median_ms(timed_samples):.3f}ms {tail(samples)}"
                     if samples else "")
            print(f"{name:<18} {_fmt(value):>24} {unit:<6} n={n}{extra}")
        failed_frac = len(m.failures) / m.attempted
        print(f"{'failed_frac':<18} {_fmt(failed_frac):>24} {'ratio':<6} n={m.attempted}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in table.items()}

    correct = not m.failures
    print(json.dumps({"correct": correct, "attempted": m.attempted,
                      "failed": len(m.failures), "metrics": metrics}), flush=True)
    return 0 if correct else 1

