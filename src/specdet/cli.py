"""Command-line harness: single estimates, benchmark sweeps, raw moments.

Exit codes: 0 ok, 2 usage, 3 input parse failure, 4 numerical failure,
5 estimator flagged non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .estimators import (EstimatorConfig, NotPositiveDefiniteError,
                         condition_number_estimate, estimate_logdet,
                         logdet_exact)
from .linop import MatrixMarketError, identity, read_matrix_market
from .maxent import SolverConfig
from .probes import MomentBasis, estimate_moments
from .linop import normalize
from .synth import KernelSpec, se_kernel

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERICAL = 4
EXIT_NONCONVERGED = 5

# what an estimate can raise on input that parsed but cannot be estimated
_NUMERICAL_ERRORS = (NotPositiveDefiniteError, ValueError, RuntimeError, OverflowError)

METHODS = ("maxent", "taylor", "chebyshev", "lanczos", "exact")

CSV_COLUMNS = [
    "dataset", "n", "kappa", "lengthscale", "method", "m", "d", "seed",
    "estimate", "exact", "rel_error", "wall_time_ms", "error",
]


@dataclass
class BenchRecord:
    dataset: str
    n: int
    kappa: float | None
    lengthscale: float | None
    method: str
    m: int
    d: int
    seed: int
    estimate: float | None
    exact: float | None
    rel_error: float | None
    wall_time_ms: float | None
    error: str = ""


def _parse_kernel_spec(text: str, seed: int) -> KernelSpec:
    kwargs = {"n": 1000, "dim": 6, "lengthscale": 0.5, "seed": seed}
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad --se-kernel item {item!r}; expected key=value")
        key, val = item.split("=", 1)
        key = {"l": "lengthscale", "scale": "input_scale"}.get(key, key)
        if key in ("n", "dim", "seed"):
            kwargs[key] = int(val)
        elif key in ("lengthscale", "noise", "input_scale"):
            kwargs[key] = float(val)
        else:
            raise ValueError(f"unknown --se-kernel key {key!r}")
    return KernelSpec(**kwargs)


def _load_operator(args) -> tuple:
    """Returns (operator, dataset label, lengthscale or None, min-eig hint)."""
    sources = [s for s in (args.mtx, args.se_kernel, args.identity) if s is not None]
    if len(sources) != 1:
        raise ValueError("exactly one of --mtx, --se-kernel, --identity is required")
    if args.mtx is not None:
        return read_matrix_market(args.mtx), args.mtx, None, None
    if args.identity is not None:
        return identity(args.identity), f"identity-{args.identity}", None, None
    spec = _parse_kernel_spec(args.se_kernel, args.seed)
    # the diagonal jitter is a certified lower bound on the spectrum
    return se_kernel(spec), f"se-kernel-l={spec.lengthscale}", spec.lengthscale, spec.noise


def _estimator_config(args, min_eig_hint: float | None = None) -> EstimatorConfig:
    """The estimator flags as a config; ValueError names an out-of-range one."""
    solver = SolverConfig(gtol=args.gtol, jitter=args.jitter)
    min_eig = args.min_eig if args.min_eig is not None else min_eig_hint
    return EstimatorConfig(m=args.moments, d=args.probes, seed=args.seed,
                           basis=args.basis, prior=args.prior, solver=solver,
                           min_eigenvalue=min_eig)


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _add_estimator_flags(p: argparse.ArgumentParser, probes: int):
    p.add_argument("-m", "--moments", type=int, default=30)
    p.add_argument("-d", "--probes", type=int, default=probes)
    p.add_argument("--basis", choices=("power", "chebyshev", "legendre"),
                   default="chebyshev")
    p.add_argument("--prior", choices=("uniform", "beta", "auto"), default="auto")
    p.add_argument("--gtol", type=float, default=1e-6)
    p.add_argument("--jitter", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-eig", type=float, default=None, metavar="LAMBDA",
                   help="known lower bound on the spectrum (defaults to the "
                        "diagonal noise for synthetic kernels)")


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--mtx", metavar="PATH", help="coordinate symmetric Matrix Market file")
    p.add_argument("--se-kernel", metavar="KEY=VAL[,KEY=VAL...]",
                   help="synthetic SE kernel, keys: n,dim,l,noise,scale,seed")
    p.add_argument("--identity", type=int, metavar="N", help="identity matrix of size N")
    _add_estimator_flags(p, probes=30)


def _rel_error(est: float, exact: float) -> float:
    if exact == 0.0:
        return abs(est - exact)
    return abs(est - exact) / abs(exact)


def cmd_logdet(args) -> int:
    try:
        op, dataset, _, min_eig = _load_operator(args)
    except (MatrixMarketError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        cfg = _estimator_config(args, min_eig)
    except ValueError as exc:
        return _usage_error(exc)
    try:
        est = estimate_logdet(op, args.method, cfg)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.json:
        print(json.dumps({"dataset": dataset, **asdict(est)}))
    else:
        print(f"logdet[{est.method}] = {est.value:.10g}   "
              f"(n={op.n}, m={est.m}, d={est.d}, seed={est.seed}, "
              f"lambda_u={est.lambda_u:.6g}, {est.wall_time_ms:.1f} ms)")
    if not est.converged:
        print("warning: solver did not reach the gradient tolerance; "
              f"final grad norm {est.grad_norm:.3e}", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_moments(args) -> int:
    try:
        op, dataset, _, _ = _load_operator(args)
    except (MatrixMarketError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        moments = estimate_moments(normalize(op), MomentBasis(args.basis, args.moments),
                                   args.probes, args.seed)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.json:
        print(json.dumps({
            "dataset": dataset, "basis": args.basis, "m": args.moments,
            "d": args.probes, "seed": args.seed,
            "values": moments.values.tolist(),
            "variance": moments.variance.tolist(),
        }))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["i", "value", "variance"])
        for i, (v, s) in enumerate(zip(moments.values, moments.variance)):
            writer.writerow([i, repr(v), repr(s)])
    return EXIT_OK


def _bench_case(op, dataset, lengthscale, min_eig, method, args) -> BenchRecord:
    cfg = _estimator_config(args, min_eig)
    record = BenchRecord(
        dataset=dataset, n=op.n, kappa=None, lengthscale=lengthscale,
        method=method, m=cfg.m, d=cfg.d, seed=cfg.seed,
        estimate=None, exact=None, rel_error=None, wall_time_ms=None,
    )
    try:
        if args.kappa:
            record.kappa = condition_number_estimate(op, seed=cfg.seed)
        t0 = time.perf_counter()
        est = estimate_logdet(op, method, cfg)
        record.estimate = est.value
        record.wall_time_ms = (time.perf_counter() - t0) * 1e3
        if op.n <= args.exact_guard:
            record.exact = logdet_exact(op)
            record.rel_error = _rel_error(est.value, record.exact)
        if not est.converged:
            record.error = "non-converged"
    except _NUMERICAL_ERRORS as exc:
        record.error = str(exc)
    return record


def cmd_bench(args) -> int:
    methods = [m for m in args.methods.split(",") if m]
    if not methods:
        return _usage_error("empty methods list")
    for m in methods:
        if m not in METHODS:
            return _usage_error(f"unknown method {m!r}")
    try:
        _estimator_config(args)  # out-of-range flags fail before any case is built
    except ValueError as exc:
        return _usage_error(exc)

    cases = []
    if args.lengthscales:
        for l_txt in args.lengthscales.split(","):
            l = float(l_txt)
            spec = KernelSpec(n=args.n, dim=args.dim, lengthscale=l,
                              seed=args.seed, input_scale=args.input_scale)
            cases.append((se_kernel(spec), f"se-kernel-l={l}", l, spec.noise))
    for path in args.files:
        try:
            cases.append((read_matrix_market(path), path, None, None))
        except (MatrixMarketError, OSError) as exc:
            print(f"error reading {path}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    if not cases:
        return _usage_error("no benchmark cases (need --lengthscales or files)")

    records = [
        _bench_case(op, dataset, l, min_eig, method, args)
        for op, dataset, l, min_eig in cases
        for method in methods
    ]

    rows = [{k: ("" if v is None else v) for k, v in asdict(r).items()} for r in records]
    out = open(args.csv, "w", newline="") if args.csv else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.csv:
            out.close()
    if args.json:
        print(json.dumps([asdict(r) for r in records]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logdet",
        description="Log-determinant estimation for symmetric PD matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate one log determinant")
    _add_common_flags(p_est)
    p_est.add_argument("--method", choices=METHODS, default="maxent")
    p_est.add_argument("--json", action="store_true")
    p_est.set_defaults(fn=cmd_logdet)

    p_mom = sub.add_parser("moments", help="print estimated spectral moments")
    _add_common_flags(p_mom)
    p_mom.add_argument("--json", action="store_true")
    p_mom.set_defaults(fn=cmd_moments)

    p_bench = sub.add_parser("bench", help="benchmark sweep to CSV")
    p_bench.add_argument("files", nargs="*", help="Matrix Market files")
    p_bench.add_argument("--lengthscales", help="comma list of SE-kernel lengthscales")
    p_bench.add_argument("--n", type=int, default=1000)
    p_bench.add_argument("--dim", type=int, default=6)
    p_bench.add_argument("--input-scale", type=float, default=0.21)
    p_bench.add_argument("--methods", default="maxent,chebyshev,lanczos")
    _add_estimator_flags(p_bench, probes=50)
    p_bench.add_argument("--kappa", action="store_true",
                         help="estimate condition numbers (slow)")
    p_bench.add_argument("--exact-guard", type=int, default=5000,
                         help="run the exact oracle when n is at most this")
    p_bench.add_argument("--csv", metavar="PATH", help="write records to PATH")
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
