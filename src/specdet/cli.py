"""Command-line harness: single estimates, benchmark sweeps, raw moments.

Exit codes: 0 ok, 2 usage, 3 input parse failure, 4 numerical failure,
5 estimator flagged non-convergence.

A command raises `CLIError` where it finds a failure; `main` alone prints its
one stderr line and returns its exit code, and nothing is written to stdout.
The phase that fails sets the code: flag validation is a usage error, loading
a source a parse error, an estimate a numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace

from .estimators import (METHODS, PRIORS, EstimatorConfig, condition_number_estimate,
                         estimate_logdet, logdet_exact)
from .linop import identity, normalize, read_matrix_market
from .maxent import SolverConfig
from .probes import BASIS_KINDS, MomentBasis, estimate_moments
from .synth import KernelSpec, se_kernel

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERICAL = 4
EXIT_NONCONVERGED = 5

# what an estimate can raise on input that parsed but cannot be estimated
_NUMERICAL_ERRORS = (ValueError, RuntimeError, OverflowError)

# bench runs kappa and the Cholesky oracle up to this n; the library's own
# guard (20 000) would cost minutes and two 3.2 GB dense copies per case
_EXACT_GUARD = 5000


class CLIError(Exception):
    """A failure that `main` prints as its one stderr line and exits with `code`."""

    def __init__(self, code: int, line: str):
        super().__init__(line)
        self.code = code


@contextlib.contextmanager
def _fails_as(code: int, prefix: str, errors=ValueError):
    """Raise `errors` from the block as a CLIError with `code` and `prefix`."""
    try:
        yield
    except errors as exc:
        raise CLIError(code, f"{prefix}{exc}") from exc


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
    estimate: float | None = None
    exact: float | None = None
    rel_error: float | None = None
    wall_time_ms: float | None = None
    error: str = ""


CSV_COLUMNS = [f.name for f in fields(BenchRecord)]


def _parse_kernel_spec(text: str, seed: int) -> KernelSpec:
    """The KernelSpec of `KEY=VAL,...`; n is 1000 and the seed `seed` unless given."""
    kwargs = {"n": 1000, "seed": seed}
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


def _case(source: KernelSpec | str) -> tuple:
    """(operator, dataset label, lengthscale or None, min-eig hint) of a spec or .mtx path."""
    if isinstance(source, KernelSpec):  # its diagonal jitter bounds the spectrum below
        return (se_kernel(source), f"se-kernel-l={source.lengthscale}",
                source.lengthscale, source.noise)
    return read_matrix_market(source), source, None, None


def _load_operator(args) -> tuple:
    """The `_case` of the one source flag given; --identity has no hints."""
    sources = [s for s in (args.mtx, args.se_kernel, args.identity) if s is not None]
    if len(sources) != 1:
        raise ValueError("exactly one of --mtx, --se-kernel, --identity is required")
    if args.identity is not None:
        return identity(args.identity), f"identity-{args.identity}", None, None
    return _case(args.mtx if args.mtx is not None
                 else _parse_kernel_spec(args.se_kernel, args.seed))


def _estimator_config(args, min_eig_hint: float | None = None) -> EstimatorConfig:
    """The estimator flags as a config; ValueError names an out-of-range one."""
    solver = SolverConfig(gtol=args.gtol)
    min_eig = args.min_eig if args.min_eig is not None else min_eig_hint
    return EstimatorConfig(m=args.moments, d=args.probes, seed=args.seed,
                           basis=args.basis, prior=args.prior, solver=solver,
                           min_eigenvalue=min_eig)


def _add_kernel_flag(p: argparse.ArgumentParser):
    p.add_argument("--se-kernel", metavar="KEY=VAL[,KEY=VAL...]",
                   help="synthetic SE kernel, keys: n,dim,l,noise,scale,seed")


def _add_source_flags(p: argparse.ArgumentParser):
    p.add_argument("--mtx", metavar="PATH", help="coordinate symmetric Matrix Market file")
    _add_kernel_flag(p)
    p.add_argument("--identity", type=int, metavar="N", help="identity matrix of size N")


def _add_moment_flags(p: argparse.ArgumentParser, probes: int = EstimatorConfig.d):
    p.add_argument("-m", "--moments", type=int, default=EstimatorConfig.m)
    p.add_argument("-d", "--probes", type=int, default=probes)
    p.add_argument("--basis", choices=BASIS_KINDS, default=EstimatorConfig.basis)
    p.add_argument("--seed", type=int, default=EstimatorConfig.seed)


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--prior", choices=PRIORS, default=EstimatorConfig.prior)
    p.add_argument("--gtol", type=float, default=SolverConfig.gtol)
    p.add_argument("--min-eig", type=float, default=None, metavar="LAMBDA",
                   help="known lower bound on the spectrum (defaults to the "
                        "diagonal noise for synthetic kernels)")


def _rel_error(est: float, exact: float) -> float:
    if exact == 0.0:
        return abs(est - exact)
    return abs(est - exact) / abs(exact)


def _print_json(obj) -> None:
    """Print obj as strict JSON (RFC 8259), writing NaN and infinities as null."""
    def finite(v):
        if isinstance(v, float) and not math.isfinite(v):
            return None
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, list):
            return [finite(x) for x in v]
        return v
    print(json.dumps(finite(obj), allow_nan=False))


def cmd_logdet(args) -> int:
    with _fails_as(EXIT_USAGE, "error: "):
        _estimator_config(args)  # out-of-range flags fail before the operator is built
    with _fails_as(EXIT_PARSE, "error: ", (OSError, ValueError)):
        op, dataset, _, min_eig = _load_operator(args)
    cfg = _estimator_config(args, min_eig)  # valid too: a source's hint is finite
    with _fails_as(EXIT_NUMERICAL, "numerical failure: ", _NUMERICAL_ERRORS):
        est = estimate_logdet(op, args.method, cfg)
    if args.json:
        _print_json({"dataset": dataset, **asdict(est)})
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
    if args.probes < 1:
        raise CLIError(EXIT_USAGE, "error: probe count d must be >= 1")
    if args.seed < 0:
        raise CLIError(EXIT_USAGE, f"error: seed must be >= 0, got {args.seed}")
    with _fails_as(EXIT_USAGE, "error: "):
        basis = MomentBasis(args.basis, args.moments)
    with _fails_as(EXIT_PARSE, "error: ", (OSError, ValueError)):
        op, dataset, _, _ = _load_operator(args)
    with _fails_as(EXIT_NUMERICAL, "numerical failure: ", _NUMERICAL_ERRORS):
        moments = estimate_moments(normalize(op), basis, args.probes, args.seed)
    if args.json:
        _print_json({
            "dataset": dataset, "basis": args.basis, "m": args.moments,
            "d": args.probes, "seed": args.seed,
            "values": moments.values.tolist(),
            "variance": moments.variance.tolist(),
        })
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["i", "value", "variance"])
        for i, (v, s) in enumerate(zip(moments.values, moments.variance)):
            writer.writerow([i, repr(float(v)), repr(float(s))])
    return EXIT_OK


def _attempt(fn, *args) -> tuple:
    """(fn(*args), "") or, when it raises a numerical failure, (None, its message)."""
    try:
        return fn(*args), ""
    except _NUMERICAL_ERRORS as exc:
        return None, str(exc)


def _bench_case(op, dataset, lengthscale, min_eig, methods, args) -> list:
    """One record per method on one operator; kappa and the oracle run once."""
    cfg = _estimator_config(args, min_eig)
    # kappa makes the same O(n^3) dense copy as the oracle, so it runs where the oracle does
    oracle_runs = op.n <= _EXACT_GUARD
    kappa, failed = (_attempt(condition_number_estimate, op) if args.kappa and oracle_runs
                     else (None, ""))
    runs = [(None, failed) if failed else _attempt(estimate_logdet, op, method, cfg)
            for method in methods]
    # the `exact` method's value or failure is the oracle's; otherwise factor once here
    exact, exact_error = None, ""
    if oracle_runs and "exact" in methods:
        est, exact_error = runs[methods.index("exact")]
        exact = None if est is None else est.value
    elif oracle_runs and any(est is not None for est, _ in runs):
        exact, exact_error = _attempt(logdet_exact, op)
    records = []
    for method, (est, error) in zip(methods, runs):
        case = dict(dataset=dataset, n=op.n, kappa=kappa, lengthscale=lengthscale,
                    method=method, seed=cfg.seed)
        if est is None:
            records.append(BenchRecord(**case, m=cfg.m, d=cfg.d, error=error))
            continue
        records.append(BenchRecord(
            **case, m=est.m, d=est.d, estimate=est.value, exact=exact,
            rel_error=None if exact is None else _rel_error(est.value, exact),
            wall_time_ms=est.wall_time_ms,
            error=exact_error or ("" if est.converged else "non-converged")))
    return records


def cmd_bench(args) -> int:
    methods = [m for m in args.methods.split(",") if m]
    if not methods:
        raise CLIError(EXIT_USAGE, "error: empty methods list")
    for m in methods:
        if m not in METHODS:
            raise CLIError(EXIT_USAGE, f"error: unknown method {m!r}")
    with _fails_as(EXIT_USAGE, "error: "):
        _estimator_config(args)  # out-of-range flags fail before any case is built
    with _fails_as(EXIT_PARSE, "error: "):
        spec = _parse_kernel_spec(args.se_kernel or "", args.seed)
        specs = [replace(spec, lengthscale=float(l))
                 for l in args.lengthscales.split(",")] if args.lengthscales else []
    files = []
    for path in args.files:
        with _fails_as(EXIT_PARSE, f"error reading {path}: ", (OSError, ValueError)):
            files.append(_case(path))
    if not specs and not files:
        raise CLIError(EXIT_USAGE, "error: no benchmark cases (need --lengthscales or files)")
    with _fails_as(EXIT_USAGE, "error: cannot write --csv: ", OSError):
        out = open(args.csv, "w", newline="") if args.csv else None

    # with --json, stdout carries the JSON alone and the CSV goes only to --csv
    with out or contextlib.nullcontext(None if args.json else sys.stdout) as fh:
        # each kernel is built when its case runs and freed when it ends
        records = [r for spec in specs for r in _bench_case(*_case(spec), methods, args)]
        records += [r for case in files for r in _bench_case(*case, methods, args)]
        if fh is not None:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows({k: ("" if v is None else v) for k, v in asdict(r).items()}
                             for r in records)
    if args.json:
        _print_json([asdict(r) for r in records])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logdet",
        description="Log-determinant estimation for symmetric PD matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate one log determinant")
    _add_source_flags(p_est)
    _add_moment_flags(p_est)
    _add_solver_flags(p_est)
    p_est.add_argument("--method", choices=METHODS, default="maxent")
    p_est.add_argument("--json", action="store_true")
    p_est.set_defaults(fn=cmd_logdet)

    p_mom = sub.add_parser("moments", help="print estimated spectral moments")
    _add_source_flags(p_mom)
    _add_moment_flags(p_mom)
    p_mom.add_argument("--json", action="store_true")
    p_mom.set_defaults(fn=cmd_moments)

    p_bench = sub.add_parser("bench", help="benchmark sweep to CSV")
    p_bench.add_argument("files", nargs="*", help="Matrix Market files")
    _add_kernel_flag(p_bench)
    p_bench.add_argument("--lengthscales",
                         help="comma list of lengthscales, each replacing --se-kernel's l")
    p_bench.add_argument("--methods", default="maxent,chebyshev,lanczos")
    _add_moment_flags(p_bench, probes=50)
    _add_solver_flags(p_bench)
    p_bench.add_argument("--kappa", action="store_true",
                         help="exact condition numbers where the oracle runs (n <= 5000)")
    p_bench.add_argument("--csv", metavar="PATH", help="write records to PATH")
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CLIError as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
