"""Paired, in-process A/B timing and value check of two source trees' estimators.

Each tree's `src/specdet` is loaded under a module name of its own, and
each tree builds its own copy of a benchmark workload's cells from
`perfbench/workloads.py`, loaded by path with that tree's package bound as
`specdet` while it loads. The two trees then make the same estimates in
one process, interleaved estimate by estimate, with the side that goes
first alternating, so that a slow spell of the host falls on both sides
alike (a paired design; Kalibera & Jones, "Rigorous benchmarking in
reasonable time", ISMM 2013). Run from the repository root, with a parent
tree made by `git archive`:

    mkdir ../parent && git archive HEAD~1 src | tar -x -C ../parent
    python3 tools/ab.py --a ../parent --b . --workload sparse-mtx --rounds 20 --methods slq

A round makes every estimate of every cell once on each side. Per method
it prints A's median round time (the method's total over the cells), the
median over rounds of B's time relative to A's, the rounds in which B was
faster, and whether every value of B equals A's bit for bit, otherwise
how many of the cells' values differ and the largest relative gap with
its cell. `--rounds 1` is the value check of a change: every estimate of
every cell, made once per tree. The one-thread workloads run with one BLAS
thread, as `perfbench/run.py` runs them. The tool shows a timing claim; it
does not replace `run.py`, whose set-up times, memory and gates it does not
measure.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name: str, path: Path, package_dir: Path | None = None):
    """The module at `path`, registered as `name` (dataclasses look modules up there)."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(root: Path, name: str):
    """`root`/src/specdet as the package `name`; its imports are relative, so it loads whole."""
    package_dir = Path(root).resolve() / "src" / "specdet"
    return _load(name, package_dir / "__init__.py", package_dir)


def load_workloads(package, name: str):
    """perfbench/workloads.py as the module `name`, importing `package` as its `specdet`."""
    saved = sys.modules.get("specdet")
    sys.modules["specdet"] = package
    try:
        return _load(name, PERFBENCH / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["specdet"]
        else:
            sys.modules["specdet"] = saved


def run_rounds(sides, methods, rounds: int):
    """Time both sides' estimates of every cell and listed method, interleaved.

    `sides` is two (estimate_logdet, cells) pairs whose cells match one for
    one. Returns, per method, the seconds of each round as [A, B] pairs,
    each the total over the cells, and the values of the first round as
    two lists of (cell label, value), A's and B's.
    """
    times = {method: [[0.0, 0.0] for _ in range(rounds)] for method in methods}
    values = {method: ([], []) for method in methods}
    for r in range(rounds):
        i = 0
        for pair in zip(sides[0][1], sides[1][1]):
            for method in (m for m in pair[0].methods if m in methods):
                for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                    estimate, cell = sides[side][0], pair[side]
                    t0 = time.perf_counter()
                    est = estimate(cell.op, "lanczos" if method == "slq" else method, cell.cfg)
                    times[method][r][side] += time.perf_counter() - t0
                    if r == 0:
                        values[method][side].append((cell.label, est.value))
                i += 1
    return times, values


def summary(times, values) -> list:
    """One line per method: A's median ms, B's median relative gap, B's wins, the values."""
    lines = [f"{'method':<10} {'A ms':>9} {'B-A':>8} {'B faster':>9}  values"]
    for method, rounds in times.items():
        a, b = values[method]
        gaps = [(abs(y - x) / abs(x) if x != 0.0 else abs(y), label)
                for (label, x), (_, y) in zip(a, b) if x != y]
        if gaps:
            same = "{}/{} differ, max rel gap {:.2g} at {}".format(len(gaps), len(a), *max(gaps))
        else:
            same = "equal"
        gap = statistics.median(tb / ta - 1.0 for ta, tb in rounds)
        wins = sum(tb < ta for ta, tb in rounds)
        lines.append(f"{method:<10} {statistics.median(ta for ta, _ in rounds) * 1e3:>9.2f} "
                     f"{gap:>+8.2%} {wins:>4}/{len(rounds):<4}  {same}")
    return lines


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="tree A (the parent)")
    parser.add_argument("--b", type=Path, required=True, help="tree B (the change)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--methods", nargs="+", help="default: every method of the workload")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")
    for flag, root in (("--a", args.a), ("--b", args.b)):
        if not (root / "src" / "specdet" / "__init__.py").is_file():
            parser.error(f"{flag}: the specdet sources are not under {root / 'src'}")
    # the thread count is read when numpy first loads, which the trees do
    threads = _load("perfbench_run", PERFBENCH / "run.py").BLAS_THREADS.get(args.workload)
    if threads is not None:
        os.environ["OPENBLAS_NUM_THREADS"] = threads
    sides = []
    for tag, root in (("a", args.a), ("b", args.b)):
        package = load_tree(root, f"specdet_{tag}")
        workloads = load_workloads(package, f"perfbench_workloads_{tag}")
        # every workload runs the methods of ALL, so both are checked before any cell is built
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {list(workloads.WORKLOADS)}, "
                         f"got {args.workload!r}")
        if not set(args.methods or ()) <= set(workloads.ALL):
            parser.error(f"--methods must be among {list(workloads.ALL)}, got {args.methods}")
        workload = workloads.WORKLOADS[args.workload]
        with tempfile.TemporaryDirectory() as tmp:
            cells = workload.setup(workload.prepare(args.seed, Path(tmp)), {})
        sides.append((package.estimate_logdet, cells))
    methods = args.methods or workloads.ALL
    times, values = run_rounds(sides, methods, args.rounds)
    print("\n".join(summary(times, values)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
