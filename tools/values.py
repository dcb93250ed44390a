"""Print every estimate the benchmark makes on its seed-1 cells, in hex.

The cells are built by the benchmark's own `perfbench/workloads.py`
(`WORKLOADS[w].prepare` and `setup`), and each method a cell lists is
run once through `estimate_logdet`; the benchmark's `slq` is `lanczos`.
Each estimate is one tab-separated line:

    <workload>  <cell label>  <method>  <float.hex(value)>  <iterations>

where iterations is maxent's Newton iteration count and 0 for the other
methods. `specdet` is imported from PYTHONPATH, so two source trees are
compared bit for bit by the diff of their outputs, with the same BLAS
thread count on both sides:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/values.py > new.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=../parent/src python3 tools/values.py > old.txt
    diff old.txt new.txt

Run from the repository root; it takes seconds (225 lines).
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
from pathlib import Path

from specdet import estimate_logdet

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEED = 1


def load_workloads():
    """perfbench/workloads.py as the module `perfbench_workloads`; dataclasses look it up there."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def cell_lines(workload: str, cell) -> list:
    """One line per method of `cell`, each estimate made once."""
    out = []
    for method in cell.methods:
        est = estimate_logdet(cell.op, "lanczos" if method == "slq" else method, cell.cfg)
        out.append(f"{workload}\t{cell.label}\t{method}\t{est.value.hex()}\t{est.iterations}")
    return out


def main() -> int:
    workloads = load_workloads().WORKLOADS
    for name, workload in workloads.items():
        with tempfile.TemporaryDirectory() as tmp:
            cells = workload.setup(workload.prepare(SEED, Path(tmp)), {})
        for cell in cells:
            print("\n".join(cell_lines(name, cell)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
