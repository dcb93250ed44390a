"""The value printer in tools/: one hex line per estimate of a benchmark cell."""

import importlib.util
import re
import sys
from pathlib import Path

from specdet import EstimatorConfig, KernelSpec, estimate_logdet, se_kernel

TOOL = Path(__file__).resolve().parent.parent / "tools" / "values.py"
LINE = re.compile(r"small-se\tl=0\.65 kseed=3\t(\w+)\t(-?0x[01]\.[0-9a-f]+p[+-]\d+)\t(\d+)")


def load_tool():
    spec = importlib.util.spec_from_file_location("values", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cell_lines_are_the_estimates_in_hex(monkeypatch):
    tool = load_tool()
    # the tool registers perfbench's workloads module; teardown restores the entry
    monkeypatch.setitem(sys.modules, "perfbench_workloads", None)
    workloads = tool.load_workloads()
    cfg = EstimatorConfig(m=8, d=4, seed=5, min_eigenvalue=1e-8)
    op = se_kernel(KernelSpec(n=64, dim=6, lengthscale=0.65, noise=1e-8, seed=3))
    lines = tool.cell_lines("small-se", workloads.Cell("l=0.65 kseed=3", op, cfg, workloads.ALL))
    matches = [LINE.fullmatch(line) for line in lines]
    assert all(matches) and [m[1] for m in matches] == list(workloads.ALL)
    for method, value, iterations in (m.groups() for m in matches):
        est = estimate_logdet(op, "lanczos" if method == "slq" else method, cfg)
        assert float.fromhex(value) == est.value
        assert int(iterations) == est.iterations
        assert (int(iterations) > 0) == (method == "maxent")
