"""The paired A/B timer in tools/: two trees' estimates, interleaved, compared."""

import importlib.util
import sys
from pathlib import Path

import specdet

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_against_itself_on_two_tiny_cells(monkeypatch):
    tool = load_tool()
    # the tool registers the modules it loads; teardown removes the entries
    for tag in "ab":
        for name in (f"specdet_{tag}", f"perfbench_workloads_{tag}"):
            monkeypatch.setitem(sys.modules, name, None)
    sides = []
    for tag in "ab":
        package = tool.load_tree(tool.ROOT, f"specdet_{tag}")
        workloads = tool.load_workloads(package, f"perfbench_workloads_{tag}")
        # the workloads module builds its cells with this tree's package
        assert workloads.se_kernel is package.se_kernel is not specdet.se_kernel
        assert sys.modules["specdet"] is specdet
        cells = [workloads.Cell(f"l={l}", package.se_kernel(package.KernelSpec(
                     n=40, lengthscale=l, seed=3)), package.EstimatorConfig(m=6, d=3, seed=2),
                     workloads.ALL) for l in (0.45, 0.85)]
        sides.append((package.estimate_logdet, cells))
    times, values = tool.run_rounds(sides, workloads.ALL, 3)
    assert list(times) == list(workloads.ALL)
    for method in workloads.ALL:
        assert len(times[method]) == 3
        assert all(ta > 0.0 and tb > 0.0 for ta, tb in times[method])
        a, b = values[method]
        assert len(a) == 2 and a == b
        want = specdet.estimate_logdet(
            specdet.se_kernel(specdet.KernelSpec(n=40, lengthscale=0.45, seed=3)),
            "lanczos" if method == "slq" else method, specdet.EstimatorConfig(m=6, d=3, seed=2))
        assert a[0] == want.value
    lines = tool.summary(times, values)
    assert len(lines) == 1 + len(workloads.ALL)
    assert all(line.endswith("  equal") and "/3" in line for line in lines[1:])


def test_summary_names_the_largest_relative_gap():
    tool = load_tool()
    times = {"slq": [[2.0, 1.0], [2.0, 3.0], [2.0, 1.5]]}
    values = {"slq": ([1.0, 4.0], [1.0 + 1e-12, 4.0 + 4e-10])}
    (line,) = tool.summary(times, values)[1:]
    assert line.split() == ["slq", "2000.00", "-25.00%", "2/3", "max", "rel", "gap", "1e-10"]
