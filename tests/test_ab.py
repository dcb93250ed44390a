"""The paired A/B timer in tools/: two trees' estimates, interleaved, compared."""

import dataclasses
import sys
from pathlib import Path

import pytest

import specdet

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


@pytest.fixture
def tool(load_module):
    return load_module("ab", TOOL)


def test_repo_against_itself_on_two_tiny_cells(tool, monkeypatch):
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
        assert a[0] == ("l=0.45", want.value)
    lines = tool.summary(times, values)
    assert len(lines) == 1 + len(workloads.ALL)
    assert all(line.endswith("  equal") and "/3" in line for line in lines[1:])


def test_summary_names_the_largest_relative_gap(tool):
    times = {"slq": [[2.0, 1.0], [2.0, 3.0], [2.0, 1.5]]}
    values = {"slq": ([("l=0.45 kseed=3", 1.0), ("mass", 4.0), ("l=0.85 kseed=9", 2.0)],
                      [("l=0.45 kseed=3", 1.0 + 1e-12), ("mass", 4.0 + 4e-10),
                       ("l=0.85 kseed=9", 2.0)])}
    (line,) = tool.summary(times, values)[1:]
    assert line.split() == ["slq", "2000.00", "-25.00%", "2/3", "2/3", "differ,", "max", "rel",
                            "gap", "1e-10", "at", "mass"]


def test_refuses_fewer_than_one_round(tool, capsys):
    # refused before either tree is loaded or any cell is built
    with pytest.raises(SystemExit) as exit_:
        tool.main(["--a", str(tool.ROOT), "--b", str(tool.ROOT), "--workload", "small-se",
                   "--rounds", "0"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        ": error: --rounds must be >= 1, got 0")


@pytest.mark.parametrize("side", ["--a", "--b"])
def test_refuses_a_tree_without_sources(tool, side, tmp_path, capsys):
    (tmp_path / "src" / "specdet").mkdir(parents=True)
    trees = {"--a": str(tool.ROOT), "--b": str(tool.ROOT), side: str(tmp_path)}
    with pytest.raises(SystemExit) as exit_:
        tool.main([*(x for pair in trees.items() for x in pair), "--workload", "small-se"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f": error: {side}: the specdet sources are not under {tmp_path / 'src'}")


@pytest.mark.parametrize("args, error", [
    (["--workload", "nosuch"],
     "--workload must be one of ['dense-se', 'sparse-mtx', 'small-se'], got 'nosuch'"),
    (["--workload", "dense-se", "--methods", "slq", "nosuch"],
     "--methods must be among ['maxent', 'taylor', 'chebyshev', 'slq', 'exact'], "
     "got ['slq', 'nosuch']"),
], ids=["workload", "methods"])
def test_refuses_an_unknown_workload_or_method_before_any_cell(tool, monkeypatch, capsys,
                                                                args, error):
    for name in ("perfbench_run", "specdet_a", "perfbench_workloads_a"):
        monkeypatch.setitem(sys.modules, name, None)
    load_workloads = tool.load_workloads

    def without_cells(package, name):
        # any cell built, by any workload, fails the test
        def build(*_):
            raise AssertionError("a cell was built")
        workloads = load_workloads(package, name)
        workloads.WORKLOADS = {key: dataclasses.replace(w, prepare=build, setup=build)
                               for key, w in workloads.WORKLOADS.items()}
        return workloads

    monkeypatch.setattr(tool, "load_workloads", without_cells)
    with pytest.raises(SystemExit) as exit_:
        tool.main(["--a", str(tool.ROOT), "--b", str(tool.ROOT), *args])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f": error: {error}")
