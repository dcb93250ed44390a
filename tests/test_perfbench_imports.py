"""The benchmark's use of specdet: the names it imports exist, and its maxent replay holds."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from specdet import (DenseOperator, EstimatorConfig, KernelSpec, logdet_lanczos, logdet_maxent,
                     se_kernel)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def specdet_imports():
    """(file name, module, name) of each `from specdet... import name` in perfbench."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module == "specdet" or node.module.startswith("specdet.")):
                out += [(path.name, node.module, alias.name) for alias in node.names]
    return out


def resolves(module: str, name: str) -> bool:
    """Whether `from module import name` succeeds: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def load_perfbench(name: str, monkeypatch):
    """perfbench/<name>.py as a module, loaded by path without touching sys.path.

    It is listed in sys.modules for the test only; dataclasses look their
    module up there.
    """
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_imports_resolve():
    imports = specdet_imports()
    assert imports, "perfbench imports nothing from specdet"
    missing = [f"{file}: from {module} import {name}" for file, module, name in imports
               if not resolves(module, name)]
    assert missing == []


def benchmark_case(case: str, monkeypatch):
    """(operator, config) of a case shaped like the benchmark's cells."""
    if case == "small-se-kernel":
        op = se_kernel(KernelSpec(n=256, dim=6, lengthscale=0.65, noise=1e-8, seed=3))
        return op, EstimatorConfig(m=30, d=30, seed=11, min_eigenvalue=1e-8)
    if case == "diag-no-hint":
        # exact atomic-spectrum moments on the moment-cone boundary: no convergence
        return DenseOperator(np.diag([1.0, 2.0, 4.0])), EstimatorConfig(m=10, d=4, seed=0)
    op = load_perfbench("workloads", monkeypatch).laplacian_2d(30)
    return op, EstimatorConfig(m=30, d=10, seed=0)


@pytest.mark.parametrize("case", ["small-se-kernel", "grid-laplacian", "diag-no-hint"])
def test_maxent_replay_is_bit_identical(case, monkeypatch):
    # every benchmark run fails unless spans.maxent_replay equals logdet_maxent
    spans = load_perfbench("spans", monkeypatch)
    op, cfg = benchmark_case(case, monkeypatch)
    tracer = spans.Tracer()
    traced = spans.TracedOperator(op, tracer)
    value, _, result = spans.maxent_replay(traced, cfg, tracer)
    assert result.converged or case == "diag-no-hint"
    assert value == logdet_maxent(traced, cfg).value


@pytest.mark.parametrize("case", ["small-se-kernel", "grid-laplacian"])
def test_traced_lanczos_is_bit_identical(case, monkeypatch):
    # every traced benchmark run fails unless SLQ through the wrapper equals
    # SLQ without it; the kernel case reorthogonalizes 360 of 870 column-steps
    spans = load_perfbench("spans", monkeypatch)
    op, cfg = benchmark_case(case, monkeypatch)
    tracer = spans.Tracer()
    assert logdet_lanczos(spans.TracedOperator(op, tracer), cfg).value == \
        logdet_lanczos(op, cfg).value
    assert len(tracer.by_name()["linop.matmat"][0]) == cfg.m  # one block of m steps


def test_layer_metrics_read_the_replayed_moments(monkeypatch):
    # the moment standard error perfbench reports reads the moments' variance
    # and probe count, which no other test reaches through perfbench
    spans = load_perfbench("spans", monkeypatch)
    op = se_kernel(KernelSpec(n=128, dim=6, lengthscale=0.65, noise=1e-8, seed=2))
    tracer = spans.Tracer()
    _, moments, result = spans.maxent_replay(spans.TracedOperator(op, tracer),
                                             EstimatorConfig(m=10, d=8, seed=1), tracer)
    metrics = spans.layer_metrics(tracer, [(moments, result)], 0.0, [], 0.0, 0.0)
    se = metrics["probes.moment_se_max"]["value"]
    assert np.isfinite(se) and se > 0.0
