"""Command-line interface: parsing, exit codes, and output formats."""

import csv
import io
import json

import numpy as np
import pytest

from specdet import cli, estimators
from specdet.cli import main
from specdet.estimators import EstimatorConfig, logdet_exact
from specdet.linop import DenseOperator, write_matrix_market
from specdet.synth import KernelSpec, se_kernel

IDENTITY_HEADER = "%%MatrixMarket matrix coordinate real symmetric\n"


def write_diag124(tmp_path):
    path = tmp_path / "diag.mtx"
    write_matrix_market(DenseOperator(np.diag([1.0, 2.0, 4.0])), path)
    return str(path)


def write_five_negative(tmp_path):
    """200 x 200, eigenvalues uniform on [0.1, 1] except five at -0.05."""
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    lam = rng.uniform(0.1, 1.0, 200)
    lam[:5] = -0.05
    path = tmp_path / "indef.mtx"
    write_matrix_market(DenseOperator(Q @ np.diag(lam) @ Q.T, symmetric=True), path)
    return str(path)


def assert_one_error_line(captured, prefix="error: "):
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as RFC 8259 parsers do."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestEstimate:
    @pytest.mark.parametrize("method", cli.METHODS)
    def test_json_is_strict(self, method, capsys):
        code = main(["estimate", "--identity", "5", "--method", method,
                     "-m", "4", "-d", "3", "--json"])
        assert code in (0, 5)
        out = strict_json(capsys.readouterr().out)
        assert out["value"] == pytest.approx(0.0, abs=0.05)
        # only maxent has a dual gradient; the oracle has no Gershgorin bound
        assert (out["grad_norm"] is None) == (method != "maxent")
        assert (out["lambda_u"] is None) == (method == "exact")

    def test_identity_maxent_near_zero(self, capsys):
        # the point-mass fit cannot hit the tolerance, so non-convergence
        # (exit 5) is acceptable; the value contract is value ~ 0
        code = main(["estimate", "--identity", "100", "--method", "maxent",
                     "-m", "10", "-d", "10", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code in (0, 5)
        assert abs(out["value"]) <= 0.05

    def test_exact_method_diag(self, tmp_path, capsys):
        code = main(["estimate", "--mtx", write_diag124(tmp_path),
                     "--method", "exact", "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(np.log(8.0))

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        # atomic spectrum with exact moments: solver stalls short of gtol
        code = main(["estimate", "--mtx", write_diag124(tmp_path),
                     "--method", "maxent", "-m", "10", "-d", "4"])
        captured = capsys.readouterr()
        assert code == 5
        assert "did not reach" in captured.err

    def test_kernel_chebyshev_well_conditioned(self, capsys):
        # l = 0.1 sits in the kappa ~ 1e1 regime where Chebyshev is accurate
        code = main(["estimate", "--se-kernel", "n=400,dim=6,l=0.1",
                     "--method", "chebyshev", "-m", "30", "-d", "50",
                     "--seed", "0", "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        exact = logdet_exact(se_kernel(KernelSpec(n=400, dim=6, lengthscale=0.1, seed=0)))
        # small compared with the ~90% errors in the ill-conditioned regime;
        # the residual is degree-30 interpolation bias over [1e-6, 1]
        assert abs(out["value"] - exact) / abs(exact) < 0.15

    def test_missing_source_is_parse_error(self, capsys):
        assert main(["estimate", "--method", "exact"]) == 3
        assert_one_error_line(capsys.readouterr())

    def test_two_sources_is_parse_error(self, tmp_path, capsys):
        code = main(["estimate", "--identity", "5",
                     "--mtx", write_diag124(tmp_path)])
        assert code == 3
        assert_one_error_line(capsys.readouterr())

    def test_missing_file_is_parse_error(self, capsys):
        assert main(["estimate", "--mtx", "/does/not/exist.mtx"]) == 3
        assert_one_error_line(capsys.readouterr())

    def test_malformed_file_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("not a matrix market file\n")
        assert main(["estimate", "--mtx", str(bad)]) == 3
        assert_one_error_line(capsys.readouterr())

    def test_not_positive_definite_is_numerical_error(self, tmp_path, capsys):
        path = tmp_path / "indef.mtx"
        write_matrix_market(DenseOperator(np.diag([1.0, -1.0])), path)
        assert main(["estimate", "--mtx", str(path), "--method", "exact"]) == 4
        assert_one_error_line(capsys.readouterr(), prefix="numerical failure: ")

    def test_indefinite_lanczos_is_numerical_error(self, tmp_path, capsys):
        # five eigenvalues at -0.05 among 200: a negative Ritz value shows it
        path = write_five_negative(tmp_path)
        assert main(["estimate", "--mtx", path, "--method", "lanczos"]) == 4
        assert_one_error_line(capsys.readouterr(), prefix="numerical failure: ")

    def test_bare_flags_are_the_library_defaults(self):
        args = cli.build_parser().parse_args(["estimate", "--identity", "3"])
        assert cli._estimator_config(args) == EstimatorConfig()

    def test_bad_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--identity", "5", "--method", "qr"])
        assert exc.value.code == 2
        assert "invalid choice: 'qr'" in capsys.readouterr().err

    def test_bad_kernel_key_is_parse_error(self, capsys):
        assert main(["estimate", "--se-kernel", "n=10,q=3"]) == 3
        assert_one_error_line(capsys.readouterr())

    @pytest.mark.parametrize("argv", [
        ("--identity", "20", "--gtol", "0"), ("--identity", "20", "--gtol", "inf"),
        ("--identity", "20", "--gtol", "nan"), ("--identity", "20", "--min-eig", "nan"),
        ("--identity", "20", "--min-eig", "inf"), ("--identity", "20", "--seed", "-1"),
        ("--identity", "20", "--jitter", "0"), ("--identity", "20", "-m", "0"),
        ("--identity", "20", "-d", "0"),
        # the flags are checked before the kernel is built
        ("--se-kernel", "n=20", "--seed", "-1")],
        ids=["gtol", "gtol=inf", "gtol=nan", "min-eig=nan", "min-eig=inf", "seed=-1",
             "jitter", "m", "d", "se-kernel-seed=-1"])
    def test_out_of_range_estimator_flag_is_usage_error(self, argv, capsys):
        assert main(["estimate", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_empty_identity_is_parse_error(self, capsys):
        assert main(["estimate", "--identity", "0"]) == 3
        assert_one_error_line(capsys.readouterr())

    def test_empty_mtx_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "empty.mtx"
        path.write_text(IDENTITY_HEADER + "0 0 0\n")
        assert main(["estimate", "--mtx", str(path)]) == 3
        assert_one_error_line(capsys.readouterr())

    def test_huge_finite_diagonal_is_estimated(self, tmp_path, capsys):
        path = tmp_path / "big.mtx"
        path.write_text(IDENTITY_HEADER + "1 1 1\n1 1 1e308\n")
        assert main(["estimate", "--mtx", str(path), "--method", "taylor", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(np.log(1e308))


class TestMoments:
    def test_identity_power_moments(self, capsys):
        code = main(["moments", "--identity", "6", "--basis", "power",
                     "-m", "4", "-d", "3", "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["values"] == [1.0] * 5

    def test_diag_power_moments(self, tmp_path, capsys):
        code = main(["moments", "--mtx", write_diag124(tmp_path),
                     "--basis", "power", "-m", "2", "-d", "4", "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["values"] == pytest.approx([1.0, 7.0 / 12.0, 21.0 / 48.0])

    def test_csv_output(self, capsys):
        code = main(["moments", "--identity", "3", "-m", "2", "-d", "2"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["i", "value", "variance"]
        assert len(rows) == 4

    def test_zero_matrix_is_numerical_error(self, tmp_path, capsys):
        # no positive Gershgorin bound to normalize by, as for `estimate`
        path = tmp_path / "zero.mtx"
        path.write_text(IDENTITY_HEADER + "3 3 0\n")
        for command in ("moments", "estimate"):
            assert main([command, "--mtx", str(path)]) == 4
            assert_one_error_line(capsys.readouterr(), prefix="numerical failure: ")

    @pytest.mark.parametrize("flag", [("--gtol", "0"), ("--jitter", "1e-8"),
                                      ("--prior", "beta"), ("--min-eig", "1e-3")],
                             ids=["gtol", "jitter", "prior", "min-eig"])
    def test_solver_flag_is_usage_error(self, flag, capsys):
        # the moment pass reads no solver setting, so it accepts none
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--identity", "3", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_bad_basis_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--identity", "3", "--basis", "fourier"])
        assert exc.value.code == 2
        assert "invalid choice: 'fourier'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("-d", "0"), ("-d", "-3"), ("-m", "-1"),
                                      ("--seed", "-1")],
                             ids=["d=0", "d=-3", "m=-1", "seed=-1"])
    def test_out_of_range_flag_is_usage_error_before_loading(self, flag, monkeypatch,
                                                             capsys):
        def no_load(args):
            raise AssertionError("the operator was loaded")

        monkeypatch.setattr(cli, "_load_operator", no_load)
        assert main(["moments", "--identity", "5", *flag]) == 2
        assert_one_error_line(capsys.readouterr())


class TestBench:
    def test_empty_methods_is_usage_error(self, capsys):
        code = main(["bench", "--lengthscales", "0.5", "--methods", ""])
        assert code == 2
        assert_one_error_line(capsys.readouterr())

    def test_unknown_method_is_usage_error(self, capsys):
        code = main(["bench", "--lengthscales", "0.5", "--methods", "maxent,qr"])
        assert code == 2
        assert_one_error_line(capsys.readouterr())

    def test_no_cases_is_usage_error(self, capsys):
        assert main(["bench"]) == 2
        assert_one_error_line(capsys.readouterr())

    def test_out_of_range_flag_is_usage_error_before_any_case(self, monkeypatch, capsys):
        def no_case(*args):
            raise AssertionError("a case was built")

        monkeypatch.setattr(cli, "se_kernel", no_case)
        assert main(["bench", "--lengthscales", "0.5", "-d", "0"]) == 2
        assert_one_error_line(capsys.readouterr())

    def test_exact_guard_past_the_factorization_guard_is_usage_error(self, monkeypatch,
                                                                     capsys):
        monkeypatch.setattr(estimators, "_FACTOR_GUARD", 30)
        argv = ["bench", "--lengthscales", "0.5", "--se-kernel", "n=20",
                "--methods", "taylor", "-m", "4", "-d", "2", "--kappa"]
        assert main([*argv, "--exact-guard", "30"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows[0]["kappa"] != "" and rows[0]["exact"] != ""

        def no_case(*args):
            raise AssertionError("a case was built")

        monkeypatch.setattr(cli, "se_kernel", no_case)
        assert main([*argv, "--exact-guard", "31"]) == 2
        assert_one_error_line(capsys.readouterr())

    @pytest.mark.parametrize("flags", [
        ["--lengthscales", "abc"],
        ["--lengthscales", "0.5,-1"],
        ["--lengthscales", "nan"],
        ["--lengthscales", "0.5", "--se-kernel", "n=0"],
        ["--lengthscales", "0.5", "--se-kernel", "dim=0"],
        ["--lengthscales", "0.5", "--se-kernel", "scale=inf"],
        ["--se-kernel", "q=3"],
        ["--lengthscales", "0.5", "--se-kernel", "seed=-1"],
    ], ids=["not-a-number", "negative", "nan", "n-zero", "dim-zero", "infinite-spread",
            "unknown-key", "negative-seed"])
    def test_bad_kernel_flag_is_parse_error_before_any_case(self, flags, monkeypatch, capsys):
        def no_case(*args):
            raise AssertionError("a case was built")

        monkeypatch.setattr(cli, "se_kernel", no_case)
        assert main(["bench", *flags]) == 3
        assert_one_error_line(capsys.readouterr())

    @pytest.mark.parametrize("flags, specs", [
        (["--lengthscales", "0.3,0.4", "--seed", "7"],
         [KernelSpec(n=1000, dim=6, lengthscale=l, noise=1e-8, seed=7, input_scale=0.21)
          for l in (0.3, 0.4)]),
        (["--se-kernel", "n=40,noise=1e-2", "--lengthscales", "0.5"],
         [KernelSpec(n=40, lengthscale=0.5, noise=1e-2)]),
    ], ids=["lengthscales-only", "noise"])
    def test_kernel_cases(self, flags, specs, monkeypatch, capsys):
        built, hints = [], []

        def small_kernel(spec):
            built.append(spec)
            return DenseOperator(np.eye(3))

        def record_hint(op, method, cfg):
            hints.append(cfg.min_eigenvalue)
            return estimators.estimate_logdet(op, method, cfg)

        monkeypatch.setattr(cli, "se_kernel", small_kernel)
        monkeypatch.setattr(cli, "estimate_logdet", record_hint)
        assert main(["bench", *flags, "--methods", "taylor", "-m", "4", "-d", "2"]) == 0
        assert built == specs
        # the kernel's diagonal noise is the min-eig hint of its case
        assert hints == [spec.noise for spec in specs]
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [float(r["lengthscale"]) for r in rows] == [s.lengthscale for s in specs]

    @pytest.mark.parametrize("target", ["missing/out.csv", "."], ids=["no-directory", "a-directory"])
    def test_unwritable_csv_is_usage_error_before_any_estimate(self, target, tmp_path,
                                                               monkeypatch, capsys):
        def no_estimate(*args):
            raise AssertionError("an estimate ran")

        monkeypatch.setattr(cli, "estimate_logdet", no_estimate)
        code = main(["bench", "--lengthscales", "0.5", "--se-kernel", "n=20",
                     "--csv", str(tmp_path / target)])
        assert code == 2
        assert_one_error_line(capsys.readouterr())

    @pytest.mark.parametrize("methods", ["maxent,taylor,lanczos", "taylor,exact"])
    def test_oracle_and_kappa_run_once_per_case(self, methods, monkeypatch, capsys):
        calls = {"exact": 0, "kappa": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # the `exact` method factors through the estimators module's oracle
        monkeypatch.setattr(cli, "logdet_exact", counted("exact", cli.logdet_exact))
        monkeypatch.setattr(estimators, "logdet_exact", counted("exact", estimators.logdet_exact))
        monkeypatch.setattr(cli, "condition_number_estimate",
                            counted("kappa", cli.condition_number_estimate))
        code = main(["bench", "--lengthscales", "0.5", "--se-kernel", "n=40", "-m", "6", "-d", "4",
                     "--methods", methods, "--kappa"])
        assert code == 0
        assert calls == {"exact": 1, "kappa": 1}
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["method"] for r in rows] == methods.split(",")
        want = logdet_exact(se_kernel(KernelSpec(n=40, lengthscale=0.5, input_scale=0.21)))
        for r in rows:
            assert float(r["exact"]) == want and r["kappa"] != ""

    def test_kappa_on_indefinite_file_is_recorded(self, tmp_path, capsys):
        path = tmp_path / "indefinite.mtx"
        write_matrix_market(DenseOperator(np.diag([-1.0, 8.0])), path)
        assert main(["bench", str(path), "--kappa", "-m", "4", "-d", "2"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["method"] for r in rows] == ["maxent", "chebyshev", "lanczos"]
        for r in rows:
            assert r["kappa"] == "" and r["estimate"] == ""
            assert "not positive definite" in r["error"]

    def test_kappa_and_oracle_skip_a_file_past_the_exact_guard(self, tmp_path, capsys):
        path = tmp_path / "diag.mtx"
        write_matrix_market(DenseOperator(np.diag(np.linspace(1.0, 2.0, 30))), path)
        assert main(["bench", str(path), "--kappa", "--exact-guard", "20",
                     "-m", "4", "-d", "2"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["method"] for r in rows] == ["maxent", "chebyshev", "lanczos"]
        for r in rows:
            assert r["error"] in ("", "non-converged") and r["estimate"] != ""
            assert r["kappa"] == r["exact"] == r["rel_error"] == ""

    def test_sweep_shape(self, tmp_path, capsys):
        # 9 lengthscales x 3 methods mirrors the dense benchmark table
        out_csv = tmp_path / "bench.csv"
        ls = ",".join(str(round(0.05 + 0.1 * i, 2)) for i in range(9))
        code = main(["bench", "--lengthscales", ls, "--se-kernel", "n=120,dim=6",
                     "-m", "10", "-d", "10", "--csv", str(out_csv)])
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 27
        assert set(r["method"] for r in rows) == {"maxent", "chebyshev", "lanczos"}
        for r in rows:
            assert r["error"] in ("", "non-converged")
            assert float(r["wall_time_ms"]) > 0.0
            assert r["rel_error"] != ""  # n=120 is under the exact guard

    def test_identity_case_all_methods(self, tmp_path, capsys):
        path = tmp_path / "eye.mtx"
        write_matrix_market(DenseOperator(np.eye(50)), path)
        code = main(["bench", str(path), "-m", "10", "-d", "8",
                     "--methods", "maxent,taylor,chebyshev,lanczos,exact"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        by_method = {r["method"]: r for r in rows}
        # exact answer is 0, so rel_error degrades to absolute error
        for method in ("taylor", "chebyshev", "lanczos", "exact"):
            assert float(by_method[method]["rel_error"]) <= 1e-6
        assert float(by_method["maxent"]["rel_error"]) <= 0.05

    def test_zero_size_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "zero.mtx"
        path.write_text(IDENTITY_HEADER + "0 0 0\n")
        assert main(["bench", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"error reading {path}: ")

    def test_json_flag(self, capsys):
        code = main(["bench", "--lengthscales", "0.3", "--se-kernel", "n=60",
                     "-m", "5", "-d", "5", "--methods", "lanczos",
                     "--json", "--csv", "/dev/null"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["method"] == "lanczos"

    def test_json_writes_non_finite_as_null(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "condition_number_estimate", lambda op: float("inf"))
        code = main(["bench", "--lengthscales", "0.3", "--se-kernel", "n=60",
                     "-m", "5", "-d", "5", "--methods", "taylor", "--kappa",
                     "--json", "--csv", "/dev/null"])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload[0]["kappa"] is None
        assert payload[0]["rel_error"] >= 0.0


@pytest.mark.parametrize("command", ["estimate", "moments"])
def test_indefinite_moments_are_numerical_error(command, tmp_path, capsys):
    # a Chebyshev moment sample of 18.6 proves an eigenvalue below 0
    assert main([command, "--mtx", write_five_negative(tmp_path)]) == 4
    assert_one_error_line(capsys.readouterr(), prefix="numerical failure: ")


@pytest.mark.parametrize("command", ["estimate", "moments", "bench"])
def test_non_finite_entry_is_parse_error(command, tmp_path, capsys):
    path = tmp_path / "nan.mtx"
    path.write_text(IDENTITY_HEADER + "2 2 2\n1 1 nan\n2 2 1.0\n")
    argv = [command, str(path)] if command == "bench" else [command, "--mtx", str(path)]
    assert main(argv) == 3
    assert "non-finite" in capsys.readouterr().err
