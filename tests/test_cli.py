"""Command-line interface: parsing, exit codes, and output formats."""

import csv
import io
import json

import numpy as np
import pytest

from specdet import cli
from specdet.cli import main
from specdet.estimators import logdet_exact
from specdet.linop import DenseOperator, write_matrix_market
from specdet.synth import KernelSpec, se_kernel

IDENTITY_HEADER = "%%MatrixMarket matrix coordinate real symmetric\n"


def write_diag124(tmp_path):
    path = tmp_path / "diag.mtx"
    write_matrix_market(DenseOperator(np.diag([1.0, 2.0, 4.0])), path)
    return str(path)


class TestEstimate:
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

    def test_two_sources_is_parse_error(self, tmp_path, capsys):
        code = main(["estimate", "--identity", "5",
                     "--mtx", write_diag124(tmp_path)])
        assert code == 3

    def test_missing_file_is_parse_error(self, capsys):
        assert main(["estimate", "--mtx", "/does/not/exist.mtx"]) == 3

    def test_malformed_file_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("not a matrix market file\n")
        assert main(["estimate", "--mtx", str(bad)]) == 3

    def test_not_positive_definite_is_numerical_error(self, tmp_path, capsys):
        path = tmp_path / "indef.mtx"
        write_matrix_market(DenseOperator(np.diag([1.0, -1.0])), path)
        assert main(["estimate", "--mtx", str(path), "--method", "exact"]) == 4

    def test_bad_method_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--identity", "5", "--method", "qr"])
        assert exc.value.code == 2

    def test_bad_kernel_key_is_parse_error(self, capsys):
        assert main(["estimate", "--se-kernel", "n=10,q=3"]) == 3

    @pytest.mark.parametrize("flag", [("--gtol", "0"), ("--jitter", "0"),
                                      ("-m", "0"), ("-d", "0")],
                             ids=["gtol", "jitter", "m", "d"])
    def test_out_of_range_estimator_flag_is_usage_error(self, flag, capsys):
        assert main(["estimate", "--identity", "20", *flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_empty_identity_is_parse_error(self, capsys):
        assert main(["estimate", "--identity", "0"]) == 3

    def test_empty_mtx_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "empty.mtx"
        path.write_text(IDENTITY_HEADER + "0 0 0\n")
        assert main(["estimate", "--mtx", str(path)]) == 3


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
        assert main(["moments", "--mtx", str(path)]) == 4
        assert main(["estimate", "--mtx", str(path)]) == 4

    def test_bad_basis_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--identity", "3", "--basis", "fourier"])
        assert exc.value.code == 2


class TestBench:
    def test_empty_methods_is_usage_error(self, capsys):
        code = main(["bench", "--lengthscales", "0.5", "--methods", ""])
        assert code == 2

    def test_unknown_method_is_usage_error(self, capsys):
        code = main(["bench", "--lengthscales", "0.5", "--methods", "maxent,qr"])
        assert code == 2

    def test_no_cases_is_usage_error(self, capsys):
        assert main(["bench"]) == 2

    def test_out_of_range_flag_is_usage_error_before_any_case(self, monkeypatch, capsys):
        def no_case(*args):
            raise AssertionError("a case was built")

        monkeypatch.setattr(cli, "se_kernel", no_case)
        assert main(["bench", "--lengthscales", "0.5", "-d", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_sweep_shape(self, tmp_path, capsys):
        # 9 lengthscales x 3 methods mirrors the dense benchmark table
        out_csv = tmp_path / "bench.csv"
        ls = ",".join(str(round(0.05 + 0.1 * i, 2)) for i in range(9))
        code = main(["bench", "--lengthscales", ls, "--n", "120", "--dim", "6",
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

    def test_json_flag(self, capsys):
        code = main(["bench", "--lengthscales", "0.3", "--n", "60",
                     "-m", "5", "-d", "5", "--methods", "lanczos",
                     "--json", "--csv", "/dev/null"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["method"] == "lanczos"
