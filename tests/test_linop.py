"""Operator backends, Gershgorin bound, and Matrix Market ingestion."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from specdet.linop import (DenseOperator, LinearOperator, MatrixMarketError,
                           NormalizedOperator, SparseOperator, gershgorin_upper_bound,
                           identity, normalize, read_matrix_market, row_blocks,
                           write_matrix_market)


def tridiag(n, diag=2.0, off=-1.0):
    A = np.diag(np.full(n, diag))
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = off
    return A


def col(*values):
    return np.array(values, dtype=float)[:, None]


class TestMatvec:
    """Matrix-vector products, applied as single-column blocks."""

    def test_identity(self):
        assert np.array_equal(identity(3).matmat(col(1.0, 2.0, 3.0)), col(1.0, 2.0, 3.0))

    def test_identity_is_stored_sparse(self):
        # n values and indices, not the 8 TB of an n x n array: 16 MB with
        # scipy's 4-byte indices, 24 MB with 8-byte ones
        op = identity(10**6)
        assert isinstance(op, SparseOperator) and op.symmetric
        assert op.nbytes <= 24 * (10**6 + 1)

    def test_diagonal(self):
        op = DenseOperator(np.diag([1.0, 2.0, 4.0]))
        assert np.array_equal(op.matmat(col(1.0, 1.0, 1.0)), col(1.0, 2.0, 4.0))

    def test_tridiagonal_row(self):
        op = DenseOperator(tridiag(3))
        assert np.array_equal(op.matmat(col(1.0, 0.0, 0.0)), col(2.0, -1.0, 0.0))

    def test_dimension_mismatch(self):
        sparse = SparseOperator.from_coo([0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0], 3)
        for op in (DenseOperator(np.eye(3)), sparse):
            with pytest.raises(ValueError):
                op.matmat(col(1.0, 2.0))

    def test_matmat_matches_matvec(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 6))
        A = A + A.T
        op = DenseOperator(A)
        X = rng.standard_normal((6, 4))
        cols = np.column_stack([A @ X[:, j] for j in range(4)])
        assert np.allclose(op.matmat(X), cols)


def _block(layout, n, k, rng):
    """An n-by-k block laid out row-major, column-major, or as a strided view."""
    if layout == "C":
        return rng.standard_normal((n, k))
    if layout == "F":
        return np.asfortranarray(rng.standard_normal((n, k)))
    # column j of a Lanczos basis Q[:, j] is a (k, n) view with gaps between rows
    return rng.standard_normal((k, 3, n))[:, 1].T


def assert_product_close(Y, A, X):
    # two float64 products of length-n dot products differ by at most
    # 2 n eps |A| |X| entrywise, whatever order BLAS sums them in
    bound = 2 * A.shape[0] * np.finfo(float).eps * (np.abs(A) @ np.abs(X))
    assert np.all(np.abs(Y - A @ X) <= bound)


class TestDenseProduct:
    """The dense product is A X, written column-major by BLAS."""

    @pytest.mark.parametrize("layout", ["C", "strided"])
    def test_benchmark_shape(self, layout):
        # dense-se's moment pass multiplies C blocks, its SLQ strided ones
        n, k = 2000, 50
        rng = np.random.default_rng(11)
        A = rng.standard_normal((n, n))
        A = A + A.T
        X = _block(layout, n, k, rng)
        assert_product_close(DenseOperator(A).matmat(X), A, X)

    @pytest.mark.parametrize("block", ["C", "F", "strided"])
    @pytest.mark.parametrize("stored", ["C", "F", "strided"])
    def test_no_matrix_copy_per_product(self, stored, block):
        # BLAS reads A in place whatever layout it was built from; a copy of
        # A alone would take n^2 * 8 bytes (8 MB here) on every product
        n, k = 1000, 30
        rng = np.random.default_rng(5)
        M = rng.standard_normal((n, n))
        A = {"C": M, "F": np.asfortranarray(M),
             "strided": np.repeat(M, 2, axis=1)[:, ::2]}[stored]
        op = DenseOperator(A)
        X = _block(block, n, k, rng)
        tracemalloc.start()
        try:
            Y = op.matmat(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 // 8
        assert_product_close(Y, M, X)

    def test_c_matrix_stored_without_copy(self):
        A = tridiag(40)
        assert DenseOperator(A).A is A

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non-symmetric"])
    @pytest.mark.parametrize("k", [1, 30])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_matches_a_times_x(self, layout, k, symmetric):
        n = 200
        rng = np.random.default_rng(7)
        A = rng.standard_normal((n, n))
        if symmetric:
            A = A + A.T
        X = _block(layout, n, k, rng)
        Y = DenseOperator(A).matmat(X)
        assert Y.shape == (n, k)
        assert_product_close(Y, A, X)
        # callers may overwrite the result in place
        assert not np.shares_memory(Y, X) and not np.shares_memory(Y, A)
        if X.flags.c_contiguous:
            # the moment pass relies on row-major blocks
            assert Y.flags.c_contiguous
        else:
            # SLQ takes the transpose as its rows without a copy
            assert Y.T.flags.c_contiguous


class TestSparseOperator:
    def test_lower_triangle_expansion(self):
        # full matrix [[2,-1],[-1,2]] from its lower triangle only
        op = SparseOperator.from_coo([0, 1, 1], [0, 0, 1], [2.0, -1.0, 2.0], 2)
        assert np.allclose(op.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])
        assert np.allclose(op.matmat(col(1.0, 0.0)), col(2.0, -1.0))

    def test_upper_triplets_are_swapped(self):
        op = SparseOperator.from_coo([0, 0, 1], [0, 1, 1], [2.0, -1.0, 2.0], 2)
        assert np.allclose(op.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])

    def test_abs_row_sums_match_dense(self):
        rng = np.random.default_rng(1)
        A = np.tril(rng.standard_normal((7, 7)))
        A = A + np.tril(A, -1).T
        op = SparseOperator.from_coo(*np.nonzero(np.tril(A)),
                                     np.tril(A)[np.nonzero(np.tril(A))], 7)
        assert np.allclose(op.abs_row_sums(), np.abs(A).sum(axis=1))

    @pytest.mark.parametrize("empty", [[0], [3], [6], range(7)],
                             ids=["first-row", "middle-row", "last-row", "nnz-0"])
    def test_abs_row_sums_with_empty_rows(self, empty):
        # the per-row sums skip rows without entries, which a reduceat over
        # the row starts would give the next row's first entry
        rng = np.random.default_rng(4)
        A = rng.standard_normal((7, 7))
        A = A + A.T
        A[list(empty), :] = A[:, list(empty)] = 0.0
        op = SparseOperator(sp.tril(A, format="csr"))
        expected = np.asarray(abs(sp.csr_matrix(A)).sum(axis=1)).ravel()
        assert np.array_equal(op.abs_row_sums(), expected)

    @pytest.mark.parametrize("big", [1e308, np.finfo(float).max], ids=["1e308", "max"])
    def test_huge_finite_entries_kept(self, big):
        assert np.array_equal(SparseOperator.from_coo([0], [0], [big], 1).to_dense(), [[big]])
        op = SparseOperator.from_coo([0, 1, 1], [0, 0, 1], [big, -big, big], 2)
        assert np.array_equal(op.to_dense(), [[big, -big], [-big, big]])

    def test_matmat_matches_dense(self):
        op = SparseOperator.from_coo([0, 1, 1, 2], [0, 0, 1, 2],
                                     [2.0, -1.0, 2.0, 3.0], 3)
        X = np.random.default_rng(2).standard_normal((3, 5))
        assert np.allclose(op.matmat(X), op.to_dense() @ X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            SparseOperator.from_coo([0, 1, 1], [0, 0, 1], [2.0, bad, 2.0], 2)

    def test_entry_above_the_diagonal_rejected(self):
        # it would be multiplied with but not mirrored, nor read by the oracle
        with pytest.raises(ValueError, match=r"above the diagonal.*sp\.tril"):
            SparseOperator(sp.csr_matrix([[2.0, 1.0], [1.0, 2.0]]))
        lower = sp.csr_matrix(([0.0, 2.0], ([0, 1], [1, 1])), shape=(2, 2))
        assert np.array_equal(SparseOperator(lower).to_dense(), [[0.0, 0.0], [0.0, 2.0]])

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0)], ids=["non-square", "empty"])
    def test_triangle_shape_gives_n(self, shape):
        assert SparseOperator(sp.tril(np.eye(3))).n == 3
        with pytest.raises(ValueError, match=r"square and at least 1x1, got \(%d, %d\)" % shape):
            SparseOperator(sp.csr_matrix(shape))


@pytest.mark.parametrize("n, width", [(1, 1), (300, None), (256, 30), (2000, 50),
                                      (20_000, 4), (22_500, 10), (5, 40_000)])
def test_row_blocks_cover_rows_in_order(n, width):
    blocks = row_blocks(n, width)
    rows = 32768 // (n if width is None else width)
    assert [i for i, _ in blocks] == [0] + [e for _, e in blocks[:-1]]
    assert blocks[-1][1] == n
    assert all(0 < e - i <= max(1, rows) for i, e in blocks)
    if width is None:
        assert blocks == row_blocks(n, n)


class TestDenseOperator:
    def test_abs_row_sums_exact_across_row_blocks(self):
        # 300 rows span several row blocks, the last one short
        rng = np.random.default_rng(3)
        A = rng.standard_normal((300, 300))
        A = A + A.T
        assert np.array_equal(DenseOperator(A).abs_row_sums(), np.abs(A).sum(axis=1))

    @pytest.mark.parametrize("row", [0, 150, 299], ids=["first-block", "middle", "last-row"])
    def test_non_finite_entry_in_any_row_block_rejected(self, row):
        # 300 rows span several row blocks, the last one short
        A = np.eye(300)
        A[row, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DenseOperator(A)

    def test_finiteness_check_allocates_no_n_by_n_mask(self):
        # a whole-matrix isfinite mask alone would be A.nbytes / 8
        A = np.eye(1000)
        tracemalloc.start()
        try:
            DenseOperator(A, symmetric=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.nbytes // 50

    @pytest.mark.parametrize("i, j", [(0, 1), (5, 200), (130, 140), (256, 130), (100, 299),
                                      (299, 0), (298, 299)])
    def test_one_asymmetric_entry_in_any_tile_detected(self, i, j):
        # entries above and below the diagonal, at the first and last rows
        rng = np.random.default_rng(4)
        A = rng.standard_normal((300, 300))
        A = A + A.T
        assert DenseOperator(A).symmetric
        A[i, j] += 1e-12
        assert not DenseOperator(A).symmetric

    def test_symmetry_check_allocates_no_n_by_n_mask(self):
        # an A == A.T mask alone would be A.nbytes / 8
        A = np.eye(1000)
        tracemalloc.start()
        try:
            op = DenseOperator(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.symmetric
        assert peak < A.nbytes // 50

    def test_symmetric_false_still_compares(self):
        # True is the caller's guarantee; without it the matrix decides
        assert DenseOperator(np.eye(3), symmetric=False).symmetric
        assert not DenseOperator([[2.0, 0.1], [0.0, 2.0]]).symmetric
        assert DenseOperator([[2.0, 0.1], [0.0, 2.0]], symmetric=True).symmetric
        # the comparison is exact, and -0.0 == 0.0
        assert DenseOperator([[1.0, -0.0], [0.0, 1.0]]).symmetric

    def test_base_class_has_no_product(self):
        with pytest.raises(NotImplementedError):
            LinearOperator().matmat(np.ones((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,)], ids=["non-square", "empty", "1d"])
    def test_shape_must_be_square_and_non_empty(self, shape):
        # one rule and one message, as for SparseOperator
        with pytest.raises(ValueError, match=re.escape(
                f"matrix must be square and at least 1x1, got shape {shape}")):
            DenseOperator(np.zeros(shape))


class TestNbytes:
    """Operators report the bytes of the matrix they store."""

    def test_dense_is_its_array(self):
        A = tridiag(40)
        assert DenseOperator(A).nbytes == A.nbytes == 40 * 40 * 8

    def test_sparse_counts_its_csr_matrix(self):
        # the lower triangle is read out of the full matrix, not stored
        op = SparseOperator.from_coo([0, 1, 1, 2], [0, 0, 1, 2],
                                     [2.0, -1.0, 2.0, 3.0], 3)
        M = op._full
        assert op.nbytes == M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
        assert op._full.nnz == 5 and op.lower.nnz == 4

    def test_delegating_subclass_reports_unknown(self):
        class Delegating(LinearOperator):
            def __init__(self, inner):
                self.inner = inner
                self.n = inner.n

            def matmat(self, X):
                return self.inner.matmat(X)

        assert Delegating(DenseOperator(tridiag(40))).nbytes == 0


class TestNormalizedOperator:
    @pytest.mark.parametrize("A", [[[2.0, 0.1], [0.0, 2.0]], [[2.0, 1.0], [0.0, 2.0]]],
                             ids=["off-0.1", "off-1"])
    def test_non_symmetric_refused(self, A):
        # the moment pass and Lanczos would answer for neither A nor its
        # symmetric part, or raise a misleading NotPositiveDefiniteError
        with pytest.raises(ValueError, match="symmetric"):
            NormalizedOperator(DenseOperator(A), 2.1)


class TestGershgorin:
    def test_identity(self):
        assert gershgorin_upper_bound(identity(3)) == 1.0

    def test_diagonal(self):
        assert gershgorin_upper_bound(DenseOperator(np.diag([1.0, 2.0, 4.0]))) == 4.0

    def test_tridiagonal_2x2(self):
        # |2| + |-1| = 3; true lambda_max is also 3, the bound is tight here
        op = DenseOperator(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert gershgorin_upper_bound(op) == 3.0

    def test_bounds_lambda_max(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((10, 10))
        A = A @ A.T
        op = DenseOperator(A)
        assert gershgorin_upper_bound(op) >= np.linalg.eigvalsh(A)[-1] - 1e-12

    def test_normalize_spectrum_in_unit_interval(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 8))
        A = A @ A.T + np.eye(8)
        B = normalize(DenseOperator(A))
        lam = np.linalg.eigvalsh(A) / B.lambda_u
        assert lam.max() <= 1.0 + 1e-12
        assert lam.min() > 0.0

    def test_non_symmetric_bound_is_the_row_sum_and_normalize_refuses(self):
        # Gershgorin's discs bound the eigenvalues of any square matrix; the
        # refusal of a non-symmetric one is NormalizedOperator's
        op = DenseOperator([[2.0, 0.1], [0.0, 2.0]])
        assert gershgorin_upper_bound(op) == 2.1
        with pytest.raises(ValueError, match="symmetric"):
            normalize(op)

    @pytest.mark.parametrize("make", [DenseOperator, lambda A: SparseOperator(sp.tril(A))],
                             ids=["dense", "sparse"])
    def test_overflowing_row_sum_refused_without_a_warning(self, make):
        # every entry is finite; the absolute row sums are not
        op = make(np.array([[1.5e308, 1e308], [1e308, 1.5e308]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite entry, or an absolute row sum "
                                                 "overflows"):
                gershgorin_upper_bound(op)


class TestMatrixMarket:
    def write(self, tmp_path, text, name="m.mtx"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_explicit_2x2(self, tmp_path):
        path = self.write(tmp_path,
                          "%%MatrixMarket matrix coordinate real symmetric\n"
                          "2 2 3\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n")
        op = read_matrix_market(path)
        assert np.allclose(op.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])

    def test_general_declaration_rejected(self, tmp_path):
        path = self.write(tmp_path,
                          "%%MatrixMarket matrix coordinate real general\n2 3 0\n")
        with pytest.raises(MatrixMarketError, match="non-symmetric"):
            read_matrix_market(path)

    def test_non_square_rejected(self, tmp_path):
        path = self.write(tmp_path,
                          "%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n")
        with pytest.raises(MatrixMarketError, match="not square"):
            read_matrix_market(path)

    def test_empty_entry_list_is_zero_operator(self, tmp_path):
        path = self.write(tmp_path,
                          "%%MatrixMarket matrix coordinate real symmetric\n3 3 0\n")
        op = read_matrix_market(path)
        assert op.n == 3
        assert np.array_equal(op.to_dense(), np.zeros((3, 3)))

    @pytest.mark.parametrize("declaration, message", [
        ("array real symmetric", "unsupported format 'array'"),
        ("coordinate integer symmetric", "unsupported field type 'integer'"),
    ], ids=["array", "integer"])
    def test_unsupported_declaration_rejected(self, tmp_path, declaration, message):
        path = self.write(tmp_path, f"%%MatrixMarket matrix {declaration}\n2 2 1\n1 1 1\n")
        with pytest.raises(MatrixMarketError, match=message):
            read_matrix_market(path)

    def test_malformed_header(self, tmp_path):
        path = self.write(tmp_path, "%%NotMatrixMarket whatever\n2 2 0\n")
        with pytest.raises(MatrixMarketError, match="malformed Matrix Market header"):
            read_matrix_market(path)

    def test_index_out_of_range(self, tmp_path):
        path = self.write(tmp_path,
                          "%%MatrixMarket matrix coordinate real symmetric\n"
                          "2 2 1\n3 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="out of range"):
            read_matrix_market(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path,
                          "%%MatrixMarket matrix coordinate real symmetric\n"
                          "% a comment\n2 2 2\n\n1 1 1.5\n% another\n2 2 2.5\n")
        op = read_matrix_market(path)
        assert np.allclose(op.to_dense(), np.diag([1.5, 2.5]))

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        A = np.tril(rng.standard_normal((6, 6)))
        A = A + np.tril(A, -1).T
        op = DenseOperator(A, symmetric=True)
        path = tmp_path / "rt.mtx"
        write_matrix_market(op, path)
        back = read_matrix_market(path)
        assert np.array_equal(back.to_dense(), A)

    @pytest.mark.parametrize("body, message", [
        ("3 3 3\n1 1 1.0\n", "expected 3 entries, found 1"),
        ("2 2 2\n% only comments\n\n% and blank lines\n\n", "expected 2 entries, found 0"),
        ("2 2 0\n1 1 1.0\n", "expected 0 entries, found 1"),
    ], ids=["too-few", "comments-only", "surplus-after-zero"])
    def test_entry_count_mismatch(self, tmp_path, body, message):
        path = self.write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MatrixMarketError, match=message):
                read_matrix_market(path)

    @pytest.mark.parametrize("body, message", [
        ("2 2 -1\n", "malformed size line"),
        ("2 2 1\n1.5 1 1.0\n", r"malformed entry line: .*\(row 0 is line 3\)"),
        ("2 2 1\n0 1 1.0\n", r"index out of range: \(0, 1\) for n=2"),
        ("2 2 1\n1 1\n", "malformed entry line"),
        ("2 2 1\n1 1 1.0 2.0\n", "malformed entry line"),
        ("2 2\n", r"malformed size line: '2 2'"),
        ("2 x 2\n", r"malformed size line: '2 x 2'"),
        ("2 2 1 1\n", r"malformed size line: '2 2 1 1'"),
    ], ids=["negative-count", "fractional-index", "zero-index", "two-fields", "four-fields",
            "two-size-fields", "non-integer-size", "four-size-fields"])
    def test_malformed_lines_rejected(self, tmp_path, body, message):
        path = self.write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n" + body)
        # outside the test suite a DeprecationWarning is ignored, not raised
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(MatrixMarketError, match=message):
                read_matrix_market(path)

    @pytest.mark.parametrize("body, off_diagonal", [
        ("2 2 3\n1 1 2.0\n1 2 -1.0\n2 2 2.0\n", -1.0),
    ], ids=["upper-mirrored"])
    def test_entries_folded_into_lower_triangle(self, tmp_path, body, off_diagonal):
        path = self.write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n" + body)
        op = read_matrix_market(path)
        assert np.array_equal(op.lower.toarray(), [[2.0, 0.0], [off_diagonal, 2.0]])
        assert np.array_equal(op.to_dense(), [[2.0, off_diagonal], [off_diagonal, 2.0]])

    @pytest.mark.parametrize("body, position", [
        # adding up would read [[2, 2], [2, 2]], whose log det is -inf, not log 3
        ("2 2 4\n1 1 2\n2 1 1\n1 2 1\n2 2 2\n", "(2, 1)"),
        ("2 2 4\n1 1 2.0\n2 1 -1.0\n1 2 -0.5\n2 2 2.0\n", "(2, 1)"),
        ("3 3 4\n1 1 2.0\n3 3 1.0\n2 2 1.0\n3 3 1.0\n", "(3, 3)"),
        ("3 3 3\n3 1 0\n2 2 1.0\n3 1 0\n", "(3, 1)"),
    ], ids=["both-triangles", "both-triangles-unequal", "diagonal", "explicit-zero"])
    def test_position_given_twice_rejected(self, tmp_path, body, position):
        path = self.write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n" + body)
        with pytest.raises(MatrixMarketError,
                           match=re.escape(f"position {position} given more than once")):
            read_matrix_market(path)

    def test_written_text(self, tmp_path):
        A = np.array([[4.0, -1.0, 0.0], [-1.0, 4.0, 0.1], [0.0, 0.1, 2.0]])
        path = tmp_path / "w.mtx"
        write_matrix_market(DenseOperator(A), path)
        assert path.read_text() == (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 5\n1 1 4\n2 1 -1\n2 2 4\n3 2 0.10000000000000001\n3 3 2\n")

    def test_non_symmetric_operator_not_written(self, tmp_path):
        path = tmp_path / "n.mtx"
        with pytest.raises(ValueError, match="only symmetric operators can be written"):
            write_matrix_market(DenseOperator([[2.0, 0.1], [0.0, 2.0]]), path)
        assert not path.exists()

    def test_sparse_explicit_zeros_are_not_written(self, tmp_path):
        # the operator keeps no explicit zero, on or off the diagonal
        op = SparseOperator.from_coo([0, 1, 1, 2], [0, 0, 1, 2], [2.0, 0.0, 3.0, 0.0], 3)
        path = tmp_path / "zeros.mtx"
        write_matrix_market(op, path)
        assert path.read_text() == (
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 2\n2 2 3\n")
        assert np.array_equal(read_matrix_market(path).to_dense(), np.diag([2.0, 3.0, 0.0]))

    def test_sparse_round_trip_keeps_csr_arrays(self, tmp_path):
        n = 30
        i = np.arange(n)
        op = SparseOperator.from_coo(np.r_[i, i[1:]], np.r_[i, i[:-1]],
                                     np.r_[np.full(n, 2.0), np.full(n - 1, -1.0)], n)
        path = tmp_path / "lap.mtx"
        write_matrix_market(op, path)
        back = read_matrix_market(path)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(back.lower, name), getattr(op.lower, name))
        assert np.array_equal(back.to_dense(), op.to_dense())
