"""Symmetric linear operators with dense or sparse backing.

Everything downstream only needs block products `matmat` (the operator
applied to every column of an n-by-k array at once), the dimension, and a
cheap upper bound on the largest eigenvalue, so operators expose exactly
that. Operators also report the bytes of the matrix they store (`nbytes`),
which sizes the working memory an estimator may spend next to them. A
sparse symmetric matrix is given as one triangle; its operator keeps that
triangle plus one CSR matrix holding both, so a product is a single
sparse-times-dense call.

A dense product A X is one call to `scipy.linalg.blas.dgemm`, the
OpenBLAS that the Cholesky oracle and the condition number's eigensolve
run on, rather than numpy's `@`. The numpy and scipy wheels each
bundle their own OpenBLAS (0.3.31 ILP64 in numpy 2.4.6, 0.3.30 LP64 in
scipy 1.17.1), and both are loaded. After a threaded call a library keeps
its worker thread spinning for about 0.1 s, which on two cores halves the
other library's two-thread throughput: a Cholesky slowed the products
that followed it, and products slowed the Cholesky that followed them. With one library for
both, the worker that is still hot picks up the next call. Measured on a
2-core x86 VM with the benchmark's dense workload (SE kernels, n=2000,
m=30, d=50; medians of 12 runs): maxent 164 -> 118 ms, the Cholesky oracle
140 -> 95 ms.

dgemm is asked for A X column-major, with the long n as its GEMM row
count, which is OpenBLAS's fast shape. A is stored C-contiguous, so A^T is
Fortran-ordered and goes in with `trans_a` without a copy; a stored
Fortran or strided A would be copied whole on every product (5.1 -> 23 ms
at n=2000, k=50). A C-contiguous X goes in as X^T with `trans_b`, a
Fortran one as it is, and a strided one is copied column by column, never
transposed. A C-contiguous X gets its result copied back to row-major; any
other X gets the column-major result as BLAS wrote it. The values equal
those of numpy's A @ X bit for bit at the benchmark's shapes, (256, 30)
and (2000, 50), but not at every size and block width (numpy uses gemv
at k=1), so elsewhere they may differ by round-off.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dgemm


_ROW_BLOCK_ELEMS = 1 << 15
_ENTRY_DTYPE = [("i", np.int64), ("j", np.int64), ("v", float)]


def row_blocks(n: int) -> list:
    """(start, stop) of the row blocks, of ~256 KB, that an n-column array is walked in."""
    step = max(1, _ROW_BLOCK_ELEMS // n)
    return [(i, min(i + step, n)) for i in range(0, n, step)]


class MatrixMarketError(ValueError):
    """Raised for files that violate the coordinate symmetric contract."""


class NotPositiveDefiniteError(ValueError):
    """Raised when a computation proves the matrix is not positive definite."""


class LinearOperator:
    """Base class: square operator of dimension n supporting matmat."""

    n: int
    symmetric: bool

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Apply to each column of X at once; returns a new array.

        Callers may overwrite the result. It is C-contiguous when X is.
        """
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Bytes of the stored matrix; 0 when the storage is unknown."""
        return 0

    def to_dense(self) -> np.ndarray:
        raise NotImplementedError

    def abs_row_sums(self) -> np.ndarray:
        raise NotImplementedError


class DenseOperator(LinearOperator):
    """Operator backed by a dense symmetric ndarray."""

    def __init__(self, matrix: np.ndarray, symmetric: bool | None = None):
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got shape {A.shape}")
        if A.shape[0] < 1:
            raise ValueError("matrix must be at least 1x1")
        # row blocks stay in cache instead of allocating an n x n mask
        if not all(np.isfinite(A[i:e]).all() for i, e in row_blocks(A.shape[0])):
            raise ValueError("matrix contains non-finite entries")
        # A^T must be Fortran-ordered for dgemm to take it without a copy
        self.A = np.ascontiguousarray(A)
        self.n = A.shape[0]
        if symmetric is None:
            symmetric = bool(np.array_equal(A, A.T))
        self.symmetric = symmetric

    def matmat(self, X: np.ndarray) -> np.ndarray:
        # f2py reports a mismatch as _fblas.error, not ValueError
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(f"block of shape {X.shape} does not match n={self.n}")
        # dgemm writes A X column-major from Fortran-ordered views (module docstring)
        if X.flags.c_contiguous:
            return np.ascontiguousarray(dgemm(1.0, self.A.T, X.T, trans_a=True, trans_b=True))
        return dgemm(1.0, self.A.T, X, trans_a=True)

    @property
    def nbytes(self) -> int:
        return self.A.nbytes

    def to_dense(self) -> np.ndarray:
        return self.A.copy()

    def abs_row_sums(self) -> np.ndarray:
        # row blocks of ~256 KB stay in cache instead of allocating all of |A|
        out = np.empty(self.n)
        for i, e in row_blocks(self.n):
            np.abs(self.A[i:e]).sum(axis=1, out=out[i:e])
        return out


class SparseOperator(LinearOperator):
    """Symmetric sparse operator built from its lower triangle.

    `lower` keeps the triangle as given, for writing it back out; products,
    the dense copy and the row sums use one CSR matrix holding the whole
    matrix, lower plus the transpose of its strictly lower part. Adding
    only entries of disjoint positions keeps every value as given, however
    large. CSR products stay as scipy computes them, row-major: on the
    n=22,500 grid Laplacian with 10 columns they take 0.55 ms on row-major
    blocks against 2.2-2.4 ms on column-major or strided ones.
    """

    def __init__(self, lower: sp.csr_matrix, n: int):
        if n < 1:
            raise ValueError("matrix must be at least 1x1")
        lower = sp.csr_matrix(lower)
        if lower.shape != (n, n):
            raise ValueError("lower-triangle storage must be n-by-n")
        if not np.isfinite(lower.data).all():
            raise ValueError("matrix contains non-finite entries")
        self.lower = lower
        self._full = sp.csr_matrix(lower + sp.tril(lower, -1).T)
        self.n = n
        self.symmetric = True

    @classmethod
    def from_coo(cls, rows, cols, vals, n: int) -> "SparseOperator":
        """Build from triplets of one triangle (row >= col after swap)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        swap = cols > rows
        r = np.where(swap, cols, rows)
        c = np.where(swap, rows, cols)
        lower = sp.coo_matrix((vals, (r, c)), shape=(n, n)).tocsr()
        return cls(lower, n)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self._full @ X

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for M in (self.lower, self._full)
                   for a in (M.data, M.indices, M.indptr))

    def to_dense(self) -> np.ndarray:
        return self._full.toarray()

    def diagonal(self) -> np.ndarray:
        return self.lower.diagonal()

    def abs_row_sums(self) -> np.ndarray:
        return np.asarray(abs(self._full).sum(axis=1)).ravel()


class NormalizedOperator:
    """B = K / lambda_u with all eigenvalues in (0, 1] for PD K."""

    def __init__(self, inner: LinearOperator, lambda_u: float):
        if not (lambda_u > 0 and np.isfinite(lambda_u)):
            raise ValueError("lambda_u must be positive and finite")
        self.inner = inner
        self.lambda_u = float(lambda_u)
        self.n = inner.n

    def matmat(self, X: np.ndarray) -> np.ndarray:
        out = self.inner.matmat(X)  # a new array, so it may be divided in place
        out /= self.lambda_u
        return out


def identity(n: int) -> DenseOperator:
    return DenseOperator(np.eye(n))


def gershgorin_upper_bound(op: LinearOperator) -> float:
    """Largest absolute row sum; upper-bounds lambda_max for symmetric op."""
    if not op.symmetric:
        raise ValueError("Gershgorin bound requires a symmetric operator")
    sums = op.abs_row_sums()
    if not np.isfinite(sums).all():
        raise ValueError("operator has non-finite entries")
    return float(sums.max())


def normalize(op: LinearOperator) -> NormalizedOperator:
    return NormalizedOperator(op, gershgorin_upper_bound(op))


def read_matrix_market(path) -> SparseOperator:
    """Read a coordinate real symmetric Matrix Market file.

    The entry list is parsed in one numpy pass; comments and blank lines
    may appear anywhere in it. Entries of either triangle are folded into
    the lower one, which the operator keeps next to the full matrix it
    multiplies with. Raises MatrixMarketError for malformed headers, size
    lines and entry lines, non-symmetric declarations, non-square sizes,
    an entry count that differs from the declared one, and out-of-range
    indices; the operator raises ValueError for non-finite values. A
    malformed entry line carries numpy's row number, which counts from the
    line after the size line; the message names that line's number.
    """
    with open(path, "r") as fh:
        header = fh.readline()
        fields = header.strip().split()
        if len(fields) != 5 or fields[0] != "%%MatrixMarket" or fields[1].lower() != "matrix":
            raise MatrixMarketError(f"malformed Matrix Market header: {header.strip()!r}")
        fmt, dtype, symm = (f.lower() for f in fields[2:5])
        if fmt != "coordinate":
            raise MatrixMarketError(f"unsupported format {fmt!r}; only coordinate is accepted")
        if dtype != "real":
            raise MatrixMarketError(f"unsupported field type {dtype!r}; only real is accepted")
        if symm != "symmetric":
            raise MatrixMarketError(f"non-symmetric declaration {symm!r}; only symmetric is accepted")

        line, lineno = fh.readline(), 2
        while line and line.lstrip().startswith("%"):
            line, lineno = fh.readline(), lineno + 1
        parts = line.split()
        if len(parts) != 3:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}")
        try:
            nrows, ncols, nnz = (int(p) for p in parts)
        except ValueError as exc:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}") from exc
        if nnz < 0:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}")
        if nrows != ncols:
            raise MatrixMarketError(f"matrix is not square: {nrows}x{ncols}")

        # an empty entry list is reported by the count check below
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # older numpy only warns, and truncates, on a fractional index
            warnings.filterwarnings("error", category=DeprecationWarning)
            try:
                entries = np.loadtxt(fh, dtype=_ENTRY_DTYPE, comments="%", ndmin=1)
            except ValueError as exc:
                raise MatrixMarketError(
                    f"malformed entry line: {exc} (row 0 is line {lineno + 1})") from exc

    i, j = entries["i"], entries["j"]
    if len(entries) != nnz:
        raise MatrixMarketError(f"expected {nnz} entries, found {len(entries)}")
    bad = np.flatnonzero((i < 1) | (i > nrows) | (j < 1) | (j > ncols))
    if bad.size:
        k = bad[0]
        raise MatrixMarketError(f"index out of range: ({i[k]}, {j[k]}) for n={nrows}")
    return SparseOperator.from_coo(i - 1, j - 1, entries["v"], nrows)


def write_matrix_market(op: LinearOperator, path) -> None:
    """Write the lower triangle as coordinate real symmetric, full precision."""
    if not op.symmetric:
        raise ValueError("only symmetric operators can be written as symmetric files")
    if isinstance(op, SparseOperator):
        lower = op.lower.tocoo()
        rows, cols, vals = lower.row, lower.col, lower.data
    else:
        A = op.to_dense()
        rows, cols = np.tril_indices(op.n)
        vals = A[rows, cols]
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((rows, cols))
    np.savetxt(path, np.column_stack((rows + 1, cols + 1, vals))[order],
               fmt="%d %d %.17g", comments="",
               header=f"%%MatrixMarket matrix coordinate real symmetric\n{op.n} {op.n} {len(vals)}")
