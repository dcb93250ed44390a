"""Symmetric linear operators with dense or sparse backing.

Everything downstream only needs block products `matmat` (the operator
applied to every column of an n-by-k array at once), the dimension, and a
cheap upper bound on the largest eigenvalue, so operators expose exactly
that. Operators also report the bytes of the matrix they store (`nbytes`),
which sizes the working memory an estimator may spend next to them. A
sparse symmetric matrix is given as one triangle; its operator keeps one
CSR matrix holding both triangles, so a product is a single
sparse-times-dense call, and reads the triangle back out of it.

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
from scipy.linalg import issymmetric
from scipy.linalg.blas import dgemm


_ROW_BLOCK_ELEMS = 1 << 15
_ENTRY_DTYPE = [("i", np.int64), ("j", np.int64), ("v", float)]


def row_blocks(n: int, width: int | None = None) -> list:
    """(start, stop) of the row blocks, of ~256 KB, that an n x width array is walked in.

    `width` defaults to n, for a square matrix. A block holds at most
    `_ROW_BLOCK_ELEMS // width` rows, and at least one, and the blocks
    cover rows 0..n-1 in order.
    """
    step = max(1, _ROW_BLOCK_ELEMS // (n if width is None else width))
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
    """Operator backed by a dense symmetric ndarray.

    `symmetric=True` is the caller's guarantee that the matrix is exactly
    symmetric, as a kernel built by mirroring its lower triangle is; it
    skips the comparison of A with A^T, `scipy.linalg.issymmetric`, that
    otherwise decides `symmetric`: exact, and with no n x n temporary.
    """

    def __init__(self, matrix: np.ndarray, symmetric: bool = False):
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise ValueError(f"matrix must be square and at least 1x1, got shape {A.shape}")
        # row blocks stay in cache instead of allocating an n x n mask
        if not all(np.isfinite(A[i:e]).all() for i, e in row_blocks(A.shape[0])):
            raise ValueError("matrix contains non-finite entries")
        # A^T must be Fortran-ordered for dgemm to take it without a copy
        self.A = np.ascontiguousarray(A)
        self.n = A.shape[0]
        self.symmetric = symmetric or issymmetric(self.A)

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

    The triangle is a square sparse matrix, at least 1x1, whose shape
    gives n. The operator stores one CSR matrix holding the whole matrix,
    lower plus the transpose of its strictly lower part; products, the
    dense copy, the diagonal and the row sums all read it. Adding only entries
    of disjoint positions keeps every value as given, however large, and
    drops explicit zeros, so `lower`, the triangle read back out of it for
    writing, holds every nonzero entry given and no explicit zero. CSR
    products stay as scipy computes them, row-major: on the n=22,500 grid
    Laplacian with 10 columns they take 0.55 ms on row-major blocks
    against 2.2-2.4 ms on column-major or strided ones.

    A nonzero entry of `lower` above the diagonal is refused: it would be
    multiplied with but not mirrored, so products would use a
    non-symmetric matrix while `symmetric` and the Cholesky oracle, which
    reads the lower triangle, describe another.
    """

    def __init__(self, lower: sp.csr_matrix):
        lower = sp.csr_matrix(lower)
        n = lower.shape[0]
        if lower.shape != (n, n) or n < 1:
            raise ValueError(f"lower triangle must be square and at least 1x1, got {lower.shape}")
        if not np.isfinite(lower.data).all():
            raise ValueError("matrix contains non-finite entries")
        rows = np.repeat(np.arange(n), np.diff(lower.indptr))
        if np.any((lower.indices > rows) & (lower.data != 0.0)):
            raise ValueError("lower-triangle storage has a nonzero entry above the diagonal; "
                             "pass sp.tril(A) of a symmetric A")
        self._full = sp.csr_matrix(lower + sp.tril(lower, -1).T)
        self.n = n
        self.symmetric = True

    @classmethod
    def from_coo(cls, rows, cols, vals, n: int) -> "SparseOperator":
        """Build from triplets of one triangle, folded to row >= col.

        n is given because triplets cannot show trailing empty rows.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        lower = sp.coo_matrix((vals, (np.maximum(rows, cols), np.minimum(rows, cols))),
                              shape=(n, n)).tocsr()
        return cls(lower)

    @property
    def lower(self) -> sp.csr_matrix:
        return sp.tril(self._full, format="csr")

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self._full @ X

    @property
    def nbytes(self) -> int:
        M = self._full
        return M.data.nbytes + M.indices.nbytes + M.indptr.nbytes

    def to_dense(self) -> np.ndarray:
        return self._full.toarray()

    def diagonal(self) -> np.ndarray:
        return self._full.diagonal()

    def abs_row_sums(self) -> np.ndarray:
        # one sum of |data| per stored row, without building |A|; reduceat
        # would give an empty row the next row's first entry, so only rows
        # with entries are summed and the others stay 0
        M = self._full
        out = np.zeros(self.n)
        stored = np.diff(M.indptr) > 0
        out[stored] = np.add.reduceat(np.abs(M.data), M.indptr[:-1][stored])
        return out


class NormalizedOperator:
    """B = K / lambda_u with all eigenvalues in (0, 1] for PD K.

    The validated pair (K, lambda_u), not an operator of its own: the moment
    pass and SLQ each multiply by `inner` and divide the product by
    `lambda_u` themselves, so neither makes a pass over the block that it
    does not need.

    K must be symmetric: the moment pass's doubling identities and the
    Lanczos recurrence both assume it, and on a non-symmetric K they would
    return numbers for neither K nor its symmetric part, so it is refused.
    """

    def __init__(self, inner: LinearOperator, lambda_u: float):
        if not inner.symmetric:
            raise ValueError("normalized operator requires a symmetric operator")
        if not (lambda_u > 0 and np.isfinite(lambda_u)):
            raise ValueError("lambda_u must be positive and finite")
        self.inner = inner
        self.lambda_u = float(lambda_u)
        self.n = inner.n


def identity(n: int) -> SparseOperator:
    """The n x n identity, stored sparse: n nonzeros, not an n x n array."""
    return SparseOperator(sp.identity(n, format="csr"))


def gershgorin_upper_bound(op: LinearOperator) -> float:
    """Largest absolute row sum, for any square op; it bounds |lambda| of every eigenvalue.

    `normalize` refuses a non-symmetric op after computing it.
    """
    # finite entries can still sum past the largest float; that is refused here
    with np.errstate(over="ignore"):
        sums = op.abs_row_sums()
    if not np.isfinite(sums).all():
        raise ValueError("operator has a non-finite entry, or an absolute row sum overflows")
    return float(sums.max())


def normalize(op: LinearOperator) -> NormalizedOperator:
    return NormalizedOperator(op, gershgorin_upper_bound(op))


def read_matrix_market(path) -> SparseOperator:
    """Read a coordinate real symmetric Matrix Market file.

    The entry list is parsed in one numpy pass; comments and blank lines
    may appear anywhere in it. Entries of either triangle are folded into
    the lower one, from which the operator builds the full matrix it
    multiplies with. Raises MatrixMarketError for malformed headers, size
    lines and entry lines, non-symmetric declarations, non-square sizes,
    an entry count that differs from the declared one, out-of-range
    indices, and a position given twice, in one triangle or both, which
    the fold would add up; the operator raises ValueError for non-finite
    values. A malformed entry line carries numpy's row number, which
    counts from the line after the size line; the message names that
    line's number.
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
        # a wrong field count fails the unpacking, as a non-integer field fails int()
        try:
            nrows, ncols, nnz = (int(p) for p in line.split())
            if nnz < 0:
                raise ValueError
        except ValueError as exc:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}") from exc
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
    rows, cols = np.maximum(i, j), np.minimum(i, j)
    lower = sp.coo_matrix((entries["v"], (rows - 1, cols - 1)), shape=(nrows, nrows)).tocsr()
    if lower.nnz != nnz:  # the conversion adds up the entries of one position
        pos, count = np.unique(np.c_[rows, cols], axis=0, return_counts=True)
        raise MatrixMarketError("position ({}, {}) given more than once".format(*pos[count > 1][0]))
    return SparseOperator(lower)


def write_matrix_market(op: LinearOperator, path) -> None:
    """Write the lower triangle as coordinate real symmetric, full precision.

    Only nonzero entries are written: a sparse operator holds no explicit
    zero, and a dense operator's triangle goes through the same sparse
    form, which keeps none.
    """
    if not op.symmetric:
        raise ValueError("only symmetric operators can be written as symmetric files")
    lower = (op.lower if isinstance(op, SparseOperator) else sp.tril(op.to_dense())).tocoo()
    rows, cols, vals = lower.row, lower.col, lower.data
    order = np.lexsort((rows, cols))
    np.savetxt(path, np.column_stack((rows + 1, cols + 1, vals))[order],
               fmt="%d %d %.17g", comments="",
               header=f"%%MatrixMarket matrix coordinate real symmetric\n{op.n} {op.n} {len(vals)}")
