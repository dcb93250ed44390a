"""Symmetric linear operators with dense or sparse backing.

Everything downstream only needs block products `matmat` (the operator
applied to every column of an n-by-k array at once), the dimension, and a
cheap upper bound on the largest eigenvalue, so operators expose exactly
that. A sparse symmetric matrix is given as one triangle; its operator keeps
that triangle plus one CSR matrix holding both, so a product is a single
sparse-times-dense call.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


_ROW_BLOCK_ELEMS = 1 << 15


class MatrixMarketError(ValueError):
    """Raised for files that violate the coordinate symmetric contract."""


class LinearOperator:
    """Base class: square operator of dimension n supporting matmat."""

    n: int
    symmetric: bool

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Apply to each column of X at once."""
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        raise NotImplementedError

    def diagonal(self) -> np.ndarray:
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
        if not np.isfinite(A).all():
            raise ValueError("matrix contains non-finite entries")
        self.A = A
        self.n = A.shape[0]
        if symmetric is None:
            symmetric = bool(np.array_equal(A, A.T))
        self.symmetric = symmetric

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self.A @ X

    def to_dense(self) -> np.ndarray:
        return self.A.copy()

    def diagonal(self) -> np.ndarray:
        return np.diag(self.A).copy()

    def abs_row_sums(self) -> np.ndarray:
        # row blocks of ~256 KB stay in cache instead of allocating all of |A|
        out = np.empty(self.n)
        step = max(1, _ROW_BLOCK_ELEMS // self.n)
        for i in range(0, self.n, step):
            np.abs(self.A[i:i + step]).sum(axis=1, out=out[i:i + step])
        return out


class SparseOperator(LinearOperator):
    """Symmetric sparse operator built from its lower triangle.

    `lower` keeps the triangle as given, for writing it back out; products,
    the dense copy and the row sums use one CSR matrix holding the whole
    matrix, lower + lower^T - diag(lower).
    """

    def __init__(self, lower: sp.csr_matrix, n: int):
        if n < 1:
            raise ValueError("matrix must be at least 1x1")
        lower = sp.csr_matrix(lower)
        if lower.shape != (n, n):
            raise ValueError("lower-triangle storage must be n-by-n")
        self.lower = lower
        self._full = sp.csr_matrix(lower + lower.T - sp.diags(lower.diagonal()))
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
        return self.inner.matmat(X) / self.lambda_u


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

    Entries of either triangle are folded into the lower one, which the
    operator keeps next to the full matrix it multiplies with. Raises
    MatrixMarketError for malformed headers, non-symmetric declarations,
    non-square sizes, and out-of-range indices.
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

        line = fh.readline()
        while line and line.lstrip().startswith("%"):
            line = fh.readline()
        parts = line.split()
        if len(parts) != 3:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}")
        try:
            nrows, ncols, nnz = (int(p) for p in parts)
        except ValueError as exc:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}") from exc
        if nrows != ncols:
            raise MatrixMarketError(f"matrix is not square: {nrows}x{ncols}")

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=float)
        k = 0
        for line in fh:
            if not line.strip() or line.lstrip().startswith("%"):
                continue
            parts = line.split()
            if len(parts) != 3 or k >= nnz:
                raise MatrixMarketError(f"malformed entry line: {line.strip()!r}")
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise MatrixMarketError(f"malformed entry line: {line.strip()!r}") from exc
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise MatrixMarketError(f"index out of range: ({i}, {j}) for n={nrows}")
            rows[k], cols[k], vals[k] = i - 1, j - 1, v
            k += 1
        if k != nnz:
            raise MatrixMarketError(f"expected {nnz} entries, found {k}")

    return SparseOperator.from_coo(rows, cols, vals, nrows)


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
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{op.n} {op.n} {len(vals)}\n")
        for k in order:
            fh.write(f"{rows[k] + 1} {cols[k] + 1} {vals[k]:.17g}\n")
