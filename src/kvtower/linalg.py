"""Exact linear algebra over the rationals.

Everything here works with ``fractions.Fraction`` entries, so no rounding
ever occurs.  Systems are solved by plain Gauss-Jordan elimination with a
fixed pivot rule (first nonzero entry, scanning rows top-down and columns
left-to-right), which makes every output deterministic: identical inputs
yield identical results on any platform.
"""

from fractions import Fraction


class QMatrix:
    """Sparse rational matrix: only nonzero entries are stored.

    ``entries`` maps ``(row, col)`` to a nonzero ``Fraction``.
    """

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = v

    @classmethod
    def from_rows(cls, rows):
        """Build a matrix from a dense list of row lists."""
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        m = cls(nrows, ncols)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                m[i, j] = v
        return m

    def __getitem__(self, key):
        return self.entries.get(key, Fraction(0))

    def __setitem__(self, key, value):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        value = Fraction(value)
        if value == 0:
            self.entries.pop(key, None)
        else:
            self.entries[key] = value

    def row(self, i):
        return [self[i, j] for j in range(self.cols)]

    def dense(self):
        return [self.row(i) for i in range(self.rows)]

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        out = [Fraction(0)] * self.rows
        for (i, j), v in self.entries.items():
            out[i] += v * vec[j]
        return out


class LinearSolution:
    """Outcome of an exact linear solve.

    ``particular`` is a solution vector with all free variables set to
    zero, or ``None`` when the system is inconsistent.  ``kernel_basis``
    is a basis of the null space in reduced echelon form with respect to
    ascending column order.
    """

    def __init__(self, particular, kernel_basis):
        self.particular = particular
        self.kernel_basis = kernel_basis

    @property
    def consistent(self):
        return self.particular is not None


def _rref(dense, ncols, ops=None):
    """Row-reduce ``dense`` in place; return the list of pivot columns.

    When ``ops`` is a list, every row operation that changes something is
    appended to it as ``(kind, i, j, factor)``, so that it can be replayed
    on a right-hand side; no-op swaps and unit scalings are skipped.
    """
    pivots = []
    r = 0
    nrows = len(dense)
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if dense[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            dense[r], dense[pivot_row] = dense[pivot_row], dense[r]
            if ops is not None:
                ops.append(("swap", r, pivot_row, None))
        inv = Fraction(1) / dense[r][c]
        if inv != 1:
            dense[r] = [v * inv for v in dense[r]]
            if ops is not None:
                ops.append(("scale", r, None, inv))
        for i in range(nrows):
            if i != r and dense[i][c] != 0:
                f = dense[i][c]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[r])]
                if ops is not None:
                    ops.append(("axpy", i, r, f))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _kernel_from_rref(dense, pivots, ncols):
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -dense[r][fc]
        basis.append(vec)
    return basis


def solve_linear(M, b):
    """Solve ``M x = b`` exactly.

    Returns a :class:`LinearSolution` whose particular solution has free
    variables zeroed; ``particular`` is ``None`` when no solution exists.
    """
    if len(b) != M.rows:
        raise ValueError("dimension mismatch: len(b) != M.rows")
    ncols = M.cols
    dense = [M.row(i) + [Fraction(b[i])] for i in range(M.rows)]
    pivots = _rref(dense, ncols)
    # A pivot in the augmented column means the system is inconsistent.
    inconsistent = any(
        all(row[c] == 0 for c in range(ncols)) and row[ncols] != 0
        for row in dense
    )
    stripped = [row[:ncols] for row in dense]
    kernel = _kernel_from_rref(stripped, pivots, ncols)
    if inconsistent:
        return LinearSolution(None, kernel)
    particular = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        particular[pc] = dense[r][ncols]
    return LinearSolution(particular, kernel)


def kernel_basis(M):
    """Exact basis of the null space of ``M``; deterministic ordering."""
    dense = M.dense()
    pivots = _rref(dense, M.cols)
    return _kernel_from_rref(dense, pivots, M.cols)


def rank(M):
    dense = M.dense()
    return len(_rref(dense, M.cols))


class PresolvedSystem:
    """Gauss-Jordan elimination of a fixed matrix, reusable across many
    right-hand sides.

    Row operations are recorded once and replayed on each ``b``; this is
    what the degree-by-degree solvers use for the generator-bracket
    systems that recur at every degree.
    """

    def __init__(self, M):
        self.cols = M.cols
        self.rows = M.rows
        self._ops = []
        self._pivots = _rref(M.dense(), self.cols, self._ops)

    def solve(self, b):
        """Particular solution with free variables zero, or ``None``."""
        if len(b) != self.rows:
            raise ValueError("dimension mismatch")
        vec = [Fraction(v) for v in b]
        for op, i, j, f in self._ops:
            if op == "swap":
                vec[i], vec[j] = vec[j], vec[i]
            elif op == "scale":
                vec[i] *= f
            else:
                vec[i] -= f * vec[j]
        npiv = len(self._pivots)
        if any(vec[i] != 0 for i in range(npiv, self.rows)):
            return None
        out = [Fraction(0)] * self.cols
        for r, pc in enumerate(self._pivots):
            out[pc] = vec[r]
        return out
