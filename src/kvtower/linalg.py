"""Exact linear algebra over the rationals.

Everything here works with ``fractions.Fraction`` entries, so no rounding
ever occurs.  There is one elimination, :func:`_reduce`: plain
Gauss-Jordan with a fixed pivot rule (first nonzero entry, scanning rows
top-down and columns left-to-right), with an optional right-hand side
carried along as a last column.  ``solve_linear``, ``kernel_basis`` and
``rank`` all read their answers off the reduced rows, and the fixed pivot
rule makes every output deterministic: identical inputs yield identical
results on any platform.
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


def _reduce(M, b=None):
    """Reduced row echelon form of ``M`` as ``(rows, pivots)``: the dense
    reduced rows and the pivot columns in ascending order.

    When ``b`` is given it rides along as a last column that never holds
    a pivot, so the rows past the pivots show whether ``M x = b`` is
    consistent and the pivot rows hold the particular solution.
    """
    dense = M.dense()
    if b is not None:
        if len(b) != M.rows:
            raise ValueError("dimension mismatch: len(b) != M.rows")
        for row, v in zip(dense, b):
            row.append(Fraction(v))
    pivots = []
    for c in range(M.cols):
        r = len(pivots)
        if r == M.rows:
            break
        pivot_row = next((i for i in range(r, M.rows) if dense[i][c] != 0), None)
        if pivot_row is None:
            continue
        dense[r], dense[pivot_row] = dense[pivot_row], dense[r]
        inv = Fraction(1) / dense[r][c]
        if inv != 1:
            dense[r] = [v * inv for v in dense[r]]
        for i in range(M.rows):
            if i != r and dense[i][c] != 0:
                f = dense[i][c]
                dense[i] = [a - f * v for a, v in zip(dense[i], dense[r])]
        pivots.append(c)
    return dense, pivots


def _kernel(ncols, rows, pivots):
    """Null-space basis in reduced echelon form: one vector per free
    column, in ascending order, with a one in that column."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def solve_linear(M, b):
    """Solve ``M x = b`` exactly.

    Returns a :class:`LinearSolution` whose particular solution has free
    variables zeroed; ``particular`` is ``None`` when no solution exists.
    """
    rows, pivots = _reduce(M, b)
    particular = None
    if not any(row[-1] != 0 for row in rows[len(pivots):]):
        particular = [Fraction(0)] * M.cols
        for row, pc in zip(rows, pivots):
            particular[pc] = row[-1]
    return LinearSolution(particular, _kernel(M.cols, rows, pivots))


def kernel_basis(M):
    """Exact basis of the null space of ``M``; deterministic ordering."""
    return _kernel(M.cols, *_reduce(M))


def rank(M):
    return len(_reduce(M)[1])
