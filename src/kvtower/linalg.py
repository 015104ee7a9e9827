"""Exact linear algebra over the rationals.

Everything here works with ``fractions.Fraction`` entries, so no rounding
ever occurs.  There is one elimination, :func:`_reduce`: a sparse
Gauss-Jordan on rows stored as dicts col -> nonzero ``Fraction``, with an
optional right-hand side carried along under a column key of its own.
Columns are taken in ascending order, and the pivot of a column is the
shortest row not yet reduced that holds it (the first such row in row
order on ties), which keeps fill-in low on the very sparse graded
systems.  The column is then eliminated from every other row, reduced
ones included, and entries that cancel are deleted.

The pivot rule changes only the work, never the answer: the reduced row
echelon form of a matrix is unique, and so are its pivot columns, the
null-space basis read off it (one vector per free column, with a one
there) and the particular solution with its free variables set to zero.
``solve_linear``, ``kernel_basis`` and ``rank`` all read their answers
off the reduced rows, so every output is deterministic: identical inputs
yield identical results on any platform.
"""

from fractions import Fraction


class QMatrix:
    """Sparse rational matrix: only nonzero entries are stored.

    ``entries`` maps ``(row, col)`` to a nonzero ``Fraction``.
    """

    def __init__(self, rows, cols):
        self.rows = rows
        self.cols = cols
        self.entries = {}

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
    """Reduced row echelon form of ``M`` as ``(rows, pivots)``.

    ``rows`` are sparse rows (dicts col -> nonzero ``Fraction``): first the
    reduced rows, one per pivot column, then the rows left without a
    pivot; ``pivots`` lists the pivot columns in ascending order.  When
    ``b`` is given it is stored under key ``M.cols``, a column that never
    holds a pivot, so the pivot rows hold the particular solution and
    ``M x = b`` is consistent exactly when every row left over is empty.
    """
    rows = [{} for _ in range(M.rows)]
    for (i, j), v in M.entries.items():
        rows[i][j] = v
    if b is not None:
        if len(b) != M.rows:
            raise ValueError("dimension mismatch: len(b) != M.rows")
        for row, v in zip(rows, b):
            if v != 0:
                row[M.cols] = Fraction(v)
    reduced, pivots = [], []
    for c in range(M.cols):
        if not rows:
            break
        holders = [row for row in rows if c in row]
        if not holders:
            continue
        p = min(holders, key=len)
        rows = [row for row in rows if row is not p]
        inv = Fraction(1) / p[c]
        if inv != 1:
            for k in p:
                p[k] *= inv
        for row in holders + [row for row in reduced if c in row]:
            if row is p:
                continue
            f = row[c]
            for k, v in p.items():
                v = row.get(k, 0) - f * v
                if v:
                    row[k] = v
                else:
                    del row[k]
        reduced.append(p)
        pivots.append(c)
    return reduced + rows, pivots


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
            vec[pc] = -row.get(fc, Fraction(0))
        basis.append(vec)
    return basis


def solve_linear(M, b):
    """Solve ``M x = b`` exactly.

    Returns a :class:`LinearSolution` whose particular solution has free
    variables zeroed; ``particular`` is ``None`` when no solution exists.
    """
    rows, pivots = _reduce(M, b)
    particular = None
    if not any(rows[len(pivots):]):
        particular = [Fraction(0)] * M.cols
        for row, pc in zip(rows, pivots):
            particular[pc] = row.get(M.cols, Fraction(0))
    return LinearSolution(particular, _kernel(M.cols, rows, pivots))


def kernel_basis(M):
    """Exact basis of the null space of ``M``; deterministic ordering."""
    return _kernel(M.cols, *_reduce(M))


def rank(M):
    return len(_reduce(M)[1])
