"""Exact linear algebra over the rationals.

Everything here works with ``fractions.Fraction`` entries, so no rounding
ever occurs.  There is one elimination, :class:`PresolvedSystem`: plain
Gauss-Jordan with a fixed pivot rule (first nonzero entry, scanning rows
top-down and columns left-to-right), which records its row operations
for replay on right-hand sides and keeps what the null-space basis needs.
``solve_linear``, ``kernel_basis`` and ``rank`` all read their answers
off it, and the fixed pivot rule makes every output deterministic:
identical inputs yield identical results on any platform.
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


class PresolvedSystem:
    """Gauss-Jordan elimination of a fixed matrix, reusable across many
    right-hand sides.

    Every row operation that changes something is recorded once as
    ``(kind, i, j, factor)`` and replayed on each ``b``; no-op swaps and
    unit scalings are skipped.  ``pivots`` lists the pivot columns, and
    the free columns of the reduced rows are kept for :meth:`kernel`.
    """

    def __init__(self, M):
        self.cols = M.cols
        self.rows = M.rows
        self._ops = ops = []
        self.pivots = pivots = []
        dense = M.dense()
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            pivot_row = next((i for i in range(r, self.rows) if dense[i][c] != 0), None)
            if pivot_row is None:
                continue
            if pivot_row != r:
                dense[r], dense[pivot_row] = dense[pivot_row], dense[r]
                ops.append(("swap", r, pivot_row, None))
            inv = Fraction(1) / dense[r][c]
            if inv != 1:
                dense[r] = [v * inv for v in dense[r]]
                ops.append(("scale", r, None, inv))
            for i in range(self.rows):
                if i != r and dense[i][c] != 0:
                    f = dense[i][c]
                    dense[i] = [a - f * b for a, b in zip(dense[i], dense[r])]
                    ops.append(("axpy", i, r, f))
            pivots.append(c)
            r += 1
        pivot_set = set(pivots)
        self._free = [
            (c, [row[c] for row in dense[:r]])
            for c in range(self.cols)
            if c not in pivot_set
        ]

    def solve(self, b):
        """Particular solution with free variables zero, or ``None``."""
        if len(b) != self.rows:
            raise ValueError("dimension mismatch: len(b) != M.rows")
        vec = [Fraction(v) for v in b]
        for op, i, j, f in self._ops:
            if op == "swap":
                vec[i], vec[j] = vec[j], vec[i]
            elif op == "scale":
                vec[i] *= f
            else:
                vec[i] -= f * vec[j]
        npiv = len(self.pivots)
        if any(vec[i] != 0 for i in range(npiv, self.rows)):
            return None
        out = [Fraction(0)] * self.cols
        for r, pc in enumerate(self.pivots):
            out[pc] = vec[r]
        return out

    def kernel(self):
        """Null-space basis in reduced echelon form: one vector per free
        column, in ascending order, with a one in that column."""
        basis = []
        for fc, entries in self._free:
            vec = [Fraction(0)] * self.cols
            vec[fc] = Fraction(1)
            for pc, v in zip(self.pivots, entries):
                vec[pc] = -v
            basis.append(vec)
        return basis


def solve_linear(M, b):
    """Solve ``M x = b`` exactly.

    Returns a :class:`LinearSolution` whose particular solution has free
    variables zeroed; ``particular`` is ``None`` when no solution exists.
    """
    P = PresolvedSystem(M)
    return LinearSolution(P.solve(b), P.kernel())


def kernel_basis(M):
    """Exact basis of the null space of ``M``; deterministic ordering."""
    return PresolvedSystem(M).kernel()


def rank(M):
    return len(PresolvedSystem(M).pivots)
