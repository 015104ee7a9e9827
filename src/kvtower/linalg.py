"""Exact linear algebra over the rationals.

Functions read only ``M.rows``, ``M.cols`` and ``M.entries``, a dict
(row, col) -> nonzero ``int`` or ``Fraction``; :class:`QMatrix` has those,
and so has ``kv._GradedSystem``, with ``int`` entries.  :func:`_eliminate`,
the one elimination, works forward on integer rows (denominators cleared),
with a right-hand side, if any, under a column key of its own.  Columns go
in ascending order; a column's pivot is the shortest unreduced row holding
it (the first on ties), which keeps fill-in low.  The pivot is made
primitive (its content divided out) when it is chosen, and each other
holder becomes ``a*row - f*pivot``; reduced rows are never touched.
Answers come by back-substitution on integers over one positive
denominator, made reduced ``Fraction``s once at the end.

They equal those of the unique reduced row echelon form: back-elimination
changes only reduced rows, and each update here is a nonzero multiple of
the Gauss-Jordan one, so unreduced rows keep the same supports.  The
pivot rule reads nothing else, so the pivots agree whatever content the
unreduced rows carry, and back-substitution finds the one vector with the
given free entries that the rows annihilate, whatever their scaling.
"""

from fractions import Fraction
from math import gcd, lcm


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
        m = cls(len(rows), len(rows[0]) if rows else 0)
        for i, row in enumerate(rows):
            if len(row) != m.cols:
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
    """Outcome of an exact linear solve: ``particular`` has every free
    variable at zero, or is ``None`` when the system is inconsistent, and
    ``kernel_basis`` is the null-space basis in reduced echelon form."""

    def __init__(self, particular, kernel_basis):
        self.particular = particular
        self.kernel_basis = kernel_basis

    @property
    def consistent(self):
        return self.particular is not None


def _make_primitive(row):
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def _eliminate(M, b=None):
    """``(echelon, pivots, consistent)``: one primitive row per pivot, in
    the ascending order of ``pivots``, each zero left of its pivot.  ``b``
    sits under key ``M.cols``, which never holds a pivot, and ``M x = b``
    is consistent when every row left without a pivot is empty."""
    rows = [{} for _ in range(M.rows)]
    for (i, j), v in M.entries.items():
        rows[i][j] = v
    if b is not None:
        if len(b) != M.rows:
            raise ValueError("dimension mismatch: len(b) != M.rows")
        for row, v in zip(rows, b):
            if v != 0:
                row[M.cols] = Fraction(v)
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        for k, v in row.items():
            row[k] = v.numerator * (den // v.denominator)
    echelon, pivots = [], []
    for c in range(M.cols):
        holders = [row for row in rows if c in row]
        if not holders:
            continue
        p = min(holders, key=len)
        _make_primitive(p)
        rows = [row for row in rows if row is not p]
        for row in holders:
            if row is p:
                continue
            g = gcd(p[c], row[c])
            a, f = p[c] // g, row[c] // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in p.items():
                v = row.get(k, 0) - f * v
                if v:
                    row[k] = v
                else:
                    del row[k]
        echelon.append(p)
        pivots.append(c)
    return echelon, pivots, not any(rows)


def _substitute(ncols, echelon, pivots, col, value):
    """The null vector of the echelon rows with ``value`` at ``col`` and
    zero at the other free columns, cut before column ``ncols`` (``b``'s).
    It is built as integers ``x`` over one positive denominator ``den``."""
    x = [0] * (ncols + 1)
    x[col] = value
    den = 1
    for row, c in zip(reversed(echelon), reversed(pivots)):
        p = row[c]
        s = sum(v * x[k] for k, v in row.items() if x[k])
        # x[c] = -s / (den * p); g has p's sign, so q > 0 and den stays positive.
        g = gcd(s, p) if p > 0 else -gcd(s, p)
        q = p // g
        if q != 1:
            x = [q * v for v in x]
            den *= q
        x[c] = -(s // g)
    return [Fraction(v, den) for v in x[:ncols]]


def _kernel(ncols, echelon, pivots):
    """The null-space basis: one vector per free column, with a one there."""
    pivot_set = set(pivots)
    return [_substitute(ncols, echelon, pivots, fc, 1)
            for fc in range(ncols) if fc not in pivot_set]


def _particular(M, b):
    """``M x = b`` solved with free variables at zero: the null vector of
    ``[M | b]`` with -1 last, or ``None`` if there is none; no kernel."""
    echelon, pivots, consistent = _eliminate(M, b)
    return _substitute(M.cols, echelon, pivots, M.cols, -1) if consistent else None


def solve_linear(M, b):
    """Solve ``M x = b`` exactly, as a :class:`LinearSolution`."""
    echelon, pivots, consistent = _eliminate(M, b)
    particular = _substitute(M.cols, echelon, pivots, M.cols, -1) if consistent else None
    return LinearSolution(particular, _kernel(M.cols, echelon, pivots))


def kernel_basis(M):
    """Exact basis of the null space of ``M``; deterministic ordering."""
    return _kernel(M.cols, *_eliminate(M)[:2])


def rank(M):
    return len(_eliminate(M)[1])
