from fractions import Fraction
from math import gcd

from conftest import rng_for
from kvtower.kv import _GradedSystem
from kvtower.linalg import (
    QMatrix,
    _eliminate,
    _particular,
    kernel_basis,
    rank,
    solve_linear,
)

import pytest


def F(a, b=1):
    return Fraction(a, b)


def test_one_by_one_system():
    M = QMatrix.from_rows([[1]])
    sol = solve_linear(M, [F(1, 2)])
    assert sol.particular == [F(1, 2)]
    assert sol.kernel_basis == []


def test_underdetermined_free_variable_zeroed():
    M = QMatrix.from_rows([[1, 1]])
    sol = solve_linear(M, [0])
    assert sol.particular == [F(0), F(0)]
    assert sol.kernel_basis == [[F(-1), F(1)]]


def test_inconsistent_rows():
    M = QMatrix.from_rows([[1], [1]])
    sol = solve_linear(M, [0, 1])
    assert sol.particular is None
    assert not sol.consistent


def test_dimension_mismatch_rejected():
    M = QMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        solve_linear(M, [1, 2])


def test_kernel_full_rank():
    assert kernel_basis(QMatrix.from_rows([[1, 0], [0, 1]])) == []


def test_kernel_single_relation():
    assert kernel_basis(QMatrix.from_rows([[1, 1]])) == [[F(-1), F(1)]]


def test_kernel_zero_map():
    basis = kernel_basis(QMatrix(2, 3))
    assert len(basis) == 3
    # Reduced form: each free column carries a unit vector.
    assert basis[0][0] == 1 and basis[1][1] == 1 and basis[2][2] == 1


def _random_matrix(rng, rows, cols):
    M = QMatrix(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.6:
                M[i, j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return M


def test_random_systems_verified_by_substitution():
    rng = rng_for("linalg-subst")
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = _random_matrix(rng, rows, cols)
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(cols)]
        b = M.mul_vector(x)
        sol = solve_linear(M, b)
        assert sol.consistent
        assert M.mul_vector(sol.particular) == b
        for vec in sol.kernel_basis:
            assert M.mul_vector(vec) == [Fraction(0)] * rows


def test_rank_nullity():
    rng = rng_for("linalg-rank")
    for _ in range(60):
        M = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(M) + len(kernel_basis(M)) == M.cols


def test_determinism():
    rng = rng_for("linalg-det")
    M = _random_matrix(rng, 4, 5)
    b = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
    first = solve_linear(M, b)
    second = solve_linear(M, b)
    assert first.particular == second.particular
    assert first.kernel_basis == second.kernel_basis


def _row(M, i):
    return [M[i, j] for j in range(M.cols)]


def _dense(M):
    return [_row(M, i) for i in range(M.rows)]


def _reference_solve(M, b):
    """Augmented-column Gauss-Jordan, kept as the reference the eliminator
    is checked against: ``(particular or None, kernel basis, rank)``."""
    n = M.cols
    rows = [_row(M, i) + [Fraction(v)] for i, v in enumerate(b)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        rows[r] = [v / p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * v for a, v in zip(rows[i], rows[r])]
        pivots.append(c)
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        kernel.append(vec)
    if any(row[n] != 0 for row in rows[len(pivots):]):
        return None, kernel, len(pivots)
    particular = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        particular[pc] = rows[r][n]
    return particular, kernel, len(pivots)


def _shaped_matrix(rng, shape):
    """A random matrix that is tall, wide, zero or rank-deficient."""
    rows, cols = rng.randint(2, 6), rng.randint(2, 6)
    if shape == "tall":
        rows = cols + rng.randint(1, 3)
    elif shape == "wide":
        cols = rows + rng.randint(1, 3)
    elif shape == "zero":
        return QMatrix(rows, cols)
    elif shape == "rank-deficient":
        # A product through a smaller inner dimension.
        k = rng.randint(1, min(rows, cols) - 1)
        A = _dense(_random_matrix(rng, rows, k))
        B = _dense(_random_matrix(rng, k, cols))
        return QMatrix.from_rows(
            [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]
        )
    return _random_matrix(rng, rows, cols)


def test_presolved_matches_solve_linear():
    rng = rng_for("linalg-presolved")
    inconsistent = 0
    for shape in ("tall", "wide", "zero", "rank-deficient"):
        for _ in range(30):
            M = _shaped_matrix(rng, shape)
            x = [Fraction(rng.randint(-2, 2)) for _ in range(M.cols)]
            bad = [Fraction(rng.randint(-2, 2)) for _ in range(M.rows)]
            for b in (M.mul_vector(x), bad):
                particular, kernel, r = _reference_solve(M, b)
                sol = solve_linear(M, b)
                assert sol.particular == _particular(M, b) == particular
                assert sol.kernel_basis == kernel_basis(M) == kernel
                assert rank(M) == r
                assert particular is not None or b is bad
                inconsistent += particular is None
    # Inconsistent right-hand sides were met, and gave no solution above.
    assert inconsistent > 0
    # Unit upper-triangular blocks (plus free columns and zero rows): every
    # pivot is already 1 in place.
    for _ in range(20):
        n = rng.randint(1, 5)
        M = QMatrix(n + rng.randint(0, 1), n + rng.randint(0, 2))
        for i in range(n):
            M[i, i] = 1
            for j in range(i + 1, M.cols):
                M[i, j] = rng.randint(-3, 3)
        for _ in range(3):
            b = [Fraction(rng.randint(-2, 2)) for _ in range(M.rows)]
            assert solve_linear(M, b).particular == _reference_solve(M, b)[0]


def _small_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _sparse_matrix(rng, entry=_small_fraction):
    """A seeded sparse matrix of 10-40 rows and columns at 5-25% density,
    its entries drawn by ``entry``; about half of them rank-deficient, with
    some rows replaced by sums of earlier rows (a sum of one row is a copy)."""
    rows, cols = rng.randint(10, 40), rng.randint(10, 40)
    density = rng.uniform(0.05, 0.25)
    M = QMatrix(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                M[i, j] = entry(rng)
    if rng.random() < 0.5:
        for i in rng.sample(range(1, rows), rng.randint(1, rows // 2)):
            for j in range(cols):
                M[i, j] = 0
            for k in rng.sample(range(i), rng.randint(1, min(i, 3))):
                for j in range(cols):
                    M[i, j] += M[k, j]
    return M


def _longer_row_first(M):
    """Whether some column is held by a row that is longer than a later
    row holding it, so that the shortest row is not the first one."""
    length = [0] * M.rows
    for i, _ in M.entries:
        length[i] += 1
    for j in range(M.cols):
        held = [length[i] for i in range(M.rows) if (i, j) in M.entries]
        if any(a > min(held[k + 1 :]) for k, a in enumerate(held[:-1])):
            return True
    return False


def test_sparse_eliminator_matches_reference_on_larger_sparse_matrices():
    rng = rng_for("linalg-sparse")
    outcomes = {True: 0, False: 0}
    deficient = longer_first = 0
    for _ in range(30):
        M = _sparse_matrix(rng)
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(M.cols)]
        bad = [Fraction(rng.randint(-2, 2)) for _ in range(M.rows)]
        for b in (M.mul_vector(x), bad):
            particular, kernel, r = _reference_solve(M, b)
            sol = solve_linear(M, b)
            assert sol.particular == _particular(M, b) == particular
            assert sol.kernel_basis == kernel_basis(M) == kernel
            assert rank(M) == r
            assert particular is not None or b is bad
            outcomes[particular is not None] += 1
        deficient += r < min(M.rows, M.cols)
        longer_first += _longer_row_first(M)
    assert outcomes[True] > 0 and outcomes[False] > 0
    assert deficient > 0 and longer_first > 0


ENTRIES = {
    "integers": lambda rng: rng.randint(-9, 9),
    "fractions": lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
}


@pytest.mark.parametrize("entries", sorted(ENTRIES))
def test_eliminator_matches_reference_with_non_unit_and_negative_pivots(entries):
    # Entries up to 9 in size give pivot rows whose pivot is not +-1 after
    # the content is divided out, so back-substitution has to scale its
    # integers and their one denominator.
    rng = rng_for(f"linalg-pivots-{entries}")
    seen = {"non-unit pivot": 0, "negative pivot": 0, "non-integer answer": 0}
    for _ in range(30):
        M = _sparse_matrix(rng, ENTRIES[entries])
        x = [Fraction(rng.randint(-3, 3)) for _ in range(M.cols)]
        bad = [Fraction(rng.randint(-2, 2)) for _ in range(M.rows)]
        for b in (M.mul_vector(x), bad):
            particular, kernel, r = _reference_solve(M, b)
            sol = solve_linear(M, b)
            assert sol.particular == _particular(M, b) == particular
            assert sol.kernel_basis == kernel_basis(M) == kernel
            assert rank(M) == r
            echelon, pivots, _ = _eliminate(M, b)
            heads = [row[c] for row, c in zip(echelon, pivots)]
            seen["non-unit pivot"] += any(abs(p) > 1 for p in heads)
            seen["negative pivot"] += any(p < 0 for p in heads)
            answers = [v for vec in (particular or [], *kernel) for v in vec]
            seen["non-integer answer"] += any(v.denominator > 1 for v in answers)
    assert all(seen.values()), seen


def _qmatrix(S):
    """A ``QMatrix`` copy of a graded system's integer entries, for
    ``mul_vector`` and the dense reference."""
    M = QMatrix(S.rows, S.cols)
    for key, v in S.entries.items():
        M[key] = v
    return M


@pytest.mark.parametrize(
    "with_bracket_rows, degrees", [(True, range(1, 9)), (False, range(2, 9))]
)
def test_sparse_eliminator_matches_reference_on_graded_systems(
    with_bracket_rows, degrees
):
    # The system itself is the matrix; its copy eliminates to the same rows,
    # so every answer on the two is the same.
    rng = rng_for(f"linalg-graded-{with_bracket_rows}")
    for n in degrees:
        S = _GradedSystem(n, with_bracket_rows)
        M = _qmatrix(S)
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(M.cols)]
        b = M.mul_vector(x)
        particular, kernel, r = _reference_solve(M, b)
        sol = solve_linear(S, b)
        assert sol.particular == _particular(S, b) == particular is not None
        assert sol.kernel_basis == kernel_basis(S) == kernel
        assert rank(S) == r
        assert _eliminate(S, b) == _eliminate(M, b)


def _assert_echelon(M, b):
    """Every row the elimination returns is a primitive integer row that
    starts at its own pivot."""
    echelon, pivots, _ = _eliminate(M, b)
    assert len(echelon) == len(pivots) == rank(M)
    for row, c in zip(echelon, pivots):
        assert all(type(v) is int and v != 0 for v in row.values())
        assert gcd(*row.values()) == 1
        assert min(row) == c
    return len(echelon)


def test_eliminated_rows_are_primitive_integer_rows():
    # Without the content division the answers stay the same, but the
    # integers grow exponentially; only the rows themselves show it.
    rng = rng_for("linalg-primitive")
    rows = 0
    for _ in range(20):
        M = _sparse_matrix(rng)
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(M.cols)]
        rows += _assert_echelon(M, M.mul_vector(x))
    for with_bracket_rows, n in ((True, 8), (False, 9)):
        S = _GradedSystem(n, with_bracket_rows)
        M = _qmatrix(S)
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(M.cols)]
        b = M.mul_vector(x)
        rows += _assert_echelon(S, b)
        assert _eliminate(S, b) == _eliminate(M, b)
    assert rows > 400


def test_pivot_rule_takes_the_shortest_holder_and_the_first_on_ties():
    # Column 0: rows 1 and 2 tie as the shortest holders, behind the
    # longer row 0, so row 1 is the pivot.  Column 1: row 0 (now
    # [0, 2, 2, -1]) is again longer than row 2 (now [0, 2, 0, -3]).
    M = QMatrix.from_rows([[1, 1, 1, 0], [2, 0, 0, 1], [3, 1, 0, 0]])
    echelon, pivots, consistent = _eliminate(M)
    assert pivots == [0, 1, 2]
    assert echelon == [{0: 2, 3: 1}, {1: 2, 3: -3}, {2: 1, 3: 1}]
    assert consistent
