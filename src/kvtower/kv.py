"""The Kashiwara-Vergne equation systems at finite degree.

Checkers decide membership in the degree-n solution set and the two
symmetry groups; the Duflo series attached to an element is recomputed
from scratch on every check, never cached.  The extension step realizes
the degree-by-degree surjectivity as two exact linear solves:

* a degree-n correction of the exponents kills the first equation's
  defect one degree up while keeping the divergence side solvable, and
* a fresh degree-(n+1) term matches the second equation there.

Free variables are set to zero under a fixed column order (first
exponent block, second exponent block, then the Duflo unknown), so
extension outputs are reproducible bit for bit.  The steps of one
extension share one ``bch(x, y)`` series and carry one log up the tower:
each step reads the log of its input and returns the log of its output,
re-solved by one log matcher from the one degree that the step corrects.
"""

from fractions import Fraction
from math import lcm

from .cyclic import _duflo_patterns, _side, _sum_pattern
from .errors import InconsistentSystem, PreconditionFailed
from .lie import LieElt, _divergence_row, bch_xy, bracket_table
from .linalg import QMatrix, _particular, kernel_basis, rank
from .tangential import (
    TAutElt,
    TDer,
    _der_maps,
    _exp_action,
    _GeneratorMatcher,
    _log_jacobian,
    _resumed_log,
    divergence,
    taut_compose,
    taut_exp,
    taut_inverse,
    taut_log,
    tder_apply,
    valuation,
)
from .words import lyndon_words, necklaces


class DufloSeries:
    """The power series attached to a solution; indices start at 2."""

    __slots__ = ("cap", "coeffs")

    def __init__(self, cap, coeffs=None):
        self.cap = cap
        store = {}
        if coeffs:
            for k, c in coeffs.items():
                if not 2 <= k <= cap:
                    raise ValueError(f"index {k} outside 2..{cap}")
                c = Fraction(c)
                if c != 0:
                    store[k] = c
        self.coeffs = store

    def coeff(self, k):
        return self.coeffs.get(k, Fraction(0))

    def is_zero(self):
        return not self.coeffs

    def sorted_terms(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        return (
            isinstance(other, DufloSeries)
            and self.cap == other.cap
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})z^{k}" for k, c in self.sorted_terms())


class KVReport:
    """Outcome of one equation-system check at one degree."""

    __slots__ = ("variant", "degree", "eq1_defect", "duflo", "duflo_residual", "passed")

    def __init__(self, variant, degree, eq1_defect, duflo, duflo_residual):
        self.variant = variant
        self.degree = degree
        self.eq1_defect = eq1_defect
        self.duflo = duflo
        self.duflo_residual = duflo_residual
        self.passed = eq1_defect.is_zero() and duflo_residual is None

    def __repr__(self):
        state = "PASS" if self.passed else "FAIL"
        return f"KVReport({self.variant}, degree={self.degree}, {state})"


def solve_duflo(c, target):
    """Match ``c = sum_k r_k tr(w^k - x^k - y^k)`` up to ``c``'s cap n.

    For the ``sum`` target the system is diagonal by degree; for ``bch``
    it is lower-triangular in ``k`` since ``bch(x,y)^k`` starts with
    ``(x+y)^k``.  Either way the k-th pattern leads with the necklace
    ``x^(k-1) y`` at coefficient ``k``, so ``r_k`` is the remainder's
    coefficient there over ``k``.  Returns ``(series, residual)`` where
    ``residual`` is ``None`` on success and the unmatched remainder
    otherwise.
    """
    n = c.cap
    remaining = c
    coeffs = {}
    for k, pattern in _duflo_patterns(target, n):
        rk = remaining.coeff("x" * (k - 1) + "y") / k
        if rk != 0:
            coeffs[k] = rk
            remaining = remaining - rk * pattern
    series = DufloSeries(n, coeffs)
    if remaining.is_zero():
        return series, None
    return series, remaining


def _check(variant, F, n, source, target):
    """Check ``F(source) = target`` and the Jacobian against the Duflo
    patterns of ``target``, both up to degree ``n``; the sides are
    ``"sum"`` or ``"bch"`` as in :func:`~kvtower.cyclic._side`.  Both
    equations read one log ``w`` of ``F``: ``F`` acts on ``source`` as
    the exponential series of ``w``, and the Jacobian is ``w``'s."""
    if n > F.cap:
        raise PreconditionFailed("degree exceeds the element's cap")
    w = taut_log(F.truncate(n))
    defect = _exp_action(w)(_side(source, n)) - _side(target, n)
    duflo, residual = solve_duflo(_log_jacobian(w), target)
    return KVReport(variant, n, defect, duflo, residual)


def check_sol_kv(F, n):
    """Does ``F`` solve the KV equations up to degree ``n``?"""
    return _check("SolKV", F, n, "bch", "sum")


def check_krv(F, n):
    """Membership in the graded symmetry group up to degree ``n``."""
    return _check("KRV", F, n, "sum", "sum")


def check_kv(F, n):
    """Membership in the left symmetry group up to degree ``n``."""
    return _check("KV", F, n, "bch", "bch")


def check_krv_lie(u, n):
    """Lie-algebra variant: ``u(x+y) = 0`` and divergence in the Duflo
    span, both up to degree ``n``."""
    if n > u.cap:
        raise PreconditionFailed("degree exceeds the element's cap")
    ut = u.truncate(n)
    defect = tder_apply(ut, _side("sum", n))
    duflo, residual = solve_duflo(divergence(ut), "sum")
    return KVReport("krv-lie", n, defect, duflo, residual)


def _slot_columns(letter, k):
    """Normalized degree-``k`` coordinates of the slot that brackets with
    ``letter``: the Lyndon words, minus the generator itself at degree one."""
    return [w for w in lyndon_words(k) if w != letter]


class _GradedSystem:
    """The degree-n linear system shared by the extension step and the
    graded-dimension solver, and itself the matrix :mod:`kvtower.linalg`
    reads: ``rows``, ``cols`` and ``entries``, (row, col) -> nonzero ``int``.

    Columns: the normalized coordinates of the first slot, then of the
    second slot (:func:`_slot_columns`), then, for n >= 2, the Duflo
    multiplier.  Rows: optionally the generator-bracket equation
    ``u(x+y) = 0`` over the degree-(n+1) Lyndon words, then the divergence
    equation over the degree-n necklaces.  The two kinds of row key differ
    in length, so one word -> row index serves both.  Each column's entries
    are read off the global tables of :mod:`kvtower.lie`: the structure
    constants of its bracket with the slot's letter and the divergence row
    of its basis element, so no element is built per column; the Duflo
    column is the ``nums`` (denominator 1) of the closed-form pattern.
    """

    def __init__(self, n, with_bracket_rows):
        cap = n + 1
        self.n = n
        self.cols1 = _slot_columns("x", n)
        self.cols2 = _slot_columns("y", n)
        lw = lyndon_words(cap) if with_bracket_rows else ()
        self.row_index = index = {w: i for i, w in enumerate(lw + necklaces(n))}
        self.rows = len(index)
        self.cols = len(self.cols1) + len(self.cols2) + (1 if n >= 2 else 0)
        self.entries = entries = {}
        columns = [("x", w) for w in self.cols1] + [("y", w) for w in self.cols2]
        for j, (letter, w) in enumerate(columns):
            brackets = bracket_table(letter, w) if with_bracket_rows else {}
            for ww, c in (*brackets.items(), *_divergence_row(letter, w).items()):
                entries[index[ww], j] = c
        if n >= 2:
            for ww, c in _sum_pattern(n, cap).nums.items():
                entries[index[ww], self.cols - 1] = -c

    def tder_from(self, values, cap):
        """Read a homogeneous derivation off a solution/kernel vector,
        dropping the trailing Duflo coordinate if present.  Each slot is
        written over the lcm of its ``Fraction`` denominators."""
        k = len(self.cols1)
        m = k + len(self.cols2)
        slots = []
        for cols, part in ((self.cols1, values[:k]), (self.cols2, values[k:m])):
            den = lcm(*(v.denominator for v in part))
            nums = {w: v.numerator * (den // v.denominator) for w, v in zip(cols, part)}
            slots.append(LieElt._from_ints(cap, nums, den))
        return TDer(*slots)

    def solve(self, defect):
        """The derivation whose row image cancels ``defect``, a Lie or
        cyclic element keyed by row words, read off at its cap."""
        rhs = [0] * self.rows
        for w, c in defect.nums.items():
            if w not in self.row_index:
                raise InconsistentSystem(
                    f"degree-{self.n} graded system has no row for defect word {w}"
                )
            rhs[self.row_index[w]] = Fraction(-c, defect.den)
        particular = _particular(self, rhs)
        if particular is None:
            raise InconsistentSystem(f"degree-{self.n} graded system inconsistent")
        return self.tder_from(particular, defect.cap)


def _extend_step(F, w, side, log):
    """One step of :func:`extend_solkv`, without its precondition check.
    ``w`` is ``log F``, ``side`` is ``bch(x, y)`` at cap n + 1, and ``log``
    a log matcher (:func:`~kvtower.tangential._resumed_log`) that last
    solved an automorphism agreeing with ``F`` below degree n.  Returns
    the extended element and its log."""
    n = F.cap
    cap = n + 1
    Fx = F.with_cap(cap)

    # Stage A: degree-n correction; x + y has no part in degree n + 1.
    E1 = _exp_action(w.with_cap(cap))(side).homogeneous_part(cap)
    a = _GradedSystem(n, with_bracket_rows=True).solve(E1)
    F1 = TAutElt(Fx.f1 + a.u1, Fx.f2 + a.u2)

    # Stage B: new degree-(n+1) terms b.  F1 differs from F only in degree
    # n, so its log is re-solved from there.  Under the cap b enters the
    # conjugation series only as [g, b], so the log of the output is w1 + b.
    w1 = _resumed_log(log, F1, start=n)
    E2 = _log_jacobian(w1).homogeneous_part(cap)
    b = _GradedSystem(cap, with_bracket_rows=False).solve(E2)
    return TAutElt(F1.f1 + b.u1, F1.f2 + b.u2), w1 + b


def extend_solkv_step(F):
    """Extend a degree-n solution to degree n+1.

    Stage A solves for a degree-n exponent correction: the generator
    brackets must cancel the first equation's new defect while the
    correction's divergence stays a multiple of the degree-n pattern.
    Stage B solves for the fresh degree-(n+1) exponent terms matching
    the Jacobian one degree up.  Both systems are consistent whenever
    the input really is a degree-n solution; a failed solve indicates an
    internal bug and raises :class:`InconsistentSystem`.  It is one step
    of :func:`extend_solkv`, with the same check of its input.
    """
    return extend_solkv(F, F.cap + 1)


def _extend_from(F, to_degree):
    """Iterate :func:`_extend_step` up to the requested degree; ``F`` must
    already be known to solve the system at its cap.  Each step's output
    is again a solution, so no step re-checks its input.  The steps share
    one ``bch(x, y)``, built at the top degree and truncated per step, and
    one log matcher, which keeps the pieces of the log that a step leaves
    unchanged; the log of ``F`` is solved once, and each step returns the
    log of its output."""
    if F.cap >= to_degree:
        return F
    series = bch_xy(to_degree)
    log = _GeneratorMatcher(to_degree + 1, _der_maps)
    out, w = F, _resumed_log(log, F)
    while out.cap < to_degree:
        out, w = _extend_step(out, w, series.truncate(out.cap + 1), log)
    return out


def extend_solkv(F, to_degree):
    """Extend a solution degree by degree up to the requested degree.

    ``F`` is checked once, and only when a step will run.
    """
    if F.cap < to_degree and not check_sol_kv(F, F.cap).passed:
        raise PreconditionFailed("input does not solve the system at its cap")
    return _extend_from(F, to_degree)


def extend_krv_step(G):
    """Extend a degree-n symmetry one degree up by zero-extending its
    logarithm and re-exponentiating."""
    n = G.cap
    if not check_krv(G, n).passed:
        raise PreconditionFailed("input is not in the symmetry group at its cap")
    w = taut_log(G)
    out = taut_exp(w.with_cap(n + 1))
    if not check_krv(out, n + 1).passed:
        raise PreconditionFailed(
            "zero-extension of the log does not satisfy the equations one "
            "degree up; the input only satisfies them in the truncated sense"
        )
    return out


def torsor_quotient(F, G, n):
    """The symmetry ``H = G o F^{-1}`` carrying ``F`` to ``G`` under the
    right action ``G . H = H^{-1} o G``."""
    if not check_sol_kv(F, n).passed or not check_sol_kv(G, n).passed:
        raise PreconditionFailed("both inputs must solve the system at degree n")
    Ft = F.truncate(n)
    Gt = G.truncate(n)
    return taut_compose(Gt, taut_inverse(Ft))


def psi_conjugate(F, G, n):
    """Transport a left symmetry to a right symmetry through a solution:
    ``H = F o G o F^{-1}``."""
    if not check_sol_kv(F, n).passed:
        raise PreconditionFailed("F must solve the system at degree n")
    if not check_kv(G, n).passed:
        raise PreconditionFailed("G must be a left symmetry at degree n")
    Ft = F.truncate(n)
    Gt = G.truncate(n)
    return taut_compose(taut_compose(Ft, Gt), taut_inverse(Ft))


def krv_dim(n):
    """Dimension and basis of the homogeneous degree-n graded Lie algebra.

    Solves exactly for normalized pairs with ``u(x+y) = 0`` (a genuine
    degree-(n+1) bracket condition) and divergence a multiple of the
    degree-n pattern; the multiplier is carried as one extra unknown and
    eliminated from the reported basis.
    """
    system = _GradedSystem(n, with_bracket_rows=True)
    kernel = kernel_basis(system)
    basis = [system.tder_from(vec, n) for vec in kernel]
    return len(basis), basis


def gr_leading_rank(F, n):
    """Rank of the leading terms of left symmetries obtained by
    transporting the degree-n graded basis through ``F``; equals the
    graded dimension when the graded correspondence holds."""
    return _gr_rank_and_dim(F, n)[0]


def _gr_rank_and_dim(F, n):
    """The rank of :func:`gr_leading_rank` and the graded dimension, from
    one :func:`krv_dim`."""
    if F.cap < n + 1:
        raise PreconditionFailed("the solution must be known beyond degree n")
    if not check_sol_kv(F, F.cap).passed:
        raise PreconditionFailed("F must solve the system at its cap")
    dim, basis = krv_dim(n)
    if dim == 0:
        return 0, 0
    Fi = taut_inverse(F)
    vectors = []
    cols = list(lyndon_words(n))
    for u in basis:
        U = taut_exp(u.with_cap(F.cap))
        G = taut_compose(taut_compose(Fi, U), F)
        if not check_kv(G, F.cap).passed:
            raise InconsistentSystem("transported element fails the left system")
        if valuation(G) != n:
            raise InconsistentSystem("transported element has wrong valuation")
        # log G leads with G's own f_n: its first piece solves [g, p] = [g, f_n].
        vec = [G.f1.coeff(w) for w in cols] + [G.f2.coeff(w) for w in cols]
        vectors.append(vec)
    # The rank is the same for the transpose, so the vectors can be rows.
    return rank(QMatrix.from_rows(vectors)), dim
