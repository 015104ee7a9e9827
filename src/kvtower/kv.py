"""The Kashiwara-Vergne equation systems at finite degree.

Checkers decide membership in the degree-n solution set and the two
symmetry groups; the Duflo series attached to an element is recomputed
from scratch on every check, never cached.  The three systems differ only
in their sides, and one table, ``_VARIANTS``, holds them: each variant
name (``SolKV``, ``KV``, ``KRV``) maps to its source and target side, so
a check names its variant alone, and the documents' variant names are
the table's keys.  A check is a function of one log ``w``: ``exp(w)``
acts on the source side as the exponential series of ``w``, and the
Jacobian is ``w``'s, so a caller that holds the log of its input checks
it without solving that log again.  The graded-rank
comparison transports each graded basis vector ``u`` through a solution
``F`` as ``log(F^-1 o exp(u) o F)``, the conjugation series of ``u`` by
``log F``, and checks and reads that log; it builds no group element.

The extension step realizes the degree-by-degree surjectivity as two
exact linear solves:

* a degree-n correction of the exponents kills the first equation's
  defect one degree up while keeping the divergence side solvable, and
* a fresh degree-(n+1) term matches the second equation there.

Free variables are set to zero under a fixed column order (first
exponent block, second exponent block, then the Duflo unknown), so
extension outputs are reproducible bit for bit.  The steps of one
extension share one ``bch(x, y)`` series and carry one log up the tower:
the log of the input is solved once and serves its check, and each step
reads the log of its input and passes the log of its output on to the
next.  One log matcher solves them all, each from the first exponent
degree that a step's correction changes, and keeps what it solved below
that degree.
"""

from fractions import Fraction

from .cyclic import _duflo_patterns, _side, _sum_pattern
from .errors import InconsistentSystem, PreconditionFailed
from .lie import LieElt, _divergence_row, bch_xy, bracket_table
from .linalg import QMatrix, kernel_basis, rank, solve_linear
from .sparse import _int_form
from .tangential import (
    TAutElt,
    TDer,
    _compose,
    _conjugate_log,
    _exp_action,
    _GeneratorMatcher,
    _log_jacobian,
    divergence,
    taut_exp,
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


def _truncated(X, n):
    """``X``, an automorphism or a derivation, cut to degree ``n``, which
    must not exceed its cap."""
    if n > X.cap:
        raise PreconditionFailed("degree exceeds the element's cap")
    return X.truncate(n)


# The sides ``(source, target)`` of each equation system, ``"sum"`` or
# ``"bch"`` as in :func:`~kvtower.cyclic._side`; the documents' variant
# names are this table's keys, in this order.
_VARIANTS = {"SolKV": ("bch", "sum"), "KV": ("bch", "bch"), "KRV": ("sum", "sum")}


def _check(variant, w):
    """Check ``exp(w)(source) = target`` and the Jacobian of ``exp(w)``
    against the Duflo patterns of ``target``, both up to ``w``'s cap, for
    the sides of ``variant`` in :data:`_VARIANTS`.  An automorphism is
    checked through its log alone: it acts on ``source`` as the
    exponential series of ``w``, and the Jacobian is ``w``'s."""
    source, target = _VARIANTS[variant]
    n = w.cap
    defect = _exp_action(w)(_side(source, n)) - _side(target, n)
    duflo, residual = solve_duflo(_log_jacobian(w), target)
    return KVReport(variant, n, defect, duflo, residual)


def check_sol_kv(F, n):
    """Does ``F`` solve the KV equations up to degree ``n``?"""
    return _check("SolKV", taut_log(_truncated(F, n)))


def check_krv(F, n):
    """Membership in the graded symmetry group up to degree ``n``."""
    return _check("KRV", taut_log(_truncated(F, n)))


def check_kv(F, n):
    """Membership in the left symmetry group up to degree ``n``."""
    return _check("KV", taut_log(_truncated(F, n)))


def check_krv_lie(u, n):
    """Lie-algebra variant: ``u(x+y) = 0`` and divergence in the Duflo
    span, both up to degree ``n``."""
    ut = _truncated(u, n)
    defect = tder_apply(ut, _side("sum", n))
    duflo, residual = solve_duflo(divergence(ut), "sum")
    return KVReport("krv-lie", n, defect, duflo, residual)


class _GradedSystem:
    """The degree-n linear system shared by the extension step and the
    graded-dimension solver, and itself the matrix :mod:`kvtower.linalg`
    reads: ``rows``, ``cols`` and ``entries``, (row, col) -> nonzero ``int``.

    Columns: ``columns``, one ``(letter, word)`` per normalized coordinate
    of the x slot, then of the y slot when there are bracket rows (the
    degree-n Lyndon words, minus the slot's letter at degree one), then,
    for n >= 2, the Duflo multiplier.  Rows: optionally the
    generator-bracket equation ``u(x+y) = 0`` over the degree-(n+1) Lyndon
    words, then the divergence equation over the degree-n necklaces.  The
    two kinds of row key differ in length, so one word -> row index serves
    both.  Each column's entries are read off the global tables of
    :mod:`kvtower.lie`: the structure constants of its bracket with the
    slot's letter and the divergence row of its basis element, so no
    element is built per column; the Duflo column is the ``nums``
    (denominator 1) of the closed-form pattern.

    The divergence sees only ``u1 - u2``: a second-slot column's divergence
    is the negated x row of its word, and degree-one columns have none.
    So without bracket rows the second slot's columns are the negated
    first-slot ones, and they are left out; the solutions' second slot is
    zero, as it is when those free columns are set to zero.
    """

    def __init__(self, n, with_bracket_rows):
        cap = n + 1
        self.n = n
        slots = "xy" if with_bracket_rows else "x"
        self.columns = [(g, w) for g in slots for w in lyndon_words(n) if w != g]
        lw = lyndon_words(cap) if with_bracket_rows else ()
        self.row_index = index = {w: i for i, w in enumerate(lw + necklaces(n))}
        self.rows = len(index)
        self.cols = len(self.columns) + (1 if n >= 2 else 0)
        self.entries = entries = {}
        for j, (letter, w) in enumerate(self.columns):
            if with_bracket_rows:
                for ww, c in bracket_table(letter, w).items():
                    entries[index[ww], j] = c
            if n >= 2:
                sign = 1 if letter == "x" else -1
                for ww, c in _divergence_row(w).items():
                    entries[index[ww], j] = sign * c
        if n >= 2:
            for ww, c in _sum_pattern(n, cap).nums.items():
                entries[index[ww], self.cols - 1] = -c

    def tder_from(self, values, cap):
        """Read a homogeneous derivation off a solution/kernel vector:
        ``columns`` zipped with it fills the two slots, so a trailing Duflo
        coordinate falls away.  Each slot is written in the integer form of
        its ``Fraction``s; a slot with no columns is zero."""
        slots = {"x": {}, "y": {}}
        for (letter, w), v in zip(self.columns, values):
            slots[letter][w] = v
        return TDer(*(LieElt._from_ints(cap, *_int_form(slots[g])) for g in "xy"))

    def solve(self, defect):
        """The derivation whose row image cancels ``defect``, a Lie or
        cyclic element keyed by row words, read off at its cap.  The system
        is solved for the defect's negated integer numerators, so every row
        stays integral, and the solution is divided by the defect's
        denominator once, as a derivation: the solve is linear in the
        right-hand side, and its pivots do not read it."""
        rhs = [0] * self.rows
        for w, c in defect.nums.items():
            if w not in self.row_index:
                raise InconsistentSystem(
                    f"degree-{self.n} graded system has no row for defect word {w}"
                )
            rhs[self.row_index[w]] = -c
        particular = solve_linear(self, rhs).particular
        if particular is None:
            raise InconsistentSystem(f"degree-{self.n} graded system inconsistent")
        return Fraction(1, defect.den) * self.tder_from(particular, defect.cap)


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
    """Check ``F`` at its cap and extend it one degree at a time up to
    ``to_degree``, which must not be below that cap.  Returns the extension
    and the report of the check; when the check fails, the extension is
    ``F`` and no step runs.  The log of ``F`` is solved once, by the one
    log matcher that the steps share, and the check reads that log; each
    step's output is again a solution, so no step re-checks its input.
    A step from degree n reads the log ``w`` of its input and passes the
    log of its output on to the next; the matcher keeps the pieces of the
    log that the step leaves unchanged.  The steps share one ``bch(x, y)``, built
    at the top degree and truncated per step."""
    log = _GeneratorMatcher(to_degree)
    w = log.solve(F)
    report = _check("SolKV", w)
    while report.passed and F.cap < to_degree:
        cap = F.cap + 1

        # Stage A: degree-n correction; x + y has no part in degree n + 1.
        E1 = _exp_action(w.with_cap(cap))(bch_xy(to_degree).truncate(cap)).homogeneous_part(cap)
        a = _GradedSystem(F.cap, with_bracket_rows=True).solve(E1)
        F1 = TAutElt(F.f1.with_cap(cap) + a.u1, F.f2.with_cap(cap) + a.u2)

        # Stage B: new degree-(n+1) terms b.  Under the cap b enters the
        # conjugation series only as [g, b], so the log of the output is w1 + b.
        w1 = log.solve(F1)
        E2 = _log_jacobian(w1).homogeneous_part(cap)
        b = _GradedSystem(cap, with_bracket_rows=False).solve(E2)
        F, w = TAutElt(F1.f1 + b.u1, F1.f2 + b.u2), w1 + b
    return F, report


def extend_solkv(F, to_degree):
    """Extend a solution degree by degree up to the requested degree.

    With no step to run, ``F`` itself is returned, unchecked.  Otherwise
    ``F`` is checked once, through the log that the extension carries up,
    and :class:`PreconditionFailed` is raised if it fails.  A k-step
    extension solves k + 1 logs.
    """
    if F.cap >= to_degree:
        return F
    out, report = _extend_from(F, to_degree)
    if not report.passed:
        raise PreconditionFailed("input does not solve the system at its cap")
    return out


def extend_krv_step(G):
    """Extend a degree-n symmetry one degree up by zero-extending its
    logarithm and re-exponentiating."""
    n = G.cap
    w = _solution_log("KRV", G, n, "input is not in the symmetry group at its cap")
    w = w.with_cap(n + 1)
    if not _check("KRV", w).passed:
        raise PreconditionFailed(
            "zero-extension of the log does not satisfy the equations one "
            "degree up; the input only satisfies them in the truncated sense"
        )
    return taut_exp(w)


def _solution_log(variant, F, n, message):
    """``log F`` up to degree ``n`` if ``F`` passes the ``variant`` check
    there; else :class:`PreconditionFailed` with ``message``."""
    w = taut_log(_truncated(F, n))
    if not _check(variant, w).passed:
        raise PreconditionFailed(message)
    return w


def torsor_quotient(F, G, n):
    """The symmetry ``H = G o F^{-1}`` carrying ``F`` to ``G`` under the
    right action ``G . H = H^{-1} o G``; the checks' logs of ``F`` and
    ``G`` serve the inverse and the composition."""
    message = "both inputs must solve the system at degree n"
    w = _solution_log("SolKV", F, n, message)
    v = _solution_log("SolKV", G, n, message)
    return _compose(G.truncate(n), taut_exp(-w), v)


def psi_conjugate(F, G, n):
    """Transport a left symmetry to a right symmetry through a solution:
    ``H = F o G o F^{-1}``.  With the checks' logs ``w`` of ``F`` and ``v``
    of ``G``, ``H`` is the exponential of the conjugate of ``v`` by
    ``-w``, so no other log is solved."""
    w = _solution_log("SolKV", F, n, "F must solve the system at degree n")
    v = _solution_log("KV", G, n, "G must be a left symmetry at degree n")
    return taut_exp(_conjugate_log(v, -w))


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
        raise PreconditionFailed(f"the solution must be known beyond degree {n}; "
                                 f"its cap is {F.cap}")
    w = _solution_log("SolKV", F, F.cap, "F must solve the system at its cap")
    dim, basis = krv_dim(n)
    vectors = []
    cols = list(lyndon_words(n))
    for u in basis:
        # g = log(F^-1 o exp(u) o F), the conjugate of u by log F.
        g = _conjugate_log(u.with_cap(F.cap), w)
        if not _check("KV", g).passed:
            raise InconsistentSystem("transported element fails the left system")
        if valuation(g) != n:
            raise InconsistentSystem("transported element has wrong valuation")
        vectors.append([g.u1.coeff(c) for c in cols] + [g.u2.coeff(c) for c in cols])
    # The rank is the same for the transpose, so the vectors can be rows.
    return rank(QMatrix.from_rows(vectors)), dim
