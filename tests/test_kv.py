from fractions import Fraction
from pathlib import Path

from conftest import count_checks, count_logs, group_transport, kept_pieces, rng_for
import kvtower.cyclic
import kvtower.kv
import kvtower.tangential
from kvtower.cyclic import CycElt, duflo_pattern
from kvtower.documents import parse_document
from kvtower.errors import InconsistentSystem, PreconditionFailed
from kvtower.kv import (
    DufloSeries,
    _GradedSystem,
    check_krv,
    check_krv_lie,
    check_kv,
    check_sol_kv,
    extend_krv_step,
    extend_solkv,
    extend_solkv_step,
    gr_leading_rank,
    krv_dim,
    psi_conjugate,
    solve_duflo,
    torsor_quotient,
)
from kvtower import lie
from kvtower.lie import LieElt, bracket_table, clear_caches
from kvtower.linalg import QMatrix, rank
from kvtower.tangential import (
    TAutElt,
    TDer,
    _GeneratorMatcher,
    divergence,
    taut_compose,
    taut_exp,
    taut_inverse,
    taut_log,
    tder_bracket,
    valuation,
)
from kvtower.words import lyndon_words, necklaces

import pytest


SOL10 = Path(__file__).parent.parent / "perfbench" / "data" / "sol10.json"
GOLDEN = Path(__file__).parent / "golden"


def identity(cap):
    return TAutElt.identity(cap)


def sol10():
    return parse_document(SOL10.read_text()).to_taut()


def krv_element(rng, cap, degrees=(1, 3)):
    """A genuine symmetry-group element: exp of a graded basis combination."""
    u1 = LieElt.zero(cap)
    u2 = LieElt.zero(cap)
    for d in degrees:
        if d > cap:
            continue
        _, basis = krv_dim(d)
        for b in basis:
            c = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
            u1 = u1 + c * b.u1.with_cap(cap)
            u2 = u2 + c * b.u2.with_cap(cap)
    return taut_exp(TDer(u1, u2))


# -- solve_duflo ---------------------------------------------------------------


def test_solve_duflo_simple():
    series, residual = solve_duflo(CycElt(4, {"xy": 2}), "sum")
    assert residual is None
    assert series.coeffs == {2: 1}


def test_solve_duflo_zero():
    series, residual = solve_duflo(CycElt.zero(4), "sum")
    assert residual is None
    assert series.is_zero()


def test_solve_duflo_inconsistent():
    series, residual = solve_duflo(CycElt(4, {"xxy": 1}), "sum")
    assert residual is not None
    assert not residual.is_zero()


def test_duflo_series_index_range():
    with pytest.raises(ValueError):
        DufloSeries(4, {1: 1})


# -- checkers -------------------------------------------------------------------


def test_sol_kv_identity_degree_one():
    assert check_sol_kv(identity(1), 1).passed


def test_sol_kv_identity_fails_degree_two():
    report = check_sol_kv(identity(2), 2)
    assert not report.passed
    assert report.eq1_defect.coeffs == {"xy": Fraction(1, 2)}


def test_sol_kv_half_y_solution():
    F = TAutElt(LieElt(2, {"y": Fraction(-1, 2)}), LieElt.zero(2))
    report = check_sol_kv(F, 2)
    assert report.passed
    assert report.duflo.is_zero()


def test_krv_identity():
    for n in (1, 2, 3):
        assert check_krv(identity(n), n).passed


def test_krv_exp_of_swap():
    F = taut_exp(TDer(LieElt.gen_y(3), LieElt.gen_x(3)))
    report = check_krv(F, 3)
    assert report.passed
    assert report.duflo.is_zero()


def test_krv_rejects_one_sided_conjugation():
    F = TAutElt(LieElt.gen_y(2), LieElt.zero(2))
    report = check_krv(F, 2)
    assert not report.passed
    assert report.eq1_defect.coeffs == {"xy": 1}


def test_kv_identity():
    for n in (1, 2, 3):
        report = check_kv(identity(n), n)
        assert report.passed
        assert report.duflo.is_zero()


def test_kv_rejects_one_sided_conjugation():
    F = TAutElt(LieElt.gen_y(2), LieElt.zero(2))
    assert not check_kv(F, 2).passed


def test_krv_lie_swap_passes_high_degree():
    u = TDer(LieElt.gen_y(8), LieElt.gen_x(8))
    report = check_krv_lie(u, 8)
    assert report.passed
    assert report.duflo.is_zero()


def test_krv_lie_rejects_unbalanced():
    u = TDer(LieElt.gen_y(2), LieElt.zero(2))
    report = check_krv_lie(u, 2)
    assert not report.passed
    assert report.eq1_defect.coeffs == {"xy": 1}


def test_krv_lie_zero():
    assert check_krv_lie(TDer.zero(3), 3).passed


# -- extension -------------------------------------------------------------------


def test_extension_first_step():
    F = extend_solkv_step(identity(1))
    assert F.cap == 2
    assert F.f1.coeffs == {"y": Fraction(-1, 2)}
    assert F.f2.is_zero()
    report = check_sol_kv(F, 2)
    assert report.passed
    assert report.duflo.is_zero()


def test_extension_requires_a_solution():
    with pytest.raises(PreconditionFailed):
        extend_solkv_step(identity(2))  # fails at its own cap


def test_extension_chain_and_soundness():
    F = identity(1)
    previous = F
    for _ in range(4):
        F = extend_solkv_step(previous)
        assert F.cap == previous.cap + 1
        assert check_sol_kv(F, F.cap).passed
        if previous.cap > 1:
            # Exponents agree strictly below the predecessor's top degree.
            cut = previous.cap - 1
            assert F.f1.truncate(cut) == previous.f1.truncate(cut)
            assert F.f2.truncate(cut) == previous.f2.truncate(cut)
        previous = F


def test_extension_coefficients_are_rational():
    F = extend_solkv(identity(1), 5)
    for c in list(F.f1.coeffs.values()) + list(F.f2.coeffs.values()):
        assert isinstance(c, Fraction)


def test_extension_of_truncated_solution():
    # Truncating a solution and re-extending gives the same solution back,
    # so the symmetry carrying one to the other is the identity.
    G = extend_solkv(identity(1), 5)
    H = extend_solkv_step(G.truncate(4))
    assert check_sol_kv(H, 5).passed
    assert H == G
    D = torsor_quotient(G.truncate(5), H, 5)
    assert check_krv(D, 5).passed
    assert D.is_identity()


@pytest.mark.parametrize("k", [3, 7, 9])
def test_extension_reproduces_the_degree_10_solution_from_its_truncations(k):
    # Stage A may correct the degree-k exponents of its input; on a
    # truncation of the stored solution the correction is zero.
    F10 = sol10()
    assert extend_solkv(F10.truncate(k), 10) == F10


def test_extend_solkv_equals_the_checked_chain():
    chain = identity(1)
    while chain.cap < 7:
        chain = extend_solkv_step(chain)
    assert extend_solkv(identity(1), 7) == chain


@pytest.mark.parametrize("start, to_degree", [("seed", 10), ("sol10", 12)])
def test_carried_log_equals_a_fresh_log_at_every_step(start, to_degree, monkeypatch):
    # The log of the input is solved once, by the one log matcher, and the
    # entry check reads it; each step's stage A then reads the log of its
    # input, one cap up, and stage B re-solves the log for F1 at cap n + 1,
    # from the first degree whose exponents changed, keeping the pieces
    # below; the log of the step's output is carried to the next step.  A
    # fresh taut_log of the same automorphism is the reference: of F1 for
    # each solve, and of each element of the one-step chain for each log
    # that stage A reads.  The chains end at the stored degree-10 and
    # degree-12 solutions.
    F = identity(1) if start == "seed" else sol10()
    stored = SOL10 if start == "seed" else GOLDEN / "extend_d12.json"
    chain = [F]
    while chain[-1].cap < to_degree:
        chain.append(extend_solkv_step(chain[-1]))
    resumes = []
    acted = []
    act = kvtower.kv._exp_action

    class Checked(_GeneratorMatcher):
        def solve(self, G):
            before = list(self.pieces)
            w = super().solve(G)
            assert w == taut_log(G)
            resumes.append((G.cap, kept_pieces(before, self) + 1))
            return w

    def spied(w):
        acted.append(w)
        return act(w)

    monkeypatch.setattr(kvtower.kv, "_GeneratorMatcher", Checked)
    monkeypatch.setattr(kvtower.kv, "_exp_action", spied)
    out, report = kvtower.kv._extend_from(F, to_degree)
    assert report.passed and report.degree == F.cap
    assert out == chain[-1] == parse_document(stored.read_text()).to_taut()
    # The entry check acts by the log of F at its cap; stage A of the step
    # from chain[k] acts by its carried log one cap up.
    check, *steps = acted
    assert check == taut_log(F)
    assert [w.cap for w in steps] == list(range(F.cap + 1, to_degree + 1))
    for w, G in zip(steps, chain[:-1], strict=True):
        assert w.truncate(G.cap) == taut_log(G)
    # The first resume is a full solve with an empty matcher.  Stage B's
    # F1 differs from the last log's automorphism from degree n on, where
    # the step corrects it, so the matcher resumes there; at n = 3 from
    # the seed the correction is zero, so the matcher keeps all three
    # pieces and resumes at degree 4, the first it has not solved.
    expected = [(n + 1, 4 if (start, n) == ("seed", 3) else n) for n in range(F.cap, to_degree)]
    assert resumes == [(F.cap, 1)] + expected


def _count_conjugation_series(monkeypatch):
    """Record the cap of every conjugation series built, the targets of
    one log each."""
    real = kvtower.tangential._conjugation_images
    built = []

    def spy(f1, f2):
        built.append(f1.cap)
        return real(f1, f2)

    monkeypatch.setattr(kvtower.tangential, "_conjugation_images", spy)
    return built


def test_an_extension_takes_one_conjugation_series_per_step(monkeypatch):
    # Stage A reads the log carried from the last step, so a k-step
    # extension builds the conjugation series of its input once and that
    # of each step's F1 once: k + 1 in all.  The entry check reads the
    # input's log too.
    built = _count_conjugation_series(monkeypatch)
    stored = parse_document((GOLDEN / "extend_d8.json").read_text()).to_taut()
    assert kvtower.kv._extend_from(identity(1), 8)[0] == stored
    assert built == list(range(2, 10))


def test_a_check_takes_one_conjugation_series(monkeypatch):
    # Both equations of a check read one log of F, so F's conjugation
    # series is built once, as the targets of that log.
    built = _count_conjugation_series(monkeypatch)
    assert check_sol_kv(sol10(), 6).passed
    assert built == [7]


def test_bch_patterns_are_built_once_per_cap(monkeypatch):
    # gr-test checks each transported log with the KV check at one cap;
    # the BCH Duflo patterns of that cap are built by the first check only.
    expansions = []
    real = kvtower.cyclic.lie_to_assoc
    monkeypatch.setattr(kvtower.cyclic, "lie_to_assoc", lambda u: expansions.append(u) or real(u))
    clear_caches()
    F = sol10().truncate(6)
    first = check_kv(F, 6)
    again = check_kv(F, 6)
    assert len(expansions) == 1
    assert again.duflo == first.duflo and not again.passed
    assert lie._BCH_PATTERNS[(6,)] == tuple(kvtower.cyclic._duflo_patterns("bch", 6))
    clear_caches()
    assert lie._BCH_PATTERNS == {}


def test_extend_solkv_checks_its_input_once(monkeypatch):
    calls = count_checks(monkeypatch)
    F = extend_solkv(identity(1), 5)
    assert calls == [("SolKV", 1)]
    # No step runs, so nothing is checked.
    assert extend_solkv(F, 5) is F
    assert calls == [("SolKV", 1)]
    # The public single step keeps its own check.
    extend_solkv_step(F)
    assert calls == [("SolKV", 1), ("SolKV", 5)]


def test_extend_solkv_solves_one_log_more_than_its_steps(monkeypatch):
    # The input's log serves its check and the first step, and each step
    # solves the log of its corrected element once.
    solved = count_logs(monkeypatch)
    sol8 = parse_document((GOLDEN / "extend_d8.json").read_text()).to_taut()
    assert extend_solkv(sol8, 10) == sol10()
    assert solved == [8, 9, 10]


def test_extend_solkv_requires_a_solution():
    with pytest.raises(PreconditionFailed):
        extend_solkv(identity(2), 3)


def test_extend_krv_identity():
    out = extend_krv_step(identity(2))
    assert out == identity(3)


def test_extend_krv_swap_exp():
    G = taut_exp(TDer(LieElt.gen_y(1), LieElt.gen_x(1)))
    out = extend_krv_step(G)
    assert out.cap == 2
    assert out == taut_exp(TDer(LieElt.gen_y(2), LieElt.gen_x(2)))


def test_extend_krv_from_basis_element():
    rng = rng_for("extend-krv")
    G = krv_element(rng, 3)
    assert check_krv(G, 3).passed
    out = extend_krv_step(G)
    assert check_krv(out, 4).passed
    assert out.truncate(3) == G


def test_extend_krv_rejects_weak_input():
    # (e^y, 1) passes at degree 1 only in the truncated sense; its
    # zero-extension does not satisfy the equations one degree up.
    G = TAutElt(LieElt.gen_y(1), LieElt.zero(1))
    assert check_krv(G, 1).passed
    with pytest.raises(PreconditionFailed):
        extend_krv_step(G)


# -- torsor ----------------------------------------------------------------------


def test_torsor_quotient_of_equal_solutions():
    F = extend_solkv(identity(1), 3)
    H = torsor_quotient(F, F, 3)
    assert H == identity(3)


def test_torsor_quotient_of_distinct_degree_two_solutions():
    F = TAutElt(LieElt(2, {"y": Fraction(-1, 2)}), LieElt.zero(2))
    G = TAutElt(LieElt(2, {"y": Fraction(-1, 4)}), LieElt(2, {"x": Fraction(1, 4)}))
    assert check_sol_kv(F, 2).passed
    assert check_sol_kv(G, 2).passed
    H = torsor_quotient(F, G, 2)
    assert check_krv(H, 2).passed


def test_torsor_quotient_carries_f_to_g():
    # H = G o F^{-1} satisfies H^{-1} o G = F.
    F = extend_solkv(identity(1), 4)
    rng = rng_for("torsor-carry")
    K = krv_element(rng, 4)
    G = taut_compose(taut_inverse(K), F)  # the right action of K on F
    assert check_sol_kv(G, 4).passed
    H = torsor_quotient(F, G, 4)
    assert taut_compose(taut_inverse(H), G) == F
    assert check_krv(H, 4).passed


def test_torsor_requires_solutions():
    with pytest.raises(PreconditionFailed):
        torsor_quotient(identity(2), identity(2), 2)


# -- transport -------------------------------------------------------------------


def test_psi_identity():
    F = extend_solkv(identity(1), 3)
    assert psi_conjugate(F, identity(3), 3) == identity(3)


def test_psi_roundtrip():
    rng = rng_for("psi-roundtrip")
    F = extend_solkv(identity(1), 4)
    K = krv_element(rng, 4)
    G = taut_compose(taut_compose(taut_inverse(F), K), F)
    assert check_kv(G, 4).passed
    assert psi_conjugate(F, G, 4) == K


def test_psi_transport_of_graded_element():
    F = extend_solkv(identity(1), 4)
    u = TDer(LieElt.gen_y(4), LieElt.gen_x(4))
    U = taut_exp(u)
    G = taut_compose(taut_compose(taut_inverse(F), U), F)
    assert check_kv(G, 4).passed
    assert psi_conjugate(F, G, 4) == U


def test_psi_requires_memberships():
    F = extend_solkv(identity(1), 3)
    bad = TAutElt(LieElt.gen_y(3), LieElt.zero(3))
    with pytest.raises(PreconditionFailed):
        psi_conjugate(F, bad, 3)
    with pytest.raises(PreconditionFailed):
        psi_conjugate(identity(2), identity(2), 2)


def test_torsor_and_psi_reuse_the_logs_of_their_checks(monkeypatch):
    # torsor_quotient solves log F and log G for its checks, and they serve
    # the inverse of F and the composition with G; psi_conjugate solves log
    # F and log G for its checks, and F o G o F^-1 is the exponential of
    # the conjugate of log G by -log F, so it solves no other log.
    rng = rng_for("log-reuse")
    F = sol10().truncate(6)
    K = krv_element(rng, 6)
    right = taut_compose(taut_inverse(K), F)
    left = taut_compose(taut_compose(taut_inverse(F), K), F)
    solved = count_logs(monkeypatch)
    H = torsor_quotient(F, right, 6)
    assert solved == [6, 6]
    del solved[:]
    assert psi_conjugate(F, left, 6) == K
    assert solved == [6, 6]
    monkeypatch.undo()
    assert taut_compose(taut_inverse(H), right) == F


# -- graded dimensions -------------------------------------------------------------


def test_krv_dim_degree_one():
    dim, basis = krv_dim(1)
    assert dim == 1
    (b,) = basis
    assert b.u1.coeffs == {"y": 1}
    assert b.u2.coeffs == {"x": 1}


def test_krv_dim_rejects_degree_zero():
    with pytest.raises(ValueError, match="degree must be >= 1"):
        krv_dim(0)


def test_krv_dim_degree_two():
    assert krv_dim(2)[0] == 0


def test_krv_dim_regression_three_to_six():
    # Frozen on first verified run; cross-checked by the graded-rank test.
    assert [krv_dim(n)[0] for n in (3, 4, 5, 6)] == [1, 0, 1, 0]


def test_krv_dim_matches_theory_to_degree_eleven():
    # krv_2 = grt_1 + K t, and grt_1 is predicted free on sigma_3, sigma_5,
    # ... (Alekseev-Torossian 2012; Brown 2012 gives the lower bound), so
    # the graded dimensions are those of the free Lie algebra on one
    # generator in each odd degree >= 3, plus t in degree 1.
    dims = [krv_dim(n)[0] for n in range(1, 12)]
    assert dims == [1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 2]


def test_graded_system_rejects_a_defect_word_without_a_row():
    # Rows are the degree-4 Lyndon words and the degree-3 necklaces.
    system = _GradedSystem(3, with_bracket_rows=True)
    with pytest.raises(InconsistentSystem, match="xxxxy"):
        system.solve(LieElt(5, {"xxxxy": 1}))


def test_graded_solve_equals_the_reference_solve_of_the_fraction_defect(monkeypatch):
    # The solve takes the defect's integer numerators and divides its
    # solution by the defect's denominator; the dense reference solves for
    # the defect's Fractions.  Both stages of the step from 8 to 9.
    from test_linalg import _reference_solve

    solves = []
    solve = _GradedSystem.solve

    def recording_solve(system, defect):
        u = solve(system, defect)
        solves.append((system, defect, u))
        return u

    monkeypatch.setattr(_GradedSystem, "solve", recording_solve)
    sol8 = parse_document((GOLDEN / "extend_d8.json").read_text()).to_taut()
    extend_solkv(sol8, 9)
    shapes = [(S.rows, S.cols, defect.den.bit_length()) for S, defect, _ in solves]
    assert shapes == [(92, 61, 39), (60, 57, 34)]
    for S, defect, u in solves:
        M = QMatrix(S.rows, S.cols)
        for key, c in S.entries.items():
            M[key] = c
        b = [0] * S.rows
        for w, c in defect.coeffs.items():
            b[S.row_index[w]] = -c
        particular = _reference_solve(M, b)[0]
        assert u == S.tder_from(particular, defect.cap)


def _fraction_graded_matrix(n, with_bracket_rows):
    """The graded system as it was built before it held its own integer
    entries: each column's divergence read through ``.coeffs`` into a
    ``QMatrix``, with the same rows and columns.  Without bracket rows
    those are the slot-x and Duflo columns."""
    cap = n + 1
    lw = lyndon_words(cap) if with_bracket_rows else ()
    row = {w: i for i, w in enumerate(lw + necklaces(n))}
    slots = "xy" if with_bracket_rows else "x"
    columns = [(g, w) for g in slots for w in lyndon_words(n) if w != g]
    M = QMatrix(len(row), len(columns) + (1 if n >= 2 else 0))
    zero = LieElt.zero(cap)
    for j, (letter, w) in enumerate(columns):
        if with_bracket_rows:
            for ww, c in bracket_table(letter, w).items():
                M[row[ww], j] = c
        u = LieElt(cap, {w: 1})
        div = divergence(TDer(u, zero) if letter == "x" else TDer(zero, u))
        for ww, c in div.coeffs.items():
            M[row[ww], j] = c
    if n >= 2:
        for ww, c in duflo_pattern(n, "sum", cap).coeffs.items():
            M[row[ww], M.cols - 1] = -c
    return M


def test_graded_system_holds_the_integer_entries_of_the_fraction_build():
    for n in range(1, 11):
        for with_bracket_rows in (True, False):
            S = _GradedSystem(n, with_bracket_rows)
            M = _fraction_graded_matrix(n, with_bracket_rows)
            assert (S.rows, S.cols) == (M.rows, M.cols)
            assert all(type(v) is int for v in S.entries.values())
            assert S.entries == M.entries


def test_second_slot_divergence_columns_are_the_negated_first_slot_ones():
    # The premise of building the divergence-only system on the first
    # slot's columns: there a column sees only u1 - u2.
    for n in range(2, 13):
        S = _GradedSystem(n, with_bracket_rows=True)
        assert S.cols2 == S.cols1
        brackets = len(lyndon_words(n + 1))
        columns = [{} for _ in range(S.cols)]
        for (i, j), c in S.entries.items():
            if i >= brackets:
                columns[j][i] = c
        k = len(S.cols1)
        for j in range(k):
            assert columns[j], (n, S.cols1[j])
            assert columns[k + j] == {i: -c for i, c in columns[j].items()}, (n, S.cols1[j])


def test_divergence_only_system_solves_with_a_zero_second_slot():
    # Stage B's system: the first slot's and the Duflo columns only.
    for n in range(1, 9):
        S = _GradedSystem(n, with_bracket_rows=False)
        assert S.cols2 == [] and S.cols == len(S.cols1) + (1 if n >= 2 else 0)
    S = _GradedSystem(4, with_bracket_rows=False)
    u = S.tder_from([Fraction(1, 3)] * S.cols, 5)
    assert u.u2.is_zero() and u.u1 == LieElt(5, {w: Fraction(1, 3) for w in S.cols1})


def test_cold_graded_system_equals_a_warm_one():
    # The divergence rows and the necklaces are cached across builds; a
    # build from empty caches must give the same system as one from full.
    clear_caches()
    cold = _GradedSystem(9, with_bracket_rows=True)
    warm = _GradedSystem(9, with_bracket_rows=True)
    assert lie._DIVERGENCE
    assert (cold.rows, cold.cols, cold.row_index) == (warm.rows, warm.cols, warm.row_index)
    assert cold.entries == warm.entries


def test_krv_basis_elements_satisfy_equations():
    for n in (1, 3, 5):
        _, basis = krv_dim(n)
        for b in basis:
            u = b.with_cap(n + 1)
            from kvtower.tangential import tder_apply

            xy = LieElt(n + 1, {"x": 1, "y": 1})
            assert tder_apply(u, xy).is_zero()
            assert check_krv_lie(b, n).passed


def test_krv_bracket_closure():
    u = krv_dim(1)[1][0]
    v = krv_dim(3)[1][0]
    w = tder_bracket(u.with_cap(4), v.with_cap(4))
    assert check_krv_lie(w, 4).passed
    # Bracket equation holds exactly, one degree above the cap too.
    from kvtower.tangential import tder_apply

    w5 = tder_bracket(u.with_cap(5), v.with_cap(5))
    assert tder_apply(w5, LieElt(5, {"x": 1, "y": 1})).is_zero()


def test_exp_of_krv_basis_is_krv():
    for n in (1, 3):
        _, basis = krv_dim(n)
        for b in basis:
            F = taut_exp(b.with_cap(n + 2))
            assert check_krv(F, n + 2).passed


# -- graded rank -------------------------------------------------------------------


def test_gr_leading_rank_degree_one():
    F = extend_solkv(identity(1), 3)
    assert gr_leading_rank(F, 1) == 1


def test_gr_leading_rank_degree_two():
    F = extend_solkv(identity(1), 3)
    assert gr_leading_rank(F, 2) == 0


def test_gr_leading_rank_degree_three():
    F = extend_solkv(identity(1), 4)
    assert gr_leading_rank(F, 3) == krv_dim(3)[0]


def test_gr_leading_rank_degree_six():
    F = extend_solkv(identity(1), 7)
    assert gr_leading_rank(F, 6) == krv_dim(6)[0] == 0


def test_gr_leading_terms_match_the_log_on_the_degree_10_solution(monkeypatch):
    # gr_leading_rank reads the leading term of each transported G off its
    # normalized exponents; the leading term of log G is the reference.
    # Truncation commutes with the transport, so cap n + 1 suffices.
    ranked = []

    def recording(M):
        ranked.append(M)
        return rank(M)

    monkeypatch.setattr(kvtower.kv, "rank", recording)
    F10 = sol10()
    for n in range(1, 8):
        F = F10.truncate(n + 1)
        Fi = taut_inverse(F)
        dim, basis = krv_dim(n)
        cols = lyndon_words(n)
        vectors = []
        for u in basis:
            G = taut_compose(taut_compose(Fi, taut_exp(u.with_cap(F.cap))), F)
            assert valuation(G) == n
            lead = taut_log(G).homogeneous_part(n)
            vectors.append([lead.u1.coeff(w) for w in cols] + [lead.u2.coeff(w) for w in cols])
        ranked.clear()
        assert gr_leading_rank(F, n) == dim
        if vectors:
            (M,) = ranked
            assert M.entries == QMatrix.from_rows(vectors).entries


@pytest.mark.parametrize("n", [7, 9])
def test_transport_series_is_the_log_of_the_group_transport(n):
    # gr-test reads log(F^-1 o exp(u) o F) as the series sum_k ad^k(u)/k!
    # with ad(v) = [v, log F]; the group path computes F^-1 o exp(u) o F.
    F = sol10()
    w = taut_log(F)
    dim, basis = krv_dim(n)
    assert dim == 1
    for u in basis:
        g = kvtower.tangential._conjugate_log(u.with_cap(F.cap), w)
        assert g == taut_log(group_transport(F, u))
        assert valuation(g) == n


def test_gr_requires_headroom():
    F = extend_solkv(identity(1), 3)
    with pytest.raises(PreconditionFailed):
        gr_leading_rank(F, 3)


# -- torsor closure invariants -------------------------------------------------------


def test_krv_group_closure():
    rng = rng_for("krv-closure")
    n = 4
    A = krv_element(rng, n)
    B = krv_element(rng, n)
    assert check_krv(A, n).passed and check_krv(B, n).passed
    assert check_krv(taut_compose(A, B), n).passed
    assert check_krv(taut_inverse(A), n).passed


def test_action_stability():
    rng = rng_for("krv-action")
    n = 4
    F = extend_solkv(identity(1), n)
    H = krv_element(rng, n)
    moved = taut_compose(taut_inverse(H), F)
    assert check_sol_kv(moved, n).passed


def test_duflo_uniqueness_along_checks():
    # The per-degree pattern vectors are nonzero, so the solved series is
    # unique: re-solving the same input twice is bit-identical.
    F = extend_solkv(identity(1), 6)
    first = check_sol_kv(F, 6)
    second = check_sol_kv(F, 6)
    assert first.duflo == second.duflo
    from kvtower.cyclic import duflo_pattern

    for k in range(2, 9):
        assert not duflo_pattern(k, "sum", 8).is_zero()


def test_extension_duflo_is_even_bernoulli_series():
    # The even part of the attached series is forced; the deterministic
    # extension reproduces B_{2k}/(2 * 2k * (2k)!) with zero odd part.
    F = extend_solkv(identity(1), 6)
    report = check_sol_kv(F, 6)
    assert report.duflo.coeffs == {
        2: Fraction(1, 48),
        4: Fraction(-1, 5760),
        6: Fraction(1, 362880),
    }


def test_readme_library_example(capsys):
    # The README's library example, run as written: it prints the Duflo
    # series that its comment shows.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    report = namespace["report"]
    expected = "(1/48)z^2 + (-1/5760)z^4 + (1/362880)z^6"
    assert repr(report.duflo) == expected
    assert f"# {expected}" in code
    assert capsys.readouterr().out == expected + "\n"
    assert repr(report) == "KVReport(SolKV, degree=6, PASS)"


def test_checkers_refuse_a_degree_above_the_cap():
    F = extend_solkv(identity(1), 3)
    with pytest.raises(PreconditionFailed):
        check_sol_kv(F, F.cap + 1)
    _, (u,) = krv_dim(3)
    assert check_krv_lie(u, u.cap).passed
    with pytest.raises(PreconditionFailed):
        check_krv_lie(u, u.cap + 1)
