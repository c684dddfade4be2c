"""Tests for cohomology, the determinant obstruction, and the decision
pipeline."""

import copy
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flataff import affine, cli, connections, liealg, obstructions
from flataff import search as search_module
from flataff.exact import GaussRat, ExactMatrix, MultiPoly, ZERO, ONE, _unit_vectors
from flataff.liealg import LieAlgebra, builtin, from_structure_constants
from flataff.connections import (
    InvariantConnection,
    is_flat,
    is_torsion_free,
    standard_connection,
    zero_connection,
)
from flataff.affine import (
    DimensionMismatch,
    NotFlatTorsionFree,
    canonical_embedding,
    check_homomorphism,
    etale_from_lsa,
    is_etale,
    lsa_from_etale,
)
from flataff.obstructions import (
    LinearRep,
    InvalidRep,
    DecisionReport,
    h1_dim,
    fundamental_det_poly,
    decide_existence,
)
from flataff.search import SearchConfig, SearchOutcome
from known_algebras import (SL2, count_computations, filiform, gl2, gl_z,
                            sl2_plus_sl2, sl3)


def _sl2_irreducible_3dim():
    """Weight-basis matrices for the irreducible 3-dimensional module."""
    rho_h = ExactMatrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    rho_e = ExactMatrix.from_rows([[0, 2, 0], [0, 0, 2], [0, 0, 0]])
    rho_f = ExactMatrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    return LinearRep(builtin("sl2"), [rho_h, rho_e, rho_f])


def test_linear_rep_validates():
    g = builtin("sl2")
    adj = LinearRep.adjoint(g)
    assert adj.V_dim == 3
    assert adj.is_trace_free()
    # swapping rho(e) and rho(f) breaks the representation property
    with pytest.raises(InvalidRep):
        LinearRep(g, [g.ad_matrix(0), g.ad_matrix(2), g.ad_matrix(1)])


def test_trivial_rep():
    rep = LinearRep.trivial(builtin("heis3"))
    assert rep.V_dim == 1
    assert all(m.is_zero() for m in rep.rho)


def test_h1_oracles():
    assert h1_dim(LinearRep.adjoint(builtin("sl2"))) == 0
    assert h1_dim(LinearRep.trivial(builtin("heis3"))) == 2
    assert h1_dim(LinearRep.trivial(builtin("abelian3"))) == 3


def test_h1_whitehead_irreducible():
    assert h1_dim(_sl2_irreducible_3dim()) == 0


def test_h1_trivial_rep_counts_abelianization():
    # Z^1 for the trivial rep is (g/[g,g])^*, B^1 = 0
    g = builtin("sol3")
    assert h1_dim(LinearRep.trivial(g)) == 1  # [g,g] has dim 2


def test_det_poly_zero_across_catalog_adjoints():
    for name in ("abelian3", "heis3", "sol3", "sl2"):
        rep = LinearRep.adjoint(builtin(name))
        assert rep.is_trace_free()
        d, open_orbit = fundamental_det_poly(rep)
        assert d.is_zero()
        assert not open_orbit


def test_det_poly_contrast_example():
    def diag_unit(i):
        return ExactMatrix.from_rows(
            [
                [ONE if r == c == i else ZERO for c in range(3)]
                for r in range(3)
            ]
        )

    rep = LinearRep(builtin("abelian3"), [diag_unit(i) for i in range(3)])
    assert not rep.is_trace_free()
    d, open_orbit = fundamental_det_poly(rep)
    assert open_orbit
    expect = (
        MultiPoly.variable(3, 0)
        * MultiPoly.variable(3, 1)
        * MultiPoly.variable(3, 2)
    )
    assert d == expect
    assert d.total_degree() == 3


def test_det_poly_dimension_check():
    with pytest.raises(DimensionMismatch):
        fundamental_det_poly(LinearRep.trivial(builtin("heis3")))


def test_unimodular_volume_lemma_under_conjugation():
    """Trace-free reps of unimodular algebras keep a vanishing
    fundamental determinant under change of basis."""
    rng = random.Random(2718)
    for name in ("heis3", "sol3", "sl2"):
        g = builtin(name)
        adj = LinearRep.adjoint(g)
        for _ in range(3):
            while True:
                P = ExactMatrix(
                    3,
                    3,
                    [
                        GaussRat(rng.randint(-2, 2), rng.randint(-1, 1))
                        for _ in range(9)
                    ],
                )
                if not P.det().is_zero():
                    break
            Pinv = P.inverse()
            rep = LinearRep(g, [P @ m @ Pinv for m in adj.rho])
            assert rep.is_trace_free()
            d, open_orbit = fundamental_det_poly(rep)
            assert d.is_zero()
            assert not open_orbit


def test_unimodular_volume_lemma_diagonal_reps():
    # commuting trace-free diagonal families are reps of abelian3
    rng = random.Random(5050)
    g = builtin("abelian3")
    for _ in range(5):
        mats = []
        for _ in range(3):
            a = GaussRat(rng.randint(-3, 3), rng.randint(-2, 2))
            b = GaussRat(rng.randint(-3, 3), rng.randint(-2, 2))
            mats.append(
                ExactMatrix.from_rows(
                    [
                        [a, ZERO, ZERO],
                        [ZERO, b, ZERO],
                        [ZERO, ZERO, -(a + b)],
                    ]
                )
            )
        rep = LinearRep(g, mats)
        assert rep.is_trace_free()
        d, _ = fundamental_det_poly(rep)
        assert d.is_zero()


def test_decide_abelian():
    report = decide_existence(builtin("abelian3"))
    assert report.verdict == "YES"
    assert report.connection == zero_connection(builtin("abelian3"))
    assert report.embedding is not None
    assert report.obstruction is None


def test_decide_catalog_heis_and_sol():
    r = decide_existence(builtin("heis3"))
    assert r.verdict == "YES"
    assert r.connection.gamma[0][1][2] == ONE
    assert is_flat(r.connection) and is_torsion_free(r.connection)
    v = check_homomorphism(r.embedding)
    assert v.ok and v.injective and is_etale(r.embedding)

    r = decide_existence(builtin("sol3"))
    assert r.verdict == "YES"
    assert r.connection.gamma[0][1][1] == ONE
    assert r.connection.gamma[0][2][2] == -ONE
    assert is_flat(r.connection) and is_torsion_free(r.connection)

    # the abelian-ideal rule reproduces the reference embeddings
    for name, kind in (("heis3", "heis"), ("sol3", "sol")):
        report = decide_existence(builtin(name))
        emb = canonical_embedding(kind)
        assert report.connection == lsa_from_etale(emb)
        assert report.embedding.images == emb.images


def test_decide_sl2_semisimple_no():
    report = decide_existence(builtin("sl2"))
    assert report.verdict == "NO"
    assert report.connection is None
    assert report.embedding is None
    ev = report.obstruction
    assert ev is not None
    assert ev.killing_rank == 3
    assert ev.h1_adjoint == 0
    assert ev.det_poly_is_zero
    assert "theorem" in ev.statement


def _search_only_algebra():
    """[e1, e2] = e2 + e3, [e1, e3] = -e3 in a basis where no basis
    vector has an abelian complement ideal, so only the search decides
    it."""
    return from_structure_constants(
        3, brackets={(0, 1): [1, 0, 0], (0, 2): [1, 0, 0], (1, 2): [0, -1, 1]}
    )


def test_decide_search_branch():
    g = _search_only_algebra()
    report = decide_existence(g, SearchConfig(starts=20, seed=1))
    assert report.verdict == "YES"
    assert report.notes[0].startswith("numeric search")
    assert is_flat(report.connection)
    assert is_torsion_free(report.connection)
    v = check_homomorphism(report.embedding)
    assert v.ok and is_etale(report.embedding)


def test_decide_unknown_when_budget_too_small():
    g = _search_only_algebra()
    report = decide_existence(g, SearchConfig(starts=1, max_iters=1, seed=1))
    assert report.verdict == "UNKNOWN"
    assert report.notes[0].startswith("numeric search")
    assert report.connection is None
    assert report.obstruction is None


def test_report_invariants():
    cfg = SearchConfig(starts=5, seed=1)
    for name in ("abelian3", "heis3", "sol3", "sl2"):
        r = decide_existence(builtin(name), cfg)
        assert isinstance(r, DecisionReport)
        if r.verdict == "YES":
            assert r.connection is not None and r.embedding is not None
            assert is_flat(r.connection)
            assert is_torsion_free(r.connection)
            assert is_etale(r.embedding)
        if r.verdict == "NO":
            assert r.obstruction is not None
        assert r.notes


def test_decide_sl3_semisimple_no():
    report = decide_existence(sl3())
    assert report.verdict == "NO"
    ev = report.obstruction
    assert ev.killing_rank == 8
    assert ev.h1_adjoint == 0
    assert ev.det_poly_is_zero


def test_each_certificate_is_verified_once(monkeypatch):
    """Every exact flatness, torsion and representation check runs the
    bracket-defect kernel LieAlgebra._defects, so its calls count them."""
    counts = {"defects": 0, "check_homomorphism": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        LieAlgebra, "_defects", counting("defects", LieAlgebra._defects),
    )
    # every module that binds check_homomorphism, as in test_cli
    original = affine.check_homomorphism
    hom = counting("check_homomorphism", original)
    for module in (affine, cli, connections, obstructions, search_module):
        if getattr(module, "check_homomorphism", None) is original:
            monkeypatch.setattr(module, "check_homomorphism", hom)
    # k, the exact snap checks of the search, is the kernel count when
    # run_search returns
    snap_checks = []
    search = obstructions.run_search

    def run_search(*args):
        outcome = search(*args)
        snap_checks.append(counts["defects"])
        return outcome

    monkeypatch.setattr(obstructions, "run_search", run_search)

    def per_yes(g, cfg=None):
        counts.update(defects=0, check_homomorphism=0)
        assert decide_existence(g, cfg).verdict == "YES"
        return counts["defects"], counts["check_homomorphism"]

    for g in (builtin("abelian3"), builtin("heis3"), builtin("sol3"), gl2()):
        assert per_yes(g) == (1, 0)
    g = _search_only_algebra()
    defect_calls, hom_calls = per_yes(g, SearchConfig(starts=20, seed=1))
    (k,) = snap_checks
    assert k >= 1
    # the snap check that passed made the embedding: no pass after it
    assert (defect_calls, hom_calls) == (k, 0)

    # a semisimple NO: one Killing form, ranked by the gate, no determinant
    # polynomial and no cocycle elimination; both follow by theorem
    # (Whitehead for H^1)
    def refuse(name):
        def refused(*args):
            raise AssertionError(name + " called")
        return refused

    monkeypatch.setattr(obstructions, "fundamental_det_poly",
                        refuse("fundamental_det_poly"))
    monkeypatch.setattr(obstructions, "h1_dim", refuse("h1_dim"))
    monkeypatch.setattr(LinearRep, "adjoint", refuse("LinearRep.adjoint"))
    forms = count_computations(monkeypatch, "_killing")
    for g in (builtin("sl2"), sl2_plus_sl2(), sl3(), _sl4()):
        forms.clear()
        report = decide_existence(g)
        assert report.verdict == "NO"
        assert report.obstruction.det_poly_is_zero
        assert report.obstruction.h1_adjoint == 0
        assert report.obstruction.killing_rank == g.n
        assert forms == [g.n]
    # the reductive rule reads the Killing form the gate computed
    forms.clear()
    assert decide_existence(gl2()).verdict == "YES"
    assert forms == [4]


def test_a_decision_and_a_profile_rank_the_killing_form_once(monkeypatch):
    """decide_existence and then structural_profile on one algebra compute
    the Killing form once and rank it once: the gate and the profile read
    the rank g keeps. A second decision and profile compute and rank
    nothing more; only the reductive rule reduces the kept rows, once per
    decision, to read the center."""
    calls = []
    for module in (liealg, obstructions):
        def counted(rows, reduced=False, echelon=module._echelon):
            calls.append((rows, reduced))
            return echelon(rows, reduced)
        monkeypatch.setattr(module, "_echelon", counted)
    forms = count_computations(monkeypatch, "_killing")
    for g, verdict, rank in ((builtin("sl2"), "NO", 3), (sl3(), "NO", 8),
                             (sl2_plus_sl2(), "NO", 6), (gl2(), "YES", 3)):
        calls.clear()
        forms.clear()
        for _ in range(2):
            assert decide_existence(g).verdict == verdict
            profile = g.structural_profile()
            assert profile.killing_rank == rank
            assert profile.semisimple == (verdict == "NO")
        K = g._killing[1]
        ranked = [reduced for rows, reduced in calls if rows is K]
        assert ranked == [False] + [True] * (2 if verdict == "YES" else 0)
        assert forms == [g.n]


def test_adjoint_matches_the_validated_representation():
    algebras = [builtin(name) for name in ("abelian3", "heis3", "sol3", "sl2")]
    for g in algebras + [sl2_plus_sl2()]:
        adj = LinearRep.adjoint(g)
        assert LinearRep(g, g.adjoint_rep()).rho == adj.rho
        assert adj.V_dim == g.n and adj.g is g


def test_unknown_note_counts_the_search():
    g = _search_only_algebra()
    report = decide_existence(g, SearchConfig(starts=1, max_iters=1, seed=1))
    assert report.notes == (
        "numeric search exhausted 1 starts: 0 converged numerically, none "
        "snapped to an exactly verified certificate (denominators up to "
        "10000)",
    )


def _sl4():
    """sl4 from commutators of 4x4 matrices, in the basis of the twelve
    E_ab, a != b, then H_a = E_aa - E_(a+1)(a+1) for a = 1, 2, 3."""
    offdiag = [(a, b) for a in range(4) for b in range(4) if a != b]

    def unit(r, c):
        return ExactMatrix.from_rows(
            [[int((a, b) == (r, c)) for b in range(4)] for a in range(4)]
        )

    basis = [unit(r, c) for r, c in offdiag]
    basis += [unit(a, a) - unit(a + 1, a + 1) for a in range(3)]

    def coords(m):
        # diag(d0, .., d3) with zero trace is the sum over a of
        # (d0 + .. + da) H_(a+1)
        partial = [m[0, 0], m[0, 0] + m[1, 1], m[0, 0] + m[1, 1] + m[2, 2]]
        return [m[r, c] for r, c in offdiag] + partial

    brackets = {}
    for i in range(15):
        for j in range(i + 1, 15):
            x, y = basis[i], basis[j]
            brackets[(i, j)] = coords(x @ y - y @ x)
    return from_structure_constants(15, brackets=brackets)


def test_decide_sl4_semisimple_no():
    g = _sl4()
    assert g.killing_rank() == 15
    report = decide_existence(g)
    assert report.verdict == "NO"
    ev = report.obstruction
    assert ev.killing_rank == 15
    # Whitehead: H1(g, g) = 0 for semisimple g
    assert ev.h1_adjoint == 0
    assert ev.det_poly_is_zero


def test_h1_adjoint_dimensions():
    cases = [(builtin("sl2"), 0), (sl2_plus_sl2(), 0), (sl3(), 0),
             (_sl4(), 0), (builtin("heis3"), 4), (builtin("sol3"), 1)]
    for g, want in cases:
        assert h1_dim(LinearRep.adjoint(g)) == want


def test_h1_trivial_is_the_abelianization():
    """H^1(g, C) = (g / [g, g])^*, of dimension n - dim [g, g]."""
    algebras = [builtin(name) for name in ("abelian3", "heis3", "sol3", "sl2")]
    aff1 = from_structure_constants(2, brackets={(0, 1): [0, 1]})
    for g in algebras + [aff1, gl2(), sl2_plus_sl2(), sl3()]:
        full = _unit_vectors(g.n)
        want = g.n - len(g._bracket_space(full, full))
        assert h1_dim(LinearRep.trivial(g)) == want
    assert [h1_dim(LinearRep.trivial(g)) for g in algebras] == [3, 2, 1, 0]


def test_h1_builds_no_dense_matrix(monkeypatch):
    reps = [LinearRep.adjoint(g) for g in (sl3(), builtin("heis3"))]
    reps.append(LinearRep.trivial(builtin("sol3"), 2))

    def refuse(*args):
        raise AssertionError("ExactMatrix built")

    monkeypatch.setattr(ExactMatrix, "__init__", refuse)
    assert [h1_dim(rep) for rep in reps] == [0, 4, 2]


def test_h1_eliminates_the_short_side(monkeypatch):
    """h1_dim ranks the cocycle system transposed: on sl3's adjoint it
    hands _echelon one row per unknown f(e_j)_a, 64 rows in all, not one
    per equation (224, of which 168 reduce to zero), and B^1 one row per
    coordinate of V (8, not 64). The adjoint is read off g.nonzero: no
    ExactMatrix is built, and rho is built only when asked for."""
    calls, echelon = [], obstructions._echelon

    def counting(rows, *args, **kwargs):
        rows = list(rows)
        calls.append(len(rows))
        return echelon(rows, *args, **kwargs)

    monkeypatch.setattr(obstructions, "_echelon", counting)
    g, init = sl3(), ExactMatrix.__init__

    def refuse(*args):
        raise AssertionError("ExactMatrix built")

    monkeypatch.setattr(ExactMatrix, "__init__", refuse)
    rep = LinearRep.adjoint(g)
    assert h1_dim(rep) == 0
    z1, b1 = calls
    assert z1 <= 64 and b1 <= 8
    monkeypatch.setattr(ExactMatrix, "__init__", init)
    assert rep.rho == tuple(g.adjoint_rep())


def test_sl4_decides_quickly():
    g = _sl4()
    start = time.perf_counter()
    report = decide_existence(g)
    assert time.perf_counter() - start < 0.3
    assert report.verdict == "NO" and report.obstruction.h1_adjoint == 0


def test_complex_bases_of_semisimple_algebras_decide_quickly():
    """sl3 and sl4 with e1 -> (2 + i) e1, and sl3 in a basis mixed by
    Gaussian integers above the diagonal. The elimination divides each
    row exactly by an earlier pivot, so a non-real Gaussian prime such as
    2 + i cannot pile up in the H^1 rows."""
    def basis(n, upper):
        # f_j = sum_i p[i, j] e_i, p upper triangular: row j of p^T
        return ExactMatrix(n, n, [GaussRat(2, 1) if i == j == 0 else
                                  GaussRat(1) if i == j else
                                  upper(i, j) if i < j else ZERO
                                  for i in range(n) for j in range(n)]
                           ).transpose()

    def mixed(i, j):
        return GaussRat((i + 2 * j) % 5 - 2, (3 * i + j) % 5 - 2)

    for g in (sl3().in_basis(basis(8, lambda i, j: ZERO)),
              _sl4().in_basis(basis(15, lambda i, j: ZERO)),
              sl3().in_basis(basis(8, mixed))):
        start = time.perf_counter()
        report = decide_existence(g)
        assert time.perf_counter() - start < 5
        assert report.verdict == "NO" and report.obstruction.h1_adjoint == 0
        # the decision states H^1 = 0 by theorem; the elimination itself
        start = time.perf_counter()
        assert h1_dim(LinearRep.adjoint(g)) == 0
        assert time.perf_counter() - start < 5


def _seeded_basis(n, seed):
    """A GL(n, Z) basis drawn by random.Random(seed), entries in [-2, 2]."""
    rng = random.Random(seed)
    while True:
        P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if not ExactMatrix.from_rows(P).det().is_zero():
            return P


def test_semisimple_algebras_decide_quickly_in_a_generic_basis():
    """sl3 and sl4 in a seeded GL(n, Z) basis are dense (all constants
    nonzero, with denominators), yet the NO takes one Killing rank: under
    0.5 s, where eliminating the H^1 system takes about 1 s for sl3 and
    does not end within minutes for sl4. The algebra is built untimed."""
    for g in (sl3(), _sl4()):
        h = g.in_basis(_seeded_basis(g.n, 3))
        start = time.perf_counter()
        report = decide_existence(h)
        assert time.perf_counter() - start < 0.5
        assert report.verdict == "NO"
        assert report.obstruction.killing_rank == g.n
        assert report.obstruction.h1_adjoint == 0


def test_stated_h1_matches_the_elimination():
    """The H^1(adjoint) a semisimple NO states by Whitehead's lemma is the
    dimension h1_dim computes."""
    for g in (builtin("sl2"), sl2_plus_sl2(), sl3(), _sl4()):
        stated = decide_existence(g).obstruction.h1_adjoint
        assert stated == h1_dim(LinearRep.adjoint(g)) == 0


_RULE_NOTE = (
    "all basis vectors but one span an abelian ideal: the connection ad "
    "on that vector and 0 on the ideal is flat and torsion-free"
)


def test_abelian_ideal_rule_decides_without_the_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("run_search called")

    monkeypatch.setattr(obstructions, "run_search", no_search)
    r3 = [from_structure_constants(3, brackets={
        (0, 1): [0, 1, 0], (0, 2): [0, 0, lam]})
        for lam in (2, Fraction(1, 3), GaussRat(0, 1))]
    algebras = (
        [from_structure_constants(0), from_structure_constants(1)]
        + [builtin(name).in_basis([[int(perm[a] == b) for a in range(3)]
                                   for b in range(3)])
           for name in ("heis3", "sol3")
           for perm in itertools.permutations(range(3))]
        + [from_structure_constants(2, brackets={(0, 1): [0, 1]}),
           from_structure_constants(2, brackets={(0, 1): [1, 0]}),
           from_structure_constants(3, brackets={(0, 1): [0, 1, 0]}),
           from_structure_constants(2, brackets={(0, 1): [0, 10**400]})]
        + r3 + [filiform(n) for n in range(4, 12)]
    )
    for g in algebras:
        report = decide_existence(g)
        assert report.verdict == "YES"
        assert report.notes == (_RULE_NOTE,)
    # the certificate check is the costly part at n = 12
    start = time.perf_counter()
    assert decide_existence(filiform(12)).verdict == "YES"
    assert time.perf_counter() - start < 1.0


def test_a_yes_builds_no_curvature_or_torsion_tensor(monkeypatch):
    """etale_from_lsa checks a certificate with the defect kernel alone,
    so no dense curvature or torsion tensor is built: the abelian algebra
    of dimension 40 and L12 answer YES with both patched to raise."""
    def refuse(*args):
        raise AssertionError("dense tensor built")

    for name in ("curvature", "torsion"):
        monkeypatch.setattr(connections, name, refuse)
    for g in (from_structure_constants(40), filiform(12)):
        assert decide_existence(g).verdict == "YES"


def test_abelian_ideal_rule_refuses_other_algebras():
    for g in (builtin("sl2"), gl2(), _search_only_algebra()):
        assert obstructions._abelian_ideal_connection(g) is None


def test_a_broken_certificate_raises(monkeypatch):
    """Every YES branch takes its embedding from etale_from_lsa, which
    refuses a connection that is curved or has torsion."""
    with_torsion = zero_connection(builtin("heis3"))
    curved = standard_connection(builtin("sol3"))
    assert is_flat(with_torsion) and not is_torsion_free(with_torsion)
    assert is_torsion_free(curved) and not is_flat(curved)
    for bad in (with_torsion, curved):
        with monkeypatch.context() as m:
            m.setattr(obstructions, "_abelian_ideal_connection",
                      lambda g: bad)
            with pytest.raises(NotFlatTorsionFree):
                decide_existence(bad.g)
        with monkeypatch.context() as m:
            m.setattr(obstructions, "run_search",
                      lambda g, cfg: SearchOutcome((), bad, 0))
            with pytest.raises(NotFlatTorsionFree):
                decide_existence(_search_only_algebra())

    g = gl2()
    with_torsion, curved = zero_connection(g), standard_connection(g)
    assert is_flat(with_torsion) and not is_torsion_free(with_torsion)
    assert is_torsion_free(curved) and not is_flat(curved)
    for bad in (with_torsion, curved):
        with monkeypatch.context() as m:
            m.setattr(obstructions, "_reductive_connection", lambda g: bad)
            with pytest.raises(NotFlatTorsionFree):
                decide_existence(g)


_REDUCTIVE_NOTE = (
    "g is [g, g] of dimension 3 plus the center: the product of 2x2 "
    "matrices, with the identity in the center, is flat and torsion-free"
)


def _plus_center(brackets3, k):
    """A 3-dimensional algebra plus a k-dimensional center."""
    return from_structure_constants(3 + k, brackets={
        pair: v + [0] * k for pair, v in brackets3.items()})


_SO3 = {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (2, 0): [0, 1, 0]}
_REDUCTIVE = {
    "gl2": gl2(),
    "sl2+C": _plus_center(SL2, 1),
    "sl2+C2": _plus_center(SL2, 2),
    "sl2+C3": _plus_center(SL2, 3),
    "so3+C": _plus_center(_SO3, 1),
    "so3+C2": _plus_center(_SO3, 2),
}


def _dense_reductive_connection(g):
    """The product of _reductive_connection evaluated at all n^3 places,
    ½c + π_i σ_j + π_j σ_i + (⅛κ + π_i π_j) z1, from the dense center
    system, the brackets of the full basis and the traces of ad."""
    n = g.n
    full = _unit_vectors(g.n)
    s = g._bracket_space(full, full)
    z = ExactMatrix(n * n, n, [g.c[i][j][k] for i in range(n)
                               for k in range(n) for j in range(n)]).nullspace()
    coords = ExactMatrix.from_rows(s + z).inverse()
    sigma = ExactMatrix(n, 3, [coords[i, a] for i in range(n)
                               for a in range(3)]) @ ExactMatrix.from_rows(s)
    pi = [coords[i, 3] for i in range(n)]
    kappa = [[(g.ad_matrix(i) @ g.ad_matrix(j)).trace() for j in range(n)]
             for i in range(n)]
    return InvariantConnection(g, [[[
        g.c[i][j][k] / 2 + pi[i] * sigma[j, k] + pi[j] * sigma[i, k]
        + (kappa[i][j] / 8 + pi[i] * pi[j]) * z[0][k]
        for k in range(n)] for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("name", sorted(_REDUCTIVE))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_reductive_rule_decides_in_any_basis(name, data):
    """s = [g, g] of dimension 3 plus the center is YES by the matrix
    product, read off the bracket, in the aligned basis and after a
    GL(n, Z) change of basis; the search is never reached. The product
    summed from its nonzero terms equals the dense formula."""
    def no_search(*args):
        raise AssertionError("run_search called")

    g = _REDUCTIVE[name]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(obstructions, "run_search", no_search)
        for h in (g, g.in_basis(data.draw(gl_z(g.n), label="P"))):
            report = decide_existence(h)
            assert report.verdict == "YES"
            assert report.notes == (_REDUCTIVE_NOTE,)
            assert report.connection == _dense_reductive_connection(h)


_CERTIFIED = {
    **{name: builtin(name) for name in ("abelian3", "heis3", "sol3")},
    "aff1": from_structure_constants(2, brackets={(0, 1): [0, 1]}),
    "gl2": gl2(),
    "L5": filiform(5),
}


@pytest.mark.parametrize("name", sorted(_CERTIFIED))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_a_certificate_moved_by_in_basis_stays_a_certificate(name, data):
    """The YES certificate of g, moved to a GL(n, Z) basis, is flat and
    torsion-free on g in that basis, and etale_from_lsa accepts it."""
    conn = decide_existence(_CERTIFIED[name]).connection
    moved = conn.in_basis(data.draw(gl_z(conn.g.n), label="P"))
    assert is_flat(moved) and is_torsion_free(moved)
    assert is_etale(etale_from_lsa(moved))


_SEMISIMPLE = {"sl2": builtin("sl2"), "sl2+sl2": sl2_plus_sl2(), "sl3": sl3()}


@pytest.mark.parametrize("name", sorted(_SEMISIMPLE))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_semisimple_algebras_stay_no_in_a_drawn_basis(name, data):
    """The stated H^1(adjoint) = 0 is also what h1_dim eliminates to, where
    that is quick: not for sl3, about 1 s a drawn basis."""
    g = _SEMISIMPLE[name]
    h = g.in_basis(data.draw(gl_z(g.n), label="P"))
    report = decide_existence(h)
    assert report.verdict == "NO" and report.obstruction.h1_adjoint == 0
    if name != "sl3":
        assert h1_dim(LinearRep.adjoint(h)) == 0


def test_reductive_rule_is_fast_and_runs_no_check(monkeypatch):
    """The rule reads the Killing form g keeps and builds the product
    without killing_rank, an exact check (the defect kernel) or the
    search; aligned gl2 decides in under 0.1 s."""
    start = time.perf_counter()
    assert decide_existence(gl2()).notes == (_REDUCTIVE_NOTE,)
    assert time.perf_counter() - start < 0.1

    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(LieAlgebra, "killing_rank", refuse)
    monkeypatch.setattr(obstructions, "run_search", refuse)
    monkeypatch.setattr(LieAlgebra, "_defects", refuse)
    for g in _REDUCTIVE.values():
        assert obstructions._reductive_connection(g) is not None


def test_reductive_rule_makes_no_change_of_basis(monkeypatch):
    """A reductive YES, aligned and in a GL(n, Z) basis, solves, inverts,
    multiplies and scales no ExactMatrix: the product is summed in closed
    form from the Killing rows and one elimination."""
    def refuse(name):
        def refused(*args):
            raise AssertionError(f"ExactMatrix.{name} called")
        return refused

    # a block of det -3 on the first four basis vectors
    block = [[1, 2, 0, -1], [0, 1, 1, 0], [1, 0, 1, 1], [0, -1, 2, 1]]
    moved = [g.in_basis([row + [0] * (g.n - 4) for row in block]
                        + [[int(a == b) for a in range(g.n)]
                           for b in range(4, g.n)])
             for g in _REDUCTIVE.values()]
    for name in ("solve", "inverse", "__matmul__", "scale"):
        monkeypatch.setattr(ExactMatrix, name, refuse(name))
    for g in [*_REDUCTIVE.values(), *moved]:
        report = decide_existence(g)
        assert report.verdict == "YES" and report.notes == (_REDUCTIVE_NOTE,)


def _free_two_step(k):
    """The free two-step nilpotent algebra on k generators x_a, with
    [x_a, x_b] = y_ab for a < b as the last basis vectors."""
    pairs = list(itertools.combinations(range(k), 2))
    n = k + len(pairs)
    return from_structure_constants(n, brackets={
        (a, b): [int(m == k + t) for m in range(n)]
        for t, (a, b) in enumerate(pairs)})


def test_reductive_rule_declines_other_shapes():
    """No center (sl2), a larger or smaller [g, g] (sl2 + sl2, sl3,
    aff1 + aff1, the search-only algebra), and a 3-dimensional [g, g]
    that is the center itself (free two-step on three generators)."""
    aff1_squared = from_structure_constants(4, brackets={
        (0, 1): [0, 1, 0, 0], (2, 3): [0, 0, 0, 1]})
    free = _free_two_step(3)
    assert free.n == 6 and free.derived_series_dims() == [6, 3, 0]
    for g in (builtin("sl2"), sl2_plus_sl2(), sl3(), aff1_squared,
              _search_only_algebra(), free):
        assert obstructions._reductive_connection(g) is None


def test_equal_decisions_compare_equal():
    """Two decisions of one algebra compare equal, and so does a deep copy
    of one with its original: an algebra compares by its names and
    constants and an affine map by its algebra and images. Other
    constants or names compare unequal."""
    first, second = (decide_existence(builtin("heis3")) for _ in range(2))
    assert first == second and first == copy.deepcopy(first)
    assert hash(first.embedding) == hash(second.embedding)
    g = builtin("sol3")
    assert g == LieAlgebra(3, g.c) and hash(g) == hash(LieAlgebra(3, g.c))
    assert g != LieAlgebra(3, g.c, names=["x", "y", "z"])
    doubled = g.in_basis(ExactMatrix.identity(3).scale(2))
    assert doubled != g and g != builtin("heis3")
    mine, other = decide_existence(g), decide_existence(doubled)
    assert mine.embedding != other.embedding and mine != other
