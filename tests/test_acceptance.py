"""End-to-end acceptance suite.

Each test here is one line of the contract for the package: the
dimension-3 classification with exact certificates, the reference
embeddings, the bi-invariant connection dichotomy, the semisimple
obstruction, the determinant-polynomial lemma, projective invariance
of the Weyl tensor, search soundness with determinism, and a bulk
randomized check of the exact linear algebra substrate.
"""

import json
import random
import time
from flataff.exact import (
    GaussRat,
    ExactMatrix,
    MultiPoly,
    poly_det,
    ZERO,
    ONE,
    HALF,
)
from flataff.liealg import LieAlgebra, builtin, BUILTIN_NAMES
from flataff.connections import (
    InvariantConnection,
    zero_connection,
    standard_connection,
    torsion,
    curvature,
    projective_change,
    projective_weyl,
    is_flat,
    is_torsion_free,
)
from flataff.affine import (
    canonical_embedding,
    check_homomorphism,
    is_etale,
    lsa_from_etale,
)
from flataff.obstructions import (
    LinearRep,
    h1_dim,
    fundamental_det_poly,
    decide_existence,
)
from flataff.search import SearchConfig, run_search
from flataff.cli import search_report, emit
from known_algebras import rand_gauss, tensor_zero


def test_dim3_classification_with_exact_certificates():
    # YES for the three solvable algebras, NO for sl2, all certificates
    # re-verified exactly, whole table well under a minute.
    t0 = time.perf_counter()
    expected = {
        "abelian3": "YES",
        "heis3": "YES",
        "sol3": "YES",
        "sl2": "NO",
    }
    for name in ("abelian3", "heis3", "sol3", "sl2"):
        report = decide_existence(builtin(name))
        assert report.verdict == expected[name], name
        if report.verdict == "YES":
            conn = report.connection
            emb = report.embedding
            assert is_flat(conn), name
            assert is_torsion_free(conn), name
            assert check_homomorphism(emb).ok, name
            assert is_etale(emb), name
        else:
            assert report.obstruction is not None
            assert report.connection is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"classification took {elapsed:.1f}s"


def test_reference_embeddings_induce_flat_connections():
    for kind in ("heis", "sol"):
        emb = canonical_embedding(kind)
        verdict = check_homomorphism(emb)
        assert verdict.ok, kind
        assert is_etale(emb), kind
        conn = lsa_from_etale(emb)
        assert tensor_zero(curvature(conn)), kind
        assert tensor_zero(torsion(conn)), kind


def test_zero_connection_flat_and_torsion_detects_abelian():
    matches = 0
    for name in BUILTIN_NAMES:
        g = builtin(name)
        conn = zero_connection(g)
        assert is_flat(conn), name
        if is_torsion_free(conn) == g.is_abelian():
            matches += 1
    assert matches == len(BUILTIN_NAMES)


def test_semisimple_obstruction_for_sl2():
    g = builtin("sl2")
    K = g.killing_form()
    assert K[0, 0] == GaussRat(8)
    assert K[1, 2] == GaussRat(4)
    assert K.rank() == 3
    assert g.is_semisimple()
    adj = LinearRep.adjoint(g)
    assert h1_dim(adj) == 0
    poly, open_orbit = fundamental_det_poly(adj)
    assert poly.is_zero()
    assert not open_orbit


def test_trace_free_adjoints_have_vanishing_det_poly():
    for name in BUILTIN_NAMES:
        adj = LinearRep.adjoint(builtin(name))
        assert adj.is_trace_free(), name
        poly, open_orbit = fundamental_det_poly(adj)
        assert poly.is_zero(), name
        assert not open_orbit, name

    # contrast: diagonal rep by E11, E22, E33 on the abelian algebra is
    # not trace-free and its determinant polynomial is p0 * p1 * p2
    g = builtin("abelian3")
    mats = []
    for a in range(3):
        rows = [[ZERO] * 3 for _ in range(3)]
        rows[a][a] = ONE
        mats.append(ExactMatrix.from_rows(rows))
    rep = LinearRep(g, tuple(mats))
    assert not rep.is_trace_free()
    poly, open_orbit = fundamental_det_poly(rep)
    assert open_orbit
    expected = MultiPoly.variable(3, 0)
    expected = expected * MultiPoly.variable(3, 1)
    expected = expected * MultiPoly.variable(3, 2)
    assert poly == expected


def test_weyl_tensor_projective_invariance():
    sl2 = builtin("sl2")
    std = standard_connection(sl2)
    assert is_torsion_free(std)
    assert tensor_zero(projective_weyl(std))

    rng = random.Random(60606)

    def _torsion_free(g):
        n = g.n
        s = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = [rand_gauss(rng, span=2) for _ in range(n)]
                s[i][j] = v
                s[j][i] = v
        gm = [
            [
                [HALF * g.c[i][j][k] + s[i][j][k] for k in range(n)]
                for j in range(n)
            ]
            for i in range(n)
        ]
        return InvariantConnection(g, gm)

    tests = [
        std,
        _torsion_free(sl2),
        _torsion_free(builtin("heis3")),
        _torsion_free(builtin("sol3")),
        _torsion_free(builtin("abelian3")),
    ]
    for conn in tests:
        w = projective_weyl(conn)
        for _ in range(50):
            phi = [rand_gauss(rng, span=3) for _ in range(conn.g.n)]
            changed = projective_change(conn, phi)
            assert is_torsion_free(changed)
            assert projective_weyl(changed) == w

    # flat certificates give identically zero Weyl tensor
    for name in ("abelian3", "heis3", "sol3"):
        report = decide_existence(builtin(name))
        assert tensor_zero(projective_weyl(report.connection)), name


def test_search_soundness_and_determinism():
    cfg = SearchConfig(starts=200, seed=1)
    for name in ("heis3", "sol3"):
        outcome = run_search(builtin(name), cfg)
        assert outcome.found, name
        assert is_flat(outcome.certificate), name
        assert is_torsion_free(outcome.certificate), name

    sl2_outcome = run_search(builtin("sl2"), cfg)
    assert not sl2_outcome.found
    assert sl2_outcome.certificate is None
    assert len(sl2_outcome.candidates) == 0

    # equal seeds yield byte-identical reports
    small = SearchConfig(starts=13, seed=1)
    out1 = emit(search_report(builtin("sol3"), small, name="sol3"), "json")
    out2 = emit(search_report(builtin("sol3"), small, name="sol3"), "json")
    assert out1 == out2
    assert json.loads(out1)["exactly_verified"] is True


def test_exact_linear_algebra_bulk_fuzz():
    rng = random.Random(940721)
    cases = 0
    for _ in range(1000):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        mat = ExactMatrix.from_rows(
            [[rand_gauss(rng, span=3) for _ in range(m)] for _ in range(n)]
        )

        # reducing an already reduced matrix changes nothing
        red, pivots = mat.rref()
        red2, pivots2 = red.rref()
        assert red2 == red
        assert pivots2 == pivots

        # the two determinant algorithms agree on square matrices
        sq = ExactMatrix.from_rows(
            [[rand_gauss(rng, span=3) for _ in range(n)] for _ in range(n)]
        )
        assert sq.det() == sq.det_cofactor()

        # determinant of a polynomial matrix commutes with evaluation
        nvars = rng.randint(1, 3)
        point = [rand_gauss(rng, span=2) for _ in range(nvars)]

        def _rand_poly():
            p = MultiPoly.constant(nvars, rand_gauss(rng, span=2))
            for v in range(nvars):
                if rng.random() < 0.5:
                    coeff = MultiPoly.constant(
                        nvars, rand_gauss(rng, span=2)
                    )
                    p = p + coeff * MultiPoly.variable(nvars, v)
            return p

        pmat = [[_rand_poly() for _ in range(n)] for _ in range(n)]
        d = poly_det(pmat)
        evaluated = ExactMatrix.from_rows(
            [[pmat[i][j].evaluate(point) for j in range(n)] for i in range(n)]
        )
        assert d.evaluate(point) == evaluated.det()
        cases += 1
    assert cases == 1000
