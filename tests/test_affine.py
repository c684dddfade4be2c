"""Tests for the affine algebra, embeddings, and the connection
correspondence."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from flataff import affine, cli, exact, liealg, obstructions
from flataff.exact import GaussRat, ExactMatrix, ZERO, ONE
from flataff.liealg import builtin, from_structure_constants
from flataff.connections import (
    InvariantConnection,
    zero_connection,
    standard_connection,
    curvature,
    torsion,
    is_flat,
    is_torsion_free,
)
from flataff.affine import (
    AffElement,
    AffMap,
    DimensionMismatch,
    NotHomomorphism,
    NotEtale,
    NotFlatTorsionFree,
    aff_bracket,
    check_homomorphism,
    is_etale,
    canonical_embedding,
    lsa_from_etale,
    etale_from_lsa,
)
from known_algebras import gl_z

_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def _rand_gauss(rng):
    return GaussRat(
        Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
    )


def _rand_aff(rng, n=3):
    A = ExactMatrix(n, n, [_rand_gauss(rng) for _ in range(n * n)])
    return AffElement(A, [_rand_gauss(rng) for _ in range(n)])


def test_aff_bracket_isotropy_and_translations():
    rng = random.Random(11)
    A = ExactMatrix(3, 3, [_rand_gauss(rng) for _ in range(9)])
    B = ExactMatrix(3, 3, [_rand_gauss(rng) for _ in range(9)])
    x = AffElement.linear(A)
    y = AffElement.linear(B)
    z = aff_bracket(x, y)
    assert z.A == (A @ B) - (B @ A)
    assert all(t.is_zero() for t in z.v)
    # translations commute
    v = AffElement.translation([1, 2, 3])
    w = AffElement.translation([0, 1, 0])
    assert aff_bracket(v, w).is_zero()


def test_aff_bracket_heis_relation():
    m = canonical_embedding("heis")
    e1, e2, e3 = m.images
    assert aff_bracket(e1, e2) == AffElement.translation([0, 0, 1])
    assert aff_bracket(e1, e3).is_zero()
    assert aff_bracket(e2, e3).is_zero()
    # A f_2 = f_3 and A f_1 = A f_3 = 0
    assert e1.A.mul_vec([ZERO, ONE, ZERO]) == [ZERO, ZERO, ONE]
    assert all(t.is_zero() for t in e1.A.mul_vec([ONE, ZERO, ZERO]))
    assert all(t.is_zero() for t in e1.A.mul_vec([ZERO, ZERO, ONE]))


def test_aff_bracket_dimension_mismatch():
    x = AffElement.translation([1, 0])
    y = AffElement.translation([1, 0, 0])
    with pytest.raises(DimensionMismatch):
        aff_bracket(x, y)


def test_aff_bracket_antisymmetry_and_jacobi_fuzz():
    rng = random.Random(4242)
    for _ in range(15):
        x = _rand_aff(rng)
        y = _rand_aff(rng)
        z = _rand_aff(rng)
        xy = aff_bracket(x, y)
        assert xy == aff_bracket(y, x).scale(-1)
        jac = (
            aff_bracket(xy, z)
            + aff_bracket(aff_bracket(y, z), x)
            + aff_bracket(aff_bracket(z, x), y)
        )
        assert jac.is_zero()


def test_canonical_embeddings_are_homomorphisms():
    for kind in ("heis", "sol"):
        m = canonical_embedding(kind)
        verdict = check_homomorphism(m)
        assert verdict.ok
        assert verdict.injective
        assert verdict.counterexample is None
        assert is_etale(m)
    with pytest.raises(ValueError):
        canonical_embedding("nil")


def test_sol_embedding_linear_part():
    m = canonical_embedding("sol")
    A = m.images[0].A
    assert A == ExactMatrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert m.images[1].A.is_zero()
    assert m.images[2].A.is_zero()


def test_homomorphism_counterexample_reported():
    g = builtin("heis3")
    # killing the linear part breaks [e1, e2] = e3
    images = [
        AffElement.translation([1, 0, 0]),
        AffElement.translation([0, 1, 0]),
        AffElement.translation([0, 0, 1]),
    ]
    verdict = check_homomorphism(AffMap(g, images))
    assert not verdict.ok
    assert verdict.counterexample == (0, 1)


def test_is_etale_rejects_non_homomorphism():
    g = builtin("heis3")
    images = [
        AffElement.translation([1, 0, 0]),
        AffElement.translation([0, 1, 0]),
        AffElement.translation([0, 0, 1]),
    ]
    with pytest.raises(NotHomomorphism):
        is_etale(AffMap(g, images))


def test_is_etale_false_for_isotropy_only_maps():
    # adjoint representation of sl2 with zero translations
    g = builtin("sl2")
    images = [AffElement.linear(g.ad_matrix(i)) for i in range(3)]
    m = AffMap(g, images)
    verdict = check_homomorphism(m)
    assert verdict.ok and verdict.injective
    assert not is_etale(m)


def test_is_etale_eliminates_once(monkeypatch):
    """is_etale eliminates the translation matrix alone, not the images
    as check_homomorphism's injectivity does; lsa_from_etale solves it
    once for the induced connection. check-embedding adds the image rank
    to that solve and runs the defect kernel once, in check_homomorphism:
    the induced connection's flatness and torsion are not re-checked."""
    calls, echelon = [], exact._echelon
    defects, first_defect = [], liealg.LieAlgebra._first_defect

    def counting(*args, **kwargs):
        calls.append(args)
        return echelon(*args, **kwargs)

    def counting_defect(self, mats):
        defects.append(mats)
        return first_defect(self, mats)

    for module in (exact, affine, liealg, obstructions):
        monkeypatch.setattr(module, "_echelon", counting)
    monkeypatch.setattr(liealg.LieAlgebra, "_first_defect", counting_defect)
    for kind in ("heis", "sol"):
        m = canonical_embedding(kind)
        calls.clear()
        assert is_etale(m)
        assert len(calls) == 1
        calls.clear()
        lsa_from_etale(m)
        assert len(calls) == 1
    for name in ("heis3", "sol3"):
        args = cli._parser().parse_args([
            "check-embedding", str(_DATA / "algebras" / f"{name}.json"),
            "--map", str(_DATA / "certificates" / f"{name}_embedding.json")])
        calls.clear()
        defects.clear()
        payload = cli._dispatch(args)
        assert payload["etale"] and payload["induced_flat"]
        assert (len(calls), len(defects)) == (2, 1)


def test_lsa_from_canonical_heis():
    conn = lsa_from_etale(canonical_embedding("heis"))
    assert conn.gamma[0][1][2] == ONE
    nonzero = [
        (i, j, k)
        for i in range(3)
        for j in range(3)
        for k in range(3)
        if not conn.gamma[i][j][k].is_zero()
    ]
    assert nonzero == [(0, 1, 2)]
    assert is_flat(conn)
    assert is_torsion_free(conn)


def test_lsa_from_canonical_sol():
    conn = lsa_from_etale(canonical_embedding("sol"))
    assert conn.gamma[0][1][1] == ONE
    assert conn.gamma[0][2][2] == -ONE
    nonzero = [
        (i, j, k)
        for i in range(3)
        for j in range(3)
        for k in range(3)
        if not conn.gamma[i][j][k].is_zero()
    ]
    assert nonzero == [(0, 1, 1), (0, 2, 2)]
    assert is_flat(conn)
    assert is_torsion_free(conn)


def test_lsa_from_abelian_translations():
    g = builtin("abelian3")
    images = [
        AffElement.translation([1, 0, 0]),
        AffElement.translation([0, 1, 0]),
        AffElement.translation([0, 0, 1]),
    ]
    conn = lsa_from_etale(AffMap(g, images))
    assert conn == zero_connection(g)


def test_lsa_rejects_non_etale():
    g = builtin("sl2")
    images = [AffElement.linear(g.ad_matrix(i)) for i in range(3)]
    with pytest.raises(NotEtale):
        lsa_from_etale(AffMap(g, images))


def test_etale_from_lsa_rejects_curved_or_torsion():
    with pytest.raises(NotFlatTorsionFree):
        etale_from_lsa(standard_connection(builtin("sl2")))
    with pytest.raises(NotFlatTorsionFree):
        etale_from_lsa(zero_connection(builtin("heis3")))


def test_etale_from_lsa_zero_connection_is_translations():
    g = builtin("abelian3")
    m = etale_from_lsa(zero_connection(g))
    for i, im in enumerate(m.images):
        assert im.A.is_zero()
        assert im.v == tuple(
            ONE if t == i else ZERO for t in range(3)
        )
    assert is_etale(m)


def test_round_trip_on_flat_connections():
    g = builtin("heis3")
    gm = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    gm[0][1][2] = ONE
    conn = InvariantConnection(g, gm)
    m = etale_from_lsa(conn)
    verdict = check_homomorphism(m)
    assert verdict.ok and verdict.injective
    assert is_etale(m)
    back = lsa_from_etale(m)
    assert back.gamma == conn.gamma

    sol = lsa_from_etale(canonical_embedding("sol"))
    again = lsa_from_etale(etale_from_lsa(sol))
    assert again.gamma == sol.gamma
    # and the reconstructed sol map acts on f_2, f_3 like the canonical one
    rebuilt = etale_from_lsa(sol)
    canon = canonical_embedding("sol")
    for fvec in ([0, 1, 0], [0, 0, 1]):
        assert rebuilt.images[0].A.mul_vec(fvec) == canon.images[0].A.mul_vec(
            fvec
        )


@seed(909)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_etale_maps_always_induce_flat_torsion_free(data, tmp_path_factory):
    """The canonical embeddings conjugated by P in GL(3, Z), A -> P A P^-1
    and v -> P v, so that V = P is dense: the induced connection is flat
    and torsion-free, and check-embedding, which states both rather than
    checking them, agrees with is_flat and is_torsion_free run on the
    connection it reports."""
    P = ExactMatrix.from_rows(data.draw(gl_z(3), label="P"))
    Pinv = P.inverse()
    path = tmp_path_factory.mktemp("maps") / "map.json"
    for kind in ("heis", "sol"):
        base = canonical_embedding(kind)
        images = [AffElement(P @ im.A @ Pinv, P.mul_vec(list(im.v)))
                  for im in base.images]
        m = AffMap(base.g, images)
        assert check_homomorphism(m).ok and is_etale(m)
        conn = lsa_from_etale(m)
        assert is_flat(conn) and is_torsion_free(conn)

        path.write_text(json.dumps({"images": [
            {"A": [[x.to_pair() for x in im.A.row(r)] for r in range(3)],
             "v": [x.to_pair() for x in im.v]} for im in images]}))
        args = cli._parser().parse_args([
            "check-embedding", "--builtin", f"{kind}3", "--map", str(path)])
        payload = json.loads(cli.emit(cli._dispatch(args), "json"))
        assert payload["induced_flat"] is payload["induced_torsion_free"] is True
        induced = InvariantConnection(base.g, [
            [[GaussRat.from_pair(x) for x in row] for row in plane]
            for plane in payload["induced_connection"]])
        assert induced == conn
        assert is_flat(induced) and is_torsion_free(induced)


def test_left_symmetric_identity_for_flat_torsion_free():
    conns = [
        lsa_from_etale(canonical_embedding("heis")),
        lsa_from_etale(canonical_embedding("sol")),
        zero_connection(builtin("abelian3")),
    ]
    basis = [[ONE if t == s else ZERO for t in range(3)] for s in range(3)]
    for conn in conns:
        prod = conn.nabla
        for x in basis:
            for y in basis:
                for z in basis:
                    lhs = [
                        a - b
                        for a, b in zip(
                            prod(prod(x, y), z), prod(x, prod(y, z))
                        )
                    ]
                    rhs = [
                        a - b
                        for a, b in zip(
                            prod(prod(y, x), z), prod(y, prod(x, z))
                        )
                    ]
                    assert lhs == rhs


def test_apply_is_linear():
    m = canonical_embedding("heis")
    x = [GaussRat(2), GaussRat(-1), GaussRat(0, 1)]
    image = m.apply(x)
    expect = (
        m.images[0].scale(x[0])
        + m.images[1].scale(x[1])
        + m.images[2].scale(x[2])
    )
    assert image == expect


def _hand_built_images(conn):
    """(L_i, e_i) with L_i e_j = Gamma[i][j], entry by entry."""
    n = conn.g.n
    return tuple(
        AffElement(
            ExactMatrix.from_rows(
                [[conn.gamma[i][j][k] for j in range(n)] for k in range(n)]
            ),
            [ONE if t == i else ZERO for t in range(n)],
        )
        for i in range(n)
    )


def _defect_test_connections(rng):
    """Seeded connections on heis3, sol3, sl2, abelian3 and aff1: dense,
    torsion-free (c/2 plus a symmetric part), flat certificates
    (Gamma[0] = c[0], other planes zero) and perturbed certificates."""
    def small():
        return GaussRat(rng.randint(-2, 2), rng.randint(-1, 1))

    algebras = [builtin(name) for name in ("heis3", "sol3", "sl2", "abelian3")]
    algebras.append(from_structure_constants(2, brackets={(0, 1): [0, 1]}))
    for g in algebras:
        n = g.n
        for _ in range(3):
            yield InvariantConnection(g, [[[small() for _ in range(n)]
                                           for _ in range(n)]
                                          for _ in range(n)])
            sym = [[[small() for _ in range(n)] for _ in range(j + 1)]
                   for j in range(n)]
            yield InvariantConnection(g, [[[
                g.c[i][j][k] / 2 + sym[max(i, j)][min(i, j)][k]
                for k in range(n)] for j in range(n)] for i in range(n)])
        if g.is_semisimple():
            continue
        zero = [[ZERO] * n] * n
        cert = [[list(row) for row in g.c[0]]] + [zero] * (n - 1)
        yield InvariantConnection(g, cert)
        for _ in range(3):
            bad = [[list(row) for row in plane] for plane in cert]
            i, j, k = (rng.randrange(n) for _ in range(3))
            bad[i][j][k] = bad[i][j][k] + GaussRat(rng.randint(1, 3))
            yield InvariantConnection(g, bad)


def test_bracket_defect_of_the_etale_map_is_curvature_and_torsion():
    """For e_i -> (L_i, e_i), [m(e_i), m(e_j)] - m([e_i, e_j]) is
    (R(e_i, e_j), T(e_i, e_j)), so the map is a homomorphism exactly
    when the connection is flat and torsion-free."""
    rng = random.Random(8128)
    kinds = set()
    for conn in _defect_test_connections(rng):
        g, n = conn.g, conn.g.n
        m = AffMap(g, _hand_built_images(conn))
        R, T = curvature(conn), torsion(conn)
        first_bad = None
        for i in range(n):
            for j in range(n):
                defect = aff_bracket(m.images[i], m.images[j]) + m.apply(
                    g.c[i][j]).scale(-1)
                for l in range(n):
                    for k in range(n):
                        assert defect.A[l, k] == R[l][k][i][j]
                assert defect.v == T[i][j]
                if first_bad is None and i < j and not defect.is_zero():
                    first_bad = (i, j)
        flat, torsion_free = is_flat(conn), is_torsion_free(conn)
        kinds.add((flat, torsion_free))
        verdict = check_homomorphism(m)
        assert verdict.ok == (flat and torsion_free)
        assert verdict.counterexample == first_bad
        if flat and torsion_free:
            assert etale_from_lsa(conn).images == m.images
        else:
            with pytest.raises(NotFlatTorsionFree):
                etale_from_lsa(conn)
    # every combination of flatness and torsion occurs
    assert kinds == {(True, True), (True, False), (False, True),
                     (False, False)}
