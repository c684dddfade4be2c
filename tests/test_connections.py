"""Tests for torsion, curvature, Ricci and projective Weyl tensors."""

import random
from fractions import Fraction

import pytest

from flataff.exact import GaussRat, ZERO, ONE, HALF
from flataff.liealg import builtin, from_structure_constants
from flataff.connections import (
    InvariantConnection,
    NonzeroTorsion,
    DimensionTooSmall,
    zero_connection,
    standard_connection,
    torsion,
    curvature,
    ricci,
    projective_change,
    projective_weyl,
    is_flat,
    is_torsion_free,
    is_projectively_flat,
)
from known_algebras import rand_gauss, sl3, tensor_zero


def _random_connection(g, rng):
    n = g.n
    gm = [
        [[rand_gauss(rng) for _ in range(n)] for _ in range(n)]
        for _ in range(n)
    ]
    return InvariantConnection(g, gm)


def _random_torsion_free(g, rng):
    """gamma = c/2 + s with s symmetric in (i, j)."""
    n = g.n
    s = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = [rand_gauss(rng) for _ in range(n)]
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


def test_torsion_of_zero_connection_is_minus_bracket():
    t = torsion(zero_connection(builtin("heis3")))
    assert t[0][1][2] == -ONE
    assert t[1][0][2] == ONE
    nonzero = [
        (i, j, k)
        for i in range(3)
        for j in range(3)
        for k in range(3)
        if not t[i][j][k].is_zero()
    ]
    assert sorted(nonzero) == [(0, 1, 2), (1, 0, 2)]


def test_zero_connection_torsion_free_iff_abelian():
    for name in ("abelian3", "heis3", "sol3", "sl2"):
        conn = zero_connection(builtin(name))
        assert is_flat(conn)
        assert is_torsion_free(conn) == (name == "abelian3")


def test_standard_connection_values():
    g = builtin("heis3")
    conn = standard_connection(g)
    assert conn.gamma[0][1][2] == HALF
    assert conn.gamma[1][0][2] == -HALF
    assert is_torsion_free(conn)

    s = standard_connection(builtin("sl2"))
    allowed = {
        ZERO,
        ONE,
        -ONE,
        HALF,
        -HALF,
        GaussRat(Fraction(1, 1)),
    }
    seen = {e for plane in s.gamma for row in plane for e in row}
    assert seen <= allowed
    assert is_torsion_free(s)

    assert standard_connection(builtin("abelian3")).gamma == zero_connection(
        builtin("abelian3")
    ).gamma


def test_zero_rows_are_one_shared_tuple():
    g = sl3()
    for conn, zero_rows in ((standard_connection(g), 22),
                            (zero_connection(g), 64)):
        rows = [row for plane in conn.gamma for row in plane if not any(row)]
        assert len(rows) == zero_rows
        assert len({id(row) for row in rows}) == 1


def test_wrong_shaped_christoffels_are_refused():
    g = builtin("heis3")
    gamma = standard_connection(g).gamma
    wide_rows = [[list(row) + [0] for row in plane] for plane in gamma]
    long_planes = [list(plane) + [[0, 0, 0]] for plane in gamma]
    short_rows = [[list(row)[:2] for row in plane] for plane in gamma]
    for bad in (wide_rows, long_planes, short_rows, list(gamma) + [gamma[0]],
                list(gamma)[:2]):
        with pytest.raises(ValueError, match="must be 3 x 3 x 3"):
            InvariantConnection(g, bad)
    assert InvariantConnection(g, [[list(row) for row in plane]
                                   for plane in gamma]).gamma == gamma


def test_standard_connection_torsion_free_always():
    rng = random.Random(88)
    for name in ("abelian3", "heis3", "sol3", "sl2"):
        assert is_torsion_free(standard_connection(builtin(name)))


def test_curvature_of_standard_sl2_matches_bracket_oracle():
    g = builtin("sl2")
    conn = standard_connection(g)
    r = curvature(conn)
    # independent oracle: R(x, y)z = -(1/4) [[x, y], z]
    quarter = GaussRat(Fraction(-1, 4))
    basis = [[ONE if t == s else ZERO for t in range(3)] for s in range(3)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expect = [
                    quarter * t
                    for t in g.bracket(g.bracket(basis[i], basis[j]), basis[k])
                ]
                got = [r[l][k][i][j] for l in range(3)]
                assert got == expect


def test_curvature_flat_cases():
    # the connection induced by embedding heis into aff(2)
    g = builtin("heis3")
    gm = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    gm[0][1][2] = ONE
    conn = InvariantConnection(g, gm)
    assert is_flat(conn)
    assert is_torsion_free(conn)
    assert tensor_zero(curvature(conn))


def test_ricci_of_standard_sl2_is_quarter_killing():
    g = builtin("sl2")
    ric = ricci(curvature(standard_connection(g)))
    k = g.killing_form()
    for a in range(3):
        for b in range(3):
            assert ric[a, b] == GaussRat(Fraction(-1, 4)) * k[a, b]
    assert ric[0, 0] == GaussRat(-2)
    assert ric[1, 2] == -ONE
    assert ric[2, 1] == -ONE


def test_ricci_of_flat_connection_is_zero():
    for name in ("abelian3", "heis3", "sol3", "sl2"):
        conn = zero_connection(builtin(name))
        assert ricci(curvature(conn)).is_zero()


def test_torsion_and_curvature_antisymmetric_in_plane_pair():
    rng = random.Random(2024)
    for name in ("heis3", "sol3", "sl2"):
        g = builtin(name)
        for _ in range(5):
            conn = _random_connection(g, rng)
            t = torsion(conn)
            r = curvature(conn)
            n = g.n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert t[i][j][k] == -t[j][i][k]
                        for l in range(n):
                            assert r[l][k][i][j] == -r[l][k][j][i]


def test_first_bianchi_for_torsion_free():
    rng = random.Random(555)
    for name in ("abelian3", "heis3", "sol3", "sl2"):
        g = builtin(name)
        for _ in range(5):
            conn = _random_torsion_free(g, rng)
            r = curvature(conn)
            n = g.n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            cyc = (
                                r[l][k][i][j]
                                + r[l][i][j][k]
                                + r[l][j][k][i]
                            )
                            assert cyc.is_zero()


def test_projective_change_identity_and_example():
    g = builtin("abelian3")
    conn = zero_connection(g)
    assert projective_change(conn, [0, 0, 0]) == conn
    changed = projective_change(conn, [1, 0, 0])
    assert changed.gamma[0][0][0] == GaussRat(2)
    assert changed.gamma[0][1][1] == ONE
    assert changed.gamma[0][2][2] == ONE
    assert changed.gamma[1][0][1] == ONE
    assert changed.gamma[1][1][0].is_zero()


def test_projective_change_preserves_torsion():
    rng = random.Random(77)
    for name in ("heis3", "sol3", "sl2"):
        g = builtin(name)
        conn = _random_connection(g, rng)
        phi = [rand_gauss(rng) for _ in range(3)]
        assert torsion(projective_change(conn, phi)) == torsion(conn)


def test_weyl_zero_for_flat_torsion_free():
    g = builtin("heis3")
    gm = [[[ZERO] * 3 for _ in range(3)] for _ in range(3)]
    gm[0][1][2] = ONE
    assert tensor_zero(projective_weyl(InvariantConnection(g, gm)))
    assert tensor_zero(projective_weyl(zero_connection(builtin("abelian3"))))


def test_weyl_zero_on_standard_sl2():
    conn = standard_connection(builtin("sl2"))
    assert is_projectively_flat(conn)
    assert tensor_zero(projective_weyl(conn))


def test_weyl_detects_non_projectively_flat():
    g = builtin("sl2")
    std = standard_connection(g)
    gm = [[list(row) for row in plane] for plane in std.gamma]
    gm[0][0][0] = gm[0][0][0] + ONE
    conn = InvariantConnection(g, gm)
    assert is_torsion_free(conn)
    w = projective_weyl(conn)
    assert not tensor_zero(w)
    assert w[0][0][1][2] == GaussRat(Fraction(-3, 4))


def test_weyl_invariant_under_projective_change():
    rng = random.Random(31415)
    for name in ("abelian3", "heis3", "sol3", "sl2"):
        g = builtin(name)
        for _ in range(5):
            conn = _random_torsion_free(g, rng)
            w = projective_weyl(conn)
            phi = [rand_gauss(rng) for _ in range(3)]
            assert projective_weyl(projective_change(conn, phi)) == w


def test_weyl_matches_symmetric_ricci_form_on_standard_sl2():
    g = builtin("sl2")
    conn = standard_connection(g)
    r = curvature(conn)
    ric = ricci(r)
    assert ric == ric.transpose()
    w = projective_weyl(conn)
    n = 3
    coef = GaussRat(Fraction(1, n - 1))
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    expect = r[l][k][i][j]
                    if i == l:
                        expect = expect - coef * ric[j, k]
                    if j == l:
                        expect = expect + coef * ric[i, k]
                    assert w[l][k][i][j] == expect


def test_weyl_rejects_torsion_and_low_dimension():
    with pytest.raises(NonzeroTorsion):
        projective_weyl(zero_connection(builtin("heis3")))
    aff1 = from_structure_constants(2, brackets={(0, 1): [0, 1]})
    with pytest.raises(DimensionTooSmall):
        projective_weyl(standard_connection(aff1))


def test_zero_connection_on_sl2_flags():
    conn = zero_connection(builtin("sl2"))
    assert is_flat(conn)
    assert not is_torsion_free(conn)


def test_nabla_matches_gamma():
    g = builtin("sol3")
    conn = standard_connection(g)
    x = [ONE, ZERO, ZERO]
    y = [ZERO, ONE, ZERO]
    assert conn.nabla(x, y) == [ZERO, HALF, ZERO]
    # bilinearity spot check
    assert conn.nabla([2, 0, 0], y) == [ZERO, ONE, ZERO]
