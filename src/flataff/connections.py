"""Invariant affine connections on a Lie algebra, as constant Christoffel
arrays, together with their torsion, curvature, Ricci and projective Weyl
tensors.

Index conventions, fixed once:
  gamma[i][j][k]:  nabla_{e_i} e_j = sum_k gamma[i][j][k] e_k
  T[i][j][k]:      torsion T(e_i, e_j) = sum_k T[i][j][k] e_k
  R[l][k][i][j]:   curvature R(e_i, e_j) e_k = sum_l R[l][k][i][j] e_l
  Ric[j][k]:       trace of x -> R(x, e_j) e_k

For constant Christoffels the curvature expands to
  R[l][k][i][j] = sum_m (gamma[j][k][m] gamma[i][m][l]
                         - gamma[i][k][m] gamma[j][m][l]
                         - c[i][j][m] gamma[m][k][l]).
With L_i the matrix of nabla_{e_i} (column j is gamma[i][j]), this is
entry (l, k) of [L_i, L_j] - sum_m c[i][j][m] L_m, the bracket defect of
e_i -> L_i, so curvature(), is_flat() and the Weyl check read it for
i < j off LieAlgebra._defects, on rows of L_i read straight from gamma.
Swapping i and j negates every term (c[j][i][m] = -c[i][j][m]), so
curvature() writes -R at (j, i); is_flat() stops at the first curved pair
and builds no tensor, and neither does is_projectively_flat().
"""

from __future__ import annotations

from fractions import Fraction
from operator import is_

from .exact import (GaussRat, ExactMatrix, _Immutable, _gauss_tuple, as_gauss,
                    ZERO, HALF)
from .liealg import LieAlgebra, _bilinear, _nonzero_index

__all__ = [
    "InvariantConnection",
    "NonzeroTorsion",
    "DimensionTooSmall",
    "zero_connection",
    "standard_connection",
    "torsion",
    "curvature",
    "ricci",
    "projective_change",
    "projective_weyl",
    "is_flat",
    "is_torsion_free",
    "is_projectively_flat",
]


class NonzeroTorsion(ValueError):
    """Operation needs a torsion-free connection."""


class DimensionTooSmall(ValueError):
    """Projective flatness via the Weyl tensor needs dimension >= 3."""


class InvariantConnection(_Immutable):
    """A left-invariant holomorphic affine connection, determined by its
    constant Christoffel array gamma[i][j][k]. Rows and planes that
    already are tuples of GaussRat are kept, not copied, so a connection
    shares them with g.c or with another connection."""

    __slots__ = ("g", "gamma")

    def __init__(self, g: LieAlgebra, gamma):
        n = g.n

        def kept(seq, convert):
            if len(seq) != n:
                raise ValueError(f"Christoffel array must be {n} x {n} x {n}")
            out = tuple(convert(seq[k]) for k in range(n))
            return seq if type(seq) is tuple and all(map(is_, out, seq)) else out

        object.__setattr__(self, "g", g)
        object.__setattr__(self, "gamma", kept(gamma, lambda plane: kept(
            plane, lambda row: r if len(r := _gauss_tuple(row)) == n
            else kept(row, as_gauss))))

    def __eq__(self, other):
        if not isinstance(other, InvariantConnection):
            return NotImplemented
        return self.g.same_constants(other.g) and self.gamma == other.gamma

    def nabla(self, x, y) -> list:
        """nabla_x y for coordinate vectors x, y."""
        return _bilinear(_nonzero_index(self.gamma), x, y)

    def in_basis(self, P) -> "InvariantConnection":
        """The connection in the basis f_a = sum_b P[a][b] e_b."""
        rows, back = self.g._change_of_basis(P)
        index = _nonzero_index(self.gamma)
        return InvariantConnection(self.g.in_basis(P), [
            [back.mul_vec(_bilinear(index, x, y)) for y in rows] for x in rows])

    def __repr__(self):
        nz = sum(map(len, _nonzero_index(self.gamma)))
        return f"InvariantConnection(n={self.g.n}, nonzero Christoffels={nz})"


def zero_connection(g: LieAlgebra) -> InvariantConnection:
    return InvariantConnection(g, (((ZERO,) * g.n,) * g.n,) * g.n)


def standard_connection(g: LieAlgebra) -> InvariantConnection:
    """nabla_x y = (1/2)[x, y], i.e. gamma = c/2, with the zero rows of c,
    from g.nonzero. g keeps one object per constant value: each is halved
    once."""
    half = {id(x): HALF * x for x in {id(x): x for e in g.nonzero
                                       for _, _, x in e}.values()}
    gamma = [list(plane) for plane in g.c]
    for rows, entries in zip(gamma, g.nonzero):
        for b, k, x in entries:
            if type(rows[b]) is tuple:  # the first entry of a nonzero row
                rows[b] = list(rows[b])
            rows[b][k] = half[id(x)]
    return InvariantConnection(g, tuple(tuple(map(tuple, rows)) for rows in gamma))


def torsion(conn: InvariantConnection):
    """T[i][j][k] = gamma[i][j][k] - gamma[j][i][k] - c[i][j][k]."""
    n, gm, c = conn.g.n, conn.gamma, conn.g.c
    return tuple(tuple(tuple(x - y - z for x, y, z in
                             zip(gm[i][j], gm[j][i], c[i][j]))
                       for j in range(n)) for i in range(n))


def _l_rows(conn: InvariantConnection) -> list:
    """L_i, the matrix of nabla_{e_i}, as the kernel reads it: row k is
    {j: gamma[i][j][k]}, nonzero entries only. Planes that are one object
    (the shared zero plane) share their rows."""
    n, rows, zero = conn.g.n, {}, (ZERO,) * conn.g.n
    for p in conn.gamma:
        if id(p) not in rows:
            L = rows[id(p)] = [{} for _ in range(n)]
            for j, row in enumerate(p):
                if row != zero:
                    for k, x in enumerate(row):
                        if x is not ZERO and x:
                            L[k][j] = x
    return [rows[id(p)] for p in conn.gamma]


def _dense(n: int, entries):
    """The n x n x n x n tuple T with T[l][k][i][j] = x and T[l][k][j][i]
    = -x for each (l, k, i, j, x) of entries, and ZERO elsewhere."""
    T = [ZERO] * n**4  # T[l][k][i][j] at ((l n + k) n + i) n + j
    for l, k, i, j, x in entries:
        lk = (l * n + k) * n
        T[(lk + i) * n + j] = x
        T[(lk + j) * n + i] = -x
    for _ in range(3):
        T = [tuple(T[s:s + n]) for s in range(0, len(T), max(n, 1))]
    return tuple(T)


def curvature(conn: InvariantConnection):
    """R[l][k][i][j], the coefficient of e_l in R(e_i, e_j) e_k."""
    return _dense(conn.g.n, ((l, k, i, j, x)
                             for i, j, D in conn.g._defects(_l_rows(conn))
                             for (l, k), x in D.items()))


def ricci(curv) -> ExactMatrix:
    """Ric[j][k] = sum_i R[i][k][i][j]."""
    n = len(curv)
    return ExactMatrix(n, n, [sum((curv[i][k][i][j] for i in range(n)), ZERO)
                              for j in range(n) for k in range(n)])


def is_flat(conn: InvariantConnection) -> bool:
    return conn.g._first_defect(_l_rows(conn)) is None


def is_torsion_free(conn: InvariantConnection) -> bool:
    """T[i][j] = 0 for each i < j in turn, up to the first nonzero entry."""
    n, gm, c = conn.g.n, conn.gamma, conn.g.c
    return not any(x - y != z
                   for i in range(n) for j in range(i + 1, n)
                   for x, y, z in zip(gm[i][j], gm[j][i], c[i][j])
                   if x is not ZERO or y is not ZERO or z is not ZERO)


def projective_change(conn: InvariantConnection, phi) -> InvariantConnection:
    """Reparametrize geodesics by the constant covector phi:
    gamma'[i][j][k] = gamma[i][j][k] + delta[i][k] phi[j] + delta[j][k] phi[i].
    """
    n = conn.g.n
    phi = [as_gauss(p) for p in phi]
    if len(phi) != n:
        raise ValueError("covector length mismatch")
    new = [[list(row) for row in plane] for plane in conn.gamma]
    for i in range(n):
        for j in range(n):
            new[i][j][i] += phi[j]
            new[i][j][j] += phi[i]
    return InvariantConnection(conn.g, new)


def _weyl_checks(conn: InvariantConnection):
    if conn.g.n <= 2:
        raise DimensionTooSmall(
            "projective Weyl tensor needs dimension at least 3"
        )
    if not is_torsion_free(conn):
        raise NonzeroTorsion("projective Weyl tensor needs zero torsion")


def projective_weyl(conn: InvariantConnection):
    """Projective Weyl tensor of a torsion-free connection, n >= 3.

    With gamma[j][k] = (n Ric[j][k] + Ric[k][j]) / (n^2 - 1),

      W[l][k][i][j] = R[l][k][i][j]
                      - gamma[j][k] delta[i][l] + gamma[i][k] delta[j][l]
                      + (gamma[i][j] - gamma[j][i]) delta[k][l].

    This sign pattern is pinned by two checks exercised in the test
    suite: W is unchanged under projective_change with any constant
    covector, and W vanishes for the standard connection on sl2. The
    sign of the last (skew) term is forced by the first check alone;
    the other two cannot see it when the Ricci tensor is symmetric.
    """
    _weyl_checks(conn)
    return _dense(conn.g.n, _weyl_entries(conn, _curved_pairs(conn)))


def _curved_pairs(conn: InvariantConnection) -> dict:
    """{(i, j): D} for each i < j whose defect D = R(e_i, e_j) is not 0."""
    return {(i, j): D for i, j, D in conn.g._defects(_l_rows(conn)) if D}


def _weyl_entries(conn: InvariantConnection, R: dict):
    """Yield (l, k, i, j, W[l][k][i][j]) for each nonzero W with i < j (W
    is antisymmetric in (i, j), as R is) of a torsion-free connection in
    dimension n >= 3, without those checks. Ric is summed from the defects
    R = _curved_pairs(conn): R[l][k][i][j] = x, i < j, adds x to Ric[j][k]
    if l = i and -x to Ric[i][k] if l = j. W is evaluated only where R or a
    gamma term is nonzero."""
    n = conn.g.n
    ric = {}
    for (i, j), D in R.items():
        for (l, k), x in D.items():
            if l == i:
                ric[j, k] = ric.get((j, k), ZERO) + x
            elif l == j:
                ric[i, k] = ric.get((i, k), ZERO) - x
    scale = GaussRat(Fraction(1, n * n - 1))
    gam = [{} for _ in range(n)]  # gam[j][k]: the nonzero gamma[j][k]
    for j, k in sorted(set(ric) | {(k, j) for j, k in ric}):
        x = (n * ric.get((j, k), ZERO) + ric.get((k, j), ZERO)) * scale
        if x:
            gam[j][k] = x
    for i in range(n):
        for j in range(i + 1, n):
            W = dict(R.get((i, j), {}))
            for k, x in gam[j].items():
                W[i, k] = W.get((i, k), ZERO) - x
            for k, x in gam[i].items():
                W[j, k] = W.get((j, k), ZERO) + x
            skew = gam[i].get(j, ZERO) - gam[j].get(i, ZERO)
            if skew:
                for l in range(n):
                    W[l, l] = W.get((l, l), ZERO) + skew
            yield from ((l, k, i, j, x) for (l, k), x in W.items() if x)


def is_projectively_flat(conn: InvariantConnection) -> bool:
    """W = 0, up to the first nonzero entry."""
    _weyl_checks(conn)
    return next(_weyl_entries(conn, _curved_pairs(conn)), None) is None
