"""Cohomological and volume-form obstructions, and the decision
pipeline for existence of a flat torsion-free invariant connection.

The YES side before the search is two rules. If the basis vectors
other than e_t span an abelian ideal, ad(e_t) on e_t and 0 on the ideal
is a left-symmetric product: this decides every abelian algebra, heis3
and sol3 in every permuted basis, and any almost-abelian algebra in a
basis adapted to its abelian ideal. After the semisimple gate, g =
[g, g] ⊕ center with dim [g, g] = 3 gets the product of 2x2 matrices,
in any basis: gl2, sl2 ⊕ C^k, so(3) ⊕ C^k. It is summed in closed form
on Gaussian integers, with no change of basis, from the Killing form's
cleared int rows and its radical, which g keeps (LieAlgebra._killing,
_radical). Every YES, from these rules or from the search, is checked
once: etale_from_lsa builds the map e_i -> (L_i, e_i) and raises unless
one pass of the bracket-defect kernel (LieAlgebra._defects) finds it a
homomorphism, which is exactly flatness and torsion-freeness of the
connection.

The NO side rests on the semisimplicity obstruction: a semisimple
algebra admits no flat torsion-free invariant connection (surveyed in
Burde, arXiv:math-ph/0509016). The one computation behind it is the
exact Killing rank that g keeps (Cartan's criterion). The evidence
attached to it follows by theorem and is not computed (see ObstructionEvidence):
vanishing first cohomology of the adjoint representation (Whitehead),
and the identically zero fundamental determinant polynomial of the
adjoint representation, which holds for every Lie algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import lcm

from .exact import (ExactMatrix, MultiPoly, _Immutable, _den, _echelon,
                    _from_ints, _ints, poly_det, ZERO)
from .liealg import LieAlgebra
from .connections import InvariantConnection
from .affine import AffMap, DimensionMismatch, etale_from_lsa
from .search import _DENOMINATOR_LADDER, SearchConfig, run_search

__all__ = [
    "LinearRep",
    "InvalidRep",
    "ObstructionEvidence",
    "DecisionReport",
    "h1_dim",
    "fundamental_det_poly",
    "decide_existence",
]


class InvalidRep(ValueError):
    """Matrices do not satisfy the representation property."""


class LinearRep(_Immutable):
    """A representation rho: g -> gl(V), one exact matrix per basis
    element, validated exactly at construction. Both constructors keep
    _ints = (d, C, N), d the lcm of all denominators, C[i] = {j: {k:
    d c[i][j][k]}} and N[i][r] = {s: d rho(e_i)[r, s]} as (re, im) ints."""

    def __init__(self, g: LieAlgebra, rho):
        rho = tuple(rho)
        if len(rho) != g.n:
            raise InvalidRep("need one matrix per basis element")
        d = rho[0].rows if rho else 0
        if any(m.rows != m.cols or m.rows != d for m in rho):
            raise InvalidRep("matrices must be square, equal size")
        rows = [m._nonzero_rows() for m in rho]
        pair = g._first_defect(rows)
        if pair is not None:
            raise InvalidRep(
                "representation property fails at pair (%d, %d)" % pair)
        # g's kept constants, rescaled to the common denominator D
        e, C, _ = g._cleared
        D = lcm(e, _den(x for p in rows for row in p for x in row.values()))
        if (f := D // e) > 1:
            C = [{j: {k: (a * f, b * f) for k, (a, b) in row.items()}
                  for j, row in Ci.items()} for Ci in C]
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "V_dim", d)
        object.__setattr__(self, "_ints", (D, C, [[_ints(row, D) for row in p]
                                                  for p in rows]))
        object.__setattr__(self, "rho", rho)

    @classmethod
    def adjoint(cls, g: LieAlgebra) -> "LinearRep":
        """The adjoint representation, built without the matrix-product
        check: ad is a representation exactly when the Jacobi identity
        holds, and every LieAlgebra checks it at construction. Its _ints
        are read off g's kept cleared constants C: row k of ad(e_i) is
        {j: C[i][j][k]}."""
        d, C, _ = g._cleared
        rep = object.__new__(cls)
        object.__setattr__(rep, "g", g)
        object.__setattr__(rep, "V_dim", g.n)
        object.__setattr__(rep, "_ints", (d, C, [
            [{j: row[k] for j, row in Ci.items() if k in row}
             for k in range(g.n)] for Ci in C]))
        return rep

    @cached_property
    def rho(self) -> tuple:  # __init__ sets it; the adjoint's is built here
        return tuple(self.g.adjoint_rep())

    @classmethod
    def trivial(cls, g: LieAlgebra, dim: int = 1) -> "LinearRep":
        return cls(g, [ExactMatrix.zeros(dim, dim) for _ in range(g.n)])

    def is_trace_free(self) -> bool:
        return all(m.trace().is_zero() for m in self.rho)

    def __repr__(self):
        return f"LinearRep(g dim {self.g.n} on V dim {self.V_dim})"


def h1_dim(rep: LinearRep) -> int:
    """dim H^1(g, V) = dim Z^1 - dim B^1, both computed as exact ranks.

    Cocycles f satisfy f([e_i, e_j]) = rho(e_i) f(e_j) - rho(e_j) f(e_i):
    n(n-1)/2 * V_dim equations in the n*V_dim unknowns f(e_j)_a. Since
    rank M = rank M^T over Q(i), the system is built transposed, one
    sparse row per unknown (index a*n + j, which keeps the elimination
    sparser) listing the equations it enters. B^1, the image of
    v -> (e_i -> rho(e_i) v), is the rank of the stacked rho(e_i), built
    transposed too: one row per coordinate of V. Both hold the Gaussian
    integers d c and d rho, cleared by one common d, ranked by _echelon.
    """
    g = rep.g
    n, dim = g.n, rep.V_dim
    _, C, rho = rep._ints
    # rho[i][a]: {b: d rho(e_i)[a, b]}; z1[j::n] are the rows of f(e_j),
    # and equation (i < j, a) is column e = t * dim + a, (i, j) pair t
    z1 = [{} for _ in range(n * dim)]
    by_a = [z1[a * n:a * n + n] for a in range(dim)]  # by_a[a][k]: f(e_k)_a
    neg = [[{b: (-u, -v) for b, (u, v) in row.items()} for row in p] for p in rho]
    for t, (i, j) in enumerate(combinations(range(n), 2)):
        zi, zj, cij = z1[i::n], z1[j::n], C[i].get(j, {}).items()
        for e, (ri, rj, fa) in enumerate(zip(neg[i], rho[j], by_a), t * dim):
            for b, z in ri.items():
                zj[b][e] = z
            for b, z in rj.items():
                zi[b][e] = z
            # only a constant's entry can meet a rho entry
            for k, (u, v) in cij:
                re, im = fa[k].pop(e, (0, 0))
                if re + u or im + v:
                    fa[k][e] = (re + u, im + v)
    b1 = [{} for _ in range(dim)]
    for t, row in enumerate(row for p in rho for row in p):
        for b, z in row.items():
            b1[b][t] = z
    return n * dim - len(_echelon(z1)) - len(_echelon(b1))


def fundamental_det_poly(rep: LinearRep):
    """Symbolic determinant D(p) of the matrix whose column i is
    rho(e_i) p. Returns (D, has_open_orbit) with
    has_open_orbit = (D not identically zero)."""
    g = rep.g
    n = g.n
    if rep.V_dim != n:
        raise DimensionMismatch(
            "fundamental determinant needs V_dim equal to dim g"
        )
    if n == 0:
        raise DimensionMismatch("empty algebra")
    # entry (r, i) is sum_s rho(e_i)[r, s] p_s, from the kept ints
    x = [tuple(int(s == t) for t in range(n)) for s in range(n)]
    e, _, N = rep._ints
    d = poly_det([[MultiPoly(n, {x[s]: _from_ints(*z, e)
                                 for s, z in N[i][r].items()})
                   for i in range(n)] for r in range(n)])
    return d, not d.is_zero()


@dataclass(frozen=True, slots=True)
class ObstructionEvidence:
    """Evidence attached to a semisimple NO; only killing_rank is computed.

    h1_adjoint = 0 by Whitehead's first lemma: H^1(g, V) = 0 for
    semisimple g and finite-dimensional V in characteristic 0 (Humphreys,
    Introduction to Lie Algebras and Representation Theory, 6.3). The gate
    found the Killing form nondegenerate over Q(i), so g is semisimple by
    Cartan's criterion, and V = g qualifies; h1_dim computes the number
    where a check is wanted.

    det_poly_is_zero is known without computing the polynomial: column
    i of the fundamental determinant matrix of the adjoint
    representation is [e_i, p] = -ad(p) e_i, so the matrix is -ad(p),
    and ad(p) p = [p, p] = 0 makes it singular at every p. Hence the
    determinant polynomial vanishes identically for every Lie algebra
    (fundamental_det_poly computes it where a check is wanted).
    """

    killing_rank: int
    h1_adjoint: int
    det_poly_is_zero: bool
    statement: str


@dataclass(frozen=True, slots=True)
class DecisionReport:
    verdict: str  # YES | NO | UNKNOWN
    connection: InvariantConnection | None
    embedding: AffMap | None
    obstruction: ObstructionEvidence | None
    notes: tuple


def _yes(conn: InvariantConnection, note: str,
         embedding: AffMap | None = None) -> DecisionReport:
    """A YES with the certificate (conn, etale_from_lsa(conn)), checked
    once (the search passes the map its check made). etale_from_lsa sends
    e_i to (L_i, e_i) with L_i e_j = Γ[i][j], whose bracket defect on
    (e_i, e_j) is (R(e_i, e_j), T(e_i, e_j)): the linear part at (l, k) is
    R[l][k][i][j] and the translation part is T[i][j]. So its one pass of
    LieAlgebra._defects checks flatness and torsion together, stops at the
    first bad pair, and raises NotFlatTorsionFree there; no curvature or
    torsion tensor is built. Its translation matrix is the identity, so
    the map is étale."""
    return DecisionReport("YES", conn, embedding or etale_from_lsa(conn),
                          None, (note,))


def _abelian_ideal_connection(g: LieAlgebra):
    """The connection Gamma[t] = c[t], every other plane zero, for the
    smallest t such that the basis vectors other than e_t span an abelian
    ideal V: every nonzero c[a][b][k] has t in {a, b} and k != t. Then
    x.y = [x, y] for x = e_t and 0 for x in V is left-symmetric (Burde,
    arXiv:math-ph/0509016), so the connection is flat and torsion-free.
    The empty connection for n = 0; None when no t qualifies."""
    for t in range(max(g.n, 1)):
        if all(t in (a, b) and k != t
               for a, entries in enumerate(g.nonzero) for b, k, _ in entries):
            zero = ((ZERO,) * g.n,) * g.n
            return InvariantConnection(
                g, [g.c[t] if i == t else zero for i in range(g.n)])
    return None


def _reductive_connection(g: LieAlgebra):
    """The product of Mat2 when g = s ⊕ z, s = [g, g] of dimension 3 and z
    the center, of dimension k = n - 3 >= 1: s is perfect of dimension 3,
    hence of type sl2. Let z_1 ... z_k be the basis of z read off an rref,
    β_u the functionals that vanish on s with β_u(z_v) = δ_uv, π = β_1 and
    κ the Killing form. With σ, τ the s-parts of x, y, the product
      x·y = ½[σ, τ] + ⅛κ(σ, τ) z_1 + π(x) τ + π(y) σ + π(x)π(y) z_1
    is Mat2 with identity z_1 (on sl2, XY = ½[X, Y] + ½tr(XY)I and
    κ = 4 tr) plus a zero product on the rest of z: associative, hence
    left-symmetric (Burde, arXiv:math-ph/0509016), and rational for
    non-split forms such as so(3) ⊕ C. As z is central and κ(z, g) = 0,
    putting σ_j = e_j - Σ_u β_u(e_j) z_u gives it with no change of basis:
      Γ[i][j] = ½c[i][j] + π_i e_j + π_j e_i + (⅛κ_ij - π_i π_j) z_1
                - Σ_{u>=2} (π_i β_u(e_j) + π_j β_u(e_i)) z_u
              = ½c[i][j] + ⅛κ_ij z_1 + π_i τ_j + π_j τ_i,
    τ_j = e_j - ½π_j z_1 - Σ_{u>=2} β_u(e_j) z_u, summed on Gaussian
    integers over one denominator. As κ = κ_s ⊕ 0, z is read as the radical
    of κ that g keeps (LieAlgebra._radical), reduced from the cleared rows
    d^2 κ (LieAlgebra._killing) once per algebra. One elimination gives the
    β_u, and fails unless s ⊕ z = g; then [g, z] ⊆ s ∩ z = 0, as both are
    ideals, and z is the center. None unless g has this shape."""
    n, (dk, K, _), z = g.n, g._killing, g._radical
    if n < 4 or (k := len(z)) != n - 3:
        return None
    d, C, _ = g._cleared
    e = _den(x for zu in z for x in zu)
    Z = [_ints(dict(enumerate(zu)), e) for zu in z]
    # rows [d c[i][j] | 0] and [e z_v | e δ_uv]: the rref is [1 | β] when
    # s ⊕ z = g, with a pivot past column n when s ∩ z != 0
    beta = _echelon(chain((r for i, Ci in enumerate(C) for j, r in Ci.items()
                           if j > i),
                          ({**Zv, n + v: (e, 0)} for v, Zv in enumerate(Z))),
                    reduced=True)
    if len(beta) != n or max(beta) >= n:
        return None
    b = _den(x for row in beta.values() for x in row.values())
    pi, *B = (_ints({c: row.get(n + u, ZERO) for c, row in beta.items()}, b)
              for u in range(k))
    D = lcm(2 * d, 8 * dk * e, 2 * b * b * e)

    def add(acc, key, f, p, q):  # acc[key] += f p q on (re, im) pairs
        (x, y), (u, v), (s, t) = p, q, acc.get(key, (0, 0))
        acc[key] = s + f * (x * u - y * v), t + f * (x * v + y * u)

    f, fk, fp = D // (2 * d), D // (8 * dk * e), D // (2 * b * b * e)
    # G[(i n + j) n + m]: D Γ[i][j][m], starting from ½c = (d c) / 2d
    G = {(i * n + j) * n + m: (u * f, v * f) for i, Ci in enumerate(C)
         for j, row in Ci.items() for m, (u, v) in row.items()}
    for i, Ki in enumerate(K):  # ⅛κ z_1 = (d^2 κ)(e z_1) / 8 d^2 e
        for j, x in Ki.items():
            for m, y in Z[0].items():
                add(G, (i * n + j) * n + m, fk, x, y)
    T = {(j, j): (2 * b * e, 0) for j in range(n)}  # T[j, m]: 2 b e τ_j[m]
    for u, (Bu, Zu) in enumerate(zip((pi, *B), Z)):
        for j, p in Bu.items():
            for m, q in Zu.items():
                add(T, (j, m), -2 if u else -1, p, q)
    for a, p in pi.items():  # π_a τ_j = (b π_a)(2 b e τ_j) / 2 b^2 e
        for (j, m), t in T.items():
            add(G, (a * n + j) * n + m, fp, p, t)
            add(G, (j * n + a) * n + m, fp, p, t)
    return InvariantConnection(g, tuple(tuple(tuple(
        _from_ints(*x, D) if (x := G.get((i * n + j) * n + m, (0, 0))) != (0, 0)
        else ZERO for m in range(n)) for j in range(n)) for i in range(n)))


def decide_existence(g: LieAlgebra,
                     search_budget: SearchConfig | None = None) -> DecisionReport:
    """Decide whether g admits a flat torsion-free invariant connection.

    Pipeline: an algebra whose basis vectors but one span an abelian
    ideal gets the connection of _abelian_ideal_connection; semisimple
    algebras are refused on one exact Killing rank, with the evidence
    that follows from it by theorem (ObstructionEvidence); a sum of a
    3-dimensional [g, g] and the center gets the matrix product of
    _reductive_connection; everything else goes to the numeric search,
    whose certificates are exact or absent.
    A YES embedding is etale_from_lsa of its connection, which raises
    NotFlatTorsionFree for a connection that is not a certificate; that
    one bracket-defect check is the only exact check of a YES.
    """
    cfg = search_budget if search_budget is not None else SearchConfig()

    conn = _abelian_ideal_connection(g)
    if conn is not None:
        return _yes(conn, (
            "all basis vectors but one span an abelian ideal: the "
            "connection ad on that vector and 0 on the ideal is flat and "
            "torsion-free"))

    # the gate ranks the Killing form g keeps, which the reductive rule
    # reads; H1 and the determinant polynomial follow by theorem
    if g.is_semisimple():
        evidence = ObstructionEvidence(
            killing_rank=g.n, h1_adjoint=0, det_poly_is_zero=True,
            statement=(
                "semisimple algebras admit no flat torsion-free invariant "
                "connection; verdict by theorem, with computed evidence"))
        return DecisionReport("NO", None, None, evidence, (
            "Killing form is nondegenerate (semisimple obstruction)",
            "evidence: H1(adjoint) = 0, fundamental determinant "
            "polynomial vanishes identically"))

    conn = _reductive_connection(g)
    if conn is not None:
        return _yes(conn, (
            "g is [g, g] of dimension 3 plus the center: the product of "
            "2x2 matrices, with the identity in the center, is flat and "
            "torsion-free"))

    outcome = run_search(g, cfg)
    if outcome.found:
        return _yes(outcome.certificate, (
            f"numeric search over {cfg.starts} starts found an exactly "
            f"verified certificate at start {outcome.certificate_start}"),
            outcome.embedding)
    return DecisionReport("UNKNOWN", None, None, None, (
        f"numeric search exhausted {cfg.starts} starts: "
        f"{len(outcome.candidates)} converged numerically, none snapped "
        "to an exactly verified certificate (denominators up to "
        f"{_DENOMINATOR_LADDER[-1]})",))
