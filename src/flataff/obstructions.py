"""Cohomological and volume-form obstructions, and the decision
pipeline for existence of a flat torsion-free invariant connection.

The NO side rests on the semisimplicity obstruction: a semisimple
algebra admits no flat torsion-free invariant connection (surveyed in
Burde, arXiv:math-ph/0509016). The verdict
is theorem-backed; alongside it we attach the evidence the proof runs
on: vanishing first cohomology of the adjoint representation
(Whitehead), computed exactly, and the identically zero fundamental
determinant polynomial of the adjoint representation, which holds for
every Lie algebra (see ObstructionEvidence) and so is not computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import ExactMatrix, MultiPoly, poly_det, ZERO
from .liealg import LieAlgebra, builtin
from .connections import (
    InvariantConnection,
    zero_connection,
    is_flat,
    is_torsion_free,
)
from .affine import (
    AffMap,
    DimensionMismatch,
    canonical_embedding,
    check_homomorphism,
    _connection_from_map,
    _map_from_connection,
    _translations_form_basis,
)
from .search import SearchConfig, run_search

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


class LinearRep:
    """A representation rho: g -> gl(V), one exact matrix per basis
    element, validated exactly at construction."""

    __slots__ = ("g", "V_dim", "rho")

    def __init__(self, g: LieAlgebra, rho):
        rho = tuple(rho)
        if len(rho) != g.n:
            raise InvalidRep("need one matrix per basis element")
        if rho:
            d = rho[0].rows
            for m in rho:
                if m.rows != m.cols or m.rows != d:
                    raise InvalidRep("matrices must be square, equal size")
        else:
            d = 0
        for i in range(g.n):
            for j in range(i + 1, g.n):
                lhs = (rho[i] @ rho[j]) - (rho[j] @ rho[i])
                rhs = ExactMatrix.zeros(d, d)
                for k in range(g.n):
                    if not g.c[i][j][k].is_zero():
                        rhs = rhs + rho[k].scale(g.c[i][j][k])
                if lhs != rhs:
                    raise InvalidRep(
                        f"representation property fails at pair ({i}, {j})"
                    )
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "V_dim", d)
        object.__setattr__(self, "rho", rho)

    def __setattr__(self, name, value):
        raise AttributeError("LinearRep is immutable")

    @classmethod
    def adjoint(cls, g: LieAlgebra) -> "LinearRep":
        """The adjoint representation, built without the matrix-product
        check: ad is a representation exactly when the Jacobi identity
        holds, and every LieAlgebra checks it at construction."""
        rep = object.__new__(cls)
        object.__setattr__(rep, "g", g)
        object.__setattr__(rep, "V_dim", g.n)
        object.__setattr__(rep, "rho", tuple(g.adjoint_rep()))
        return rep

    @classmethod
    def trivial(cls, g: LieAlgebra, dim: int = 1) -> "LinearRep":
        return cls(g, [ExactMatrix.zeros(dim, dim) for _ in range(g.n)])

    def is_trace_free(self) -> bool:
        return all(m.trace().is_zero() for m in self.rho)

    def __repr__(self):
        return f"LinearRep(g dim {self.g.n} on V dim {self.V_dim})"


def h1_dim(rep: LinearRep) -> int:
    """dim H^1(g, V) = dim Z^1 - dim B^1, both computed as exact ranks.

    A cochain f: g -> V is flattened into n*V_dim unknowns with
    f(e_j)_a at index j*V_dim + a. Cocycles satisfy
    f([e_i, e_j]) = rho(e_i) f(e_j) - rho(e_j) f(e_i).
    """
    g = rep.g
    n, d = g.n, rep.V_dim
    nunk = n * d
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(d):
                row = [ZERO] * nunk
                for k in range(n):
                    if not g.c[i][j][k].is_zero():
                        row[k * d + a] = row[k * d + a] + g.c[i][j][k]
                for b in range(d):
                    row[j * d + b] = row[j * d + b] - rep.rho[i][a, b]
                    row[i * d + b] = row[i * d + b] + rep.rho[j][a, b]
                rows.append(row)
    if rows:
        z1 = nunk - ExactMatrix.from_rows(rows).rank()
    else:
        z1 = nunk
    if d > 0 and n > 0:
        stacked = ExactMatrix(
            n * d,
            d,
            [
                rep.rho[i][a, b]
                for i in range(n)
                for a in range(d)
                for b in range(d)
            ],
        )
        b1 = stacked.rank()
    else:
        b1 = 0
    return z1 - b1


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
    rows = []
    for r in range(n):
        row = []
        for i in range(n):
            p = MultiPoly.zero(n)
            for s in range(n):
                coef = rep.rho[i][r, s]
                if not coef.is_zero():
                    p = p + MultiPoly.variable(n, s) * coef
            row.append(p)
        rows.append(row)
    d = poly_det(rows)
    return d, not d.is_zero()


@dataclass(frozen=True)
class ObstructionEvidence:
    """Evidence attached to a semisimple NO.

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


@dataclass(frozen=True)
class DecisionReport:
    verdict: str  # YES | NO | UNKNOWN
    connection: InvariantConnection | None
    embedding: AffMap | None
    obstruction: ObstructionEvidence | None
    notes: tuple


def _verify_certificate(conn: InvariantConnection, emb: AffMap):
    """The one exact re-verification of a YES certificate; raises on
    failure. It checks flatness, torsion-freeness, the homomorphism
    property and the étale rank, once each; the builders that made the
    certificate check none of them."""
    if not is_flat(conn):
        raise RuntimeError("certificate connection is not flat")
    if not is_torsion_free(conn):
        raise RuntimeError("certificate connection has torsion")
    if not check_homomorphism(emb).ok:
        raise RuntimeError("certificate map is not a homomorphism")
    if not _translations_form_basis(emb):
        raise RuntimeError("certificate map is not etale")


def _yes(conn, emb, notes) -> DecisionReport:
    _verify_certificate(conn, emb)
    return DecisionReport(
        verdict="YES",
        connection=conn,
        embedding=emb,
        obstruction=None,
        notes=tuple(notes),
    )


def decide_existence(g: LieAlgebra,
                     search_budget: SearchConfig | None = None) -> DecisionReport:
    """Decide whether g admits a flat torsion-free invariant connection.

    Pipeline: abelian algebras get the zero connection; exact
    structure-constant matches of the built-in heis3/sol3 models get
    the reference embeddings; semisimple algebras are refused with the
    obstruction evidence; everything else goes to the numeric search,
    whose certificates are exact or absent.
    """
    cfg = search_budget if search_budget is not None else SearchConfig()

    if g.is_abelian():
        conn = zero_connection(g)
        emb = _map_from_connection(conn)
        return _yes(
            conn,
            emb,
            ["abelian algebra: the zero connection is flat and torsion-free"],
        )

    for name, kind in (("heis3", "heis"), ("sol3", "sol")):
        if g.same_constants(builtin(name)):
            emb = canonical_embedding(kind)
            conn = _connection_from_map(emb)
            return _yes(
                conn,
                emb,
                [
                    f"structure constants match the built-in {name} model",
                    "certificate from the reference affine embedding",
                ],
            )

    if g.is_semisimple():
        h1 = h1_dim(LinearRep.adjoint(g))
        evidence = ObstructionEvidence(
            # the gate passed, so the Killing form has full rank
            killing_rank=g.n,
            h1_adjoint=h1,
            det_poly_is_zero=True,
            statement=(
                "semisimple algebras admit no flat torsion-free invariant "
                "connection; verdict by theorem, with computed evidence"
            ),
        )
        return DecisionReport(
            verdict="NO",
            connection=None,
            embedding=None,
            obstruction=evidence,
            notes=(
                "Killing form is nondegenerate (semisimple obstruction)",
                f"evidence: H1(adjoint) = {h1}, fundamental determinant "
                "polynomial vanishes identically",
            ),
        )

    outcome = run_search(g, cfg)
    if outcome.found:
        conn = outcome.certificate
        emb = _map_from_connection(conn)
        return _yes(
            conn,
            emb,
            [
                f"numeric search over {cfg.starts} starts found an "
                f"exactly verified certificate at start "
                f"{outcome.certificate_start}",
            ],
        )
    return DecisionReport(
        verdict="UNKNOWN",
        connection=None,
        embedding=None,
        obstruction=None,
        notes=(
            f"numeric search exhausted {cfg.starts} starts: "
            f"{len(outcome.candidates)} converged numerically, none snapped "
            "to an exactly verified certificate (denominators up to "
            f"{cfg.rationalize_denominator_bound})",
        ),
    )
