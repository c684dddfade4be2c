"""The affine Lie algebra gl(n,C) ⋉ C^n, embeddings of Lie algebras into
it, and the correspondence between étale affine representations and
flat torsion-free invariant connections.

An AffElement is a pair (A, v): A acts as the linear (isotropy) part and
v as the translation part. The bracket is

    [(A, v), (B, w)] = (AB - BA, Aw - Bv).

A map g -> aff(n) sending the basis to images (A_i, v_i) is étale when
the translation parts are a basis of C^n; in that case the orbit of the
origin is open with trivial isotropy intersection and the pull-back of
the flat affine structure is a flat torsion-free invariant connection
on g, Γ[i][j] = V^{-1} (A_i v_j), read off by one solve (_induced_connection).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import (ExactMatrix, _Immutable, _echelon, _gauss_tuple, _int_rows,
                    _unit_vectors, as_gauss, ZERO)
from .liealg import LieAlgebra, _plane_matrix, builtin
from .connections import InvariantConnection, _l_rows

__all__ = [
    "AffElement",
    "AffMap",
    "HomVerdict",
    "DimensionMismatch",
    "NotHomomorphism",
    "NotEtale",
    "NotFlatTorsionFree",
    "aff_bracket",
    "check_homomorphism",
    "is_etale",
    "canonical_embedding",
    "lsa_from_etale",
    "etale_from_lsa",
]


class DimensionMismatch(ValueError):
    """Affine elements live in different ambient dimensions."""


class NotHomomorphism(ValueError):
    """Candidate map does not respect brackets."""


class NotEtale(ValueError):
    """Translation parts do not form a basis."""


class NotFlatTorsionFree(ValueError):
    """Connection is not flat or not torsion-free."""


class AffElement(_Immutable):
    """Element (A, v) of gl(n,C) ⋉ C^n; a tuple of GaussRat v is kept."""

    __slots__ = ("A", "v")

    def __init__(self, A: ExactMatrix, v):
        if A.rows != A.cols:
            raise ValueError("linear part must be square")
        v = _gauss_tuple(v)
        if len(v) != A.rows:
            raise ValueError("translation length does not match linear part")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "v", v)

    @property
    def ambient(self) -> int:
        return self.A.rows

    @classmethod
    def translation(cls, v) -> "AffElement":
        return cls(ExactMatrix.zeros(len(v), len(v)), v)

    @classmethod
    def linear(cls, A: ExactMatrix) -> "AffElement":
        return cls(A, [ZERO] * A.rows)

    def scale(self, c) -> "AffElement":
        c = as_gauss(c)
        return AffElement(self.A.scale(c), [c * x for x in self.v])

    def __add__(self, other):
        if not isinstance(other, AffElement):
            return NotImplemented
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        return AffElement(
            self.A + other.A, [a + b for a, b in zip(self.v, other.v)]
        )

    def __eq__(self, other):
        if not isinstance(other, AffElement):
            return NotImplemented
        return self.A == other.A and self.v == other.v

    def __hash__(self):
        return hash((self.A, self.v))

    def is_zero(self) -> bool:
        return self.A.is_zero() and all(x.is_zero() for x in self.v)

    def __repr__(self):
        return f"AffElement(n={self.ambient})"


def aff_bracket(x: AffElement, y: AffElement) -> AffElement:
    """[(A, v), (B, w)] = (AB - BA, Aw - Bv)."""
    if x.ambient != y.ambient:
        raise DimensionMismatch(
            f"ambient dimensions differ: {x.ambient} vs {y.ambient}"
        )
    A, B = x.A, y.A
    lin = (A @ B) - (B @ A)
    trans = [
        p - q for p, q in zip(A.mul_vec(list(y.v)), B.mul_vec(list(x.v)))
    ]
    return AffElement(lin, trans)


class AffMap(_Immutable):
    """Linear map g -> gl(m,C) ⋉ C^m given on the basis of g."""

    __slots__ = ("g", "images", "ambient")

    def __init__(self, g: LieAlgebra, images):
        images = tuple(images)
        if len(images) != g.n:
            raise ValueError("need one image per basis element")
        if images:
            m = images[0].ambient
            for im in images:
                if im.ambient != m:
                    raise DimensionMismatch("images have mixed ambient dims")
        else:
            m = 0
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "ambient", m)

    def apply(self, x) -> AffElement:
        """Image of the coordinate vector x."""
        x = [as_gauss(t) for t in x]
        if len(x) != self.g.n:
            raise ValueError("coordinate length mismatch")
        acc = AffElement(
            ExactMatrix.zeros(self.ambient, self.ambient),
            [ZERO] * self.ambient,
        )
        for xi, im in zip(x, self.images):
            if not xi.is_zero():
                acc = acc + im.scale(xi)
        return acc

    def translation_matrix(self) -> ExactMatrix:
        """Columns are the translation parts of the basis images."""
        m, n = self.ambient, self.g.n
        return ExactMatrix(
            m, n, [self.images[j].v[i] for i in range(m) for j in range(n)]
        )

    def __eq__(self, other):
        if not isinstance(other, AffMap):
            return NotImplemented
        return self.g == other.g and self.images == other.images

    def __hash__(self):
        return hash((self.g, self.images))

    def __repr__(self):
        return f"AffMap(g dim {self.g.n} -> aff({self.ambient}))"


@dataclass(frozen=True)
class HomVerdict:
    ok: bool
    counterexample: tuple | None
    injective: bool


def _augmented_rows(A_rows, v) -> list:
    """(A, v) as the rows of [[A, v], [0, 0]] in gl(m + 1), as the defect
    kernel reads them, from the nonzero rows of A. The commutator of two
    such matrices is [[AB - BA, Aw - Bv], [0, 0]], which is aff_bracket."""
    m = len(v)
    return [{**row, m: t} if t else row for row, t in zip(A_rows, v)] + [{}]


def _image_rows(m: AffMap) -> list:
    """Each image of m as the rows of [[A, v], [0, 0]] (_augmented_rows)."""
    return [_augmented_rows(im.A._nonzero_rows(), im.v) for im in m.images]


def check_homomorphism(m: AffMap) -> HomVerdict:
    """Check [m(e_i), m(e_j)] = m([e_i, e_j]) for all i < j, and whether
    the images are linearly independent. Both read the images as
    matrices [[A, v], [0, 0]], which hold the entries of A and v."""
    aug = _image_rows(m)
    counter = m.g._first_defect(aug)
    # the rank of the images, each a row of its entries keyed by (r, s)
    injective = len(_echelon(_int_rows(
        {(r, s): x for r, row in enumerate(p) for s, x in row.items()}
        for p in aug))) == m.g.n
    return HomVerdict(ok=counter is None, counterexample=counter, injective=injective)


def _require_homomorphism(m: AffMap):
    """NotHomomorphism at the first bad pair of one defect check."""
    counter = m.g._first_defect(_image_rows(m))
    if counter is not None:
        raise NotHomomorphism(f"bracket mismatch at basis pair {counter}")


def is_etale(m: AffMap) -> bool:
    """True when the translation parts of the basis images form a basis
    of the ambient space, which makes m injective. Requires a
    homomorphism: one defect check, with no rank of the images."""
    _require_homomorphism(m)
    return m.ambient == m.g.n and m.translation_matrix().rank() == m.g.n


def canonical_embedding(kind: str) -> AffMap:
    """The reference embeddings of heis3 and sol3 into aff(3).

    Both send e_1 to (A, f_1), e_2 to (0, f_2), e_3 to (0, f_3) with
    f_i the standard basis; heis uses A f_2 = f_3, sol uses
    A = diag(0, 1, -1). A f_1 = 0 in both cases (the brackets never
    constrain it, so we take the minimal choice).
    """
    if kind == "heis":
        g = builtin("heis3")
        A = ExactMatrix.from_rows(
            [[0, 0, 0], [0, 0, 0], [0, 1, 0]]
        )
    elif kind == "sol":
        g = builtin("sol3")
        A = ExactMatrix.from_rows(
            [[0, 0, 0], [0, 1, 0], [0, 0, -1]]
        )
    else:
        raise ValueError(f"unknown embedding kind {kind!r}; use heis or sol")
    f = _unit_vectors(3)
    images = [
        AffElement(A, f[0]),
        AffElement.translation(f[1]),
        AffElement.translation(f[2]),
    ]
    return AffMap(g, images)


def lsa_from_etale(m: AffMap) -> InvariantConnection:
    """Connection induced by an étale affine representation:
    Γ[i][j][·] = V^{-1} (A_i v_j) with V the translation matrix."""
    _require_homomorphism(m)
    if (conn := _induced_connection(m)) is None:
        raise NotEtale("translation parts are not a basis")
    return conn


def _induced_connection(m: AffMap) -> InvariantConnection | None:
    """Γ[i][j] = V^{-1} (A_i v_j) from one solve of the translation matrix
    V against the n² columns A_i v_j; None unless V is square and
    nonsingular, i.e. unless m is étale. For an étale homomorphism Γ is
    flat and torsion-free. ∇_{e_i} is L_i = V^{-1} A_i V (column j is
    Γ[i][j]), so [L_i, L_j] = V^{-1} A_[e_i,e_j] V = L_[e_i,e_j]: R = 0.
    Γ[i][j] - Γ[j][i] = V^{-1} (A_i v_j - A_j v_i) = V^{-1} v_[e_i,e_j]
    = c[i][j]: T = 0."""
    if m.ambient != (n := m.g.n):
        return None
    cols = [im.A.mul_vec(list(jm.v)) for im in m.images for jm in m.images]
    rhs = ExactMatrix(n, n * n, [w[r] for r in range(n) for w in cols])
    try:
        X = m.translation_matrix().solve(rhs)
    except ValueError:  # V is singular
        return None
    return InvariantConnection(m.g, [[X.col(i * n + j) for j in range(n)]
                                     for i in range(n)])


def etale_from_lsa(conn: InvariantConnection) -> AffMap:
    """Étale affine representation of a flat torsion-free connection:
    e_i maps to (L_i, e_i) with (L_i)[k][j] = Γ[i][j][k]. Its bracket
    defect on (e_i, e_j) is (R(e_i, e_j), T(e_i, e_j)), so one pass of
    the defect kernel checks flatness and torsion together, and raises
    NotFlatTorsionFree unless conn is flat and torsion-free, which is
    exactly the condition for the map to be an étale homomorphism. The
    check reads L_i's rows from Γ; a map that passes gets one L_i per
    distinct plane and the unit translations every map shares."""
    units = _unit_vectors(conn.g.n)
    if conn.g._first_defect([_augmented_rows(L, e) for L, e
                             in zip(_l_rows(conn), units)]) is not None:
        raise NotFlatTorsionFree("connection must be flat and torsion-free")
    distinct = {id(p): p for p in conn.gamma}
    mats = {k: _plane_matrix(p) for k, p in distinct.items()}
    return AffMap(conn.g, [AffElement(mats[id(p)], e)
                           for p, e in zip(conn.gamma, units)])
