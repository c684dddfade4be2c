"""Complex Lie algebras given by structure constants.

A LieAlgebra stores the full array c[i][j][k] with
[e_i, e_j] = sum_k c[i][j][k] e_k, read from a bracket table in one pass
that completes and checks antisymmetry, then checked for the Jacobi
identity. Its nonzero entries (`nonzero`) index that check, equality,
the bracket, the Killing form, the traces of ad, [g, g] and `_defects`,
the one check that matrices represent g. Sums run on ints. From their
first use g keeps its constants cleared of their denominators
(`_cleared`), its Killing form with its rank (`_killing`), the radical
of κ (`_radical`) and the rref rows of [g, g] (`_derived`). `in_basis`
rewrites g in another basis. Entries are GaussRat.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import groupby
from math import lcm
from operator import or_

from .exact import (ExactMatrix, _Immutable, _den, _echelon, _from_ints,
                    _int_rows, _ints, _nullspace, _unit_vectors, as_gauss, ZERO)

__all__ = [
    "LieAlgebra",
    "StructuralProfile",
    "JacobiViolation",
    "InconsistentEntry",
    "from_structure_constants",
    "builtin",
    "BUILTIN_NAMES",
]


class JacobiViolation(ValueError):
    """Structure constants fail the Jacobi identity."""

    def __init__(self, indices):
        self.indices = tuple(indices)
        i, j, k, l = self.indices
        super().__init__(
            f"Jacobi identity fails at (i, j, k, l) = ({i}, {j}, {k}, {l})"
        )


class InconsistentEntry(ValueError):
    """Bracket table contradicts antisymmetry."""


def _coerce_vector(v, n) -> list:
    v = [as_gauss(x) for x in v]
    if len(v) != n:
        raise ValueError(f"expected a vector of length {n}, got {len(v)}")
    return v


def _nonzero_index(t) -> tuple:
    """Entry a lists (b, k, t[a][b][k]) for each nonzero t[a][b][k] of
    an n x n x n array t, by b, then k."""
    return tuple(tuple((b, k, x) for b, row in enumerate(plane)
                       for k, x in enumerate(row) if x) for plane in t)


def _bilinear(index, x, y) -> list:
    """sum_{i, j} x_i y_j t[i][j] for the n x n x n array t with nonzero
    index `index`: the bracket for t = c, and nabla_x y for t = gamma."""
    n = len(index)
    x, y = _coerce_vector(x, n), _coerce_vector(y, n)
    out = [ZERO] * n
    for i, a in enumerate(x):
        if a:
            for j, k, w in index[i]:
                if y[j]:
                    out[k] = out[k] + a * y[j] * w
    return out


def _plane_matrix(plane) -> ExactMatrix:
    """The n x n matrix whose column j is plane[j]: ad(e_i) for the plane
    c[i], and L_i with L_i e_j = nabla_{e_i} e_j for the plane gamma[i]."""
    n = len(plane)
    return ExactMatrix(n, n, [plane[j][k] for k in range(n) for j in range(n)])


class LieAlgebra(_Immutable):
    """Finite-dimensional complex Lie algebra over the Gaussian rationals.

    Immutable; construct via from_structure_constants or builtin, or pass
    the full constant array directly, or a dict {(i, j): row c[i][j]}
    where an unlisted pair is minus its mirror (j, i), or zero. Pairs
    listed in both orders, (i, i) too, must agree (InconsistentEntry).
    Zero constants are stored as ZERO, zero rows as one shared tuple and
    equal constants, mirrored negatives too, as one object.
    """

    def __init__(self, n: int, c, names=None):
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        if not isinstance(c, dict):
            if len(c) != n or any(len(plane) != n for plane in c):
                raise ValueError(f"structure constants must be {n} x {n} x {n}")
            c = {(i, j): c[i][j] for i in range(n) for j in range(n)}
        zero_row, consts = (ZERO,) * n, {}

        def own(x):  # the one object kept for the value of x
            return consts.setdefault((x.u, x.v, x.d), x) if x else ZERO

        rows = [[zero_row] * n for _ in range(n)]
        for (i, j), v in c.items():
            if not (0 <= i < n and 0 <= j < n):
                raise IndexError(f"bracket pair ({i}, {j}) out of range")
            row = tuple(own(as_gauss(x)) for x in v)
            if len(row) != n:
                raise ValueError(f"bracket row c[{i}][{j}] has {len(row)} "
                                 f"entries, not {n}")
            if row != zero_row:
                rows[i][j] = row
                if (j, i) not in c:
                    rows[j][i] = tuple(x if x is ZERO else own(-x) for x in row)
        if names is None:
            names = [f"e{i + 1}" for i in range(n)]
        if len(names) != n:
            raise ValueError("need one name per basis element")
        # pairs listed in both orders, (i, i) among them, must agree
        bad = [(i, j, k) for i, j in c if i <= j and (j, i) in c
               for k, (x, y) in enumerate(zip(rows[i][j], rows[j][i]))
               if x != -y]
        if bad:
            i, j, k = min(bad)
            raise InconsistentEntry(f"c[{i}][{j}][{k}] != -c[{j}][{i}][{k}]")
        c = tuple(map(tuple, rows))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "names", tuple(str(s) for s in names))
        # entry a lists (b, k, c[a][b][k]) for each nonzero c[a][b][k]
        object.__setattr__(self, "nonzero", tuple(
            tuple((b, k, x) for b, row in enumerate(plane) if row is not zero_row
                  for k, x in enumerate(row) if x is not ZERO) for plane in c))
        self._check_jacobi()

    @cached_property
    def _cleared(self) -> tuple:
        """(d, C, top), kept from the first use: d the lcm of the
        denominators of the constants, C[i] = {j: {k: d c[i][j][k]}} (j, k
        increasing) of nonzero (re, im) int pairs, top the OR of every |re|,
        |im|. The Jacobi check clears without keeping: kept, the table would
        more than double an unused algebra's memory (sl3: 10 to 23 KiB)."""
        d = _den(x for entries in self.nonzero for _, _, x in entries)
        C = [{j: _ints({k: x for _, k, x in group}, d)
              for j, group in groupby(entries, lambda e: e[0])}
             for entries in self.nonzero]
        return d, C, reduce(or_, (abs(t) for Ci in C for row in Ci.values()
                                  for z in row.values() for t in z), 0)

    def _check_jacobi(self):
        """JacobiViolation at the first (i, j, k, l), i < j < k, where
        sum_m c[i][j][m] c[m][k][l] + (cyclic in i, j, k) is not zero.
        A nonzero c[a][b][m] c[m][x][l], a < b, x not in {a, b}, is a term
        for the triple {a, b, x}, negated if a < x < b (c[k][i] = -c[i][k])."""
        sums, C = {}, LieAlgebra._cleared.func(self)[1]
        for a, Ca in enumerate(C):
            for b, row in Ca.items():
                if b <= a:
                    continue
                for m, (p, q) in row.items():
                    for x, row_m in C[m].items():
                        if x == a or x == b:
                            continue
                        u, v = (-p, -q) if a < x < b else (p, q)
                        t = sorted((a, b, x))
                        for l, (r, s) in row_m.items():
                            re, im = sums.get((*t, l), (0, 0))
                            sums[(*t, l)] = (re + u * r - v * s, im + u * s + v * r)
        for key in sorted(sums):
            if sums[key] != (0, 0):
                raise JacobiViolation(key)

    def bracket(self, x, y) -> list:
        """Bracket of two coordinate vectors."""
        return _bilinear(self.nonzero, x, y)

    def ad_matrix(self, i: int) -> ExactMatrix:
        """Matrix of ad(e_i); column j holds the coordinates of [e_i, e_j]."""
        if not 0 <= i < self.n:
            raise IndexError(f"basis index {i} out of range")
        return _plane_matrix(self.c[i])

    def ad(self, x) -> ExactMatrix:
        """Matrix of ad(x) for an arbitrary coordinate vector x."""
        return _plane_matrix([self.bracket(x, e) for e in _unit_vectors(self.n)])

    def adjoint_rep(self) -> list:
        return [self.ad_matrix(i) for i in range(self.n)]

    @cached_property
    def _killing(self) -> tuple:
        """(d^2, K, rank), K[i] = {j: d^2 κ(e_i, e_j)} of nonzero (re, im)
        int pairs, d that of _cleared, and rank that of κ, kept from the
        first use: κ(e_i, e_j) = trace(ad e_i ∘ ad e_j) is the sum of
        c[i][k][m] c[j][m][k] = -c[i][k][m] c[m][j][k] over the nonzero
        constants. killing_form, killing_rank and the reductive rule read it."""
        d, C, _ = self._cleared
        K = [{} for _ in C]
        for Ki, Ci in zip(K, C):
            for k, row in Ci.items():
                for m, (a, b) in row.items():
                    for j, row_m in C[m].items():
                        if k in row_m:
                            (x, y), (u, v) = row_m[k], Ki.get(j, (0, 0))
                            Ki[j] = u - a * x + b * y, v - a * y - b * x
        K = [{j: z for j, z in Ki.items() if z != (0, 0)} for Ki in K]
        return d * d, K, len(_echelon(K))

    @cached_property
    def _radical(self) -> list:  # a basis of the radical of κ, kept
        return _nullspace(_echelon(self._killing[1], reduced=True), self.n)

    def killing_form(self) -> ExactMatrix:
        """K[i][j] = trace(ad e_i ∘ ad e_j), a symmetric matrix."""
        d2, K, _ = self._killing
        return ExactMatrix(self.n, self.n, [
            _from_ints(*Ki[j], d2) if j in Ki else ZERO
            for Ki in K for j in range(self.n)])

    def _defects(self, mats):
        """For square matrices M_0 ... M_{n-1} of one size m, each given
        by its m rows as {col: GaussRat} dicts of its nonzero entries, yield
        (i, j, D) for each i < j in lexicographic order, where D maps
        (r, s) to each nonzero entry of [M_i, M_j] - sum_k c[i][j][k] M_k.
        The M are a representation of g exactly when every D is empty.
        Only the nonzero entries of the M and the nonzero constants are
        read, and a caller that stops at the first nonempty D computes no
        later pair.

        The sums run on ints. With d the lcm of every denominator of the
        M and the constants, N = d M and C = d c are Gaussian integer
        arrays, and d^2 D = [N_i, N_j] - sum_k C_ijk N_k. Each a + b i is
        packed into the int a + b X, X = 2^K (Kronecker substitution), so
        a product is one int product and a sum of them is
        S_0 + S_1 X + S_2 X^2, standing for (S_0 - S_2) + S_1 i. An entry
        sums at most 2m + n products, each adding under 2 top^2 to every
        |S_t|, top bounding every |a|, |b|, so for K as below the S_t are
        the balanced base-X digits of the sum. One read of the M gives d and
        bounds top by bit length: (u + v i) / e in an M has parts of at most
        B + bitlength(d) bits in d M, B that of max |u|, |v|. Each entry is
        packed straight into its int, the kept d' c (_cleared) times d / d'."""
        d_c, C, top_c = self._cleared
        xs = [x for p in mats for row in p for x in row.values()]
        d = lcm(d_c, *(x.d for x in xs))
        f, top_m = d // d_c, reduce(or_, (abs(x.u) | abs(x.v) for x in xs), 0)
        terms = 2 * len(mats[0] if mats else ()) + self.n
        K = (2 * max(top_m.bit_length() + d.bit_length(),
                     (top_c * f).bit_length()) + terms.bit_length() + 2)
        h, mask = 1 << (K - 1), (1 << K) - 1
        N = [[{s: (x.u + (x.v << K)) * (d // x.d) for s, x in row.items()}
              for row in p] for p in mats]
        C = [{j: {k: (a + (b << K)) * f for k, (a, b) in row.items()}
              for j, row in Ci.items() if j > i} for i, Ci in enumerate(C)]
        for i in range(self.n):
            for j in range(i + 1, self.n):
                D = {}
                for r, (ri, rj) in enumerate(zip(N[i], N[j])):
                    # row r of N_i N_j - N_j N_i - sum_k C_ijk N_k
                    acc = {}
                    for t, a in ri.items():
                        for s, x in N[j][t].items():
                            acc[s] = acc.get(s, 0) + a * x
                    for t, a in rj.items():
                        for s, x in N[i][t].items():
                            acc[s] = acc.get(s, 0) - a * x
                    for k, a in C[i].get(j, {}).items():
                        for s, x in N[k][r].items():
                            acc[s] = acc.get(s, 0) - a * x
                    for s, z in acc.items():
                        s0 = ((z + h) & mask) - h
                        z = (z - s0) >> K
                        s1 = ((z + h) & mask) - h
                        re = s0 - ((z - s1) >> K)
                        if re or s1:
                            D[r, s] = _from_ints(re, s1, d * d)
                yield i, j, D

    def _first_defect(self, mats):
        """The first (i, j) of _defects(mats) with a nonzero defect, or
        None when the M represent g."""
        return next(((i, j) for i, j, D in self._defects(mats) if D), None)

    def is_abelian(self) -> bool:
        return not any(self.nonzero)

    def _bracket_space(self, basis_a=None, basis_b=None) -> list:
        """The rref rows of [span(basis_a), span(basis_b)]; with no bases,
        of [g, g], spanned by the rows c[i][j], i < j, of the index."""
        if basis_a is None:
            rows = (row for i, Ci in enumerate(self._cleared[1])
                    for j, row in Ci.items() if j > i)
        else:
            rows = _int_rows({k: x for k, x in enumerate(self.bracket(a, b))
                              if x} for a in basis_a for b in basis_b)
        piv = _echelon(rows, reduced=True)
        return [[row.get(k, ZERO) for k in range(self.n)]
                for _, row in sorted(piv.items())]

    @cached_property
    def _derived(self) -> list:  # the rref rows of [g, g], kept
        return self._bracket_space()

    def derived_series_dims(self) -> list:
        """Dimensions of g ⊇ [g,g] ⊇ [[g,g],[g,g]] ⊇ ... until stable."""
        return self._series_dims(lambda cur: self._bracket_space(cur, cur))

    def lower_central_dims(self) -> list:
        """Dimensions of g ⊇ [g,g] ⊇ [g,[g,g]] ⊇ ... until stable."""
        full = _unit_vectors(self.n)
        return self._series_dims(lambda cur: self._bracket_space(full, cur))

    def _series_dims(self, step) -> list:
        """Dimensions of g ⊇ [g, g] = s_1 ⊇ step(s_1) ⊇ ..., each s_r a row
        basis, until the dimension stops falling or reaches 0."""
        dims, cur = [self.n], self._derived
        while len(cur) < dims[-1]:
            dims.append(len(cur))
            cur = step(cur)
        return dims

    def is_solvable(self) -> bool:
        return self.derived_series_dims()[-1] == 0

    def is_nilpotent(self) -> bool:
        return self.lower_central_dims()[-1] == 0

    def is_unimodular(self) -> bool:
        # tr ad(e_i) = sum_j c[i][j][j]
        return not any(sum((x for j, k, x in e if j == k), ZERO)
                       for e in self.nonzero)

    def killing_rank(self) -> int:
        return self._killing[2]

    def is_semisimple(self) -> bool:
        """Cartan's criterion: the Killing form is nondegenerate."""
        return self.n > 0 and self.killing_rank() == self.n

    def structural_profile(self) -> "StructuralProfile":
        """All profile fields from the kept Killing rank and [g, g], one
        derived series and one lower central series."""
        derived = self.derived_series_dims()
        lower = self.lower_central_dims()
        return StructuralProfile(
            abelian=self.is_abelian(),
            solvable=derived[-1] == 0,
            nilpotent=lower[-1] == 0,
            unimodular=self.is_unimodular(),
            semisimple=self.is_semisimple(),
            killing_rank=self.killing_rank(),
            derived_series_dims=derived,
            lower_central_dims=lower,
        )

    def in_basis(self, P) -> "LieAlgebra":
        """g in the basis f_a = sum_b P[a][b] e_b, for an invertible n x n
        P, given by its rows or as an ExactMatrix."""
        rows, back = self._change_of_basis(P)
        return from_structure_constants(self.n, brackets={
            (a, b): back.mul_vec(self.bracket(rows[a], rows[b]))
            for a in range(self.n) for b in range(a + 1, self.n)})

    def _change_of_basis(self, P) -> tuple:
        """The rows of P, and (P^-1)^T, which takes e- to f-coordinates."""
        P = P if isinstance(P, ExactMatrix) else ExactMatrix.from_rows(P)
        if (P.rows, P.cols) != (self.n, self.n):
            raise ValueError(f"P must be {self.n} x {self.n}")
        return P.to_lists(), P.inverse().transpose()

    def same_constants(self, other: "LieAlgebra") -> bool:
        """Equality of structure constant arrays (basis-dependent), read
        off the nonzero index, which holds every nonzero constant."""
        return self.n == other.n and self.nonzero == other.nonzero

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.names == other.names and self.same_constants(other)

    def __hash__(self):
        return hash((self.n, self.names, self.nonzero))

    def __repr__(self):
        nz = sum(b > a for a, e in enumerate(self.nonzero) for b, _, _ in e)
        return f"LieAlgebra(n={self.n}, nonzero brackets={nz})"


@dataclass(frozen=True)
class StructuralProfile:
    abelian: bool
    solvable: bool
    nilpotent: bool
    unimodular: bool
    semisimple: bool
    killing_rank: int
    derived_series_dims: list
    lower_central_dims: list


def from_structure_constants(n: int, names=None, brackets=None) -> LieAlgebra:
    """Build a LieAlgebra from a sparse bracket table.

    brackets maps (i, j) to the coordinate vector of [e_i, e_j]. Pairs
    not listed are zero; (j, i) entries are filled in by antisymmetry.
    A pair (i, i), or both (i, j) and (j, i), may be given only if they
    are consistent; LieAlgebra raises InconsistentEntry otherwise.
    """
    return LieAlgebra(n, dict(brackets or {}), names=names)


def _abelian(n: int) -> LieAlgebra:
    return from_structure_constants(n)


def _heis3() -> LieAlgebra:
    # [e1, e2] = e3, [e1, e3] = [e2, e3] = 0
    return from_structure_constants(3, brackets={(0, 1): [0, 0, 1]})


def _sol3() -> LieAlgebra:
    # [e1, e2] = e2, [e1, e3] = -e3, [e2, e3] = 0
    return from_structure_constants(
        3, brackets={(0, 1): [0, 1, 0], (0, 2): [0, 0, -1]}
    )


def _sl2() -> LieAlgebra:
    # basis (h, e, f): [h, e] = 2e, [h, f] = -2f, [e, f] = h
    return from_structure_constants(
        3,
        names=["h", "e", "f"],
        brackets={
            (0, 1): [0, 2, 0],
            (0, 2): [0, 0, -2],
            (1, 2): [1, 0, 0],
        },
    )


_BUILTINS = {
    "abelian3": lambda: _abelian(3),
    "heis3": _heis3,
    "sol3": _sol3,
    "sl2": _sl2,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> LieAlgebra:
    """Catalog algebras: abelian3, heis3, sol3, sl2."""
    try:
        make = _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        ) from None
    return make()
