"""Exact arithmetic substrate: Gaussian rationals, dense exact matrices,
and small multivariate polynomials.

Everything here is immutable after construction and every operation is
exact; no floating point enters at any stage. A Gaussian rational is
three ints, (u + v i) / d, so its arithmetic is integer arithmetic.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod

__all__ = [
    "GaussRat",
    "ExactMatrix",
    "MultiPoly",
    "poly_det",
    "as_gauss",
    "ZERO",
    "ONE",
    "I",
    "HALF",
]

_RATIONAL_RE = _re.compile(r"([+-]?\d+)(?:/(\d+))?")


def _ratio(num: str, den) -> tuple:
    """(n, d) ints of the literal num/den, from its digit strings (den
    None for 1); ZeroDivisionError for d = 0."""
    n, d = int(num), 1 if den is None else int(den)
    if not d:
        raise ZeroDivisionError(f"zero denominator in {num}/{den}")
    return n, d


def _coerce_rational(x) -> tuple:
    """(numerator, denominator) ints of an int, a Fraction or a literal
    [+-]digits[/digits], in which − is a sign and surrounding spaces are
    ignored."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    if isinstance(x, str):
        m = _RATIONAL_RE.fullmatch(x.replace("−", "-").strip())
        if m is None:
            raise ValueError(f"not a rational literal: {x!r}")
        return _ratio(*m.groups())
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


class _Immutable:
    """Base of the value classes: a constructor sets each field once with
    object.__setattr__, and any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # copy and pickle pass __dict__ or (__dict__ or None, slots)
        for fields in state if isinstance(state, tuple) else (state,):
            for name, value in (fields or {}).items():
                object.__setattr__(self, name, value)


class GaussRat(_Immutable):
    """A Gaussian rational (u + v i) / d, held as three ints with d >= 1
    and gcd(u, v, d) = 1.

    The form is canonical, so equality is structural, and a real value
    hashes as the int or Fraction it equals. Every operator is integer
    arithmetic plus the one gcd of _from_ints. re and im read the parts
    as Fractions.
    """

    __slots__ = ("u", "v", "d")

    def __new__(cls, re=0, im=0):
        return _gauss(*_coerce_rational(re), *_coerce_rational(im))

    re = property(lambda self: Fraction(self.u, self.d), doc="Real part.")
    im = property(lambda self: Fraction(self.v, self.d), doc="Imaginary part.")

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussRat):
            return other
        if isinstance(other, (int, Fraction)):
            return _from_ints(other.numerator, 0, other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.d, o.d
        return _from_ints(self.u * b + o.u * a, self.v * b + o.v * a, a * b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.d, o.d
        return _from_ints(self.u * b - o.u * a, self.v * b - o.v * a, a * b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, x, y = self.u, self.v, o.u, o.v
        return _from_ints(a * x - b * y, a * y + b * x, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, x, y = self.u, self.v, o.u, o.v
        n = x * x + y * y
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _from_ints((a * x + b * y) * o.d, (b * x - a * y) * o.d, self.d * n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return _from_ints(-self.u, -self.v, self.d)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussRat":
        return _from_ints(self.u, -self.v, self.d)

    def norm(self) -> Fraction:
        """Squared modulus re^2 + im^2 (a rational)."""
        return Fraction(self.u * self.u + self.v * self.v, self.d * self.d)

    def is_zero(self) -> bool:
        return not (self.u or self.v)

    def __bool__(self):
        return bool(self.u or self.v)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.u == o.u and self.v == o.v and self.d == o.d

    def __hash__(self):
        return hash((self.u, self.v, self.d) if self.v else Fraction(self.u, self.d))

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self.u / self.d, self.v / self.d)

    def to_pair(self) -> list:
        """Serialized form: ["re", "im"] rational strings."""
        if self.d == 1:
            return [str(self.u), str(self.v)]
        return [_part(self.u, self.d), _part(self.v, self.d)]

    @classmethod
    def from_pair(cls, pair) -> "GaussRat":
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"expected a [re, im] pair, got {pair!r}")
        return cls(pair[0], pair[1])

    def __str__(self):
        u, v, d = self.u, self.v, self.d
        if not v:
            return _part(u, d)
        ims = "i" if v == d else "-i" if v == -d else f"{_part(v, d)}i"
        if not u:
            return ims
        return f"{_part(u, d)}{'+' if v > 0 else ''}{ims}"

    def __repr__(self):
        g, h = gcd(self.u, self.d), gcd(self.v, self.d)
        return (f"GaussRat(Fraction({self.u // g}, {self.d // g}), "
                f"Fraction({self.v // h}, {self.d // h}))")


_new = object.__new__
_set_u, _set_v, _set_d = GaussRat.u.__set__, GaussRat.v.__set__, GaussRat.d.__set__


def _from_ints(u: int, v: int, d: int) -> GaussRat:
    """(u + v i) / d for ints u, v and a nonzero int d, in the canonical
    form: the one place a GaussRat is reduced."""
    g = -gcd(u, v, d) if d < 0 else gcd(u, v, d)
    z = _new(GaussRat)
    _set_u(z, u // g)
    _set_v(z, v // g)
    _set_d(z, d // g)
    return z


def _gauss(a: int, b: int, c: int, e: int) -> GaussRat:
    """a / b + (c / e) i for ints, b and e nonzero."""
    return _from_ints(a * e, c * b, b * e)


def _part(a: int, d: int) -> str:
    """a / d as str(Fraction(a, d)) prints it, for d > 0."""
    g = gcd(a, d)
    return str(a // g) if g == d else f"{a // g}/{d // g}"


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)
HALF = GaussRat(Fraction(1, 2))


@cache
def _unit_vectors(n: int) -> tuple:
    """The standard basis of C^n, as tuples of GaussRat."""
    return tuple(tuple(ONE if t == i else ZERO for t in range(n))
                 for i in range(n))


def as_gauss(x) -> GaussRat:
    """x itself if it is a GaussRat, else GaussRat(x)."""
    return x if isinstance(x, GaussRat) else GaussRat(x)


def _gauss_tuple(values) -> tuple:
    """values as a tuple of GaussRat; a tuple of GaussRat is itself."""
    values = tuple(values)
    if set(map(type, values)) <= {GaussRat}:
        return values
    return tuple(map(as_gauss, values))


def _den(values) -> int:
    """The lcm of the denominators of the GaussRat values (1 if none)."""
    return lcm(*(x.d for x in values))


def _ints(row: dict, den: int) -> dict:
    """den x as a (u, v) int pair for each nonzero x of the dict row, for
    a den that every denominator of row divides."""
    return {j: (x.u * (f := den // x.d), x.v * f) for j, x in row.items() if x}


def _step(p: dict, r: dict, f: tuple, d: tuple, e: tuple) -> dict:
    """(d r - f p) / e over Z[i], without zero entries, for an e that
    divides every entry."""
    (a, b), (x, y) = d, f
    out = {j: (a * u - b * v, a * v + b * u) for j, (u, v) in r.items()}
    for j, (u, v) in p.items():
        s, t = out.get(j, (0, 0))
        out[j] = (s - x * u + y * v, t - x * v - y * u)
    (x, y), n = e, e[0] * e[0] + e[1] * e[1]
    if y:
        return {j: ((u * x + v * y) // n, (v * x - u * y) // n)
                for j, (u, v) in out.items() if u or v}
    return {j: (u // x, v // x) for j, (u, v) in out.items() if u or v}


def _int_rows(rows):
    """GaussRat dict rows as _echelon takes them: each cleared by itself."""
    return (_ints(row, _den(row.values())) for row in rows)


def _echelon(rows, reduced: bool = False):
    """Sparse fraction-free row echelon form over Z[i] (Bareiss, Math.
    Comp. 22, 1968) of rows given as dicts {col: (re, im)} of nonzero
    Gaussian integers (_int_rows makes them from GaussRat rows), each
    taken through the pivots in the order they were made: at pivot t
    (column c_t, row p_t, value d_t) where r is nonzero,
    r <- (d_t r - r[c_t] p_t) / d_s, d_s the value of the last pivot that
    changed r (d_0 = 1). The result is r's Bareiss row at level t, whose
    entries are minors of the input (Sylvester's identity): the division
    is exact and entries stay within Hadamard's bound. A row left nonzero
    is raised to level k (times d_k / d_s) and becomes a pivot at its
    first nonzero column. Returns the pivots (c_t, p_t, d_t), as many as
    the rank. With reduced, returns the reduced row echelon form
    {c_t: row dict of GaussRat}, from the integer rows
    N_t = (d_k p_t - sum_{u > t} p_t[c_u] N_u) / d_t divided by d_k."""
    piv, pos, one = [], {}, (1, 0)
    for r in rows:
        e = one
        while ts := [pos[j] for j in r if j in pos]:
            c, p, d = piv[min(ts)]
            r, e = _step(p, r, r[c], d, e), d
        if r:
            if piv and piv[-1][2] != e:
                r = _step({}, r, one, piv[-1][2], e)
            c = min(r)
            pos[c] = len(piv)
            piv.append((c, r, r[c]))
    if not reduced:
        return piv
    D = piv[-1][2] if piv else one
    N = {}  # N[c_t]: N_t at the non-pivot columns
    for c, p, d in reversed(piv):
        acc = _step({}, {j: z for j, z in p.items() if j not in pos}, one, D, one)
        for j in [j for j in p if j in N]:
            acc = _step(N[j], acc, p[j], one, one)
        N[c] = _step({}, acc, one, one, d)
    a, b = D
    a, b, n = (a, b, a * a + b * b) if b else (1, 0, a)  # 1 / D
    return {c: {c: ONE, **{j: _from_ints(u * a + v * b, v * a - u * b, n)
                           for j, (u, v) in row.items()}}
            for c, row in N.items()}


def _nullspace(piv: dict, cols: int) -> list:
    """Right nullspace basis of a matrix with cols columns and rref piv."""
    return [[ONE if c == fc else -piv[c].get(fc, ZERO) if c in piv
             else ZERO for c in range(cols)]
            for fc in range(cols) if fc not in piv]


class ExactMatrix(_Immutable):
    """Dense matrix over GaussRat, row-major storage. Entries that all
    are GaussRat are kept, not re-wrapped."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = _gauss_tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(nr, nc, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    def __getitem__(self, key) -> GaussRat:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range")
        return self.entries[i * self.cols + j]

    def row(self, i) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            self.rows,
            self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            self.rows,
            self.cols,
            [a - b for a, b in zip(self.entries, other.entries)],
        )

    def __neg__(self):
        return ExactMatrix(self.rows, self.cols, [-e for e in self.entries])

    def scale(self, c) -> "ExactMatrix":
        c = as_gauss(c)
        return ExactMatrix(self.rows, self.cols, [c * e for e in self.entries])

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        # each nonzero a = self[i, k] adds a times the nonzeros of row k
        # of other to row i of the product
        p = other.cols
        support = [[(j, b) for j, b in enumerate(other.row(k)) if b]
                   for k in range(other.rows)]
        out = [ZERO] * (self.rows * p)
        for i in range(self.rows):
            base = i * p
            for k, a in enumerate(self.row(i)):
                if a:
                    for j, b in support[k]:
                        out[base + j] = out[base + j] + a * b
        return ExactMatrix(self.rows, p, out)

    def mul_vec(self, v) -> list:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        support = [(k, x) for k, x in enumerate(map(as_gauss, v)) if x]
        out = []
        for i in range(self.rows):
            acc = ZERO
            ri = self.row(i)
            for k, x in support:
                if ri[k]:
                    acc = acc + ri[k] * x
            out.append(acc)
        return out

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self) -> GaussRat:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.entries[i * self.cols + i]
        return acc

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def _nonzero_rows(self) -> list:
        return [{j: x for j, x in enumerate(self.row(i)) if x is not ZERO and x}
                for i in range(self.rows)]

    def rref(self):
        """Reduced row echelon form; returns (rref matrix, pivot column list)."""
        piv = _echelon(_int_rows(self._nonzero_rows()), reduced=True)
        pivots = sorted(piv)
        flat = [ZERO] * (self.rows * self.cols)
        for r, c in enumerate(pivots):
            for j, x in piv[c].items():
                flat[r * self.cols + j] = x
        return ExactMatrix(self.rows, self.cols, flat), pivots

    def rank(self) -> int:
        return len(_echelon(_int_rows(self._nonzero_rows())))

    def nullspace(self) -> list:
        """Basis of the right nullspace, one list of GaussRat per vector."""
        return self.rank_nullspace()[1]

    def rank_nullspace(self):
        """(rank, nullspace basis) from one row reduction."""
        piv = _echelon(_int_rows(self._nonzero_rows()), reduced=True)
        return len(piv), _nullspace(piv, self.cols)

    def det(self) -> GaussRat:
        """Determinant off the Z[i] elimination. With rank n every row is
        a pivot, in input order, and the last pivot value is the
        determinant of the rows as _int_rows scaled them (each by the lcm
        den_r of its denominators) with the columns in pivot order
        (Sylvester's identity): det = sign(c_1 ... c_n) d_n / prod den_r."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        rows = self._nonzero_rows()
        piv = _echelon(_int_rows(rows))
        if len(piv) < self.rows:
            return ZERO
        cols = [c for c, _, _ in piv]
        odd = sum(a > b for t, a in enumerate(cols) for b in cols[t + 1:]) % 2
        den = prod(_den(row.values()) for row in rows)
        a, b = piv[-1][2] if piv else (1, 0)
        return _from_ints(a, b, -den if odd else den)

    def det_cofactor(self) -> GaussRat:
        """Determinant by cofactor expansion (independent cross-check)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows == 0:
            return ONE
        return _cofactor(lambda i, j: self.entries[i * self.cols + j],
                         self.rows, ZERO)

    def solve(self, rhs: "ExactMatrix") -> "ExactMatrix":
        """Solve self @ X = rhs for square nonsingular self."""
        if self.rows != self.cols:
            raise ValueError("solve needs a square matrix")
        if rhs.rows != self.rows:
            raise ValueError("right-hand side row count mismatch")
        n = self.rows
        piv = _echelon(_int_rows({j: x for j, x in enumerate(self.row(i) + rhs.row(i))
                                  if x} for i in range(n)), reduced=True)
        if not all(c in piv for c in range(n)):
            raise ValueError("singular matrix")
        return ExactMatrix(n, rhs.cols, [piv[i].get(n + j, ZERO) for i in range(n)
                                         for j in range(rhs.cols)])

    def inverse(self) -> "ExactMatrix":
        return self.solve(ExactMatrix.identity(self.rows))

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in self.row(i)) for i in range(self.rows)
        )
        return f"ExactMatrix({self.rows}x{self.cols}: [{body}])"


# Envelope for MultiPoly, wide enough for degree-n determinant expansion
# with n <= 4 plus headroom.
MAX_POLY_VARS = 6
MAX_POLY_DEGREE = 8


class MultiPoly(_Immutable):
    """Multivariate polynomial over GaussRat, stored as a canonical
    exponent-vector -> coefficient map (no zero coefficients kept).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0 or nvars > MAX_POLY_VARS:
            raise ValueError(f"nvars must be in [0, {MAX_POLY_VARS}]")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            if sum(exps) > MAX_POLY_DEGREE:
                raise ValueError(
                    f"total degree {sum(exps)} exceeds cap {MAX_POLY_DEGREE}"
                )
            coeff = as_gauss(coeff)
            if not coeff.is_zero():
                clean[exps] = clean.get(exps, ZERO) + coeff
                if clean[exps].is_zero():
                    del clean[exps]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", dict(clean))

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: ONE})

    def _check_same(self, other):
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, ZERO) + c
        return MultiPoly(self.nvars, terms)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (GaussRat, int, Fraction)):
            c = as_gauss(other)
            return MultiPoly(
                self.nvars, {e: c * v for e, v in self.terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, ZERO) + c1 * c2
        return MultiPoly(self.nvars, terms)

    __rmul__ = __mul__

    def evaluate(self, point) -> GaussRat:
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        point = [as_gauss(x) for x in point]
        acc = ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, exps):
                for _ in range(e):
                    term = term * x
            acc = acc + term
        return acc

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                f"p{i}" if e == 1 else f"p{i}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            bits.append(f"({c})*{mono}" if mono else f"({c})")
        return "MultiPoly(" + " + ".join(bits) + ")"


def _cofactor(entry, n: int, zero):
    """Determinant of the n x n matrix with entries entry(i, j), n >= 1,
    by cofactor expansion along the first row, skipping zero entries."""

    def go(i, cols):
        if len(cols) == 1:
            return entry(i, cols[0])
        acc = zero
        for t, c in enumerate(cols):
            a = entry(i, c)
            if a.is_zero():
                continue
            term = a * go(i + 1, cols[:t] + cols[t + 1:])
            acc = acc + term if t % 2 == 0 else acc - term
        return acc

    return go(0, tuple(range(n)))


def poly_det(rows) -> MultiPoly:
    """Symbolic determinant of a square matrix of MultiPoly, by cofactor
    expansion along the first row."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        raise ValueError("empty matrix")
    return _cofactor(lambda i, j: rows[i][j], n, MultiPoly.zero(rows[0][0].nvars))
