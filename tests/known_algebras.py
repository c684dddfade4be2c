"""Lie algebras, GL(n, Z) bases, random entries and a counter of the
values an algebra keeps, which several test modules use. Not a test
module: pytest collects only test_*.py files."""

from fractions import Fraction

from hypothesis import strategies as st

from flataff.exact import ExactMatrix, GaussRat
from flataff.liealg import LieAlgebra, from_structure_constants

SL2 = {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}


def count_computations(monkeypatch, name):
    """A list that gets g.n each time an algebra g computes the value it
    keeps as the cached property LieAlgebra.<name>, for the test's rest."""
    prop, calls = vars(LieAlgebra)[name], []
    compute = prop.func

    def counted(g):
        calls.append(g.n)
        return compute(g)

    monkeypatch.setattr(prop, "func", counted)
    return calls


def gl2():
    """gl2 on E11, E12, E21, E22."""
    return from_structure_constants(4, brackets={
        (0, 1): [0, 1, 0, 0], (0, 2): [0, 0, -1, 0], (1, 2): [1, 0, 0, -1],
        (1, 3): [0, 1, 0, 0], (2, 3): [0, 0, -1, 0]})


def sl2_plus_sl2():
    brackets = {}
    for (i, j), v in SL2.items():
        brackets[(i, j)] = v + [0, 0, 0]
        brackets[(i + 3, j + 3)] = [0, 0, 0] + v
    return from_structure_constants(6, brackets=brackets)


def sl3():
    """sl3 from commutators of 3 x 3 matrices, in the basis E12, E13,
    E21, E23, E31, E32, E11 - E22, E22 - E33."""
    offdiag = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def unit(r, c):
        return ExactMatrix.from_rows(
            [[int((a, b) == (r, c)) for b in range(3)] for a in range(3)])

    basis = [unit(r, c) for r, c in offdiag]
    basis += [unit(0, 0) - unit(1, 1), unit(1, 1) - unit(2, 2)]

    def coords(m):
        # diag(d0, d1, d2) with zero trace is d0 H1 + (d0 + d1) H2
        return [m[r, c] for r, c in offdiag] + [m[0, 0], m[0, 0] + m[1, 1]]

    return from_structure_constants(8, brackets={
        (i, j): coords(basis[i] @ basis[j] - basis[j] @ basis[i])
        for i in range(8) for j in range(i + 1, 8)})


def filiform(n):
    """L_n: [e1, e_i] = e_(i+1) for 2 <= i < n."""
    return from_structure_constants(
        n, brackets={(0, i): [int(k == i + 1) for k in range(n)]
                     for i in range(1, n - 1)})


def gl_z(n):
    """n x n integer matrices with entries in [-2, 2] and nonzero det."""
    return st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n).map(
        lambda e: [e[r * n:(r + 1) * n] for r in range(n)]).filter(
        lambda P: not ExactMatrix.from_rows(P).det().is_zero())


def rand_gauss(rng, span=4):
    return GaussRat(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
                    Fraction(rng.randint(-span, span), rng.randint(1, 3)))


def tensor_zero(t):
    """Every entry of a nested tuple or list of GaussRat is zero."""
    if isinstance(t, GaussRat):
        return t.is_zero()
    return all(tensor_zero(s) for s in t)
