"""The sparse exact kernels (the bracket-defect kernel behind curvature,
flatness, the homomorphism check and LinearRep; the projective Weyl
check; the bracket; the Killing form; the antisymmetry and Jacobi
checks; the matrix product; the Z[i] elimination behind rank, rref, det
and H^1) against the dense loops they replaced, kept here as
references."""

import random
import time
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from flataff.cli import parse_algebra
from flataff.exact import (ExactMatrix, GaussRat, ONE, ZERO, _den, _echelon,
                          _int_rows, _unit_vectors)
from flataff.liealg import (
    LieAlgebra,
    InconsistentEntry,
    JacobiViolation,
    builtin,
    from_structure_constants,
)
from flataff import affine, connections, liealg
from flataff.connections import (
    InvariantConnection,
    _l_rows,
    curvature,
    is_flat,
    is_projectively_flat,
    is_torsion_free,
    projective_change,
    projective_weyl,
    standard_connection,
    zero_connection,
)
from flataff.affine import (
    AffElement,
    AffMap,
    NotFlatTorsionFree,
    _augmented_rows,
    aff_bracket,
    check_homomorphism,
    etale_from_lsa,
)
from flataff.obstructions import InvalidRep, LinearRep, decide_existence, h1_dim
from known_algebras import filiform, gl2, gl_z, rand_gauss, sl2_plus_sl2, sl3


def _dense_curvature(conn):
    """R[l][k][i][j] = sum_m (gamma[j][k][m] gamma[i][m][l]
    - gamma[i][k][m] gamma[j][m][l] - c[i][j][m] gamma[m][k][l])."""
    n = conn.g.n
    gm = conn.gamma
    c = conn.g.c
    out = []
    for l in range(n):
        out_l = []
        for k in range(n):
            out_k = []
            for i in range(n):
                out_i = []
                for j in range(n):
                    acc = ZERO
                    for m in range(n):
                        acc = acc + (
                            gm[j][k][m] * gm[i][m][l]
                            - gm[i][k][m] * gm[j][m][l]
                            - c[i][j][m] * gm[m][k][l]
                        )
                    out_i.append(acc)
                out_k.append(tuple(out_i))
            out_l.append(tuple(out_k))
        out.append(tuple(out_l))
    return tuple(out)


def _dense_jacobi_violation(n, c):
    """The first (i, j, k, l), i < j < k, where the Jacobi sum is not
    zero, or None."""
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    acc = ZERO
                    for m in range(n):
                        acc = acc + (
                            c[i][j][m] * c[m][k][l]
                            + c[j][k][m] * c[m][i][l]
                            + c[k][i][m] * c[m][j][l]
                        )
                    if not acc.is_zero():
                        return (i, j, k, l)
    return None


def _dense_antisymmetry_violation(n, c):
    """The first (i, j, k), i <= j, where c[i][j][k] != -c[j][i][k], or
    None."""
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    return (i, j, k)
    return None


def _matmul_algebra(units):
    """The Lie algebra of a span of matrix units E_ab (a list of (a, b)
    closed under the product) and the connection of matrix
    multiplication, gamma[i][j] = coordinates of x_i x_j."""
    n = len(units)
    index = {u: t for t, u in enumerate(units)}

    def product(i, j):
        (a, b), (c, d) = units[i], units[j]
        v = [0] * n
        if b == c:
            v[index[(a, d)]] = 1
        return v

    brackets = {(i, j): [x - y for x, y in zip(product(i, j), product(j, i))]
                for i in range(n) for j in range(i + 1, n)}
    g = from_structure_constants(n, brackets=brackets)
    gamma = [[product(i, j) for j in range(n)] for i in range(n)]
    return g, InvariantConnection(g, gamma)


def _aff1():
    return _matmul_algebra([(0, 0), (0, 1)])


def _algebras():
    return [builtin(name) for name in ("abelian3", "heis3", "sol3", "sl2")] + [
        gl2(), sl2_plus_sl2()]


def _rand_gauss(rng):
    return GaussRat(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


def test_curvature_matches_dense_reference():
    rng = random.Random(808)
    for g in _algebras():
        conn = standard_connection(g)
        assert curvature(conn) == _dense_curvature(conn)
        n = g.n
        for _ in range(2):
            # every entry nonzero with probability about 0.98
            gamma = [[[_rand_gauss(rng) for _ in range(n)] for _ in range(n)]
                     for _ in range(n)]
            conn = InvariantConnection(g, gamma)
            assert curvature(conn) == _dense_curvature(conn)
    for g, conn in (_matmul_algebra([(0, 0), (0, 1), (1, 0), (1, 1)]),
                    _aff1()):
        assert is_torsion_free(conn) and is_flat(conn)
        assert curvature(conn) == _dense_curvature(conn)


def test_curvature_of_dimension_zero():
    conn = standard_connection(LieAlgebra(0, []))
    assert curvature(conn) == _dense_curvature(conn) == ()


def test_killing_form_matches_ad_trace():
    for g in _algebras():
        K = g.killing_form()
        for i in range(g.n):
            for j in range(g.n):
                assert K[i, j] == (g.ad_matrix(i) @ g.ad_matrix(j)).trace()


def test_jacobi_violation_matches_dense_reference():
    """Perturbed constants of each algebra, and of each algebra times a
    complex fraction: the integer sums name the same first (i, j, k, l)."""
    rng = random.Random(4242)
    violations = 0
    scale = GaussRat(Fraction(2, 3), Fraction(-1, 5))
    for g in _algebras() + [g.in_basis(ExactMatrix.identity(g.n).scale(scale))
                            for g in _algebras()]:
        n = g.n
        for _ in range(12):
            c = [[list(row) for row in plane] for plane in g.c]
            i, j = rng.sample(range(n), 2)
            k = rng.randrange(n)
            delta = GaussRat(rng.choice([1, -1, 2]), rng.choice([0, 0, 1]))
            c[i][j][k] = c[i][j][k] + delta
            c[j][i][k] = c[j][i][k] - delta
            want = _dense_jacobi_violation(n, c)
            if want is None:
                assert LieAlgebra(n, c).n == n
                continue
            violations += 1
            with pytest.raises(JacobiViolation) as exc:
                LieAlgebra(n, c)
            assert exc.value.indices == want
            assert str(exc.value) == (
                "Jacobi identity fails at (i, j, k, l) = (%d, %d, %d, %d)"
                % want)
    assert violations >= 30


def test_antisymmetry_violation_matches_dense_reference():
    """One to three entries changed on one side only, the diagonal
    c[i][i] included: the check reports the least bad (i <= j, k), for
    the full array and for a dict that lists only the changed pairs in
    both orders (in random order) and every other pair once. The upper
    triangle of each copy builds an algebra (the dict fills the mirrors)
    whose same_constants agrees with comparing the full arrays."""
    rng, order = random.Random(5151), random.Random(5252)
    violations, same = 0, []
    for g in _algebras():
        n = g.n
        for _ in range(12):
            c = [[list(row) for row in plane] for plane in g.c]
            changed = set()
            for _ in range(rng.randint(1, 3)):
                i, j, k = (rng.randrange(n) for _ in range(3))
                c[i][j][k] = c[i][j][k] + GaussRat(rng.choice([1, -1, 2]),
                                                   rng.choice([0, 0, 1]))
                changed |= {(i, j), (j, i)}
            pairs = [(i, j) for i in range(n) for j in range(n)
                     if i < j or (i, j) in changed]
            order.shuffle(pairs)
            upper = {(i, j): c[i][j] for i in range(n) for j in range(i + 1, n)}
            try:
                h = LieAlgebra(n, upper)
            except JacobiViolation:
                pass
            else:
                assert h.same_constants(g) == (h.c == g.c)
                same.append(h.same_constants(g))
            want = _dense_antisymmetry_violation(n, c)
            if want is None:
                continue
            violations += 1
            for table in (c, {p: c[p[0]][p[1]] for p in pairs}):
                with pytest.raises(InconsistentEntry) as exc:
                    LieAlgebra(n, table)
                assert str(exc.value) == "c[%d][%d][%d] != -c[%d][%d][%d]" % (
                    *want, want[1], want[0], want[2])
    assert violations >= 60
    assert True in same and False in same


def _dense_matmul(x, y):
    return [[sum((x[i, k] * y[k, j] for k in range(x.cols)), ZERO)
             for j in range(y.cols)] for i in range(x.rows)]


def test_matmul_and_mul_vec_match_dense_reference():
    rng = random.Random(1717)
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6))
               for _ in range(40)]
    for rows, inner, cols in shapes:
        density = rng.choice([0.0, 0.2, 0.5, 1.0])

        def sparse(r, c):
            return ExactMatrix(r, c, [
                _rand_gauss(rng) if rng.random() < density else ZERO
                for _ in range(r * c)])

        x, y = sparse(rows, inner), sparse(inner, cols)
        product = x @ y
        assert (product.rows, product.cols) == (rows, cols)
        assert product.to_lists() == _dense_matmul(x, y)
        v = sparse(inner, 1)
        assert x.mul_vec(v.entries) == [row[0] for row in _dense_matmul(x, v)]


def _pair_loop_counterexample(m):
    """The homomorphism loop the defect kernel replaced: the first i < j
    with [m(e_i), m(e_j)] != m([e_i, e_j]), or None."""
    g = m.g
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if aff_bracket(m.images[i], m.images[j]) != m.apply(g.c[i][j]):
                return (i, j)
    return None


def _product_loop_failure(g, rho):
    """The LinearRep loop the defect kernel replaced: the first i < j with
    rho_i rho_j - rho_j rho_i != sum_k c[i][j][k] rho_k, or None."""
    d = rho[0].rows if rho else 0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            lhs = (rho[i] @ rho[j]) - (rho[j] @ rho[i])
            rhs = ExactMatrix.zeros(d, d)
            for k in range(g.n):
                if not g.c[i][j][k].is_zero():
                    rhs = rhs + rho[k].scale(g.c[i][j][k])
            if lhs != rhs:
                return (i, j)
    return None


def _perturbed(rng, gamma):
    """gamma with one random entry moved by a small nonzero amount."""
    n = len(gamma)
    out = [[list(row) for row in plane] for plane in gamma]
    i, j, k = (rng.randrange(n) for _ in range(3))
    out[i][j][k] = out[i][j][k] + GaussRat(rng.choice([1, -2]),
                                           rng.choice([0, 1]))
    return out


def _kernel_test_connections(rng):
    """Flat certificates (matrix products, the zero connection of an
    abelian algebra, the standard connection of heis3, Gamma[0] = c[0] on
    sol3), curved standard connections, torsioned zero connections, their
    one-entry perturbations and dense random Christoffels."""
    gl2, aff1 = _matmul_algebra([(0, 0), (0, 1), (1, 0), (1, 1)]), _aff1()
    sol3 = builtin("sol3")
    flat = [gl2[1], aff1[1], standard_connection(builtin("heis3")),
            zero_connection(builtin("abelian3")),
            InvariantConnection(sol3, [sol3.c[0]] + [[[ZERO] * 3] * 3] * 2)]
    for g in _algebras() + [aff1[0]]:
        n = g.n
        other = [standard_connection(g), zero_connection(g)]
        other.append(InvariantConnection(g, [
            [[_rand_gauss(rng) for _ in range(n)] for _ in range(n)]
            for _ in range(n)]))
        yield from other
        for conn in other + [c for c in flat if c.g is g]:
            yield InvariantConnection(g, _perturbed(rng, conn.gamma))
    yield from flat
    for conn in flat:
        for _ in range(3):
            yield InvariantConnection(conn.g, _perturbed(rng, conn.gamma))


def test_homomorphism_kernel_matches_the_pair_loop():
    """On e_i -> (L_i, e_i), L_i e_j = Gamma[i][j]: check_homomorphism
    and etale_from_lsa agree with the aff_bracket/apply loop at the first
    failing pair, and is_flat with the dense curvature."""
    rng = random.Random(2718)
    kinds = set()
    for conn in _kernel_test_connections(rng):
        g, n = conn.g, conn.g.n
        m = AffMap(g, [AffElement(
            ExactMatrix.from_rows([[conn.gamma[i][j][k] for j in range(n)]
                                   for k in range(n)]),
            [GaussRat(int(t == i)) for t in range(n)]) for i in range(n)])
        want = _pair_loop_counterexample(m)
        assert check_homomorphism(m).counterexample == want
        flat = all(x.is_zero() for a in _dense_curvature(conn)
                   for b in a for c in b for x in c)
        assert is_flat(conn) == flat
        kinds.add((flat, is_torsion_free(conn)))
        if want is None:
            assert etale_from_lsa(conn).images == m.images
        else:
            with pytest.raises(NotFlatTorsionFree):
                etale_from_lsa(conn)
    assert kinds == {(True, True), (True, False), (False, True),
                     (False, False)}


def test_homomorphism_kernel_matches_the_pair_loop_on_random_maps():
    """Random sparse maps g -> aff(m), m from 1 to 4, mostly not
    homomorphisms, and zero maps, which are."""
    rng = random.Random(3141)
    outcomes = set()
    for g in _algebras():
        for _ in range(6):
            amb = rng.randint(1, 4)
            density = rng.choice([0.0, 0.1, 0.4])

            def entry():
                return _rand_gauss(rng) if rng.random() < density else ZERO

            m = AffMap(g, [AffElement(
                ExactMatrix(amb, amb, [entry() for _ in range(amb * amb)]),
                [entry() for _ in range(amb)]) for _ in range(g.n)])
            want = _pair_loop_counterexample(m)
            assert check_homomorphism(m).counterexample == want
            outcomes.add(want is None)
    assert outcomes == {True, False}


def _invertible(rng, d):
    while True:
        P = ExactMatrix(d, d, [rng.randint(-2, 2) for _ in range(d * d)])
        if not P.det().is_zero():
            return P


def test_linear_rep_kernel_matches_the_product_loop():
    """Adjoint and trivial representations, adjoint ones in a random
    basis of the module, and one-entry perturbations of each: LinearRep
    accepts exactly the tuples the product loop accepts, and names the
    same first failing pair."""
    rng = random.Random(1618)
    tuples = []
    for g in _algebras():
        P = _invertible(rng, g.n)
        Pinv = P.inverse()
        for rho in (g.adjoint_rep(), [ExactMatrix.zeros(2, 2)] * g.n,
                    [P @ a @ Pinv for a in g.adjoint_rep()]):
            tuples.append((g, rho))
            for _ in range(2):
                bad = list(rho)
                t = rng.randrange(g.n)
                d = bad[t].rows
                entries = list(bad[t].entries)
                entries[rng.randrange(d * d)] += _rand_gauss(rng) or GaussRat(1)
                bad[t] = ExactMatrix(d, d, entries)
                tuples.append((g, bad))
    failures = 0
    for g, rho in tuples:
        want = _product_loop_failure(g, rho)
        if want is None:
            assert LinearRep(g, rho).rho == tuple(rho)
            continue
        failures += 1
        with pytest.raises(InvalidRep) as exc:
            LinearRep(g, rho)
        assert str(exc.value) == (
            "representation property fails at pair (%d, %d)" % want)
    assert 20 <= failures < len(tuples)


def _dense_rref(m):
    """The dense GaussRat loop that rref ran before the Z[i] elimination:
    (rref matrix, pivot columns)."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = GaussRat(1) / rows[r][c]
        rows[r] = [b * inv for b in rows[r]]
        for i in range(m.rows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [x - f * b for x, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return ExactMatrix(m.rows, m.cols, [x for row in rows for x in row]), pivots


_BIG = 10**400
_PARTS = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6))
_ENTRY = st.one_of(st.just(ZERO), st.sampled_from(
    [GaussRat(re, im) for re in _PARTS for im in _PARTS]))
# row scales near 10^400 and 10^-400, real and complex
_HUGE = st.one_of(
    st.integers(-2, 2).map(lambda k: GaussRat(_BIG + k)),
    st.integers(1, 3).map(lambda k: GaussRat(Fraction(k, _BIG - k))),
    st.integers(1, 3).map(lambda k: GaussRat(_BIG, k)),
)


@st.composite
def _matrices(draw, square=False):
    """Up to 7 x 7, empty shapes included, with some rows and columns
    zeroed, some rows scaled near 10^400 or 10^-400 and some rows made
    dependent on the others."""
    rows = draw(st.integers(0, 7))
    cols = rows if square else draw(st.integers(0, 7))
    e = draw(st.lists(_ENTRY, min_size=rows * cols, max_size=rows * cols))
    m = [e[i * cols:(i + 1) * cols] for i in range(rows)]
    if rows and cols:
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
            m[i] = [ZERO] * cols
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for row in m:
                row[j] = ZERO
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
            scale = draw(_HUGE)
            m[i] = [scale * x for x in m[i]]
        if rows > 2 and draw(st.booleans()):
            a, b = draw(_ENTRY), draw(_ENTRY)
            m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return ExactMatrix(rows, cols, [x for row in m for x in row])


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_elimination_matches_dense_rref(m):
    red, pivots = _dense_rref(m)
    assert m.rref() == (red, pivots)
    assert m.rank() == len(pivots)
    nullspace = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [ZERO] * m.cols
        v[fc] = GaussRat(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, fc]
        nullspace.append(v)
    assert m.rank_nullspace() == (len(pivots), nullspace)
    assert m.nullspace() == nullspace


@settings(max_examples=100, deadline=None)
@given(_matrices(square=True))
def test_inverse_matches_dense_rref(m):
    n = m.rows
    aug = ExactMatrix(n, 2 * n, [x for i in range(n) for x in
                                 m.row(i) + ExactMatrix.identity(n).row(i)])
    red, pivots = _dense_rref(aug)
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
        return
    inv = m.inverse()
    assert inv == ExactMatrix(n, n, [red[i, n + j]
                                     for i in range(n) for j in range(n)])
    assert m @ inv == ExactMatrix.identity(n)


def test_elimination_matches_dense_rref_at_rank_20_and_more():
    """Products of random Gaussian-integer factors, of rank 20 to 24.
    Each pivot divides the rows below it exactly, so no Gaussian prime
    piles up and both rank and rref stay fast."""
    rng = random.Random(20)

    def rand(rows, cols):
        return ExactMatrix(rows, cols, [GaussRat(rng.randint(-3, 3),
                                                 rng.randint(-3, 3))
                                        for _ in range(rows * cols)])

    for rows, cols, rank in ((24, 24, 24), (26, 22, 20), (21, 30, 21)):
        m = rand(rows, rank) @ rand(rank, cols)
        red, pivots = _dense_rref(m)
        start = time.perf_counter()
        assert m.rank() == len(pivots) == rank
        assert m.rref() == (red, pivots)
        assert time.perf_counter() - start < 2
    square = rand(22, 22)
    inv = square.inverse()
    assert square @ inv == ExactMatrix.identity(22)


def _dense_det(m):
    """The dense GaussRat Bareiss loop, with row swaps, that det ran
    before the Z[i] elimination."""
    n = m.rows
    if n == 0:
        return ONE
    a = [list(m.row(i)) for i in range(n)]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return ZERO
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return a[n - 1][n - 1] if sign == 1 else -a[n - 1][n - 1]


@st.composite
def _square_matrices(draw):
    """Square _matrices, with some row made a multiple of another and the
    columns permuted, so that the pivots leave diagonal order."""
    m = draw(_matrices(square=True))
    n = m.rows
    rows = m.to_lists()
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        a = draw(_ENTRY)
        rows[i] = [a * x for x in rows[j]]
    perm = draw(st.permutations(range(n)))
    return ExactMatrix(n, n, [row[p] for row in rows for p in perm])


@settings(max_examples=200, deadline=None)
@given(_square_matrices())
def test_det_matches_dense_bareiss_and_cofactor(m):
    assert m.det() == _dense_det(m) == m.det_cofactor()


def test_det_of_a_24_by_24_complex_matrix():
    """The pivot values stay minors of the input, so the determinant of a
    24 x 24 Gaussian-integer matrix takes about 0.015 s (0.3 s with the
    dense GaussRat loop)."""
    rng = random.Random(24)
    m = ExactMatrix(24, 24, [GaussRat(rng.randint(-3, 3), rng.randint(-3, 3))
                             for _ in range(24 * 24)])
    start = time.perf_counter()
    d = m.det()
    assert time.perf_counter() - start < 0.1
    assert d == _dense_det(m) != ZERO


def _rows(mats):
    """Each ExactMatrix as the rows LieAlgebra._defects reads."""
    return [m._nonzero_rows() for m in mats]


def _augmented(x):
    """(A, v) as the dense matrix [[A, v], [0, 0]] in gl(m + 1), which the
    homomorphism and etale checks built before they read rows."""
    m = x.ambient
    return ExactMatrix(m + 1, m + 1, [
        e for r in range(m) for e in (*x.A.row(r), x.v[r])] + [ZERO] * (m + 1))


def _reference_defects(g, mats):
    """The GaussRat loop that LieAlgebra._defects ran before it summed
    on integers: [(i, j, D)] for i < j, D the nonzero entries of
    [M_i, M_j] - sum_k c[i][j][k] M_k."""
    rows = [m._nonzero_rows() for m in mats]
    neg = [[{s: -x for s, x in row.items()} for row in p] for p in rows]
    out = []
    for i in range(g.n):
        by_j = {}
        for j, k, v in g.nonzero[i]:
            by_j.setdefault(j, []).append((k, v))
        for j in range(i + 1, g.n):
            D = {}
            for p, q in ((rows[i], rows[j]), (neg[j], rows[i])):
                for r, row in enumerate(p):
                    for t, a in row.items():
                        for s, b in q[t].items():
                            D[r, s] = D.get((r, s), ZERO) + a * b
            for k, v in by_j.get(j, ()):
                for r, row in enumerate(rows[k]):
                    for s, x in row.items():
                        D[r, s] = D.get((r, s), ZERO) - v * x
            out.append((i, j, {rs: x for rs, x in D.items() if x}))
    return out


_SCALES = (GaussRat(1), GaussRat(Fraction(-1, 3)), GaussRat(2, 1),
           GaussRat(_BIG), GaussRat(Fraction(1, _BIG - 1)), GaussRat(_BIG, 3))


@st.composite
def _defect_cases(draw):
    """(g, mats): g an algebra of _algebras(), aff1 or dimension 0 or 1,
    its constants scaled by a fractional, complex or 10^400 or 10^-400
    factor; mats n square matrices of one size m: random ones (entries
    of mixed denominators, complex), the adjoint representation, or
    augmented (m + 1)-size images [[A, v], [0, 0]]; some of them zeroed
    or scaled near 10^400 or 10^-400, and one entry sometimes moved."""
    base = draw(st.sampled_from(_algebras() + [
        _aff1()[0], LieAlgebra(0, []), LieAlgebra(1, [[[ZERO]]])]))
    g = base.in_basis(
        ExactMatrix.identity(base.n).scale(draw(st.sampled_from(_SCALES))))
    n = g.n

    def square(m):
        return ExactMatrix(m, m, draw(st.lists(_ENTRY, min_size=m * m,
                                               max_size=m * m)))

    kind = draw(st.sampled_from(["random", "adjoint", "augmented"]))
    if kind == "adjoint":
        mats = g.adjoint_rep()
    elif kind == "random":
        m = draw(st.integers(0, 4))
        mats = [square(m) for _ in range(n)]
    else:
        m = draw(st.integers(0, 3))
        mats = [_augmented(AffElement(square(m), draw(st.lists(
            _ENTRY, min_size=m, max_size=m)))) for _ in range(n)]
    if n:
        for t in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            mats[t] = mats[t].scale(ZERO)
        for t in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            mats[t] = mats[t].scale(draw(_HUGE))
        size = mats[0].rows
        if size and draw(st.booleans()):
            t = draw(st.integers(0, n - 1))
            entries = list(mats[t].entries)
            entries[draw(st.integers(0, size * size - 1))] += draw(_ENTRY)
            mats[t] = ExactMatrix(size, size, entries)
    return g, mats


@settings(max_examples=200, deadline=None)
@given(_defect_cases())
def test_defects_match_the_gaussrat_loop(case):
    g, mats = case
    assert list(g._defects(_rows(mats))) == _reference_defects(g, mats)


def test_defects_of_a_scaled_representation_are_empty():
    """The adjoint representation of every algebra, scaled as in
    _defect_cases, has no defect; so has the augmented embedding of a
    flat certificate."""
    for base in _algebras():
        for lam in _SCALES:
            g = base.in_basis(ExactMatrix.identity(base.n).scale(lam))
            assert g._first_defect(_rows(g.adjoint_rep())) is None
    for g, conn in (_matmul_algebra([(0, 0), (0, 1), (1, 0), (1, 1)]),
                    _aff1()):
        emb = etale_from_lsa(conn)
        assert g._first_defect([_augmented_rows(x.A._nonzero_rows(), x.v)
                                for x in emb.images]) is None


@st.composite
def _connections_and_maps(draw):
    """(g, kind, data): g an algebra of _algebras() or aff1, its constants
    scaled as in _defect_cases; for kind "connection" an
    InvariantConnection with random planes, some of them one shared zero
    plane, one shared random plane or a plane of c; for kind "map" the
    images (A, v) of a random map into aff(m), m from 0 to 3."""
    base = draw(st.sampled_from(_algebras() + [_aff1()[0]]))
    g = base.in_basis(
        ExactMatrix.identity(base.n).scale(draw(st.sampled_from(_SCALES))))
    n = g.n

    def entries(size):
        return draw(st.lists(_ENTRY, min_size=size, max_size=size))

    if draw(st.booleans()):
        zero = ((ZERO,) * n,) * n
        shared = tuple(tuple(entries(n)) for _ in range(n))
        planes = [zero, shared, g.c[draw(st.integers(0, n - 1))], None]
        gamma = []
        for _ in range(n):
            p = draw(st.sampled_from(planes))
            gamma.append(p if p is not None
                         else [entries(n) for _ in range(n)])
        return g, "connection", InvariantConnection(g, gamma)
    m = draw(st.integers(0, 3))
    return g, "map", [AffElement(ExactMatrix(m, m, entries(m * m)), entries(m))
                      for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(_connections_and_maps())
def test_sparse_rows_match_the_dense_defects(case):
    """The rows the checks hand the defect kernel (_l_rows of a connection,
    and _augmented_rows of its étale map or of a map's images) give the
    defects of the dense matrices L_i and [[A, v], [0, 0]]; the injectivity
    rank read from the rows is the rank of the flattened dense images."""
    g, kind, data = case
    n = g.n
    if kind == "connection":
        rows = _l_rows(data)
        dense = [ExactMatrix.from_rows([[data.gamma[i][j][k] for j in range(n)]
                                        for k in range(n)]) for i in range(n)]
        assert list(g._defects(rows)) == _reference_defects(g, dense)
        units = [[ONE if t == i else ZERO for t in range(n)] for i in range(n)]
        images = [AffElement(L, e) for L, e in zip(dense, units)]
        aug = [_augmented_rows(L, e) for L, e in zip(rows, units)]
    else:
        images = data
        aug = [_augmented_rows(x.A._nonzero_rows(), x.v) for x in images]
    dense = [_augmented(x) for x in images]
    assert list(g._defects(aug)) == _reference_defects(g, dense)
    rank = ExactMatrix.from_rows([M.entries for M in dense]).rank()
    assert check_homomorphism(AffMap(g, images)).injective == (rank == n)


def test_flatness_and_etale_checks_build_no_dense_matrix(monkeypatch):
    """is_flat builds no matrix at all, and etale_from_lsa's check builds
    neither L_i nor an augmented matrix: a curved connection raises with
    no matrix built, and a certificate's map builds one n x n L_i per
    distinct plane of Gamma, after the check."""
    built = []
    init, plane_matrix = ExactMatrix.__init__, liealg._plane_matrix

    def counting_init(self, rows, cols, entries):
        built.append((rows, cols))
        init(self, rows, cols, entries)

    def counting_plane_matrix(plane):
        built.append("plane")
        return plane_matrix(plane)

    monkeypatch.setattr(ExactMatrix, "__init__", counting_init)
    for module in (liealg, connections, affine):
        if getattr(module, "_plane_matrix", None) is plane_matrix:
            monkeypatch.setattr(module, "_plane_matrix", counting_plane_matrix)
    g, flat = _matmul_algebra([(0, 0), (0, 1), (1, 0), (1, 1)])
    curved = standard_connection(builtin("sl2"))
    for conn in (flat, curved, standard_connection(g)):
        built.clear()
        is_flat(conn)
        assert built == []
    with pytest.raises(NotFlatTorsionFree):
        etale_from_lsa(curved)
    assert built == []
    sol3 = builtin("sol3")
    zero = ((ZERO,) * 3,) * 3
    for conn, distinct in ((flat, 4), (InvariantConnection(
            sol3, [sol3.c[0], zero, zero]), 2)):
        n = conn.g.n
        emb = etale_from_lsa(conn)
        assert built == ["plane", (n, n)] * distinct
        assert [x.A for x in emb.images] == [
            plane_matrix(p) for p in conn.gamma]
        built.clear()


def _dense_weyl(conn):
    """The dense n^4 loop that projective_weyl ran before the sparse
    check, on the dense curvature, with Ric[j][k] = sum_i R[i][k][i][j]
    and gamma = (n Ric + Ric^T) / (n^2 - 1)."""
    curv = _dense_curvature(conn)
    n = len(curv)
    ric = [[sum((curv[i][k][i][j] for i in range(n)), ZERO)
            for k in range(n)] for j in range(n)]
    denom = GaussRat(Fraction(1, n * n - 1))
    gam = [[(GaussRat(n) * ric[j][k] + ric[k][j]) * denom for k in range(n)]
           for j in range(n)]
    out = []
    for l in range(n):
        out_l = []
        for k in range(n):
            out_k = []
            for i in range(n):
                out_i = []
                for j in range(n):
                    w = curv[l][k][i][j]
                    if i == l:
                        w = w - gam[j][k]
                    if j == l:
                        w = w + gam[i][k]
                    if k == l:
                        w = w + (gam[i][j] - gam[j][i])
                    out_i.append(w)
                out_k.append(tuple(out_i))
            out_l.append(tuple(out_k))
        out.append(tuple(out_l))
    return tuple(out)


def _symmetric_perturbation(rng, conn, count):
    """conn plus s, s symmetric in (i, j) with count random entries: a
    torsion-free connection when conn is."""
    n = conn.g.n
    gamma = [[list(row) for row in plane] for plane in conn.gamma]
    for _ in range(count):
        i, j, k = (rng.randrange(n) for _ in range(3))
        x = _rand_gauss(rng)
        gamma[i][j][k] = gamma[i][j][k] + x
        if i != j:
            gamma[j][i][k] = gamma[j][i][k] + x
    return InvariantConnection(conn.g, gamma)


def test_weyl_matches_the_dense_loop():
    """Standard connections of heis3, sol3, sl2 (projectively flat),
    abelian3 (flat), sl3, sl2 + sl2 and gl2 (not), their projective
    changes, and sparse and dense symmetric perturbations of c/2."""
    rng = random.Random(1509)
    outcomes = set()
    for name, g, count in (
            ("heis3", builtin("heis3"), 3), ("sol3", builtin("sol3"), 3),
            ("sl2", builtin("sl2"), 3), ("abelian3", builtin("abelian3"), 3),
            ("sl3", sl3(), 1), ("sl2+sl2", sl2_plus_sl2(), 2),
            ("gl2", gl2(), 3)):
        std = standard_connection(g)
        assert is_projectively_flat(std) == (
            name in ("heis3", "sol3", "sl2", "abelian3")), name
        conns = [std]
        conns += [projective_change(std, [_rand_gauss(rng)
                                          for _ in range(g.n)])
                  for _ in range(count)]
        conns += [_symmetric_perturbation(rng, std, rng.choice([1, 3, 60]))
                  for _ in range(count)]
        for conn in conns:
            want = _dense_weyl(conn)
            assert projective_weyl(conn) == want, name
            flat = all(x.is_zero() for a in want for b in a for c in b
                       for x in c)
            assert is_projectively_flat(conn) == flat, name
            outcomes.add(flat)
    assert outcomes == {True, False}


def test_bracket_and_standard_connection_match_the_dense_arrays():
    """bracket reads g.nonzero; standard_connection halves only the
    nonzero constants; both equal the dense formulas."""
    rng = random.Random(77)
    for g in _algebras() + [sl3()]:
        n = g.n
        assert standard_connection(g) == InvariantConnection(g, [
            [[x / 2 for x in row] for row in plane] for plane in g.c])
        for _ in range(5):
            x = [rng.choice([ZERO, _rand_gauss(rng)]) for _ in range(n)]
            y = [rng.choice([ZERO, _rand_gauss(rng)]) for _ in range(n)]
            want = [sum((x[i] * y[j] * g.c[i][j][k] for i in range(n)
                         for j in range(n)), ZERO) for k in range(n)]
            assert g.bracket(x, y) == want


def test_is_flat_of_l12_in_a_generic_basis():
    """The YES certificate of L12 moved to a seeded GL(12, Z) basis has
    about 1,600 nonzero constants with denominators up to 10^5; its
    flatness check sums on integers in well under 0.2 s (about 2.5 s
    with GaussRat sums)."""
    rng = random.Random(12)
    while True:
        P = [[rng.randint(-2, 2) for _ in range(12)] for _ in range(12)]
        if not ExactMatrix.from_rows(P).det().is_zero():
            break
    conn = decide_existence(filiform(12)).connection.in_basis(P)
    assert sum(map(len, conn.g.nonzero)) > 1500
    start = time.perf_counter()
    assert is_flat(conn)
    assert time.perf_counter() - start < 0.2
    assert is_torsion_free(conn)


# The Killing form, [g, g] and the H^1 rows sum on the constants cleared
# of their denominators (LieAlgebra._cleared, LinearRep._ints); the
# GaussRat loops they replaced are the references.

_CORPUS = {p.stem: parse_algebra(str(p)) for p in sorted(
    (Path(__file__).resolve().parents[1] / "perfbench" / "data"
     / "algebras").glob("*.json"))}


def _reference_killing_form(g):
    """K[i][j] = -sum c[i][k][m] c[m][j][k], summed in GaussRat."""
    n = g.n
    K = [ZERO] * (n * n)
    for i, entries in enumerate(g.nonzero):
        for k, m, v in entries:
            for j, kk, w in g.nonzero[m]:
                if kk == k:
                    K[i * n + j] = K[i * n + j] - v * w
    return ExactMatrix(n, n, K)


def _reference_h1_dim(rep):
    """dim Z^1 - dim B^1 from cocycle rows summed in GaussRat, each row
    cleared of its own denominators only before the elimination."""
    g = rep.g
    n, d = g.n, rep.V_dim
    rho_rows = [m._nonzero_rows() for m in rep.rho]
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(d):
                row = {k * d + a: x for k, x in enumerate(g.c[i][j]) if x}
                for b, x in rho_rows[i][a].items():
                    row[j * d + b] = row.get(j * d + b, ZERO) - x
                for b, x in rho_rows[j][a].items():
                    row[i * d + b] = row.get(i * d + b, ZERO) + x
                rows.append(row)
    z1 = n * d - len(_echelon(_int_rows(rows)))
    return z1 - len(_echelon(_int_rows(r for m in rho_rows for r in m)))


def _assert_matches_the_gaussrat_loops(g, reps=()):
    """The Killing form, [g, g] read off the index, and H^1 of the
    adjoint, the trivial and the given representations."""
    assert g.killing_form() == _reference_killing_form(g)
    full = _unit_vectors(g.n)
    assert g._derived == g._bracket_space(full, full)
    for rep in (LinearRep.adjoint(g), LinearRep.trivial(g), *reps):
        assert h1_dim(rep) == _reference_h1_dim(rep)


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_lie_layer_matches_the_gaussrat_loops(name):
    _assert_matches_the_gaussrat_loops(_CORPUS[name])


@pytest.mark.parametrize("name", sorted(_CORPUS))
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_lie_layer_matches_the_gaussrat_loops_in_a_drawn_basis(name, data):
    g = _CORPUS[name]
    _assert_matches_the_gaussrat_loops(
        g.in_basis(data.draw(gl_z(g.n), label="P")))


def test_lie_layer_matches_the_gaussrat_loops_on_complex_fractions():
    """Corpus algebras up to dimension 4 in a basis drawn from rand_gauss,
    so that their constants are non-integer complex fractions, with the
    adjoint representation conjugated by another such matrix: a
    representation that is not ad, whose rows are cleared with the
    constants, and whose H^1 equals that of ad."""
    rng = random.Random(31)

    def gauss_basis(n):
        while True:
            P = ExactMatrix(n, n, [rand_gauss(rng, span=2) for _ in range(n * n)])
            if not P.det().is_zero():
                return P

    for name, base in sorted(_CORPUS.items()):
        if base.n > 4:  # sl2 + sl2 takes seconds in such a basis
            continue
        g = base.in_basis(gauss_basis(base.n))
        assert any(x.im.denominator > 1 or x.re.denominator > 1
                   for e in g.nonzero for _, _, x in e) or g.is_abelian()
        Q = gauss_basis(g.n)
        conj = LinearRep(g, [Q @ a @ Q.inverse() for a in g.adjoint_rep()])
        _assert_matches_the_gaussrat_loops(g, [conj, LinearRep.trivial(g, 2)])
        assert h1_dim(conj) == h1_dim(LinearRep.adjoint(g))


def _with_trivial(mats):
    """Each n x n matrix A as the (n + 1) x (n + 1) block matrix
    [[A, 0], [0, 0]]: the representation plus a trivial summand C."""
    n = mats[0].rows
    return [ExactMatrix(n + 1, n + 1, [
        e for r in range(n) for e in (*m.row(r), ZERO)] + [ZERO] * (n + 1))
        for m in mats]


@pytest.mark.parametrize("name", sorted(_CORPUS))
@seed(2031)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_h1_dim_matches_the_equation_rows(name, data):
    """h1_dim ranks the transposed cocycle system, one row per unknown;
    the reference ranks one row per equation, and rank M = rank M^T. In a
    drawn GL(n, Z) basis (for sl3 a signed permutation, which keeps its
    eliminations at milliseconds): the adjoint and the trivial
    representations, and g ⊕ C (dimension n + 1, so unknown and equation
    indices of different ranges), conjugated by a unitriangular matrix
    over 1/11 and i/13 up to dimension 4, so its entries are non-real
    fractions. H^1 is additive: that of g ⊕ C is that of g plus that of C."""
    n = _CORPUS[name].n
    if n <= 6:
        P = data.draw(gl_z(n), label="P")
    else:
        perm = data.draw(st.permutations(range(n)), label="perm")
        signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=n,
                                   max_size=n), label="signs")
        P = [[s * (t == p) for t in range(n)] for p, s in zip(perm, signs)]
    g = _CORPUS[name].in_basis(P)
    mats = _with_trivial(g.adjoint_rep())
    if n <= 4:
        ks = data.draw(st.lists(st.integers(-3, 3), min_size=(n + 1) ** 2,
                                max_size=(n + 1) ** 2), label="Q")
        Q = ExactMatrix.identity(n + 1) + ExactMatrix(n + 1, n + 1, [
            GaussRat(Fraction(k, 11), Fraction(k, 13))
            if t % (n + 1) > t // (n + 1) else ZERO for t, k in enumerate(ks)])
        mats = [Q @ m @ Q.inverse() for m in mats]
        assert any(x.v and x.d > 1 for m in mats for x in m.entries) or not any(
            g.nonzero)
    adjoint, trivial = LinearRep.adjoint(g), LinearRep.trivial(g)
    plus = LinearRep(g, mats)
    for rep in (adjoint, trivial, LinearRep.trivial(g, 2), plus):
        assert h1_dim(rep) == _reference_h1_dim(rep)
    assert h1_dim(plus) == h1_dim(adjoint) + h1_dim(trivial)


def _dense_l(conn):
    """L_i as an ExactMatrix: column j is gamma[i][j]."""
    n = conn.g.n
    return [ExactMatrix.from_rows([[conn.gamma[i][j][k] for j in range(n)]
                                   for k in range(n)]) for i in range(n)]


def test_defects_on_denominators_the_constants_lack_and_sixty_orders():
    """_defects clears the matrices with the kept constants in one pass
    and sizes K from a bit-length bound. The standard connection of sl3
    has the denominator 2 that sl3's integer constants lack; its defects
    (its curvature) are those of the GaussRat loop. So are the defects of
    matrices whose entries run from 10^-30 to 10^30 within one matrix,
    real and non-real, on sl3, heis3 and sl2 scaled by 1/3 + 2i: cleared
    by d = 10^30, the largest products reach 10^120, and a K too small
    for them would mix the base-X digits of the sums."""
    g = sl3()
    std = standard_connection(g)
    assert _den(x for L in _l_rows(std) for row in L for x in row.values()) == 2
    assert list(g._defects(_l_rows(std))) == _reference_defects(g, _dense_l(std))
    assert any(D for _, _, D in g._defects(_l_rows(std)))
    rng = random.Random(60)
    orders = (-30, -29, -1, 0, 1, 29, 30)

    def entry():  # k 10^e, or (k + j i) 10^e: integers, or over 10^-e
        e = Fraction(10) ** rng.choice(orders)
        return GaussRat(rng.randint(-9, 9) * e, rng.choice((0, 1, -7)) * e)

    scaled = builtin("sl2").in_basis(ExactMatrix.identity(3).scale(
        GaussRat(Fraction(1, 3), 2)))
    for g in (sl3(), builtin("heis3"), scaled):
        for m in (2, 3):
            mats = [[entry() for _ in range(m * m)] for _ in range(g.n)]
            mats[0][:2] = GaussRat(10**30, 1), GaussRat(Fraction(1, 10**30), -3)
            mats = [ExactMatrix(m, m, M) for M in mats]
            got = list(g._defects(_rows(mats)))
            assert got == _reference_defects(g, mats)
            assert any(D for _, _, D in got)


def _fresh_clear(g, mats=()):
    """(d, C, N) as LinearRep._ints holds it for the matrices mats (d, C
    of LieAlgebra._cleared with none), cleared in one pass from the
    Fraction parts of the constants and the mats."""
    rows = [m._nonzero_rows() for m in mats]
    values = [x for e in g.nonzero for _, _, x in e] + [
        x for p in rows for row in p for x in row.values()]
    d = lcm(*(part.denominator for x in values for part in (x.re, x.im)))

    def ints(x):
        return int(x.re * d), int(x.im * d)

    C = [{} for _ in range(g.n)]
    for Ci, e in zip(C, g.nonzero):
        for j, k, x in e:
            Ci.setdefault(j, {})[k] = ints(x)
    return d, C, [[{s: ints(x) for s, x in row.items()} for row in p]
                  for p in rows]


@pytest.mark.parametrize("name", sorted(_CORPUS))
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_cleared_constants_are_kept_from_the_first_use(name, data):
    """In a drawn GL(n, Z) basis scaled by a rational or non-real factor,
    a built algebra keeps no cleared constants (its Jacobi check clears
    without keeping); the first read keeps a fresh clear, with top the OR
    of every |re|, |im|, and every later read returns that table. A
    representation of other denominators (the adjoint
    representation conjugated by a matrix over 1/11 and i/13, and the
    adjoint plus a trivial summand conjugated by one over 1/17 and i/19)
    keeps the fresh clear of the constants and its matrices at their
    common d. On these and on random matrices over 1/17 and i/19,
    _defects gives the GaussRat loop's D, and the kept table does not
    change."""
    base = _CORPUS[name]
    n = base.n
    lam = data.draw(st.sampled_from(
        [GaussRat(Fraction(-1, 3)), GaussRat(2, 1),
         GaussRat(Fraction(2, 5), Fraction(-1, 7))]), label="lam")
    g = base.in_basis(ExactMatrix.from_rows(
        data.draw(gl_z(n), label="P")).scale(lam))
    assert "_cleared" not in vars(g)
    kept = g._cleared
    d, C, _ = _fresh_clear(g)
    assert kept == (d, C, reduce(or_, (abs(t) for Ci in C for row in Ci.values()
                                       for z in row.values() for t in z), 0))
    assert g._cleared is kept

    def unitriangular(m, p, q):  # invertible, off-diagonal over 1/p, i/q
        ks = data.draw(st.lists(st.integers(-3, 3), min_size=m * m,
                                max_size=m * m), label="Q")
        return ExactMatrix.identity(m) + ExactMatrix(m, m, [
            GaussRat(Fraction(k, p), Fraction(k, q)) if t % m > t // m
            else ZERO for t, k in enumerate(ks)])

    Q, R = unitriangular(n, 11, 13), unitriangular(n + 1, 17, 19)
    conj = [Q @ a @ Q.inverse() for a in g.adjoint_rep()]
    plus = [R @ a @ R.inverse() for a in _with_trivial(g.adjoint_rep())]
    m = data.draw(st.integers(1, 3), label="m")
    entries = st.lists(st.integers(-4, 4), min_size=2 * m * m,
                       max_size=2 * m * m)
    random_mats = [ExactMatrix(m, m, [GaussRat(Fraction(a, 17), Fraction(b, 19))
                                      for a, b in zip(e[::2], e[1::2])])
                   for e in (data.draw(entries, label="M") for _ in range(n))]
    for mats in (conj, plus):
        assert LinearRep(g, mats)._ints == _fresh_clear(g, mats)
    for mats in (conj, plus, random_mats):
        assert list(g._defects(_rows(mats))) == _reference_defects(g, mats)
    assert g._first_defect(_rows(conj)) is None
    assert g._cleared is kept and kept[:2] == (d, C)
