"""Tests for the exact arithmetic layer."""

import copy
import operator
import pickle
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from flataff.exact import (
    GaussRat,
    ExactMatrix,
    MultiPoly,
    poly_det,
    ZERO,
    ONE,
    I,
    HALF,
    _gauss,
)


def test_gaussrat_basic_arithmetic():
    a = GaussRat(1, 1)
    b = GaussRat(1, -1)
    assert a * b == GaussRat(2)
    assert a + b == GaussRat(2)
    assert a - b == GaussRat(0, 2)
    assert GaussRat(Fraction(1, 2)) + GaussRat(Fraction(1, 3)) == GaussRat(
        Fraction(5, 6)
    )
    assert I * I == GaussRat(-1)
    assert I / I == ONE
    assert (a / b) * b == a


def test_gaussrat_division_exact():
    # 1/(1+i) = (1-i)/2
    q = ONE / GaussRat(1, 1)
    assert q == GaussRat(Fraction(1, 2), Fraction(-1, 2))


def test_gaussrat_zero_division():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_gaussrat_mixed_with_ints_and_fractions():
    assert GaussRat(2) * 3 == GaussRat(6)
    assert 3 * GaussRat(2) == GaussRat(6)
    assert GaussRat(1) + Fraction(1, 2) == GaussRat(Fraction(3, 2))
    assert 1 - GaussRat(0, 1) == GaussRat(1, -1)


def test_gaussrat_string_parsing():
    assert GaussRat("3/4", "-2") == GaussRat(Fraction(3, 4), -2)
    with pytest.raises(ValueError):
        GaussRat("1.5")
    with pytest.raises(ValueError):
        GaussRat("x")


def test_gaussrat_pair_round_trip():
    x = GaussRat(Fraction(-7, 3), Fraction(5, 11))
    assert GaussRat.from_pair(x.to_pair()) == x
    assert x.to_pair() == ["-7/3", "5/11"]


def test_gaussrat_is_immutable_and_hashable():
    x = GaussRat(1, 2)
    with pytest.raises(AttributeError):
        x.re = Fraction(3)
    assert len({GaussRat(1, 2), GaussRat(1, 2), GaussRat(2, 1)}) == 2


def _pair_op(op, x, y):
    """Reference arithmetic on (re, im) Fraction pairs."""
    (a, b), (c, d) = x, y
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def test_gaussrat_invariants_under_real_and_complex_arithmetic():
    rng = random.Random(31337)
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}

    def operand(kinds):
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        kind = rng.choice(kinds)
        if kind == "int":
            return re.numerator, (Fraction(re.numerator), Fraction(0))
        if kind == "fraction":
            return re, (re, Fraction(0))
        if kind == "real":
            return GaussRat(re), (re, Fraction(0))
        return GaussRat(re, im), (re, im)

    real_results = 0
    for _ in range(300):
        x, xp = operand(["real", "real", "complex"])
        for _ in range(6):
            y, yp = operand(["real", "real", "complex", "int", "fraction"])
            op = rng.choice("+-*/")
            # an int or Fraction on the left goes through GaussRat.__r*__
            if not isinstance(y, GaussRat) and rng.random() < 0.5:
                a, ap, b, bp = y, yp, x, xp
            else:
                a, ap, b, bp = x, xp, y, yp
            if op == "/" and bp == (0, 0):
                continue
            z, zp = ops[op](a, b), _pair_op(op, ap, bp)
            assert type(z) is GaussRat
            assert type(z.re) is Fraction and type(z.im) is Fraction
            public = GaussRat(zp[0], zp[1])
            assert z == public and hash(z) == hash(public)
            assert z.to_pair() == [str(zp[0]), str(zp[1])]
            real_results += zp[1] == 0
            x, xp = z, zp
    assert real_results > 500


def test_gaussrat_zero_division_message_on_every_path():
    zeros = (ZERO, GaussRat(Fraction(0)), 0, Fraction(0), -ZERO)
    for num in (GaussRat(3), GaussRat(Fraction(-1, 2)), GaussRat(1, 1), ZERO):
        for den in zeros:
            with pytest.raises(ZeroDivisionError) as exc:
                num / den
            assert str(exc.value) == "division by zero Gaussian rational"
    for num in (3, Fraction(1, 2)):
        with pytest.raises(ZeroDivisionError) as exc:
            num / ZERO
        assert str(exc.value) == "division by zero Gaussian rational"


def _pair_str(re, im):
    """str of a GaussRat with Fraction parts re and im, as the
    Fraction-pair GaussRat printed it."""
    if im == 0:
        return str(re)
    ims = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if re == 0:
        return ims
    return f"{re}{'+' if im > 0 else ''}{ims}"


def _assert_is_pair(z, re, im):
    """z is the canonical GaussRat of the Fractions re + im i, and prints,
    serializes and converts as the Fraction-pair GaussRat did, bit for
    bit."""
    assert type(z) is GaussRat
    assert all(type(t) is int for t in (z.u, z.v, z.d))
    assert z.d >= 1 and gcd(z.u, z.v, z.d) == 1
    assert (z.re, z.im) == (re, im)
    assert str(z) == _pair_str(re, im)
    assert z.to_pair() == [str(re), str(im)]
    assert repr(z) == f"GaussRat({re!r}, {im!r})"
    c, ref = complex(z), complex(float(re), float(im))
    assert (c.real.hex(), c.imag.hex()) == (ref.real.hex(), ref.imag.hex())
    if im == 0:
        assert hash(z) == hash(re)


# parts with zero, small, negative and 60-digit numerators, and small and
# 30-digit denominators
_NUMERATOR = st.one_of(st.just(0), st.integers(-9, 9),
                       st.integers(-10**60, 10**60))
_PART = st.builds(Fraction, _NUMERATOR,
                  st.one_of(st.integers(1, 9), st.integers(1, 10**30)))
_PAIR = st.one_of(st.tuples(_PART, _PART), st.tuples(_PART, st.just(Fraction(0))))


@settings(max_examples=400, deadline=None)
@given(x=_PAIR, y=_PAIR, kind=st.sampled_from(["gauss", "int", "fraction"]),
       swap=st.booleans())
def test_gaussrat_matches_the_fraction_pair_arithmetic(x, y, kind, swap):
    """The operators, conjugate, norm, ==, bool and the printed forms
    against the Fraction-pair arithmetic (_pair_op) GaussRat ran before
    it held (u, v, d), with an int or a Fraction as the second operand
    on either side."""
    gx = GaussRat(*x)
    _assert_is_pair(gx, *x)
    if kind == "gauss":
        gy = GaussRat(*y)
    else:
        gy = y[0].numerator if kind == "int" else y[0]
        y = (Fraction(gy), Fraction(0))
    a, ap, b, bp = (gy, y, gx, x) if swap else (gx, x, gy, y)
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}
    for op, fn in ops.items():
        if op == "/" and bp == (0, 0):
            with pytest.raises(ZeroDivisionError):
                fn(a, b)
        else:
            _assert_is_pair(fn(a, b), *_pair_op(op, ap, bp))
    _assert_is_pair(-gx, -x[0], -x[1])
    _assert_is_pair(gx.conjugate(), x[0], -x[1])
    assert gx.norm() == x[0] * x[0] + x[1] * x[1]
    assert type(gx.norm()) is Fraction
    assert (gx == gy) is (gy == gx) is (x == y)
    assert bool(gx) is (x != (0, 0)) is (not gx.is_zero())


_DENOMINATOR = st.one_of(st.integers(1, 9), st.integers(1, 10**60))


@settings(max_examples=400, deadline=None)
@given(p=_NUMERATOR, q=_DENOMINATOR, r=_NUMERATOR, s=_DENOMINATOR)
def test_gauss_floats_are_the_int_quotients(p, q, r, s):
    """complex(_gauss(p, q, r, s)) is complex(p / q, r / s) bit for bit
    for q, s >= 1, as the search's snaps have them: its float gate reads
    the snapped unknowns this way."""
    c, ref = complex(_gauss(p, q, r, s)), complex(p / q, r / s)
    assert (c.real.hex(), c.imag.hex()) == (ref.real.hex(), ref.imag.hex())


def test_gaussrat_hashes_as_the_number_it_equals():
    """A real GaussRat equals and hashes as its int or Fraction, so sets
    and dicts find it by either; a non-real one equals no real key."""
    assert hash(GaussRat(1)) == hash(1)
    assert hash(HALF) == hash(Fraction(1, 2))
    assert hash(GaussRat(Fraction(-7, 3))) == hash(Fraction(-7, 3))
    assert 1 in {GaussRat(1)} and GaussRat(1) in {1}
    assert Fraction(1, 2) in {HALF} and HALF in {Fraction(1, 2)}
    assert {1: "one", Fraction(-7, 3): "q"}[GaussRat(1)] == "one"
    table = {GaussRat(0): "zero", HALF: "half", I: "i"}
    assert table[0] == "zero" and table[Fraction(2, 4)] == "half"
    assert table[GaussRat("0", "1")] == "i"
    assert len({0, ZERO, Fraction(0), GaussRat("−0/5")}) == 1
    assert GaussRat(1, 1) not in {1, Fraction(1), 2}


def test_gaussrat_representation_and_parse_edge_cases():
    assert (ZERO.u, ZERO.v, ZERO.d) == (0, 0, 1)
    z = GaussRat(Fraction(-6, 4), Fraction(2, 3))
    assert (z.u, z.v, z.d) == (-9, 4, 6)
    for name in ("u", "v", "d"):
        with pytest.raises(AttributeError):
            setattr(ONE, name, 2)
    _assert_is_pair(GaussRat("−3"), Fraction(-3), Fraction(0))
    _assert_is_pair(GaussRat("+2/4", " −1/2 "), HALF.re, Fraction(-1, 2))
    _assert_is_pair(GaussRat(" 5 "), Fraction(5), Fraction(0))
    _assert_is_pair(GaussRat(True, False), Fraction(1), Fraction(0))
    _assert_is_pair(GaussRat(0, True), Fraction(0), Fraction(1))
    with pytest.raises(ZeroDivisionError):
        GaussRat("1/0")
    with pytest.raises(ZeroDivisionError):
        GaussRat(0, "0/0")
    digits = "7" * 5000
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        for re, im in ((digits, 0), (0, "1/" + digits)):
            with pytest.raises(ValueError):
                GaussRat(re, im)
    else:
        assert GaussRat(digits).u == int(digits)
    with pytest.raises(TypeError):
        GaussRat(1.5)
    for bad in ("1.5", "2/-3", "1/2/3", "", "+", "- 1"):
        with pytest.raises(ValueError):
            GaussRat(bad)


def test_matrix_product_and_identity():
    a = ExactMatrix.from_rows([[GaussRat(1), I], [ZERO, GaussRat(2)]])
    e = ExactMatrix.identity(2)
    assert a @ e == a
    assert e @ a == a
    b = a @ a
    assert b[0, 0] == GaussRat(1)
    assert b[0, 1] == I * GaussRat(3)
    assert b[1, 1] == GaussRat(4)


def test_rref_rank_nullspace_hermitian_example():
    # [[1, i], [-i, 1]] has rank 1; nullspace spanned by (-i, 1).
    m = ExactMatrix.from_rows([[ONE, I], [-I, ONE]])
    red, pivots = m.rref()
    assert pivots == [0]
    assert red.row(0) == (ONE, I)
    assert red.row(1) == (ZERO, ZERO)
    assert m.rank() == 1
    ns = m.nullspace()
    assert len(ns) == 1
    v = ns[0]
    assert v == [-I, ONE]
    # exact check that m v = 0
    assert all(x.is_zero() for x in m.mul_vec(v))


def test_det_small_cases():
    m = ExactMatrix.from_rows([[GaussRat(2)]])
    assert m.det() == GaussRat(2)
    m = ExactMatrix.from_rows([[ONE, I], [-I, ONE]])
    assert m.det() == ZERO
    m = ExactMatrix.from_rows(
        [[GaussRat(1), GaussRat(2)], [GaussRat(3), GaussRat(4)]]
    )
    assert m.det() == GaussRat(-2)
    # det with a forced row swap
    m = ExactMatrix.from_rows(
        [[ZERO, ONE, ZERO], [ONE, ZERO, ZERO], [ZERO, ZERO, ONE]]
    )
    assert m.det() == GaussRat(-1)


def test_det_agrees_with_cofactor_on_random_matrices():
    rng = random.Random(20240517)
    for _ in range(60):
        n = rng.randint(1, 4)
        ents = [
            GaussRat(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
            for _ in range(n * n)
        ]
        m = ExactMatrix(n, n, ents)
        assert m.det() == m.det_cofactor()


def test_rank_plus_nullity_on_random_matrices():
    rng = random.Random(991)
    for _ in range(40):
        r = rng.randint(1, 4)
        c = rng.randint(1, 5)
        ents = [
            GaussRat(rng.randint(-2, 2), rng.randint(-1, 1))
            for _ in range(r * c)
        ]
        m = ExactMatrix(r, c, ents)
        rank, basis = m.rank_nullspace()
        assert rank + len(basis) == c
        for v in basis:
            assert all(x.is_zero() for x in m.mul_vec(v))


def test_solve_and_inverse():
    m = ExactMatrix.from_rows(
        [[GaussRat(1), I], [GaussRat(2), GaussRat(0, -1)]]
    )
    assert m.det() == GaussRat(0, -3)
    inv = m.inverse()
    assert m @ inv == ExactMatrix.identity(2)
    assert inv @ m == ExactMatrix.identity(2)
    rhs = ExactMatrix.from_rows([[ONE], [ZERO]])
    x = m.solve(rhs)
    assert m @ x == rhs


def test_solve_rejects_singular():
    m = ExactMatrix.from_rows([[ONE, I], [-I, ONE]])
    with pytest.raises(ValueError):
        m.inverse()


def test_matrix_trace_and_transpose():
    m = ExactMatrix.from_rows([[ONE, I], [GaussRat(3), GaussRat(4)]])
    assert m.trace() == GaussRat(5)
    assert m.transpose().row(0) == (ONE, GaussRat(3))


def test_multipoly_construction_and_arithmetic():
    x = MultiPoly.variable(3, 0)
    y = MultiPoly.variable(3, 1)
    z = MultiPoly.variable(3, 2)
    p = (x + y) * (x - y)
    q = x * x - y * y
    assert p == q
    assert (x * y * z).total_degree() == 3
    assert (p - q).is_zero()
    assert MultiPoly.zero(3).total_degree() == -1


def test_multipoly_scalar_multiply():
    x = MultiPoly.variable(2, 0)
    assert (x * GaussRat(2)).evaluate([GaussRat(3), ZERO]) == GaussRat(6)
    assert (2 * x) == (x * GaussRat(2))


def test_multipoly_evaluation_commutes_with_arithmetic():
    rng = random.Random(7171)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    for _ in range(30):
        c1 = GaussRat(rng.randint(-3, 3), rng.randint(-3, 3))
        c2 = GaussRat(rng.randint(-3, 3), rng.randint(-3, 3))
        p = x * x * c1 + x * y * c2 + MultiPoly.constant(2, 1)
        q = y * c2 - x * c1
        pt = [
            GaussRat(rng.randint(-5, 5), rng.randint(-5, 5)),
            GaussRat(Fraction(rng.randint(-5, 5), 2), rng.randint(-2, 2)),
        ]
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


def test_multipoly_degree_cap_enforced():
    x = MultiPoly.variable(1, 0)
    p = x
    for _ in range(7):
        p = p * x
    # p = x^8 sits at the cap; one more multiplication must fail
    assert p.total_degree() == 8
    with pytest.raises(ValueError):
        p * x


def test_poly_det_matches_scalar_det_at_points():
    rng = random.Random(5555)
    n = 3
    nvars = 3
    for _ in range(10):
        rows = []
        consts = []
        for i in range(n):
            prow = []
            crow = []
            for j in range(n):
                c = GaussRat(rng.randint(-2, 2), rng.randint(-2, 2))
                v = rng.randrange(nvars)
                prow.append(MultiPoly.variable(nvars, v) * c)
                crow.append((v, c))
            rows.append(prow)
            consts.append(crow)
        p = poly_det(rows)
        pt = [GaussRat(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(nvars)]
        scalar = ExactMatrix.from_rows(
            [[c * pt[v] for v, c in crow] for crow in consts]
        )
        assert p.evaluate(pt) == scalar.det()


def test_poly_det_diagonal_product():
    # diag(p0, p1, p2) has determinant p0*p1*p2
    z = MultiPoly.zero(3)
    rows = [
        [MultiPoly.variable(3, 0), z, z],
        [z, MultiPoly.variable(3, 1), z],
        [z, z, MultiPoly.variable(3, 2)],
    ]
    d = poly_det(rows)
    expect = (
        MultiPoly.variable(3, 0)
        * MultiPoly.variable(3, 1)
        * MultiPoly.variable(3, 2)
    )
    assert d == expect



def _value_objects():
    """One instance of each immutable value class, with one of its fields."""
    from flataff.affine import AffElement, AffMap
    from flataff.connections import zero_connection
    from flataff.liealg import LieAlgebra, builtin
    from flataff.obstructions import LinearRep

    g = builtin("heis3")
    x = AffElement(ExactMatrix.zeros(1, 1), [ONE])
    return {
        "GaussRat": (GaussRat(1, 2), "re"),
        "ExactMatrix": (ExactMatrix.identity(2), "entries"),
        "MultiPoly": (MultiPoly.variable(2, 0), "terms"),
        "AffElement": (x, "v"),
        "AffMap": (AffMap(LieAlgebra(1, [[[0]]]), [x]), "images"),
        "LinearRep": (LinearRep.adjoint(g), "rho"),
        "LieAlgebra": (g, "c"),
        "InvariantConnection": (zero_connection(g), "gamma"),
    }


@pytest.mark.parametrize("name", list(_value_objects()) + ["DecisionReport"])
def test_value_classes_copy_and_pickle(name):
    """copy.copy, copy.deepcopy and a pickle round trip give an equal
    value that still refuses assignment."""
    if name == "DecisionReport":
        from flataff.liealg import builtin
        from flataff.obstructions import decide_existence

        obj, field = decide_existence(builtin("heis3")), "verdict"
        assert obj.verdict == "YES"
    else:
        obj, field = _value_objects()[name]
    data = pickle.dumps(obj)
    for back in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(data)):
        assert type(back) is type(obj)
        assert pickle.dumps(back) == data
        if name in ("GaussRat", "ExactMatrix", "MultiPoly", "AffElement",
                    "AffMap", "LieAlgebra", "InvariantConnection",
                    "DecisionReport"):  # the classes with value ==
            assert back == obj
        if name in ("GaussRat", "ExactMatrix", "MultiPoly", "AffElement",
                    "AffMap", "LieAlgebra"):
            assert hash(back) == hash(obj)
        with pytest.raises(AttributeError):
            setattr(back, field, None)


@pytest.mark.parametrize("name", list(_value_objects()))
def test_value_classes_refuse_assignment(name):
    """Assigning a field or a new attribute raises, with one message."""
    obj, field = _value_objects()[name]
    assert type(obj).__name__ == name
    for attr in (field, "not_a_field"):
        with pytest.raises(AttributeError) as exc:
            setattr(obj, attr, None)
        assert str(exc.value) == f"{name} is immutable"
