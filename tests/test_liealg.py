"""Tests for Lie algebra construction and structural analysis."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from flataff import liealg
from flataff.exact import GaussRat, ExactMatrix, ZERO, ONE, as_gauss
from flataff.liealg import (
    LieAlgebra,
    JacobiViolation,
    InconsistentEntry,
    from_structure_constants,
    builtin,
    BUILTIN_NAMES,
)
from flataff.connections import standard_connection
from flataff.cli import analyze, emit
from known_algebras import gl2, gl_z, sl3


def test_catalog_names():
    assert BUILTIN_NAMES == ("abelian3", "heis3", "sl2", "sol3")
    for name in BUILTIN_NAMES:
        g = builtin(name)
        assert g.n == 3
    with pytest.raises(ValueError):
        builtin("so3")


def test_heis_brackets():
    g = builtin("heis3")
    assert g.bracket([1, 0, 0], [0, 1, 0]) == [ZERO, ZERO, ONE]
    assert g.bracket([0, 1, 0], [1, 0, 0]) == [ZERO, ZERO, -ONE]
    assert g.bracket([1, 0, 0], [0, 0, 1]) == [ZERO, ZERO, ZERO]
    assert g.c[0][1][2] == ONE
    assert g.c[1][0][2] == -ONE


def test_sol_brackets():
    g = builtin("sol3")
    assert g.bracket([1, 0, 0], [0, 1, 0]) == [ZERO, ONE, ZERO]
    assert g.bracket([1, 0, 0], [0, 0, 1]) == [ZERO, ZERO, -ONE]
    assert g.bracket([0, 1, 0], [0, 0, 1]) == [ZERO, ZERO, ZERO]


def test_sl2_brackets():
    g = builtin("sl2")
    assert g.names == ("h", "e", "f")
    h, e, f = [1, 0, 0], [0, 1, 0], [0, 0, 1]
    assert g.bracket(h, e) == [ZERO, GaussRat(2), ZERO]
    assert g.bracket(h, f) == [ZERO, ZERO, GaussRat(-2)]
    assert g.bracket(e, f) == [ONE, ZERO, ZERO]


def test_jacobi_violation_reported_with_indices():
    # [e1,e2]=e1, [e2,e3]=e2, [e3,e1]=e3 breaks Jacobi on (e1,e2,e3)
    with pytest.raises(JacobiViolation) as exc:
        from_structure_constants(
            3,
            brackets={
                (0, 1): [1, 0, 0],
                (1, 2): [0, 1, 0],
                (2, 0): [0, 0, 1],
            },
        )
    assert exc.value.indices[:3] == (0, 1, 2)


def test_inconsistent_entries_rejected():
    with pytest.raises(InconsistentEntry):
        from_structure_constants(
            2, brackets={(0, 1): [1, 0], (1, 0): [1, 0]}
        )
    with pytest.raises(InconsistentEntry):
        from_structure_constants(2, brackets={(0, 0): [1, 0]})
    # consistent duplicate is fine
    g = from_structure_constants(
        2, brackets={(0, 1): [0, 1], (1, 0): [0, -1]}
    )
    assert g.c[0][1][1] == ONE


def test_dict_fills_unlisted_mirrors():
    # (1, 0) is not listed, so it is minus (0, 1): aff1, [e1, e2] = e2
    g = LieAlgebra(2, {(0, 1): [0, 1]})
    assert g.c[1][0] == (ZERO, -ONE)
    assert g == from_structure_constants(2, brackets={(0, 1): [0, 1]})
    # one object per distinct constant, mirrored negatives too, and one
    # shared zero row
    s = builtin("sl2")  # [h, e] = 2e, [h, f] = -2f, [e, f] = h
    assert s.c[0][1][1] is s.c[2][0][2] and s.c[1][0][1] is s.c[0][2][2]
    assert s.c[0][0] is s.c[1][1] is s.c[2][2]


def test_from_structure_constants_coerces_each_coefficient_once(monkeypatch):
    calls = []

    def counting(x):
        calls.append(x)
        return as_gauss(x)

    monkeypatch.setattr(liealg, "as_gauss", counting)
    # sl2, with (e, f) listed in both orders
    brackets = {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0],
                (2, 1): [-1, 0, 0]}
    g = from_structure_constants(3, brackets=brackets)
    assert len(calls) == 12
    assert g.same_constants(builtin("sl2"))


def test_antisymmetry_validation_on_raw_constants():
    c = [[[GaussRat(0)] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][0] = GaussRat(1)
    # missing the mirrored entry
    with pytest.raises(InconsistentEntry):
        LieAlgebra(2, c)


def test_wrong_shaped_constants_are_refused():
    # each would be cut to aff1, [e1, e2] = e2, without the shape check
    with pytest.raises(ValueError, match=r"c\[0\]\[1\] has 3 entries, not 2"):
        LieAlgebra(2, {(0, 1): [0, 1, 7], (1, 0): [0, -1, -7]})
    aff1 = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]
    with pytest.raises(ValueError, match="must be 2 x 2 x 2"):
        LieAlgebra(2, aff1 + [[[0, 0], [0, 0]]])
    with pytest.raises(ValueError, match="must be 2 x 2 x 2"):
        LieAlgebra(2, [aff1[0] + [[0, 0]], aff1[1]])
    with pytest.raises(ValueError, match=r"c\[0\]\[1\] has 3 entries, not 2"):
        LieAlgebra(2, [[[0, 0], [0, 1, 7]], [[0, -1], [0, 0]]])
    with pytest.raises(ValueError, match=r"c\[1\]\[0\] has 1 entries, not 2"):
        LieAlgebra(2, [[[0, 0], [0, 1]], [[0], [0, 0]]])
    assert LieAlgebra(2, aff1).same_constants(
        from_structure_constants(2, brackets={(0, 1): [0, 1]}))


def test_ad_matrices():
    g = builtin("heis3")
    a0 = g.ad_matrix(0)
    # ad(e1) sends e2 to e3 and kills e1, e3
    assert a0[2, 1] == ONE
    assert sum(1 for e in a0.entries if not e.is_zero()) == 1
    assert builtin("abelian3").ad_matrix(1).is_zero()
    s = builtin("sl2")
    ah = s.ad_matrix(0)
    assert ah == ExactMatrix.from_rows(
        [[0, 0, 0], [0, 2, 0], [0, 0, -2]]
    )
    with pytest.raises(IndexError):
        g.ad_matrix(3)


def test_ad_of_vector_is_linear():
    g = builtin("sol3")
    x = [GaussRat(2), GaussRat(0, 1), GaussRat(-1)]
    m = g.ad(x)
    for j, basis in enumerate(([1, 0, 0], [0, 1, 0], [0, 0, 1])):
        assert list(m.col(j)) == g.bracket(x, basis)


def test_killing_form_sl2():
    k = builtin("sl2").killing_form()
    expect = ExactMatrix.from_rows(
        [[8, 0, 0], [0, 0, 4], [0, 4, 0]]
    )
    assert k == expect
    assert k.rank() == 3


def test_killing_form_degenerate_cases():
    assert builtin("heis3").killing_form().is_zero()
    assert builtin("abelian3").killing_form().is_zero()
    # sol3: K(e1,e1) = tr(ad e1 ad e1) = 1 + 1 = 2, everything else 0
    k = builtin("sol3").killing_form()
    assert k[0, 0] == GaussRat(2)
    assert k.rank() == 1


def test_killing_form_symmetric_on_catalog_and_extensions():
    rng = random.Random(31337)
    for name in BUILTIN_NAMES:
        g = builtin(name)
        k = g.killing_form()
        assert k == k.transpose()
        # pad with abelian directions; Killing form stays symmetric
        extra = rng.randint(1, 2)
        n = g.n + extra
        c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i in range(g.n):
            for j in range(g.n):
                for kk in range(g.n):
                    c[i][j][kk] = g.c[i][j][kk]
        ext = LieAlgebra(n, c)
        ke = ext.killing_form()
        assert ke == ke.transpose()
        assert ke.rank() == k.rank()


def test_profiles_match_known_classification():
    p = builtin("abelian3").structural_profile()
    assert p.abelian and p.nilpotent and p.solvable and p.unimodular
    assert not p.semisimple
    assert p.killing_rank == 0
    assert p.derived_series_dims == [3, 0]

    p = builtin("heis3").structural_profile()
    assert not p.abelian
    assert p.nilpotent and p.solvable and p.unimodular
    assert p.killing_rank == 0
    assert p.derived_series_dims == [3, 1, 0]
    assert p.lower_central_dims == [3, 1, 0]

    p = builtin("sol3").structural_profile()
    assert p.solvable and p.unimodular
    assert not p.nilpotent and not p.semisimple
    assert p.killing_rank == 1
    assert p.derived_series_dims == [3, 2, 0]
    assert p.lower_central_dims == [3, 2]

    p = builtin("sl2").structural_profile()
    assert p.semisimple and p.unimodular
    assert not p.solvable and not p.nilpotent and not p.abelian
    assert p.killing_rank == 3
    assert p.derived_series_dims == [3]


def test_profile_implications_on_catalog():
    for name in BUILTIN_NAMES:
        p = builtin(name).structural_profile()
        if p.abelian:
            assert p.nilpotent
        if p.nilpotent:
            assert p.solvable
        if p.semisimple:
            assert p.unimodular
            assert not p.solvable
        dims = p.derived_series_dims
        assert all(a > b for a, b in zip(dims, dims[1:]))


def test_sol3_unimodular_by_traces():
    g = builtin("sol3")
    # trace ad(e1) = 1 + (-1) = 0
    assert g.ad_matrix(0).trace() == ZERO
    assert g.is_unimodular()


# sha256 of repr((c, nonzero)) and of the json analyze report of sl3,
# recorded while each row of c was a tuple of its own
_SL3_SHA256 = (
    "8a801895c5eb6796261e304f07fa4c7cc4fb8e06692f30890d45415bebe334eb",
    "ae10e1c9c7caa4ae0f3f93b9ea9770ce9acda4d8eed9ed6c7e6f77ae63b3ac2a",
)


def test_zero_rows_of_c_are_one_tuple():
    g = sl3()
    zero_rows = [row for plane in g.c for row in plane if not any(row)]
    assert len(zero_rows) == 22
    assert all(row is zero_rows[0] for row in zero_rows)
    assert not any(row is zero_rows[0] for plane in g.c for row in plane
                   if any(row))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (
        repr((g.c, g.nonzero)), emit(analyze(g, name="sl3"), "json")))
    assert digests == _SL3_SHA256


def test_immutability():
    g = builtin("heis3")
    with pytest.raises(AttributeError):
        g.n = 4


def test_bracket_bilinearity_random():
    rng = random.Random(404)
    for name in BUILTIN_NAMES:
        g = builtin(name)
        for _ in range(10):
            x = [GaussRat(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
            y = [GaussRat(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
            z = [GaussRat(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
            a = GaussRat(rng.randint(-2, 2), rng.randint(-2, 2))
            lhs = g.bracket([a * xi + yi for xi, yi in zip(x, y)], z)
            rhs = [
                a * u + v
                for u, v in zip(g.bracket(x, z), g.bracket(y, z))
            ]
            assert lhs == rhs
            # antisymmetry on vectors
            assert g.bracket(x, y) == [-t for t in g.bracket(y, x)]


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_in_basis_and_back_keeps_the_constants(data):
    """g.in_basis(P).in_basis(P^-1) has the constants of g, in dimensions
    0 to 4, and the connection c/2 moved there and back is c/2."""
    for g in (from_structure_constants(0), from_structure_constants(1),
              builtin("heis3"), builtin("sl2"), gl2()):
        P = data.draw(gl_z(g.n))
        Q = ExactMatrix.from_rows(P).inverse()
        assert g.in_basis(P).in_basis(Q).same_constants(g)
        conn = standard_connection(g)
        assert conn.in_basis(P).in_basis(Q) == conn


def test_in_basis_refuses_a_singular_or_wrongly_sized_matrix():
    g = builtin("heis3")
    for P in ([[1, 2, 0], [2, 4, 0], [0, 0, 1]], [[1, 0], [0, 1]],
              [[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1], [0, 0, 1]]):
        for x in (g, standard_connection(g)):
            with pytest.raises(ValueError):
                x.in_basis(P)
    for n, P in ((0, [[1]]), (1, []), (1, [[0]]), (1, [[1, 0], [0, 1]])):
        with pytest.raises(ValueError):
            from_structure_constants(n).in_basis(P)


def test_the_profile_eliminates_the_derived_algebra_once(monkeypatch):
    """structural_profile starts both series from the rref of [g, g] that g
    keeps: one elimination of [g, g] per algebra, none on a second
    profile, and the series of an algebra built afresh."""
    calls = []
    space = LieAlgebra._bracket_space

    def counted(self, basis_a=None, basis_b=None):
        if basis_a is None:
            calls.append(self.n)
        return space(self, basis_a, basis_b)

    monkeypatch.setattr(LieAlgebra, "_bracket_space", counted)
    for g in (*(builtin(name) for name in BUILTIN_NAMES), gl2(), sl3()):
        calls.clear()
        profile = g.structural_profile()
        assert calls == [g.n]
        assert g.structural_profile() == profile and calls == [g.n]
        fresh = LieAlgebra(g.n, g.c)
        assert profile.derived_series_dims == fresh.derived_series_dims()
        assert profile.lower_central_dims == fresh.lower_central_dims()
        assert g._derived == fresh._bracket_space()
