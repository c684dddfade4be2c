"""Tests for the flatness system and the numeric-to-exact search."""

import random
from fractions import Fraction

import numpy as np
import pytest

from flataff import search
from flataff.exact import GaussRat
from flataff.liealg import builtin, from_structure_constants
from flataff.connections import curvature, is_flat, is_torsion_free
from flataff.search import (
    FlatnessSystem,
    SearchConfig,
    Candidate,
    assemble,
    newton_multistart,
    rationalize_and_verify,
    run_search,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(starts=0)
    with pytest.raises(ValueError):
        SearchConfig(residual_tol=-1e-10)
    with pytest.raises(ValueError):
        SearchConfig(seed=-3)
    cfg = SearchConfig()
    assert cfg.starts == 200
    assert cfg.rationalize_denominator_bound == 10**4


def test_system_counts_n3():
    sys = assemble(builtin("heis3"))
    assert sys.unknown_count == 18
    assert sys.residual_count == 27


def test_residual_zero_cases():
    sys = assemble(builtin("abelian3"))
    r = sys.residual(np.zeros(18, dtype=complex))
    assert float(np.linalg.norm(r)) == 0.0

    # s making Gamma[0][1][2] = 1, Gamma[1][0][2] = 0 on heis3
    sys = assemble(builtin("heis3"))
    s = np.zeros(18, dtype=complex)
    pair_01 = sys.pair_index[(0, 1)]
    s[pair_01 * 3 + 2] = 0.5
    assert float(np.linalg.norm(sys.residual(s))) < 1e-15


def test_residual_matches_exact_curvature():
    rng = random.Random(606)
    checked = 0
    for name in ("abelian3", "heis3", "sol3", "sl2"):
        g = builtin(name)
        sys = assemble(g)
        for _ in range(25):
            s_exact = [
                GaussRat(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                )
                for _ in range(sys.unknown_count)
            ]
            conn = sys.connection_from_rational_s(s_exact)
            r_exact = curvature(conn)
            s_float = np.array([complex(v) for v in s_exact])
            r_float = sys.residual(s_float)
            for t, (l, k, i, j) in enumerate(sys.residual_components):
                want = complex(r_exact[l][k][i][j])
                got = r_float[t]
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
            checked += 1
    assert checked == 100


def test_connection_from_rational_s_is_torsion_free():
    rng = random.Random(17)
    for name in ("heis3", "sol3", "sl2"):
        sys = assemble(builtin(name))
        s = [
            GaussRat(rng.randint(-2, 2), rng.randint(-2, 2))
            for _ in range(sys.unknown_count)
        ]
        assert is_torsion_free(sys.connection_from_rational_s(s))


def test_jacobian_matches_finite_difference():
    sys = assemble(builtin("sol3"))
    rng = np.random.default_rng(7)
    s = rng.uniform(-1, 1, 18) + 1j * rng.uniform(-1, 1, 18)
    J = sys.jacobian(s)
    h = 1e-7
    for col in (0, 5, 11, 17):
        d = np.zeros(18, dtype=complex)
        d[col] = h
        fd = (sys.residual(s + d) - sys.residual(s - d)) / (2 * h)
        assert np.max(np.abs(fd - J[:, col])) < 1e-6


def test_multistart_finds_heis_and_misses_sl2():
    cfg = SearchConfig(starts=10, seed=1)
    cands = newton_multistart(assemble(builtin("heis3")), cfg)
    assert len(cands) >= 1
    assert cands[0].start_index == 0  # the standard connection is flat
    assert cands[0].residual_norm < cfg.residual_tol
    assert cands == sorted(cands, key=lambda c: c.start_index)

    assert newton_multistart(assemble(builtin("sl2")), cfg) == []


def test_multistart_abelian_zero_start():
    cfg = SearchConfig(starts=1, seed=1)
    cands = newton_multistart(assemble(builtin("abelian3")), cfg)
    assert len(cands) == 1
    assert cands[0].residual_norm == 0.0


def test_multistart_deterministic():
    cfg = SearchConfig(starts=8, seed=5)
    sys = assemble(builtin("sol3"))
    assert newton_multistart(sys, cfg) == newton_multistart(sys, cfg)


def test_rationalize_snaps_thirds():
    sys = assemble(builtin("abelian3"))
    vals = [0j] * sys.unknown_count
    vals[0] = 0.3333333341 + 0j  # pair (0,0), k = 0
    cand = Candidate(start_index=0, s=tuple(vals), residual_norm=1e-11,
                     iterations=1)
    conn = rationalize_and_verify(cand, sys)
    assert conn is not None
    assert conn.gamma[0][0][0] == GaussRat(Fraction(1, 3))
    assert is_flat(conn) and is_torsion_free(conn)


def test_rationalize_rejects_unverifiable():
    # on sl2 no flat torsion-free connection exists, so even a clean
    # snap (s = 0, the standard connection) must be refused
    sys = assemble(builtin("sl2"))
    cand = Candidate(
        start_index=0,
        s=tuple([0j] * sys.unknown_count),
        residual_norm=0.5,
        iterations=1,
    )
    assert rationalize_and_verify(cand, sys) is None


def test_rationalize_rejects_far_from_rationals():
    sys = assemble(builtin("abelian3"))
    vals = [0j] * sys.unknown_count
    vals[0] = 0.3334 + 0j  # 6e-5 away from 1/3, beyond the 1e-6 gate
    cand = Candidate(start_index=0, s=tuple(vals), residual_norm=1e-11,
                     iterations=1)
    conn = rationalize_and_verify(cand, sys)
    # the only snaps within tolerance have denominator around 10^4 and
    # those do not solve the system exactly unless they hit the variety
    if conn is not None:
        assert is_flat(conn) and is_torsion_free(conn)


def test_run_search_heis3():
    out = run_search(builtin("heis3"), SearchConfig(starts=5, seed=1))
    assert out.found
    assert out.certificate_start == 0
    conn = out.certificate
    assert is_flat(conn) and is_torsion_free(conn)
    # certificate entries are exact Gaussian rationals
    assert isinstance(conn.gamma[0][1][2], GaussRat)


def test_run_search_non_catalog_solvable():
    # [e1,e2] = e2 + e3, [e1,e3] = -e3: solvable, not in the catalog
    g = from_structure_constants(
        3, brackets={(0, 1): [0, 1, 1], (0, 2): [0, 0, -1]}
    )
    assert g.is_solvable() and not g.is_nilpotent()
    out = run_search(g, SearchConfig(starts=20, seed=1))
    assert out.found
    assert is_flat(out.certificate)
    assert is_torsion_free(out.certificate)


def test_run_search_sl2_finds_nothing():
    out = run_search(builtin("sl2"), SearchConfig(starts=10, seed=1))
    assert not out.found
    assert out.certificate is None
    assert out.candidates == ()


def test_config_rejects_non_integer_counts():
    for field in ("starts", "max_iters", "seed",
                  "rationalize_denominator_bound"):
        for bad in (1.5, 10.5, True, "3"):
            with pytest.raises(ValueError, match=field):
                SearchConfig(**{field: bad})
    for field in ("residual_tol", "damping_init", "damping_increase",
                  "damping_decrease", "rationalize_tol"):
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: float("nan")})


def _reference_jacobian(sys, s):
    """The per-column einsum Jacobian: direction d gives
    B(d, Gamma) + B(Gamma, d) - L(d)."""
    n = sys.n
    gm = sys.gamma_from_s(s)
    cols = []
    for i0, j0 in sys.pairs:
        for k0 in range(n):
            d = np.zeros((n, n, n), dtype=complex)
            d[i0, j0, k0] = 1.0
            if i0 != j0:
                d[j0, i0, k0] = 1.0
            dr = (
                np.einsum("jkm,iml->lkij", d, gm)
                + np.einsum("jkm,iml->lkij", gm, d)
                - np.einsum("ikm,jml->lkij", d, gm)
                - np.einsum("ikm,jml->lkij", gm, d)
                - np.einsum("ijm,mkl->lkij", sys.c_float, d)
            )
            cols.append(
                [dr[l, k, i, j] for (l, k, i, j) in sys.residual_components]
            )
    return np.array(cols, dtype=complex).T


def _gl2():
    # basis E11, E12, E21, E22
    return from_structure_constants(4, brackets={
        (0, 1): [0, 1, 0, 0], (0, 2): [0, 0, -1, 0], (1, 2): [1, 0, 0, -1],
        (1, 3): [0, 1, 0, 0], (2, 3): [0, 0, -1, 0],
    })


def test_jacobian_matches_reference_and_is_affine():
    rng = np.random.default_rng(11)
    algebras = [builtin(name) for name in ("abelian3", "heis3", "sol3", "sl2")]
    for g in algebras + [_gl2()]:
        sys = assemble(g)
        m = sys.unknown_count
        points = [rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m)
                  for _ in range(4)]
        for s in points:
            J = sys.jacobian(s)
            assert J.shape == (sys.residual_count, m)
            assert np.max(np.abs(J - _reference_jacobian(sys, s))) < 1e-12
        a, b = points[:2]
        J0 = sys.jacobian(np.zeros(m, dtype=complex))
        affine = sys.jacobian(a) + sys.jacobian(b) - J0
        assert np.max(np.abs(affine - sys.jacobian(a + b))) < 1e-12


def test_float_gate_keeps_flat_snaps():
    # heis3 with e1.e1 = a e2 + b e3 and e1.e2 = e3 is left-symmetric for
    # every a, b: the snap is exactly flat, so the gate must pass it
    g = builtin("heis3")
    sys = assemble(g)
    rng = random.Random(29)
    for _ in range(10):
        s = [GaussRat(0)] * sys.unknown_count
        pair_00, pair_01 = sys.pair_index[(0, 0)], sys.pair_index[(0, 1)]
        for k in (1, 2):
            s[pair_00 * 3 + k] = GaussRat(
                Fraction(rng.randint(-10**7, 10**7), rng.randint(1, 9973)),
                Fraction(rng.randint(-10**7, 10**7), rng.randint(1, 9973)),
            )
        s[pair_01 * 3 + 2] = GaussRat(Fraction(1, 2))
        assert is_flat(sys.connection_from_rational_s(s))
        assert search._snap_may_be_flat(sys, s)


def test_float_gate_rejects_only_curved_snaps(monkeypatch):
    # gl2 converges to irrational points of a solution family, so its
    # snaps are curved; each one the gate drops must fail the exact check
    sys = assemble(_gl2())
    cfg = SearchConfig(starts=8, seed=0)
    gate = search._snap_may_be_flat
    rejected = []

    def recording_gate(sys_, s_exact):
        passed = gate(sys_, s_exact)
        if not passed:
            rejected.append(list(s_exact))
        return passed

    monkeypatch.setattr(search, "_snap_may_be_flat", recording_gate)
    candidates = newton_multistart(sys, cfg)
    assert candidates
    for cand in candidates:
        assert rationalize_and_verify(cand, sys, cfg) is None
    assert len(rejected) >= 4
    for s_exact in rejected[:4]:
        assert not is_flat(sys.connection_from_rational_s(s_exact))


def test_run_search_pins_certificate_starts():
    cfg = SearchConfig(starts=200, seed=1)
    assert run_search(builtin("heis3"), cfg).certificate_start == 0
    assert run_search(builtin("sol3"), cfg).certificate_start == 12
    assert run_search(builtin("sl2"), cfg).candidates == ()


def test_run_search_is_scale_invariant():
    # [e1, e2] = k e2 is aff1 in the basis (e1/k, e2) for every k != 0;
    # the search runs on the unit-scaled constants, so one certificate
    # serves every scale, far outside the float range included
    cfg = SearchConfig(starts=8, seed=0)

    def aff1(k):
        return from_structure_constants(2, brackets={(0, 1): [0, k]})

    base = run_search(aff1(1), cfg)
    assert base.found and base.certificate_start == 3
    exps = list(range(-400, 401, 25)) + [13, 16, 77, 78, 154, 307, 308]
    for e in exps:
        k = Fraction(10) ** e
        out = run_search(aff1(k), cfg)
        assert out.found, e
        assert out.certificate_start == base.certificate_start, e
        for plane, base_plane in zip(out.certificate.gamma,
                                     base.certificate.gamma):
            for row, base_row in zip(plane, base_plane):
                assert list(row) == [k * x for x in base_row], e
    for k in (GaussRat(0, 10**50), GaussRat(Fraction(-3, 7) * 10**30),
              GaussRat(10**20, 10**20)):
        out = run_search(aff1(k), cfg)
        assert out.found, k
        assert is_flat(out.certificate) and is_torsion_free(out.certificate)
