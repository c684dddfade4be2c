"""Tests for the flatness system and the numeric-to-exact search."""

import os
import random
import subprocess
import sys as _sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flataff
from flataff import search
from flataff.exact import GaussRat
from flataff import connections
from flataff.liealg import LieAlgebra, builtin, from_structure_constants
from flataff.affine import etale_from_lsa
from flataff.connections import (InvariantConnection, curvature, is_flat,
                                 is_torsion_free)
from flataff.search import (
    FlatnessSystem,
    SearchConfig,
    Candidate,
    assemble,
    newton_multistart,
    rationalize_and_verify,
    run_search,
)
from known_algebras import gl2


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(starts=0)
    with pytest.raises(ValueError):
        SearchConfig(seed=-3)
    cfg = SearchConfig()
    assert cfg.starts == 200


_COLD_START = """
import os, sys
import flataff, flataff.cli
from flataff import SearchConfig, decide_existence, run_search
from flataff.liealg import BUILTIN_NAMES, builtin
from known_algebras import gl2, sl3
for g in [builtin(name) for name in BUILTIN_NAMES] + [gl2(), sl3()]:
    decide_existence(g)
assert flataff.cli.main(["analyze", "--builtin", "sl2"]) == 0
assert "numpy" not in sys.modules, "numpy loaded before any search"
outcome = run_search(builtin("heis3"), SearchConfig(starts=5, seed=1))
assert outcome.found and "numpy" in sys.modules
# numpy came with one BLAS thread, so the search may fork on every CPU
from flataff.search import _cpu_count
assert _cpu_count() == len(os.sched_getaffinity(0)), "more than one thread"
"""


def test_numpy_loads_at_the_first_search():
    """In a fresh interpreter the exact verdicts and analyze leave numpy
    unloaded, and the first search imports it, still certifies, and
    leaves the process with one thread (no BLAS variable set)."""
    path = [str(Path(flataff.__file__).parents[1]), str(Path(__file__).parent)]
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(path)
    run = subprocess.run([_sys.executable, "-c", _COLD_START], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


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
    # the residual is that of the constants c/lam (lam = 2 for sl2, else
    # 1) at s, the curvature of c/2 + lam s on g divided by lam^2
    rng = random.Random(606)
    checked = 0
    for name in ("abelian3", "heis3", "sol3", "sl2"):
        g = builtin(name)
        sys = assemble(g)
        lam = 2 if name == "sl2" else 1
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
                want = complex(r_exact[l][k][i][j] / (lam * lam))
                got = r_float[t]
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
            checked += 1
    assert checked == 100


def _reference_residual(sys, s):
    """The residual by n^2 separate products G_j G_i: the full
    [i, j, k, l] curvature array, then a gather of the components."""
    n = sys.n
    gm = sys.gamma_from_s(s)
    lead = gm.shape[:-3]
    prod = np.matmul(gm[..., None, :, :, :], gm[..., None, :, :], order="C")
    r = prod - prod.swapaxes(-4, -3)
    lin = sys.c_float.reshape(n * n, n) @ gm.reshape(lead + (n, n * n))
    r -= lin.reshape(lead + (n,) * 4)
    comp = np.array(sys.residual_components, dtype=np.intp).reshape(-1, 4)
    index = np.ravel_multi_index(comp[:, [2, 3, 1, 0]].T, (n,) * 4)
    return r.reshape(lead + (n ** 4,))[..., index]


def _residual_test_algebras(n):
    """Algebras of dimension n with real and with non-real constants:
    e_0 acting on the abelian ideal of the others by a Jordan-like
    matrix, sl2 plus a center, and both times the scale 1/2 - 3i (a
    multiple of a Lie bracket is one)."""
    jordan = {}
    for k in range(1, n):  # [e_0, e_k] = (k - 2)/3 e_k + e_(k+1)
        v = [0] * (n + 1)
        v[k], v[k + 1] = Fraction(k - 2, 3), 1
        jordan[(0, k)] = v[:n]
    bases = [jordan]
    if n >= 3:
        bases.append({(0, 1): [0, 2, 0] + [0] * (n - 3),
                      (0, 2): [0, 0, -2] + [0] * (n - 3),
                      (1, 2): [1, 0, 0] + [0] * (n - 3)})
    t = GaussRat(Fraction(1, 2), -3)
    for brackets in bases:
        yield from_structure_constants(n, brackets=brackets)
        yield from_structure_constants(n, brackets={
            p: [t * x for x in v] for p, v in brackets.items()})


def test_residual_matches_the_pairwise_products_bit_for_bit():
    """The stacked-plane residual equals the n^2-product one in every
    bit, on stacks of 1 to 101 rows and on single vectors (the float
    gate's call), for n = 0 to 6, real and non-real constants, and
    entries from 1e-3 to 1e3."""
    rng = np.random.default_rng(37)
    checked = 0
    for n in range(7):
        for g in _residual_test_algebras(n):
            sys = assemble(g)
            m = sys.unknown_count
            for shape in ((1, m), (7, m), (50, m), (101, m), (m,), (m,)):
                scale = 10.0 ** rng.uniform(-3, 3, shape)
                s = scale * (rng.uniform(-1, 1, shape)
                             + 1j * rng.uniform(-1, 1, shape))
                got = sys.residual(s)
                assert got.shape == shape[:-1] + (sys.residual_count,)
                assert np.array_equal(got, _reference_residual(sys, s))
                checked += 1
    assert checked == 6 * (2 + 2 + 2 + 4 + 4 + 4 + 4)


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
    assert cands[0].residual_norm < search._RESIDUAL_TOL
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
    conn, emb = rationalize_and_verify(cand, sys)
    assert conn.gamma[0][0][0] == GaussRat(Fraction(1, 3))
    assert is_flat(conn) and is_torsion_free(conn)
    assert emb == etale_from_lsa(conn)


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
    found = rationalize_and_verify(cand, sys)
    # the only snaps within tolerance have denominator around 10^4 and
    # those do not solve the system exactly unless they hit the variety
    if found is not None:
        assert is_flat(found[0]) and is_torsion_free(found[0])


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
    for field in ("starts", "max_iters", "seed"):
        for bad in (1.5, 10.5, True, "3"):
            with pytest.raises(ValueError, match=field):
                SearchConfig(**{field: bad})


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


def test_jacobian_matches_reference_and_is_affine():
    rng = np.random.default_rng(11)
    algebras = [builtin(name) for name in ("abelian3", "heis3", "sol3", "sl2")]
    for g in algebras + [gl2()]:
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
    sys = assemble(gl2())
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
        assert rationalize_and_verify(cand, sys) is None
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
    # the search's floats are the unit-scaled constants c/lam, so one
    # certificate serves every scale, far outside the float range included
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


def test_run_search_certificate_is_on_its_input():
    """The certificate is a connection on g itself, at every scale."""
    cfg = SearchConfig(starts=8, seed=0)
    for k in (3, Fraction(1, 7), 10**400):
        g = from_structure_constants(2, brackets={(0, 1): [0, k]})
        assert run_search(g, cfg).certificate.g is g


def test_run_search_checks_the_certificate_it_returns(monkeypatch):
    """run_search builds no second algebra, changes no basis and runs no
    torsion check of its own: the connection that etale_from_lsa passed
    on g is the one it returns, with the embedding that check made, and
    it is torsion-free by construction."""
    thirds = builtin("heis3").in_basis([[1, 1, 0], [0, 1, 1], [1, 0, 2]])
    gauss2 = from_structure_constants(2, brackets={
        (0, 1): [0, GaussRat(Fraction(1, 2), -3)]})
    built, etale_checked = [], []
    init, etale = LieAlgebra.__init__, search.etale_from_lsa

    def forbidden(*args, **kwargs):
        raise AssertionError("called by run_search")

    def recording_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recording_etale(conn):
        etale_checked.append(conn)
        emb = etale(conn)
        etale_checked.append(emb)
        return emb

    monkeypatch.setattr(LieAlgebra, "__init__", recording_init)
    monkeypatch.setattr(LieAlgebra, "in_basis", forbidden)
    monkeypatch.setattr(InvariantConnection, "in_basis", forbidden)
    monkeypatch.setattr(connections, "is_torsion_free", forbidden)
    monkeypatch.setattr(search, "is_torsion_free", forbidden, raising=False)
    monkeypatch.setattr(search, "etale_from_lsa", recording_etale)
    for g, cfg, start in ((thirds, SearchConfig(starts=1), 0),
                          (gauss2, SearchConfig(starts=5), 4)):
        out = run_search(g, cfg)
        assert out.certificate_start == start
        assert out.certificate.g is g
        assert out.certificate is etale_checked[-2]
        assert out.embedding is etale_checked[-1]
        assert is_flat(out.certificate) and is_torsion_free(out.certificate)
    assert built == []


# ------------------------------------------- the LM pool against one start

def _reference_lm_minimize(sys, s0, cfg):
    """Levenberg-Marquardt on the complex normal equations
    (J^H J + lam I) dz = -J^H r, the realified real system in complex
    form. Returns the final point and the iteration count."""
    s = s0.astype(complex)
    lam = search._DAMPING_INIT
    r = sys.residual(s)
    cost = float(np.linalg.norm(r))
    eye = np.eye(sys.unknown_count)
    iterations = 0
    for it in range(cfg.max_iters):
        iterations = it + 1
        if cost < search._RESIDUAL_TOL:
            break
        J = sys.jacobian(s)
        Jh = J.conj().T
        A = Jh @ J
        b = -(Jh @ r)
        stepped = False
        for _ in range(12):
            try:
                dz = np.linalg.solve(A + lam * eye, b)
            except np.linalg.LinAlgError:
                lam *= search._DAMPING_INCREASE
                continue
            trial = s + dz
            r_trial = sys.residual(trial)
            cost_trial = float(np.linalg.norm(r_trial))
            if cost_trial < cost:
                s = trial
                r = r_trial
                cost = cost_trial
                lam = max(lam / search._DAMPING_DECREASE, 1e-14)
                stepped = True
                break
            lam *= search._DAMPING_INCREASE
        if not stepped:
            break
    return s, iterations


def _reference_start(cfg, m, start):
    if start == 0:
        return np.zeros(m, dtype=complex)
    rng = np.random.default_rng([cfg.seed, start])
    return rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m)


def _reference_runs(sys, cfg):
    """start -> (final s, iterations, residual norm), one start at a
    time."""
    out = {}
    for start in range(cfg.starts):
        s0 = _reference_start(cfg, sys.unknown_count, start)
        s, iters = _reference_lm_minimize(sys, s0, cfg)
        out[start] = (s, iters, float(np.linalg.norm(sys.residual(s))))
    return out


def _pool_runs(sys, cfg):
    out = {}

    def finish(start, s, cost, iterations):
        assert start not in out
        out[start] = (s, iterations, cost)

    search._lm_minimize(sys, cfg, finish)
    assert sorted(out) == list(range(cfg.starts))
    return out


def _pool_size(sys):
    return search._POOL_BYTES // (16 * sys.unknown_count ** 2)


def _assert_same_runs(pool, ref):
    for start, (s, iters, cost) in pool.items():
        ref_s, ref_iters, ref_cost = ref[start]
        assert s.tobytes() == ref_s.tobytes(), start
        assert iters == ref_iters, start
        assert cost == ref_cost, start


def test_pool_matches_per_start_reference():
    exits = set()
    for g in [builtin(name) for name in ("heis3", "sol3", "sl2")] + [gl2()]:
        sys = assemble(g)
        pool_size = _pool_size(sys)
        assert pool_size == (101 if g.n == 3 else 20)
        all_starts = (1, pool_size - 1, pool_size, pool_size + 1, 37)
        for max_iters in (1, 3, 100):
            ref = _reference_runs(sys, SearchConfig(
                starts=max(all_starts), seed=1, max_iters=max_iters))
            for starts in all_starts:
                cfg = SearchConfig(starts=starts, seed=1, max_iters=max_iters)
                pool = _pool_runs(sys, cfg)
                _assert_same_runs(pool, ref)
                if starts > pool_size:
                    exits.add("refilled")
                for s, iters, cost in pool.values():
                    if cost < search._RESIDUAL_TOL:
                        exits.add("converged")
                    elif iters == max_iters:
                        exits.add("max_iters")
                    else:
                        exits.add("rejected")
    assert exits == {"converged", "max_iters", "rejected", "refilled"}


def test_pool_in_dimensions_0_and_1():
    # no unknowns (n = 0) or no residual components (n = 1): every start
    # converges at once, as in the per-start loop
    for n in (0, 1):
        sys = assemble(from_structure_constants(n, brackets={}))
        cfg = SearchConfig(starts=3, seed=1)
        _assert_same_runs(_pool_runs(sys, cfg), _reference_runs(sys, cfg))
        assert len(newton_multistart(sys, cfg)) == 3


def test_pool_solves_row_by_row_past_a_singular_matrix(monkeypatch):
    # declare start 3's first damped system singular: the stacked solve
    # raises for the whole round, and only start 3 loses its trial, as
    # the per-start loop's `except LinAlgError` does
    sys = assemble(builtin("sol3"))
    m = sys.unknown_count
    cfg = SearchConfig(starts=_pool_size(sys) + 1, seed=1)
    J = sys.jacobian(_reference_start(cfg, m, 3))
    bad = J.conj().T @ J + search._DAMPING_INIT * np.eye(m)
    solve = np.linalg.solve
    hits = []

    def singular_at_start_3(a, b):
        if any(np.array_equal(x, bad) for x in a.reshape(-1, m, m)):
            hits.append(a.ndim)
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    unpatched = _reference_runs(sys, cfg)
    monkeypatch.setattr(np.linalg, "solve", singular_at_start_3)
    ref = _reference_runs(sys, cfg)
    assert hits == [2]
    pool = _pool_runs(sys, cfg)
    assert hits == [2, 3, 2]
    _assert_same_runs(pool, ref)
    assert ref[3][0].tobytes() != unpatched[3][0].tobytes()
    for start in set(ref) - {3}:
        assert ref[start][0].tobytes() == unpatched[start][0].tobytes()


def test_candidate_does_not_depend_on_the_other_starts():
    for name, k in (("heis3", 0), ("sol3", 12)):
        sys = assemble(builtin(name))
        alone = newton_multistart(sys, SearchConfig(starts=k + 1, seed=1))
        crowd = newton_multistart(sys, SearchConfig(starts=200, seed=1))
        assert alone[-1].start_index == k
        assert alone[-1] == next(c for c in crowd if c.start_index == k)


def test_pool_memory_does_not_grow_with_starts():
    import tracemalloc

    sys = assemble(builtin("sl2"))
    peaks = []
    for starts in (60, 400, 4000):
        tracemalloc.start()
        assert newton_multistart(
            sys, SearchConfig(starts=starts, seed=1, max_iters=2)) == []
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # the first run only warms up numpy's lazy imports
    assert peaks[2] <= 1.25 * peaks[1]


# --------------------------------------- starts sharded over workers

def _counting_forks(monkeypatch, cpus):
    """Let the search see cpus CPUs; the list records each os.fork."""
    forks, fork = [], os.fork

    def counting_fork():
        # the process forks with one thread (tests/conftest.py)
        assert len(os.listdir("/proc/self/task")) == 1
        forks.append(None)
        return fork()

    monkeypatch.setattr(search, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def test_sharded_search_matches_one_process(monkeypatch):
    from flataff import cli

    multistart, candidates = search.newton_multistart, []

    def recording(sys, cfg):
        candidates.append(multistart(sys, cfg))
        return candidates[-1]

    monkeypatch.setattr(search, "newton_multistart", recording)
    # 101 and 31 starts are no multiple of 2 or 3
    runs = [(builtin(name), 200) for name in ("heis3", "sol3", "sl2")]
    runs += [(gl2(), 200), (builtin("sol3"), 101), (gl2(), 31)]
    results = []
    for cpus in (1, 2, 3):
        forks = _counting_forks(monkeypatch, cpus)
        for g, starts in runs:
            del candidates[:], forks[:]
            report = cli.search_report(g, SearchConfig(starts=starts, seed=1))
            assert len(forks) == cpus - 1
            results.append((candidates[0], cli.emit(report, "json")))
    alone = results[:len(runs)]
    assert [len(c) for c, _ in alone] == [199, 196, 0, 196, 98, 30]
    assert results == alone * 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failing_shard_raises_and_leaves_no_worker(monkeypatch, capfd):
    import time

    sys = assemble(builtin("sol3"))
    lm_minimize = search._lm_minimize
    _counting_forks(monkeypatch, 3)
    for failing, error in ((1, ChildProcessError), (0, RuntimeError)):
        def shard(sys, cfg, finish, starts, failing=failing):
            if starts.start == failing:
                raise RuntimeError("shard fails")
            if failing == 0:  # the workers would outlive the caller
                time.sleep(60)
            lm_minimize(sys, cfg, finish, starts)

        monkeypatch.setattr(search, "_lm_minimize", shard)
        began = time.perf_counter()
        with pytest.raises(error):
            newton_multistart(sys, SearchConfig(starts=200, seed=1))
        assert time.perf_counter() - began < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # a failing worker prints its traceback
        shown = "RuntimeError: shard fails" in capfd.readouterr().err
        assert shown == (failing == 1)


def test_shards_that_cannot_fork_run_in_the_caller(monkeypatch):
    import errno

    sys, cfg = assemble(builtin("sol3")), SearchConfig(starts=200, seed=1)
    monkeypatch.setattr(search, "_cpu_count", lambda: 1)
    alone = newton_multistart(sys, cfg)
    fds = len(os.listdir("/proc/self/fd"))
    for forks in (0, 1):  # no fork succeeds, or only the first
        fork, made = os.fork, []

        def failing_fork():
            if len(made) == forks:
                raise OSError(errno.EAGAIN, "no process to spare")
            made.append(None)
            return fork()

        monkeypatch.setattr(search, "_cpu_count", lambda: 3)
        monkeypatch.setattr(os, "fork", failing_fork)
        assert newton_multistart(sys, cfg) == alone
        assert len(made) == forks
        assert len(os.listdir("/proc/self/fd")) == fds  # no pipe left open
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_search_within_one_pool_never_forks(monkeypatch):
    from flataff import cli

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(search, "_cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = SearchConfig(starts=13, seed=1)
    assert cli.search_report(builtin("sol3"), cfg)["certificate_start"] == 12
    assert newton_multistart(assemble(gl2()), SearchConfig(starts=10, seed=1))


def test_cpu_count_is_one_beside_another_thread():
    import threading

    assert search._cpu_count() >= 1
    # a fork copies only the calling thread: beside another, no workers
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert search._cpu_count() == 1
    finally:
        stop.set()
        thread.join()


# ------------------------------------- snapping against Fraction's own

def _reference_snap_fraction(x: float, den: int):
    f = Fraction(x).limit_denominator(den)
    if abs(float(f) - x) <= search._RATIONALIZE_TOL:
        return f
    return None


def _assert_snaps_like_reference(x):
    for den in search._DENOMINATOR_LADDER:
        f = Fraction(x).limit_denominator(den)
        assert search._best_rational(x, den) == (f.numerator, f.denominator)
        snapped = _reference_snap_fraction(x, den)
        assert search._snap_part(x, den) == (
            None if snapped is None
            else (snapped.numerator, snapped.denominator)), (x, den)


# near-rationals put the tolerance decision and the tie between the
# convergent and the semiconvergent in play, not only the far floats
_near_rationals = st.builds(
    lambda p, q, e: p / q + e, st.integers(-10**6, 10**6),
    st.integers(1, 20000), st.floats(-2e-6, 2e-6))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 _near_rationals))
def test_snap_fraction_matches_limit_denominator(x):
    _assert_snaps_like_reference(x)


def test_snap_fraction_fixed_cases():
    # ties at den 1 go to the convergent, as limit_denominator does
    assert search._best_rational(0.5, 1) == (0, 1)
    assert search._best_rational(1.5, 1) == (1, 1)
    assert search._best_rational(-2.5, 1) == (-3, 1)
    third = 1 / 3
    cases = [0.5, 1.5, -2.5, 0.0, -0.0, 5e-324, 1e-300, 1e15,
             third + 1e-6, third - 1e-6, 0.3334, 1e-6, -1e-6]
    cases += [np.nextafter(third + sign * 1e-6, toward)
              for sign in (1, -1) for toward in (0, 1)]
    for x in cases:
        _assert_snaps_like_reference(float(x))
    assert search._snap_part(0.3334, 3) is None
    assert search._snap_part(third + 1e-7, 3) == (1, 3)
    assert search._snap_part(-0.0, 1) == (0, 1)
    # 0 lies exactly _RATIONALIZE_TOL from 1e-6, which still snaps
    assert search._snap_part(-1e-6, 1) == (0, 1)


def _reference_rationalize(candidate, sys):
    for den in search._DENOMINATOR_LADDER:
        s_exact = []
        ok = True
        for z in candidate.s:
            re = _reference_snap_fraction(z.real, den)
            im = _reference_snap_fraction(z.imag, den)
            if re is None or im is None:
                ok = False
                break
            s_exact.append(GaussRat(re, im))
        if not ok or not search._snap_may_be_flat(sys, s_exact):
            continue
        conn = sys.connection_from_rational_s(s_exact)
        if is_flat(conn) and is_torsion_free(conn):
            return conn
    return None


@pytest.mark.parametrize("g, cfg, certified", [
    (gl2(), SearchConfig(starts=48, seed=0), []),
    (builtin("sol3"), SearchConfig(starts=13, seed=1), [12]),
    (builtin("heis3"), SearchConfig(starts=1, seed=1), [0]),
], ids=["gl2", "sol3", "heis3"])
def test_rationalize_matches_reference(monkeypatch, g, cfg, certified):
    sys = assemble(g)
    gate = search._snap_may_be_flat
    seen = []

    def recording_gate(sys_, s_exact):
        seen.append(list(s_exact))
        return gate(sys_, s_exact)

    monkeypatch.setattr(search, "_snap_may_be_flat", recording_gate)
    found, gated = [], 0
    for cand in newton_multistart(sys, cfg):
        seen.clear()
        ref = _reference_rationalize(cand, sys)
        ref_seen = list(seen)
        seen.clear()
        out = rationalize_and_verify(cand, sys)
        conn = out and out[0]
        assert conn == ref, cand.start_index
        assert seen == ref_seen, cand.start_index
        gated += len(seen)
        if conn is not None:
            found.append(cand.start_index)
    assert found == certified
    assert gated > 0
