"""Numeric search for flat torsion-free invariant connections.

Torsion-freeness is built into the parametrization: we write
Gamma = c/2 + s with s[i][j][k] symmetric in (i, j), so the only
equations left are the curvature components. Those form a quadratic
system, solved by damped Gauss-Newton (Levenberg-Marquardt) from many
random starts. Because the residual is quadratic, its Jacobian is
affine in s: FlatnessSystem builds J(0) and the sparse constant second
derivatives once, and each LM step solves the complex normal equations
(J^H J + lam I) dz = -J^H r.

The search runs on g in the basis e_i/lam that makes the largest real or
imaginary part of a structure constant 1 (see run_search). That change
of basis is exact, so the answer does not depend on the scale of the
input, and every structure constant the search turns into a float lies
in [-1, 1].

Numeric candidates are then snapped to Gaussian rationals. A float
gate with a proven rounding-error bound drops snaps that cannot be
flat; every other snap is checked exactly, so nothing floating-point
ever leaves this module inside a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .exact import GaussRat, HALF
from .liealg import LieAlgebra
from .connections import InvariantConnection, is_flat, is_torsion_free

__all__ = [
    "FlatnessSystem",
    "SearchConfig",
    "Candidate",
    "SearchOutcome",
    "assemble",
    "newton_multistart",
    "rationalize_and_verify",
    "run_search",
]

# denominators tried in order when snapping floats to rationals; the
# ladder ends at the configured bound
_DENOMINATOR_LADDER = (1, 2, 3, 4, 6, 8, 12, 16, 24, 48, 96, 240, 1000)


@dataclass(frozen=True)
class SearchConfig:
    starts: int = 200
    max_iters: int = 100
    residual_tol: float = 1e-10
    damping_init: float = 1e-3
    damping_increase: float = 10.0
    damping_decrease: float = 10.0
    seed: int = 0
    rationalize_denominator_bound: int = 10**4
    rationalize_tol: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is refused as a count
            if f.type in (int, "int") and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer")
            if f.name != "seed" and not value > 0:
                raise ValueError(f"{f.name} must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class Candidate:
    start_index: int
    s: tuple  # complex entries, one per unknown
    residual_norm: float
    iterations: int


class FlatnessSystem:
    """The curvature equations for Gamma = c/2 + s, s symmetric.

    Unknown layout: unknown (p, k) sits at index p * n + k where p runs
    over index pairs (i, j), i <= j, in lexicographic order. Residual
    layout: curvature components (l, k, i, j) with i < j, lexicographic.

    The residual is quadratic in s, so its Jacobian is affine:
    J(s) = J0 + H.s with J0 = J(0) and H[r, u, v] = dJ[r, u]/ds_v
    constant. Both are built once here, H as its nonzeros in coordinate
    form (destination index into J, variable index, value).
    """

    def __init__(self, g: LieAlgebra):
        self.g = g
        n = g.n
        self.n = n
        self.pairs = [(i, j) for i in range(n) for j in range(i, n)]
        self.pair_index = {p: t for t, p in enumerate(self.pairs)}
        self.residual_components = [
            (l, k, i, j) for l in range(n) for k in range(n)
            for i in range(n) for j in range(i + 1, n)
        ]
        self.c_float = np.array(g.c, dtype=complex).reshape(n, n, n)
        self._c_half = self.c_float / 2.0
        # the 0/1 map P of Gamma = c/2 + P.s, stored as the unknown that
        # each Gamma[i][j][k] reads
        pair_of = np.zeros((n, n), dtype=np.intp)
        for t, (i, j) in enumerate(self.pairs):
            pair_of[i, j] = pair_of[j, i] = t
        unk = pair_of[:, :, None] * n + np.arange(n)
        self._gamma_index = unk
        # flat positions of the residual components in the curvature
        # array that residual() builds, indexed [i, j, k, l]
        comp = np.array(self.residual_components, dtype=np.intp).reshape(-1, 4)
        self._residual_index = np.ravel_multi_index(
            comp[:, [2, 3, 1, 0]].T, (n,) * 4)

        # J(s) = J0 + H.s. In residual r, the term sign G[a] G[b] adds
        # sign G[b] to J[r, unk[a]] and sign G[a] to J[r, unk[b]]; the
        # c/2 part of G goes into J0 and the s part into H.
        m = self.unknown_count
        l, k, i, j = comp.T[:, :, None]
        mm = np.arange(n)
        rows = np.arange(len(comp))[:, None] * m
        j0 = np.zeros(len(comp) * m, dtype=complex)
        dest, var, val = [], [], []
        for sign, a, b in ((1.0, (j, k, mm), (i, mm, l)),
                           (-1.0, (i, k, mm), (j, mm, l))):
            for x, y in ((a, b), (b, a)):
                dx, vy = np.broadcast_arrays(rows + unk[x], unk[y])
                np.add.at(j0, dx, sign * self._c_half[y])
                dest.append(dx.ravel())
                var.append(vy.ravel())
                val.append(np.full(dx.size, sign))
        np.add.at(j0, rows + unk[mm, k, l], -self.c_float[i, j, mm])
        self._j0 = j0.reshape(len(comp), m)
        key, where = np.unique(np.concatenate(dest) * m + np.concatenate(var),
                               return_inverse=True)
        total = np.bincount(where, weights=np.concatenate(val),
                            minlength=key.size)
        nz = total != 0
        self._h_dest, self._h_var = np.divmod(key[nz], max(m, 1))
        self._h_val = total[nz]

    @property
    def unknown_count(self) -> int:
        return len(self.pairs) * self.n

    @property
    def residual_count(self) -> int:
        return len(self.residual_components)

    def gamma_from_s(self, s: np.ndarray) -> np.ndarray:
        """Dense Christoffel array c/2 + s (floats)."""
        return self._c_half + s[self._gamma_index]

    def residual(self, s: np.ndarray) -> np.ndarray:
        # with the matrices G_i = Gamma[i], the curvature R[l,k,i,j] is
        # entry (k, l) of G_j G_i - G_i G_j - sum_m c[i,j,m] G_m
        n = self.n
        gm = self.gamma_from_s(s)
        prod = np.matmul(gm[None], gm[:, None])
        lin = self.c_float.reshape(n * n, n) @ gm.reshape(n, n * n)
        r = prod - prod.transpose(1, 0, 2, 3) - lin.reshape((n,) * 4)
        return np.take(r, self._residual_index)

    def jacobian(self, s: np.ndarray) -> np.ndarray:
        """Complex Jacobian of the residual at s: J0 plus one scatter of
        the constant second derivatives times s."""
        J = self._j0.copy()
        np.add.at(J.reshape(-1), self._h_dest, self._h_val * s[self._h_var])
        return J

    def connection_from_rational_s(self, s_exact) -> InvariantConnection:
        """Exact connection c/2 + s for a list of GaussRat unknowns."""
        if len(s_exact) != self.unknown_count:
            raise ValueError("wrong number of unknowns")
        gamma = [
            [[HALF * c + s_exact[u] for c, u in zip(row_c, row_u)]
             for row_c, row_u in zip(plane_c, plane_u)]
            for plane_c, plane_u in zip(self.g.c, self._gamma_index.tolist())
        ]
        return InvariantConnection(self.g, gamma)


def assemble(g: LieAlgebra) -> FlatnessSystem:
    return FlatnessSystem(g)


def _lm_minimize(sys: FlatnessSystem, s0: np.ndarray, cfg: SearchConfig):
    """Levenberg-Marquardt on the complex normal equations
    (J^H J + lam I) dz = -J^H r, the realified real system in complex
    form. Returns the final point and the iteration count."""
    s = s0.astype(complex)
    lam = cfg.damping_init
    r = sys.residual(s)
    cost = float(np.linalg.norm(r))
    eye = np.eye(sys.unknown_count)
    iterations = 0
    for it in range(cfg.max_iters):
        iterations = it + 1
        if cost < cfg.residual_tol:
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
                lam *= cfg.damping_increase
                continue
            trial = s + dz
            r_trial = sys.residual(trial)
            cost_trial = float(np.linalg.norm(r_trial))
            if cost_trial < cost:
                s = trial
                r = r_trial
                cost = cost_trial
                lam = max(lam / cfg.damping_decrease, 1e-14)
                stepped = True
                break
            lam *= cfg.damping_increase
        if not stepped:
            break
    return s, iterations


def newton_multistart(sys: FlatnessSystem, cfg: SearchConfig) -> list:
    """Run LM from cfg.starts starting points. Start 0 is the zero
    vector (the standard connection); the rest are uniform in the
    complex box of radius 2, seeded per start index. Candidates are
    returned in start-index order."""
    out = []
    m = sys.unknown_count
    for start in range(cfg.starts):
        if start == 0:
            s0 = np.zeros(m, dtype=complex)
        else:
            rng = np.random.default_rng([cfg.seed, start])
            s0 = rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m)
        s, iters = _lm_minimize(sys, s0, cfg)
        # re-evaluate from scratch before reporting
        norm = float(np.linalg.norm(sys.residual(s)))
        if norm < cfg.residual_tol:
            out.append(
                Candidate(
                    start_index=start,
                    s=tuple(complex(x) for x in s),
                    residual_norm=norm,
                    iterations=iters,
                )
            )
    return out


def _snap_fraction(x: float, den: int, tol: float):
    f = Fraction(x).limit_denominator(den)
    if abs(float(f) - x) <= tol:
        return f
    return None


_GATE_TOL = 1e-9  # tau in _snap_may_be_flat


def _snap_may_be_flat(sys: FlatnessSystem, s_exact) -> bool:
    """Float gate: False only if the snap s_exact (GaussRat unknowns) is
    certainly not flat, so that its exact check can be skipped.

    It tests max|r| <= tau K^2, with r = sys.residual at the floats of
    s_exact and K = 1 + max|s| + max|c|. If the snap is exactly flat, r
    is pure rounding error. With u = 2^-53, every |Gamma| and |c| is
    below K, and each residual is a sum of 3n products of such entries:
    1. the floats of s and c are within u|x|, and Gamma = fl(c/2 + s)
       within 3uK, so each product moves by under 6.01uK^2: 19n uK^2;
    2. a complex product errs by at most sqrt(5)u|x||y|, and a sum of
       N = 3n terms in any order by sqrt(2)(N-1)u/(1-Nu) times the sum
       of their moduli (under 3nK^2): (2.3 + 4.5n) 3n uK^2.
    So |r| <= (26n + 13.5n^2) uK^2: 3.8e-13 K^2 at n = 15, 2,600 times
    below tau K^2, and below tau K^2 for all n < 800. A NaN residual
    keeps the exact check. Every snap the gate keeps is checked exactly.
    """
    s = np.array(s_exact, dtype=complex)
    r = np.abs(sys.residual(s)).max(initial=0.0)
    k = (1.0 + np.abs(s).max(initial=0.0)
         + np.abs(sys.c_float).max(initial=0.0))
    return not r > _GATE_TOL * k * k


def rationalize_and_verify(candidate: Candidate, sys: FlatnessSystem,
                           cfg: SearchConfig = SearchConfig()):
    """Snap a numeric candidate to Gaussian rationals and check the
    snapped connection exactly. Denominators are tried smallest first
    so that candidates sitting on a rational point of a solution family
    are caught at the simplest description. A float gate skips the
    exact check of snaps that are certainly not flat. Returns None when
    no snap passes the exact test."""
    bound = cfg.rationalize_denominator_bound
    ladder = [d for d in _DENOMINATOR_LADDER if d < bound] + [bound]
    for den in ladder:
        s_exact = []
        ok = True
        for z in candidate.s:
            re = _snap_fraction(z.real, den, cfg.rationalize_tol)
            im = _snap_fraction(z.imag, den, cfg.rationalize_tol)
            if re is None or im is None:
                ok = False
                break
            s_exact.append(GaussRat(re, im))
        if not ok or not _snap_may_be_flat(sys, s_exact):
            continue
        conn = sys.connection_from_rational_s(s_exact)
        if is_flat(conn) and is_torsion_free(conn):
            return conn
    return None


@dataclass(frozen=True)
class SearchOutcome:
    candidates: tuple  # numeric Candidate list, start order
    certificate: InvariantConnection | None
    certificate_start: int | None

    @property
    def found(self) -> bool:
        return self.certificate is not None


def run_search(g: LieAlgebra, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Full pipeline: assemble, multistart, rationalize, verify, run on
    the unit-scaled algebra c/lam, lam = max(|re|, |im|) over the
    structure constants (1 if g is abelian). That algebra is g in the
    basis e_i/lam, so a certificate Gamma' for it gives the certificate
    lam Gamma' for g, exactly: R(lam Gamma') = lam^2 R'(Gamma'). The first
    candidate (by start index) whose snap passes exact verification
    supplies the certificate. Candidates are reported in the unknowns of
    the unit-scaled algebra."""
    lam = max((abs(part) for entries in g.nonzero for _, _, v in entries
               for part in (v.re, v.im)), default=Fraction(1))
    unit = LieAlgebra(g.n, [[[x / lam for x in row] for row in plane]
                            for plane in g.c], g.names)
    sys = assemble(unit)
    candidates = tuple(newton_multistart(sys, cfg))
    for cand in candidates:
        conn = rationalize_and_verify(cand, sys, cfg)
        if conn is not None:
            gamma = [[[lam * x for x in row] for row in plane]
                     for plane in conn.gamma]
            return SearchOutcome(candidates, InvariantConnection(g, gamma),
                                 cand.start_index)
    return SearchOutcome(candidates, None, None)
