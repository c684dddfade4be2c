"""Numeric search for flat torsion-free invariant connections.

Torsion-freeness is built into the parametrization: we write
Gamma = c/2 + s with s[i][j][k] symmetric in (i, j), so the only
equations left are the curvature components. Those form a quadratic
system, solved by damped Gauss-Newton (Levenberg-Marquardt) from many
random starts. Numeric candidates are then snapped to Gaussian
rationals and re-verified exactly; nothing floating-point ever leaves
this module inside a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        for field in (
            "starts",
            "max_iters",
            "residual_tol",
            "damping_init",
            "damping_increase",
            "damping_decrease",
            "rationalize_denominator_bound",
            "rationalize_tol",
        ):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
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
    """

    def __init__(self, g: LieAlgebra):
        self.g = g
        n = g.n
        self.n = n
        self.pairs = [(i, j) for i in range(n) for j in range(i, n)]
        self.pair_index = {p: t for t, p in enumerate(self.pairs)}
        self.residual_components = [
            (l, k, i, j)
            for l in range(n)
            for k in range(n)
            for i in range(n)
            for j in range(i + 1, n)
        ]
        self.c_float = np.array(
            [
                [[complex(g.c[i][j][k]) for k in range(n)] for j in range(n)]
                for i in range(n)
            ],
            dtype=complex,
        )

    @property
    def unknown_count(self) -> int:
        return len(self.pairs) * self.n

    @property
    def residual_count(self) -> int:
        return len(self.residual_components)

    def gamma_from_s(self, s: np.ndarray) -> np.ndarray:
        """Dense Christoffel array c/2 + s (floats)."""
        n = self.n
        gm = self.c_float / 2.0
        full = np.zeros((n, n, n), dtype=complex)
        for t, (i, j) in enumerate(self.pairs):
            comp = s[t * n : (t + 1) * n]
            full[i, j, :] += comp
            if i != j:
                full[j, i, :] += comp
        return gm + full

    def _curvature_float(self, gm: np.ndarray) -> np.ndarray:
        t1 = np.einsum("jkm,iml->lkij", gm, gm)
        t2 = np.einsum("ikm,jml->lkij", gm, gm)
        t3 = np.einsum("ijm,mkl->lkij", self.c_float, gm)
        return t1 - t2 - t3

    def residual(self, s: np.ndarray) -> np.ndarray:
        r = self._curvature_float(self.gamma_from_s(s))
        return np.array(
            [r[l, k, i, j] for (l, k, i, j) in self.residual_components]
        )

    def jacobian(self, s: np.ndarray) -> np.ndarray:
        """Complex Jacobian of the residual at s (analytic: the system
        is polynomial, so the derivative in direction d is
        B(d, Gamma) + B(Gamma, d) - L(d))."""
        n = self.n
        gm = self.gamma_from_s(s)
        cols = []
        for t, (i0, j0) in enumerate(self.pairs):
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
                    - np.einsum("ijm,mkl->lkij", self.c_float, d)
                )
                cols.append(
                    [
                        dr[l, k, i, j]
                        for (l, k, i, j) in self.residual_components
                    ]
                )
        return np.array(cols, dtype=complex).T

    def connection_from_rational_s(self, s_exact) -> InvariantConnection:
        """Exact connection c/2 + s for a list of GaussRat unknowns."""
        n = self.n
        if len(s_exact) != self.unknown_count:
            raise ValueError("wrong number of unknowns")
        gamma = [
            [[HALF * self.g.c[i][j][k] for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
        for t, (i, j) in enumerate(self.pairs):
            for k in range(n):
                v = s_exact[t * n + k]
                gamma[i][j][k] = gamma[i][j][k] + v
                if i != j:
                    gamma[j][i][k] = gamma[j][i][k] + v
        return InvariantConnection(self.g, gamma)


def assemble(g: LieAlgebra) -> FlatnessSystem:
    return FlatnessSystem(g)


def _realify(J: np.ndarray) -> np.ndarray:
    return np.block(
        [[J.real, -J.imag], [J.imag, J.real]]
    )


def _lm_minimize(sys: FlatnessSystem, s0: np.ndarray, cfg: SearchConfig):
    """Levenberg-Marquardt on the realified system. Returns the final
    point and the iteration count."""
    s = s0.astype(complex)
    lam = cfg.damping_init
    r = sys.residual(s)
    cost = float(np.linalg.norm(r))
    iterations = 0
    for it in range(cfg.max_iters):
        iterations = it + 1
        if cost < cfg.residual_tol:
            break
        J = sys.jacobian(s)
        Jr = _realify(J)
        rr = np.concatenate([r.real, r.imag])
        A = Jr.T @ Jr
        b = -(Jr.T @ rr)
        n_real = A.shape[0]
        stepped = False
        for _ in range(12):
            try:
                dx = np.linalg.solve(A + lam * np.eye(n_real), b)
            except np.linalg.LinAlgError:
                lam *= cfg.damping_increase
                continue
            trial = s + dx[: sys.unknown_count] + 1j * dx[sys.unknown_count :]
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


def rationalize_and_verify(candidate: Candidate, sys: FlatnessSystem,
                           cfg: SearchConfig = SearchConfig()):
    """Snap a numeric candidate to Gaussian rationals and check the
    snapped connection exactly. Denominators are tried smallest first
    so that candidates sitting on a rational point of a solution family
    are caught at the simplest description. Returns None when no snap
    passes the exact test."""
    ladder = [
        d for d in _DENOMINATOR_LADDER
        if d <= cfg.rationalize_denominator_bound
    ]
    if cfg.rationalize_denominator_bound not in ladder:
        ladder.append(cfg.rationalize_denominator_bound)
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
        if not ok:
            continue
        conn = sys.connection_from_rational_s(s_exact)
        if is_flat(conn) and is_torsion_free(conn):
            return conn
    return None


@dataclass(frozen=True)
class SearchOutcome:
    starts_run: int
    candidates: tuple  # numeric Candidate list, start order
    certificate: InvariantConnection | None
    certificate_start: int | None

    @property
    def found(self) -> bool:
        return self.certificate is not None


def run_search(g: LieAlgebra, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Full pipeline: assemble, multistart, rationalize, verify. The
    first candidate (by start index) whose snap passes exact
    verification supplies the certificate."""
    sys = assemble(g)
    candidates = newton_multistart(sys, cfg)
    certificate = None
    certificate_start = None
    for cand in candidates:
        conn = rationalize_and_verify(cand, sys, cfg)
        if conn is not None:
            certificate = conn
            certificate_start = cand.start_index
            break
    return SearchOutcome(
        starts_run=cfg.starts,
        candidates=tuple(candidates),
        certificate=certificate,
        certificate_start=certificate_start,
    )
