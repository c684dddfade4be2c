"""Numeric search for flat torsion-free invariant connections.

Torsion-freeness is built into the parametrization: we write
Gamma = c/2 + s with s[i][j][k] symmetric in (i, j), so the only
equations left are the curvature components. Those form a quadratic
system, solved by damped Gauss-Newton (Levenberg-Marquardt) from many
random starts. Because the residual is quadratic, its Jacobian is
affine in s: FlatnessSystem builds J(0) and the sparse constant second
derivatives once, and each LM step solves the complex normal equations
(J^H J + lam I) dz = -J^H r. The starts run in a lockstep pool that
gives each slot one damping trial per round, in one stacked solve and
one stacked residual; a start makes the float operations of a lone run,
and memory grows with the pool (_POOL_BYTES), not with the starts.
Forked workers, one per CPU of the process's affinity set, share the
starts; reports do not depend on them, and `taskset -c 0` runs the
search serially. numpy loads with one BLAS thread where no count is set.

The floats are those of c/lam, g's constants in the basis e_i/lam (see
FlatnessSystem), so each lies in [-1, 1] whatever the scale of g. A point
s of that system is the connection c/2 + lam s on g itself, the one the
search checks and returns.

Numeric candidates are then snapped to Gaussian rationals, one rung of
_DENOMINATOR_LADDER at a time: each part goes to its best rational
approximation p/q under the rung, found on plain integers, and the
snap is the GaussRat of those ints if every p/q lies within
_RATIONALIZE_TOL. A float gate with a proven rounding-error bound drops
snaps that cannot be flat; every other snap is checked exactly, so
nothing floating-point ever leaves this module inside a certificate.
Every numpy user here runs on a FlatnessSystem, so the first one imports
numpy, and exact verdicts never do.
"""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import astuple, dataclass, fields
from fractions import Fraction
from sys import maxsize

from .exact import GaussRat, HALF, _gauss
from .liealg import LieAlgebra
from .connections import InvariantConnection
from .affine import AffMap, NotFlatTorsionFree, etale_from_lsa

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

# LM stops, and a start counts as converged, below this residual norm
_RESIDUAL_TOL = 1e-10
_DAMPING_INIT = 1e-3
_DAMPING_INCREASE = 10.0
_DAMPING_DECREASE = 10.0
# denominators tried in order when snapping floats to rationals, and the
# largest distance a snapped part may move
_DENOMINATOR_LADDER = (1, 2, 3, 4, 6, 8, 12, 16, 24, 48, 96, 240, 1000,
                       10000)
_RATIONALIZE_TOL = 1e-6
_GATE_TOL = 1e-9  # tau in _snap_may_be_flat
# byte budget of the LM pool's stacked J^H J (50 slots at n = 3, 10 for
# gl2); its Jacobians are built in chunks of an eighth of it
_POOL_BYTES = 256 * 1024


@dataclass(frozen=True)
class SearchConfig:
    """The search budget; the tolerances are the module constants."""

    starts: int = 200
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is refused as a count
            if type(value) is not int:
                raise ValueError(f"{f.name} must be an integer")
            # a count is the length of a range, at most sys.maxsize
            if f.name != "seed" and not 0 < value <= maxsize:
                raise ValueError(f"{f.name} must be positive" if value <= 0
                                 else f"{f.name} must be at most {maxsize}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class Candidate:
    start_index: int
    s: tuple  # complex entries, one per unknown
    residual_norm: float
    iterations: int


class FlatnessSystem:
    """The curvature equations for Gamma = c/2 + s, s symmetric, on c/lam,
    lam = max(|re|, |im|) over the constants c of g (1 if g is abelian).
    A solution s is the flat connection c/2 + lam s on g.

    Unknown layout: unknown (p, k) sits at index p * n + k where p runs
    over index pairs (i, j), i <= j, in lexicographic order. Residual
    layout: curvature components (l, k, i, j) with i < j, lexicographic.

    The residual is quadratic in s, so its Jacobian is affine:
    J(s) = J0 + H.s with J0 = J(0) and H[r, u, v] = dJ[r, u]/ds_v
    constant. Both are built once here, H as its nonzeros in coordinate
    form (destination index into J, variable index, value).
    """

    def __init__(self, g: LieAlgebra):
        global np
        for blas in ("OPENBLAS", "OMP", "MKL"):  # the CPUs go to workers
            os.environ.setdefault(f"{blas}_NUM_THREADS", "1")
        import numpy as np
        self.g = g
        n = g.n
        self.n = n
        self.pairs = [(i, j) for i in range(n) for j in range(i, n)]
        self.pair_index = {p: t for t, p in enumerate(self.pairs)}
        self.residual_components = [
            (l, k, i, j) for l in range(n) for k in range(n)
            for i in range(n) for j in range(i + 1, n)
        ]
        self.scale = GaussRat(max((Fraction(max(abs(x.u), abs(x.v)), x.d)
                                   for e in g.nonzero for *_, x in e), default=1))
        self.c_float = np.zeros((n, n, n), dtype=complex)
        for a, entries in enumerate(g.nonzero):  # each rounded once from c/lam
            for b, k, x in entries:
                self.c_float[a, b, k] = complex(x / self.scale)
        self._c_half = self.c_float / 2.0
        self.c_max = np.abs(self.c_float).max(initial=0.0)
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
        self._pool_slots = max(1, _POOL_BYTES // (16 * max(m * m, 1)))
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
        """Dense Christoffel array c/2 + s (floats), per row of a stack."""
        return self._c_half + s[..., self._gamma_index]

    def residual(self, s: np.ndarray) -> np.ndarray:
        """The residual at s, or at each row of a stack of s."""
        # with the matrices G_i = Gamma[i], the curvature R[l,k,i,j] is
        # entry (k, l) of G_j G_i - G_i G_j - sum_m c[i,j,m] G_m
        n = self.n
        gm = self.gamma_from_s(s)
        lead = gm.shape[:-3]
        prod = np.matmul(gm[..., None, :, :, :], gm[..., None, :, :],
                         order="C")  # a C-order r needs no buffers below
        r = prod - prod.swapaxes(-4, -3)
        lin = self.c_float.reshape(n * n, n) @ gm.reshape(lead + (n, n * n))
        r -= lin.reshape(lead + (n,) * 4)
        return r.reshape(lead + (n ** 4,))[..., self._residual_index]

    def jacobian(self, s: np.ndarray) -> np.ndarray:
        """Complex Jacobian of the residual at s, or at each row of a
        stack of s: J0 plus one scatter of H times s, row by row."""
        S = np.atleast_2d(s)
        J = np.repeat(self._j0[None], len(S), axis=0)
        for Jk, sk in zip(J.reshape(len(S), -1), S):
            np.add.at(Jk, self._h_dest, self._h_val * sk[self._h_var])
        return J if s.ndim > 1 else J[0]

    def connection_from_rational_s(self, s_exact) -> InvariantConnection:
        """The exact connection c/2 + lam s on g for a list of GaussRat
        unknowns s: torsion-free, as s is symmetric."""
        if len(s_exact) != self.unknown_count:
            raise ValueError("wrong number of unknowns")
        s = [self.scale * x for x in s_exact]
        gamma = [
            [[HALF * c + s[u] for c, u in zip(row_c, row_u)]
             for row_c, row_u in zip(plane_c, plane_u)]
            for plane_c, plane_u in zip(self.g.c, self._gamma_index.tolist())
        ]
        return InvariantConnection(self.g, gamma)


def assemble(g: LieAlgebra) -> FlatnessSystem:
    return FlatnessSystem(g)


def _norms(r: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of r, by the same float operations."""
    return np.sqrt(np.vecdot(r.real, r.real) + np.vecdot(r.imag, r.imag))


def _solve(A: np.ndarray, lam: np.ndarray, b: np.ndarray):
    """Damp each stacked A in place and solve (A + lam I) dz = b. A
    singular system fails (ok False, dz 0) only its own row."""
    m = A.shape[-1]
    A += 0.0  # turns -0.0 into 0.0, as A + lam * eye does
    A.reshape(len(A), m * m)[:, ::m + 1] += lam[:, None]
    ok = np.ones(len(A), dtype=bool)
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], ok
    except np.linalg.LinAlgError:  # solve row by row
        dz = np.zeros_like(b)
        for i in range(len(A)):
            try:
                dz[i] = np.linalg.solve(A[i], b[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return dz, ok


def _lm_minimize(sys: FlatnessSystem, cfg: SearchConfig, finish, starts=None):
    """Levenberg-Marquardt on the complex normal equations
    (J^H J + lam I) dz = -J^H r, the realified real system in complex
    form, from each start index in starts (all by default), in a pool of
    slots. A start ends when it converges, after cfg.max_iters iterations
    or when 12 damping trials of one iteration fail: finish(start, s,
    cost, iterations) is called, and the next start takes its slot."""
    starts = range(cfg.starts) if starts is None else starts
    m, R = sys.unknown_count, sys.residual_count
    size = min(len(starts), sys._pool_slots)
    chunk = max(1, _POOL_BYTES // 8 // (16 * max(R * m, 1)))
    s, b = np.zeros((2, size, m), dtype=complex)
    r, A = np.zeros((size, R), complex), np.zeros((size, m, m), complex)
    cost, lam = np.zeros((2, size))
    start, it, trials = np.zeros((3, size), dtype=np.intp)
    live, nxt = np.zeros(size, dtype=bool), 0
    stepped = exhausted = np.zeros(0, dtype=np.intp)
    while nxt < len(starts) or live.any():
        new = np.flatnonzero(~live)[:len(starts) - nxt]
        for k, i in zip(new, starts[nxt:]):
            u = np.random.default_rng([cfg.seed, i]).uniform(-2, 2, (2, m))
            s[k], start[k] = u[0] + 1j * u[1] if i else 0, i
        nxt += len(new)
        live[new], lam[new], it[new] = True, _DAMPING_INIT, 0
        if new.size:
            r[new] = sys.residual(s[new])
            cost[new] = _norms(r[new])
        # an iteration begins on the new and the stepped slots, or they end
        go = np.concatenate([stepped, new])
        at_max = it[go] == cfg.max_iters
        it[go] += ~at_max
        ends = np.append(exhausted, go[at_max | (cost[go] < _RESIDUAL_TOL)])
        for i in ends:
            finish(int(start[i]), s[i].copy(), float(cost[i]), int(it[i]))
        live[ends] = False
        go = go[live[go]]
        trials[go] = 0
        for c in range(0, len(go), chunk):
            k = go[c:c + chunk]
            J = sys.jacobian(s[k])
            Jh = J.conj().swapaxes(1, 2)
            A[k] = Jh @ J
            b[k] = -(Jh @ r[k, :, None])[..., 0]
        idx = np.flatnonzero(live)  # one damping trial per live slot
        dz, ok = _solve(A[idx], lam[idx], b[idx])
        trial = s[idx] + dz
        r_trial = sys.residual(trial)
        cost_trial = _norms(r_trial)
        accept = ok & (cost_trial < cost[idx])
        stepped = idx[accept]
        s[stepped], r[stepped] = trial[accept], r_trial[accept]
        cost[stepped] = cost_trial[accept]
        lam[stepped] = np.maximum(lam[stepped] / _DAMPING_DECREASE, 1e-14)
        failed = idx[~accept]
        lam[failed] *= _DAMPING_INCREASE
        trials[failed] += 1
        exhausted = failed[trials[failed] == 12]


def _cpu_count() -> int:
    """CPUs of this process's affinity set if it runs one thread, else 1
    (a fork copies no other thread, so their locks can deadlock it); 1
    where /proc does not show the threads."""
    try:
        alone = len(os.listdir("/proc/self/task")) == 1
        return len(os.sched_getaffinity(0)) if alone else 1
    except (AttributeError, OSError):
        return 1


def newton_multistart(sys: FlatnessSystem, cfg: SearchConfig) -> list:
    """Run LM from cfg.starts starting points. Start 0 is the zero
    vector (the standard connection); the rest are uniform in the
    complex box of radius 2, seeded per start index. The converged
    starts are returned as candidates, in start-index order. With W =
    _cpu_count(), at most one per pool, shard w runs the starts w, w + W,
    ...: shard 0 here, the others in forked workers (here if a fork fails).
    A start runs as if alone, so W changes nothing."""
    out = []

    def keep(start, s, cost, iterations):
        if cost < _RESIDUAL_TOL:
            out.append(Candidate(start, tuple(s.tolist()), cost, iterations))

    w = min(_cpu_count(), -(-cfg.starts // sys._pool_slots))
    record = np.dtype(f"p, ({sys.unknown_count},)c16, f8, p")  # Candidate
    workers, here = {}, [0]  # pid -> the read end of its pipe; own shards
    try:
        for shard in range(1, w):
            rd, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the rest run here
                os.close(rd)
                os.close(wr)
                here += range(shard, w)
                break
            if pid == 0:  # a worker: its shard, then exit
                try:
                    _lm_minimize(sys, cfg, keep, range(shard, cfg.starts, w))
                    with open(wr, "wb") as pipe:
                        pipe.write(np.array([astuple(c) for c in out], record))
                    os._exit(0)
                except BaseException:  # the parent sees only the status
                    import traceback
                    traceback.print_exc()
                    os._exit(1)
            os.close(wr)
            workers[pid] = open(rd, "rb")
        for shard in here:
            _lm_minimize(sys, cfg, keep, range(shard, cfg.starts, w))
        for pid, pipe in list(workers.items()):
            data = pipe.read()  # before waitpid: candidates can fill a pipe
            status = os.waitpid(pid, 0)[1]
            workers.pop(pid).close()
            if status:
                raise ChildProcessError(f"a search worker failed ({status})")
            for candidate in np.frombuffer(data, record).tolist():
                keep(*candidate)
    finally:  # no worker outlives the search
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    return sorted(out, key=lambda c: c.start_index)


def _best_rational(x: float, den: int) -> tuple:
    """The best p/q of x with q <= den, as Fraction(x).limit_denominator
    gives it: the last convergent p1/q1 of x with q1 <= den, or the
    semiconvergent with the largest q <= den if strictly closer to x."""
    n, d = x.as_integer_ratio()
    if d <= den:
        return n, d
    top, p0, q0, p1, q1 = d, 0, 1, 1, 0
    while (q2 := q0 + (a := n // d) * q1) <= den:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (den - q0) // q1
    # x lies between p1/q1 and the semiconvergent, 1/(q1 (q0 + k q1))
    # apart, and d/(q1 top) from p1/q1
    if 2 * d * (q0 + k * q1) <= top:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _snap_part(x: float, den: int):
    """The (p, q) of _best_rational(x, den) if p/q is within
    _RATIONALIZE_TOL of x, else None."""
    p, q = _best_rational(x, den)
    return (p, q) if abs(p / q - x) <= _RATIONALIZE_TOL else None


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
    k = 1.0 + np.abs(s).max(initial=0.0) + sys.c_max
    return not r > _GATE_TOL * k * k


def rationalize_and_verify(candidate: Candidate, sys: FlatnessSystem):
    """Snap a numeric candidate to Gaussian rationals and check that the
    snapped connection on sys.g (torsion-free by construction) is flat.
    Denominators are tried smallest first so that candidates sitting on
    a rational point of a solution family are caught at the simplest
    description. A float gate skips the exact check of snaps that are
    certainly not flat. Returns (connection, etale_from_lsa of it) for
    the first snap that passes that exact check, None when none does."""
    for den in _DENOMINATOR_LADDER:
        s_exact = []
        for z in candidate.s:
            re = _snap_part(z.real, den)
            im = None if re is None else _snap_part(z.imag, den)
            if im is None:
                break
            s_exact.append(_gauss(*re, *im))
        if (len(s_exact) < len(candidate.s)
                or not _snap_may_be_flat(sys, s_exact)):
            continue
        conn = sys.connection_from_rational_s(s_exact)
        with suppress(NotFlatTorsionFree):
            return conn, etale_from_lsa(conn)
    return None


@dataclass(frozen=True)
class SearchOutcome:
    candidates: tuple  # numeric Candidate list, start order
    certificate: InvariantConnection | None
    certificate_start: int | None
    embedding: AffMap | None = None  # etale_from_lsa(certificate)

    @property
    def found(self) -> bool:
        return self.certificate is not None


def run_search(g: LieAlgebra, cfg: SearchConfig = SearchConfig()) -> SearchOutcome:
    """Full pipeline: assemble, multistart, rationalize, verify. The
    certificate (a connection on g) and its embedding are those that
    rationalize_and_verify checked and made, for the first candidate (by
    start index) that passes.
    Candidates hold the unknowns s of the scaled system (FlatnessSystem)."""
    sys = assemble(g)
    candidates = tuple(newton_multistart(sys, cfg))
    for cand in candidates:
        if (found := rationalize_and_verify(cand, sys)) is not None:
            conn, emb = found
            return SearchOutcome(candidates, conn, cand.start_index, emb)
    return SearchOutcome(candidates, None, None)
