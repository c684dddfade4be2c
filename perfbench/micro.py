"""Exact-kernel micro rows: GaussRat multiply and add on real-only and
complex operands, and ExactMatrix.rank on sl3's adjoint H^1 system."""

from __future__ import annotations

import operator
import random
import statistics
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from flataff import ExactMatrix, GaussRat, cli
from flataff.exact import ZERO

SL3 = Path(__file__).resolve().parent / "data" / "algebras" / "sl3.json"

PAIRS = 10000
REPEATS = 5
RANK_REPEATS = 3


def _loop_seconds(pairs, fn) -> float:
    t0 = perf_counter()
    for a, b in pairs:
        fn(a, b)
    return perf_counter() - t0


def gaussrat_rows(seed: int) -> dict:
    """Median microseconds per operation over REPEATS loops of PAIRS
    operand pairs drawn from the seed."""
    rng = random.Random(seed)

    def rat():
        return Fraction(rng.randint(-99, 99), rng.randint(1, 99))

    operands = {
        "real": [(GaussRat(rat()), GaussRat(rat())) for _ in range(PAIRS)],
        "complex": [(GaussRat(rat(), rat()), GaussRat(rat(), rat()))
                    for _ in range(PAIRS)],
    }
    rows = {}
    for opname, fn in (("mul", operator.mul), ("add", operator.add)):
        for kind, pairs in operands.items():
            times = [_loop_seconds(pairs, fn) for _ in range(REPEATS)]
            rows[f"exact.gaussrat_{opname}_{kind}_us"] = (
                statistics.median(times) / PAIRS * 1e6)
    return rows


def h1_cocycle_matrix(g) -> ExactMatrix:
    """The cocycle system of obstructions.h1_dim for the adjoint
    representation, built the same way, so that its rank can be timed on
    its own: f([e_i, e_j]) = ad(e_i) f(e_j) - ad(e_j) f(e_i)."""
    n = g.n
    rho = g.adjoint_rep()
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(n):
                row = [ZERO] * (n * n)
                for k in range(n):
                    if not g.c[i][j][k].is_zero():
                        row[k * n + a] = row[k * n + a] + g.c[i][j][k]
                for b in range(n):
                    row[j * n + b] = row[j * n + b] - rho[i][a, b]
                    row[i * n + b] = row[i * n + b] + rho[j][a, b]
                rows.append(row)
    return ExactMatrix.from_rows(rows)


def rank_row() -> tuple:
    """(median seconds of ExactMatrix.rank on sl3's H^1 system, the rank)."""
    m = h1_cocycle_matrix(cli.parse_algebra(str(SL3)))
    times, rank = [], None
    for _ in range(RANK_REPEATS):
        t0 = perf_counter()
        rank = m.rank()
        times.append(perf_counter() - t0)
    return statistics.median(times), rank
