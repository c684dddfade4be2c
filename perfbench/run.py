"""Benchmark for flataff.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
./src, never from an installed copy, and the run fails without a result
when ./src/flataff is missing. One caller drives the package in this
process through its public functions, each operation starting after the
previous one ends (a closed loop). Passes over the workload repeat while
the next one is expected to end within --seconds (at least one pass).

--trace 0 reports the end-to-end metrics. --trace 1 runs untraced passes,
then traced passes with spans around each module's public functions,
then the exact-kernel micro rows, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Workloads, metrics and the
checks are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("search-multistart", "decide-corpus", "exact-structure")
SETUP_SAMPLES = 5
# One BLAS thread: a single caller on small matrices (at most 80 x 80 in
# the LM solves), on a machine whose cores other processes share.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("slowest_op_s", "s"),
              ("peak_rss_mb", "MiB"))

PER_LAYER = (
    ("search.jacobian_calls", "count"), ("search.jacobian_s", "s"),
    ("search.residual_calls", "count"), ("search.residual_s", "s"),
    ("search.lm_self_s", "s"), ("search.multistart_s", "s"),
    ("search.starts", "count"), ("search.converged", "count"),
    ("search.converged_ratio", "ratio"), ("search.rationalize_calls", "count"),
    ("search.rationalize_s", "s"), ("search.snapped_ratio", "ratio"),
    ("search.assemble_s", "s"), ("search.self_s", "s"),
    ("exact.gaussrat_mul_real_us", "us"), ("exact.gaussrat_mul_complex_us", "us"),
    ("exact.gaussrat_add_real_us", "us"), ("exact.gaussrat_add_complex_us", "us"),
    ("exact.sl3_h1_rank_s", "s"), ("exact.rank_calls", "count"),
    ("exact.rank_s", "s"), ("exact.solve_s", "s"), ("exact.det_s", "s"),
    ("exact.self_s", "s"),
    ("liealg.build_s", "s"), ("liealg.killing_rank_s", "s"),
    ("liealg.series_s", "s"), ("liealg.profile_s", "s"), ("liealg.self_s", "s"),
    ("connections.curvature_calls", "count"), ("connections.curvature_s", "s"),
    ("connections.torsion_s", "s"), ("connections.weyl_s", "s"),
    ("connections.self_s", "s"),
    ("affine.check_homomorphism_calls", "count"),
    ("affine.check_homomorphism_s", "s"), ("affine.etale_s", "s"),
    ("affine.self_s", "s"),
    ("obstructions.decide_self_s", "s"), ("obstructions.h1_s", "s"),
    ("obstructions.det_poly_s", "s"), ("obstructions.self_s", "s"),
    ("cli.parse_s", "s"), ("cli.payload_s", "s"), ("cli.emit_s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"), ("trace.spans", "count"),
    ("verdict.failed_ratio", "ratio"), ("verdict.unknown_ratio", "ratio"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_sample(workload: str) -> float:
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def source_digest(numpy_version: str) -> str:
    """Identifies the code whose search reports must repeat byte for byte."""
    h = hashlib.sha256(
        f"{sys.version}|{numpy_version}|{BLAS_THREADS}".encode())
    for path in sorted((SRC / "flataff").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def timed_passes(workloads, ops, seconds, recorder=None) -> list:
    """Passes until the next one would end after `seconds`, judged by the
    last pass's length; at least one pass."""
    import tracing
    results = []
    t0 = perf_counter()
    while not results or (perf_counter() - t0
                          + results[-1].wall_s <= seconds):
        gc.collect()  # every pass starts from the same heap state
        if recorder is None:
            results.append(workloads.run_pass(ops))
        else:
            with tracing.patched(recorder, callers=(workloads,)):
                results.append(workloads.run_pass(ops, recorder))
    return results


def layer_metrics(rec, passes: int, untraced_wall: float,
                  traced_walls: list) -> dict:
    import tracing
    s = tracing.summarize(rec)
    calls, incl, selfs, layer = (s["calls"], s["inclusive"], s["self"],
                                 s["layer_self"])

    def per_pass(table, key):
        return table.get(key, 0) / passes

    m = {}
    for group in ("search.jacobian", "search.residual", "search.rationalize",
                  "exact.rank", "affine.check_homomorphism",
                  "connections.curvature"):
        m[f"{group}_calls"] = per_pass(calls, group)
    for group in ("search.jacobian", "search.residual", "search.multistart",
                  "search.rationalize", "search.assemble", "exact.rank",
                  "exact.solve", "exact.det", "liealg.build",
                  "liealg.killing_rank", "liealg.series", "liealg.profile",
                  "connections.curvature", "connections.torsion",
                  "connections.weyl", "affine.check_homomorphism",
                  "affine.etale", "obstructions.h1", "obstructions.det_poly"):
        m[f"{group}_s"] = per_pass(incl, group)
    m["search.lm_self_s"] = per_pass(selfs, "search.lm")
    m["obstructions.decide_self_s"] = per_pass(selfs, "obstructions.decide")
    m["search.starts"] = per_pass(calls, "search.lm")
    m["search.converged"] = per_pass(rec.counts, "search.converged")
    m["search.converged_ratio"] = (
        m["search.converged"] / m["search.starts"] if m["search.starts"] else 0.0)
    snapped = per_pass(rec.counts, "search.snapped")
    m["search.snapped_ratio"] = (
        snapped / m["search.rationalize_calls"]
        if m["search.rationalize_calls"] else 0.0)
    # the cli trio partitions the cli layer's self time
    m["cli.parse_s"] = per_pass(selfs, "cli.parse")
    m["cli.emit_s"] = per_pass(selfs, "cli.emit")
    m["cli.payload_s"] = (layer["cli"] / passes - m["cli.parse_s"]
                          - m["cli.emit_s"])
    for name, total in layer.items():
        m[f"{name}.self_s"] = total / passes
    traced_total = sum(traced_walls) / passes
    m["trace.wall_s"] = statistics.median(traced_walls)
    m["trace.overhead_s"] = m["trace.wall_s"] - untraced_wall
    m["trace.unattributed_s"] = traced_total - sum(layer.values()) / passes
    m["trace.spans"] = len(rec) / passes
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = str(min(BLAS_THREADS, nproc()))
    os.environ.update({var: threads for var in BLAS_VARS})  # before numpy
    if not (SRC / "flataff" / "__init__.py").is_file():
        print(f"error: no flataff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = [setup_sample(args.workload) for _ in range(SETUP_SAMPLES)]

    import flataff
    import numpy
    import workloads
    if not Path(flataff.__file__).resolve().is_relative_to(SRC):
        print(f"error: flataff imported from {flataff.__file__}",
              file=sys.stderr)
        return 2

    corpus = workloads.load_corpus(args.workload)
    ops = workloads.build_ops(args.workload, corpus)
    random.Random(args.seed).shuffle(ops)

    OUT.mkdir(exist_ok=True)
    ref_path = OUT / f"search-hashes-{source_digest(numpy.__version__)}.json"
    reference = (json.loads(ref_path.read_text("utf-8"))
                 if ref_path.is_file() else None)
    tally = workloads.Tally()

    passes = timed_passes(workloads, ops, args.seconds)
    all_passes = list(passes)
    traced = []
    rec = None
    if args.trace:
        import tracing
        rec = tracing.Recorder()
        traced = timed_passes(workloads, ops, args.seconds, rec)
        all_passes += traced

    first = workloads.report_hashes(ops, all_passes[0])
    if first and reference is None and len(all_passes) == 1:
        # first run of this code: repeat the searches once, untimed, so
        # that every run compares two reports made with equal seeds
        all_passes.append(workloads.run_pass(ops))
    for result in all_passes:
        workloads.check_pass(ops, result, tally, reference or first)
    if first and reference is None and tally.wrong == 0:
        ref_path.write_text(json.dumps(first, indent=1), "utf-8")

    walls = [r.wall_s for r in passes]
    wall = statistics.median(walls)
    slowest = statistics.median(max(r.op_seconds) for r in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "blas_threads": int(threads),
        "seed": args.seed,
        "workload": args.workload,
        "passes": len(passes),
        "traced_passes": len(traced),
    }
    for key, value in env.items():
        print(f"env {key}: {value}")

    per_op = {}
    for result in passes:
        for op, sec in zip(ops, result.op_seconds):
            per_op.setdefault(op.label, []).append(sec)
    for label in sorted(per_op):
        print(f"op {label}: {statistics.median(per_op[label]):.4f} s")
    for failure in tally.failures:
        print(f"failure {failure}")
    print(f"failed_ratio: {tally.failed_ratio():.4f} ratio "
          f"({tally.failed} failed of {tally.attempted} operations attempted)")
    print(f"unknown_ratio: {tally.unknown_ratio():.4f} ratio "
          f"({tally.unknown} unknown of {tally.unknown_base} operations "
          "with a known YES or NO answer)")

    e2e = {"setup_s": statistics.median(setup), "wall_s": wall,
           "slowest_op_s": slowest, "peak_rss_mb": rss_mb}
    if args.trace:
        import micro
        metrics = layer_metrics(rec, len(traced), wall,
                                [r.wall_s for r in traced])
        metrics.update(micro.gaussrat_rows(args.seed))
        rank_s, rank = micro.rank_row()
        # sl3: H^1 = (64 - rank) - dim B^1 = (64 - rank) - 8 = 0 (Whitehead)
        if rank != 56:
            tally.wrong += 1
            tally.failed += 1
            print(f"failure micro rank: got {rank}, expected 56")
        metrics["exact.sl3_h1_rank_s"] = rank_s
        metrics["verdict.failed_ratio"] = tally.failed_ratio()
        metrics["verdict.unknown_ratio"] = tally.unknown_ratio()
        units = dict(PER_LAYER)
        rec.dump(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"),
                 [op.label for op in ops])
    else:
        metrics = e2e
        units = dict(END_TO_END)

    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    record = {"env": env, "end_to_end": e2e, "metrics": metrics,
              "setup_samples": setup, "pass_walls": walls,
              "traced_walls": [r.wall_s for r in traced],
              "op_seconds": per_op, "failures": tally.failures}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), "utf-8")

    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, _ in (PER_LAYER if args.trace else END_TO_END)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
