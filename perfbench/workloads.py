"""The flataff benchmark workloads: corpus loading, operations and the
checks applied to every output.

An operation is one call into the package's public API whose result the
benchmark checks afterwards. A pass runs a workload's operations one
after another (a closed loop with a single caller) and times each one.
Checking happens after the pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from flataff import (
    GaussRat,
    InvariantConnection,
    LinearRep,
    SearchConfig,
    check_homomorphism,
    decide_existence,
    etale_from_lsa,
    h1_dim,
    is_etale,
    is_flat,
    is_projectively_flat,
    is_torsion_free,
    lsa_from_etale,
    standard_connection,
)
from flataff import cli

DATA = Path(__file__).resolve().parent / "data"

# Fixed search budget for search-multistart: seed 1 and 200 starts put
# heis3, sol3 and sl2 in the three Levenberg-Marquardt regimes (all
# starts converge / most converge, first snap late / none converge).
SEARCH_CONFIG = SearchConfig(starts=200, seed=1)

WORKLOADS = {
    "search-multistart": ("heis3", "sol3", "sl2"),
    "decide-corpus": ("abelian3", "heis3", "sol3", "sl2", "sl2xsl2", "aff1",
                      "heis3_permuted", "sol3_permuted", "gl2", "sl3"),
    "exact-structure": ("sl3", "sl2xsl2", "gl2", "aff1", "heis3", "sol3"),
}

OK = "ok"
UNKNOWN = "unknown"


@dataclass
class Entry:
    """One corpus algebra with its known answer and certificate."""
    name: str
    path: Path
    data: dict
    algebra: object
    known: str
    structure: dict | None = None
    connection: InvariantConnection | None = None
    embedding: object | None = None
    certificate_path: Path | None = None


def load_corpus(workload: str, manifest: dict | None = None) -> dict:
    """Parse the workload's algebras (and their certificates) from JSON.
    Every algebra goes through cli.parse_algebra_data, which runs the
    Jacobi check, so a bad file fails here."""
    if manifest is None:
        manifest = json.loads((DATA / "corpus.json").read_text("utf-8"))
    corpus = {}
    for name in WORKLOADS[workload]:
        spec = manifest["algebras"][name]
        path = DATA / spec["file"]
        data = json.loads(path.read_text("utf-8"))
        g = cli.parse_algebra_data(data, source=str(path))
        entry = Entry(name, path, data, g, spec["known"],
                      spec.get("structure"))
        cert = spec.get("certificate", {})
        if "connection" in cert:
            entry.certificate_path = DATA / cert["connection"]
            entry.connection = cli.parse_connection(
                str(entry.certificate_path), g)
        if "embedding" in cert:
            entry.certificate_path = DATA / cert["embedding"]
            entry.embedding = cli.parse_affmap(str(entry.certificate_path), g)
        corpus[name] = entry
    return corpus


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # returns OK, UNKNOWN, or a string saying why the output is wrong
    check: Callable[[object], str]
    # YES/NO when the operation yields a verdict; it then counts in the
    # base of unknown_ratio
    known: str | None = None
    # search reports are hashed so equal seeds can be compared byte-wise
    hashed: bool = False


# ------------------------------------------------------------- checking


def recheck_certificate(g, conn, emb) -> str:
    """The benchmark's own exact re-check of a YES certificate."""
    if not conn.g.same_constants(g):
        return "certificate connection belongs to another algebra"
    if not is_flat(conn):
        return "certificate connection is not flat"
    if not is_torsion_free(conn):
        return "certificate connection has torsion"
    if emb is None:
        emb = etale_from_lsa(conn)
    if not emb.g.same_constants(g):
        return "certificate embedding belongs to another algebra"
    if not check_homomorphism(emb).ok:
        return "certificate embedding is not a homomorphism"
    if not is_etale(emb):
        return "certificate embedding is not etale"
    return OK


def _verdict_check(entry: Entry, verdict: str, conn, emb) -> str:
    if verdict == "UNKNOWN":
        return UNKNOWN
    if verdict != entry.known:
        return f"verdict {verdict} contradicts the known answer {entry.known}"
    if verdict == "YES":
        return recheck_certificate(entry.algebra, conn, emb)
    return OK


def _connection_from_payload(g, gamma) -> InvariantConnection:
    return InvariantConnection(
        g, [[[GaussRat.from_pair(p) for p in row] for row in plane]
            for plane in gamma])


def check_search_report(entry: Entry, text: str) -> str:
    report = json.loads(text)
    if report["exactly_verified"] != (report["certificate"] is not None):
        return "exactly_verified disagrees with the certificate field"
    if report["certificate"] is None:
        return UNKNOWN
    conn = _connection_from_payload(entry.algebra, report["certificate"])
    return _verdict_check(entry, "YES", conn, None)


def check_decision(entry: Entry, report) -> str:
    if report.verdict == "NO" and report.obstruction is None:
        return "NO verdict without obstruction evidence"
    return _verdict_check(entry, report.verdict, report.connection,
                          report.embedding)


def _expect(name: str, got, want) -> str:
    return OK if got == want else f"{name}: got {got!r}, expected {want!r}"


def report_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------ workloads


def _search_ops(corpus: dict, cfg: SearchConfig) -> list:
    ops = []
    for entry in corpus.values():
        def run(e=entry):
            return cli.emit(cli.search_report(e.algebra, cfg, name=e.name),
                            "json")
        ops.append(Op(f"search {entry.name}", run,
                      lambda out, e=entry: check_search_report(e, out),
                      known=entry.known, hashed=True))
    return ops


def _decide_ops(corpus: dict, cfg: SearchConfig | None) -> list:
    ops = []
    for entry in corpus.values():
        ops.append(Op(
            f"decide {entry.name}",
            lambda e=entry: decide_existence(e.algebra, cfg),
            lambda out, e=entry: check_decision(e, out),
            known=entry.known))
    return ops


def _profile_dict(p) -> dict:
    return {k: getattr(p, k) for k in (
        "abelian", "solvable", "nilpotent", "unimodular", "semisimple",
        "killing_rank", "derived_series_dims", "lower_central_dims")}


def _standard_analysis(g) -> dict:
    conn = standard_connection(g)
    tf = is_torsion_free(conn)
    return {
        "flat": is_flat(conn),
        "torsion_free": tf,
        # the projective Weyl tensor needs a torsion-free connection, n >= 3
        "projectively_flat": is_projectively_flat(conn)
        if tf and g.n >= 3 else None,
    }


def _certificate_steps(entry: Entry) -> dict:
    """Re-verify the stored certificate in both directions of the
    etale <-> flat torsion-free correspondence."""
    if entry.connection is not None:
        emb = etale_from_lsa(entry.connection)
        conn = entry.connection
    else:
        emb = entry.embedding
        conn = None
    steps = {
        "homomorphism": check_homomorphism(emb).ok,
        "etale": is_etale(emb),
    }
    if conn is None:
        conn = lsa_from_etale(emb)
    steps["flat"] = is_flat(conn)
    steps["torsion_free"] = is_torsion_free(conn)
    return steps


def _run_cli(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_cli(result, keys) -> str:
    code, text = result
    if code != 0:
        return f"exit status {code}"
    payload = json.loads(text)
    bad = [k for k in keys if payload.get(k) is not True]
    return OK if not bad else f"fields not true: {', '.join(bad)}"


def _exact_ops(corpus: dict) -> list:
    ops = []
    for e in corpus.values():
        want = e.structure
        ops += [
            Op(f"parse {e.name}",
               lambda e=e: cli.parse_algebra_data(e.data, source=str(e.path)),
               lambda g, e=e: _expect("constants",
                                      g.same_constants(e.algebra), True)),
            Op(f"profile {e.name}",
               lambda e=e: _profile_dict(e.algebra.structural_profile()),
               lambda got, w=want: _expect("profile", got, w["profile"])),
            Op(f"h1 {e.name}",
               lambda e=e: h1_dim(LinearRep.adjoint(e.algebra)),
               lambda got, w=want: _expect("h1", got, w["h1_adjoint"])),
            Op(f"standard {e.name}",
               lambda e=e: _standard_analysis(e.algebra),
               lambda got, w=want: _expect("standard", got, w["standard"])),
        ]
        if e.certificate_path is None:
            continue
        ops.append(Op(
            f"certificate {e.name}",
            lambda e=e: _certificate_steps(e),
            lambda got: _expect("certificate", all(got.values()), True)))
        if e.connection is not None:
            argv = ["check-connection", str(e.path),
                    "--gamma", str(e.certificate_path), "--format", "json"]
            keys = ("flat", "torsion_free")
        else:
            argv = ["check-embedding", str(e.path),
                    "--map", str(e.certificate_path), "--format", "json"]
            keys = ("homomorphism", "etale", "induced_flat",
                    "induced_torsion_free")
        ops.append(Op(f"cli {argv[0]} {e.name}",
                      lambda argv=argv: _run_cli(argv),
                      lambda got, keys=keys: _check_cli(got, keys)))
    return ops


def build_ops(workload: str, corpus: dict,
              search_config: SearchConfig = SEARCH_CONFIG,
              decide_budget: SearchConfig | None = None) -> list:
    """The workload's operations in corpus order. The search budgets are
    parameters only so that the self-tests can run small searches."""
    if workload == "search-multistart":
        return _search_ops(corpus, search_config)
    if workload == "decide-corpus":
        return _decide_ops(corpus, decide_budget)
    return _exact_ops(corpus)


# ------------------------------------------------------------- running


@dataclass
class PassResult:
    wall_s: float
    op_seconds: list
    outputs: list
    errors: list        # exception text per op, or None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0      # failed with an output (not an exception)
    unknown: int = 0
    unknown_base: int = 0
    failures: list = field(default_factory=list)

    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def unknown_ratio(self) -> float:
        return self.unknown / self.unknown_base if self.unknown_base else 0.0


def run_pass(ops: list, recorder=None) -> PassResult:
    """Run every operation once, in order, timing each one. An exception
    is recorded as that operation's failure and the pass goes on."""
    seconds, outputs, errors = [], [], []
    t_pass = perf_counter()
    for index, op in enumerate(ops):
        if recorder is not None:
            recorder.current_op = index
        t0 = perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # counted in failed_ratio, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        seconds.append(perf_counter() - t0)
        outputs.append(out)
        errors.append(err)
    wall = perf_counter() - t_pass
    if recorder is not None:
        recorder.current_op = -1
    return PassResult(wall, seconds, outputs, errors)


def report_hashes(ops: list, result: PassResult) -> dict:
    """label -> sha256 of each search report the pass produced."""
    return {op.label: report_hash(out)
            for op, out, err in zip(ops, result.outputs, result.errors)
            if op.hashed and err is None}


def check_pass(ops: list, result: PassResult, tally: Tally,
               reference_hashes: dict | None = None):
    """Check every output of a pass into the tally. Search reports must
    hash to reference_hashes (label -> sha256) where it has the label."""
    hashes = report_hashes(ops, result)
    for op, out, err in zip(ops, result.outputs, result.errors):
        tally.attempted += 1
        if op.known is not None:
            tally.unknown_base += 1
        if err is not None:
            tally.failed += 1
            tally.failures.append(f"{op.label}: raised {err}")
            continue
        try:
            outcome = op.check(out)
        except Exception as exc:  # a malformed output is a wrong output
            outcome = f"check raised {type(exc).__name__}: {exc}"
        ref = (reference_hashes or {}).get(op.label)
        if op.hashed and ref is not None and ref != hashes[op.label]:
            outcome = "report differs from an earlier run with the same seed"
        if outcome == UNKNOWN:
            if op.known is not None:
                tally.unknown += 1
        elif outcome != OK:
            tally.failed += 1
            tally.wrong += 1
            tally.failures.append(f"{op.label}: {outcome}")
