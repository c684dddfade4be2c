"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from flataff import SearchConfig, builtin  # noqa: E402

SMALL = SearchConfig(starts=4, seed=1)


def _manifest():
    return json.loads((workloads.DATA / "corpus.json").read_text("utf-8"))


def _subset(corpus, names):
    return {n: corpus[n] for n in names}


def _tally(ops, result):
    tally = workloads.Tally()
    workloads.check_pass(ops, result, tally)
    return tally


def test_wrong_expected_verdict_raises_failed_ratio():
    names = ("abelian3", "sl2", "sl2xsl2")
    honest = _subset(workloads.load_corpus("decide-corpus"), names)
    manifest = _manifest()
    manifest["algebras"]["sl2"]["known"] = "YES"
    injected = _subset(workloads.load_corpus("decide-corpus", manifest),
                       names)
    results = {}
    for label, corpus in (("honest", honest), ("injected", injected)):
        ops = workloads.build_ops("decide-corpus", corpus, decide_budget=SMALL)
        results[label] = _tally(ops, workloads.run_pass(ops))
    assert results["honest"].failed_ratio() == 0.0
    assert results["injected"].failed == 1
    assert results["injected"].failed_ratio() == pytest.approx(1 / 3)
    assert "contradicts the known answer YES" in results["injected"].failures[0]


def test_exception_counts_as_failed_but_not_wrong():
    op = workloads.Op("boom", lambda: 1 / 0, lambda out: workloads.OK,
                      known="YES")
    tally = _tally([op], workloads.run_pass([op]))
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    assert tally.unknown_base == 1 and tally.unknown == 0


def test_changed_search_report_fails_the_hash_check():
    corpus = _subset(workloads.load_corpus("search-multistart"), ("heis3",))
    ops = workloads.build_ops("search-multistart", corpus, search_config=SMALL)
    result = workloads.run_pass(ops)
    tally = workloads.Tally()
    workloads.check_pass(ops, result, tally, {"search heis3": "0" * 64})
    assert tally.wrong == 1
    assert "differs from an earlier run" in tally.failures[0]


def test_tracing_changes_no_verdict_and_no_report_hash():
    search = workloads.build_ops(
        "search-multistart", workloads.load_corpus("search-multistart"),
        search_config=SMALL)
    decide = workloads.build_ops(
        "decide-corpus",
        _subset(workloads.load_corpus("decide-corpus"),
                ("abelian3", "heis3", "sl2", "aff1", "sol3_permuted")),
        decide_budget=SMALL)
    ops = search + decide
    plain = workloads.run_pass(ops)
    rec = tracing.Recorder()
    with tracing.patched(rec, callers=(workloads,)):
        traced = workloads.run_pass(ops, rec)
    assert workloads.report_hashes(ops, plain) == workloads.report_hashes(
        ops, traced)
    assert len(workloads.report_hashes(ops, plain)) == 3
    plain_verdicts = [out.verdict for out in plain.outputs[len(search):]]
    traced_verdicts = [out.verdict for out in traced.outputs[len(search):]]
    assert plain_verdicts == traced_verdicts
    assert _tally(ops, plain).wrong == _tally(ops, traced).wrong == 0
    # the spans cover the operations: layer self times add up to the pass
    summary = tracing.summarize(rec)
    covered = sum(summary["layer_self"].values())
    assert 0.9 * traced.wall_s < covered <= traced.wall_s
    assert summary["calls"]["obstructions.decide"] == len(decide)
    # and the wrappers are gone afterwards
    import flataff.obstructions
    assert not hasattr(flataff.obstructions.decide_existence, "__wrapped__")
    assert not hasattr(workloads.decide_existence, "__wrapped__")


def test_self_time_arithmetic_on_a_hand_made_span_tree():
    rec = tracing.Recorder()
    # search.run_search [0, 10]
    #   search.FlatnessSystem.jacobian [1, 4]
    #   search.rationalize_and_verify [5, 9]
    #     connections.is_flat [6, 7]
    #       connections.curvature [6.25, 6.75]
    # connections.curvature [12, 14]    (a second top-level operation)
    root = rec.add_span("search.run_search", 0.0, 10.0, -1, op=0)
    rec.add_span("search.FlatnessSystem.jacobian", 1.0, 4.0, root, op=0)
    rat = rec.add_span("search.rationalize_and_verify", 5.0, 9.0, root, op=0)
    flat = rec.add_span("connections.is_flat", 6.0, 7.0, rat, op=0)
    rec.add_span("connections.curvature", 6.25, 6.75, flat, op=0)
    rec.add_span("connections.curvature", 12.0, 14.0, -1, op=1)
    assert rec.self_times() == [3.0, 3.0, 3.0, 0.5, 0.5, 2.0]
    s = tracing.summarize(rec)
    assert s["layer_self"]["search"] == 9.0
    assert s["layer_self"]["connections"] == 3.0
    assert s["calls"]["connections.curvature"] == 2
    assert s["inclusive"]["connections.curvature"] == 2.5
    assert s["inclusive"]["search.rationalize"] == 4.0
    assert s["self"]["search.rationalize"] == 3.0


def test_nested_spans_of_one_group_count_once():
    rec = tracing.Recorder()
    outer = rec.add_span("exact.ExactMatrix.rank", 0.0, 2.0, -1)
    rec.add_span("exact.ExactMatrix.rref", 0.5, 1.5, outer)
    s = tracing.summarize(rec)
    assert s["calls"]["exact.rank"] == 1
    assert s["inclusive"]["exact.rank"] == 2.0
    assert s["self"]["exact.rank"] == 2.0


def test_catalog_files_match_the_builtin_catalog():
    corpus = workloads.load_corpus("decide-corpus")
    for name in ("abelian3", "heis3", "sol3", "sl2"):
        assert corpus[name].algebra.same_constants(builtin(name))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-structure",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
