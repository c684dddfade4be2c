"""Tests for file parsing, report payloads, and the command line."""

import json

import pytest

from flataff.exact import GaussRat, ZERO, ONE
from flataff.liealg import builtin, InconsistentEntry, JacobiViolation
from flataff.connections import InvariantConnection, is_flat, is_torsion_free
from flataff.cli import (
    ParseError,
    parse_algebra,
    parse_connection,
    parse_affmap,
    analyze,
    classify_dim3,
    search_report,
    emit,
    main,
)
from flataff.search import SearchConfig


def _write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


def _zero_pair():
    return ["0", "0"]


def _heis_file(tmp_path):
    return _write(
        tmp_path,
        "heis.json",
        {
            "name": "heis3",
            "dim": 3,
            "basis": ["e1", "e2", "e3"],
            "brackets": [
                {
                    "left": 0,
                    "right": 1,
                    "result": [_zero_pair(), _zero_pair(), ["1", "0"]],
                }
            ],
        },
    )


def test_parse_algebra_heis(tmp_path):
    g = parse_algebra(_heis_file(tmp_path))
    assert g.same_constants(builtin("heis3"))
    assert g.names == ("e1", "e2", "e3")


def test_parse_algebra_empty_brackets_is_abelian(tmp_path):
    path = _write(tmp_path, "a.json", {"dim": 3, "brackets": []})
    g = parse_algebra(path)
    assert g.is_abelian()


def test_parse_algebra_rejects_inconsistent_pair(tmp_path):
    path = _write(
        tmp_path,
        "bad.json",
        {
            "dim": 2,
            "brackets": [
                {"left": 0, "right": 1, "result": [["1", "0"], _zero_pair()]},
                {"left": 1, "right": 0, "result": [["1", "0"], _zero_pair()]},
            ],
        },
    )
    with pytest.raises(InconsistentEntry):
        parse_algebra(path)


def test_parse_algebra_rejects_jacobi_violation(tmp_path):
    path = _write(
        tmp_path,
        "nojacobi.json",
        {
            "dim": 3,
            "brackets": [
                {"left": 0, "right": 1,
                 "result": [["1", "0"], _zero_pair(), _zero_pair()]},
                {"left": 1, "right": 2,
                 "result": [_zero_pair(), ["1", "0"], _zero_pair()]},
                {"left": 2, "right": 0,
                 "result": [_zero_pair(), _zero_pair(), ["1", "0"]]},
            ],
        },
    )
    with pytest.raises(JacobiViolation):
        parse_algebra(path)


def test_parse_errors_are_positioned(tmp_path):
    path = _write(
        tmp_path,
        "oob.json",
        {
            "dim": 3,
            "brackets": [
                {"left": 0, "right": 7,
                 "result": [_zero_pair(), _zero_pair(), _zero_pair()]}
            ],
        },
    )
    with pytest.raises(ParseError) as exc:
        parse_algebra(path)
    assert "brackets[0]" in str(exc.value)

    path = _write(
        tmp_path,
        "float.json",
        {
            "dim": 1,
            "brackets": [
                {"left": 0, "right": 0, "result": [["0.5", "0"]]}
            ],
        },
    )
    with pytest.raises(ParseError) as exc:
        parse_algebra(path)
    assert "result[0]" in str(exc.value)
    assert "0.5" in str(exc.value)


def test_parse_error_on_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"dim": 3,\n  "brackets": [}', encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        parse_algebra(str(p))
    assert exc.value.position.endswith(":2:16")


def test_parse_connection_and_round_trip(tmp_path):
    g = builtin("heis3")
    gamma = [
        [[_zero_pair() for _ in range(3)] for _ in range(3)]
        for _ in range(3)
    ]
    gamma[0][1][2] = ["1", "0"]
    path = _write(tmp_path, "conn.json", {"gamma": gamma})
    conn = parse_connection(path, g)
    assert conn.gamma[0][1][2] == ONE
    assert is_flat(conn) and is_torsion_free(conn)


def test_parse_affmap(tmp_path):
    g = builtin("heis3")
    zero_row = [_zero_pair() for _ in range(3)]
    A1 = [list(zero_row) for _ in range(3)]
    A1[2][1] = ["1", "0"]
    zero_A = [list(zero_row) for _ in range(3)]
    path = _write(
        tmp_path,
        "map.json",
        {
            "images": [
                {"A": A1, "v": [["1", "0"], _zero_pair(), _zero_pair()]},
                {"A": zero_A, "v": [_zero_pair(), ["1", "0"], _zero_pair()]},
                {"A": zero_A, "v": [_zero_pair(), _zero_pair(), ["1", "0"]]},
            ]
        },
    )
    m = parse_affmap(path, g)
    assert m.ambient == 3
    assert m.images[0].A[2, 1] == ONE


def test_analyze_payload_sl2():
    payload = analyze(builtin("sl2"), name="sl2")
    assert payload["decision"]["verdict"] == "NO"
    assert payload["decision"]["obstruction"]["killing_rank"] == 3
    assert payload["profile"]["semisimple"] is True
    za = payload["connection_analyses"]["zero"]
    assert za["flat"] is True
    assert za["torsion_free"] is False
    assert za["projectively_flat"] is None
    sa = payload["connection_analyses"]["standard"]
    assert sa["flat"] is False
    assert sa["torsion_free"] is True
    assert sa["projectively_flat"] is True


def test_analyze_payload_sol3():
    payload = analyze(builtin("sol3"), name="sol3")
    assert payload["decision"]["verdict"] == "YES"
    cert = payload["decision"]["certificate_connection"]
    assert cert[0][1][1] == ["1", "0"]
    assert cert[0][2][2] == ["-1", "0"]


def test_classify_dim3_table():
    table = classify_dim3()
    names = [row["algebra"] for row in table["rows"]]
    verdicts = [row["verdict"] for row in table["rows"]]
    assert names == ["abelian3", "heis3", "sol3", "sl2"]
    assert verdicts == ["YES", "YES", "YES", "NO"]
    # every YES certificate re-verifies exactly after a parse round trip
    for row in table["rows"]:
        if row["verdict"] != "YES":
            continue
        g = builtin(row["algebra"])
        cert = row["decision"]["certificate_connection"]
        gamma = [
            [
                [GaussRat(cert[i][j][k][0], cert[i][j][k][1])
                 for k in range(3)]
                for j in range(3)
            ]
            for i in range(3)
        ]
        conn = InvariantConnection(g, gamma)
        assert is_flat(conn)
        assert is_torsion_free(conn)


def test_emit_json_round_trips():
    table = classify_dim3()
    text = emit(table, "json")
    assert json.loads(text) == table


def test_emit_text_carries_same_fields():
    payload = analyze(builtin("sl2"), name="sl2")
    text = emit(payload, "text")
    assert "verdict: NO" in text
    assert "killing_rank: 3" in text
    assert "projectively_flat: yes" in text
    assert "derived_series_dims: [3]" in text


def test_main_classify_exit_zero(capsys):
    rc = main(["classify-dim3", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert [r["verdict"] for r in data["rows"]] == [
        "YES",
        "YES",
        "YES",
        "NO",
    ]


def test_main_verdict_not_in_exit_code(capsys):
    # a NO verdict still exits 0
    rc = main(["analyze", "--builtin", "sl2", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["decision"]["verdict"] == "NO"


def test_main_error_exit_one(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err

    bad = _write(
        tmp_path,
        "bad.json",
        {"dim": 2, "brackets": [
            {"left": 0, "right": 1, "result": [["1", "0"], ["0", "0"]]},
            {"left": 1, "right": 0, "result": [["1", "0"], ["0", "0"]]},
        ]},
    )
    rc = main(["analyze", bad])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err


def test_main_check_connection(tmp_path, capsys):
    algebra = _heis_file(tmp_path)
    gamma = [
        [[_zero_pair() for _ in range(3)] for _ in range(3)]
        for _ in range(3)
    ]
    gamma[0][1][2] = ["1", "0"]
    conn_path = _write(tmp_path, "conn.json", {"gamma": gamma})
    rc = main(
        ["check-connection", algebra, "--gamma", conn_path, "--format",
         "json"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["flat"] is True
    assert data["torsion_free"] is True
    assert data["projectively_flat"] is True


def test_main_check_embedding_failure_case(tmp_path, capsys):
    # pure translations are not a homomorphism for heis3
    algebra = _heis_file(tmp_path)
    zero_A = [[_zero_pair() for _ in range(3)] for _ in range(3)]
    path = _write(
        tmp_path,
        "map.json",
        {
            "images": [
                {"A": zero_A, "v": [["1", "0"], _zero_pair(), _zero_pair()]},
                {"A": zero_A, "v": [_zero_pair(), ["1", "0"], _zero_pair()]},
                {"A": zero_A, "v": [_zero_pair(), _zero_pair(), ["1", "0"]]},
            ]
        },
    )
    rc = main(["check-embedding", algebra, "--map", path, "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["homomorphism"] is False
    assert data["counterexample"] == [0, 1]
    assert data["etale"] is None


def test_search_reports_byte_identical_for_equal_seeds(capsys):
    argv = ["search", "--builtin", "sol3", "--starts", "12", "--seed", "7",
            "--format", "json"]
    rc1 = main(argv)
    out1 = capsys.readouterr().out
    rc2 = main(argv)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["config"]["seed"] == 7
    assert data["config"]["starts"] == 12


def test_search_report_certificate_is_exact():
    report = search_report(
        builtin("heis3"), SearchConfig(starts=3, seed=1), name="heis3"
    )
    assert report["exactly_verified"] is True
    assert report["certificate_start"] == 0
    cert = report["certificate"]
    g = builtin("heis3")
    gamma = [
        [[GaussRat(cert[i][j][k][0], cert[i][j][k][1]) for k in range(3)]
         for j in range(3)]
        for i in range(3)
    ]
    conn = InvariantConnection(g, gamma)
    assert is_flat(conn) and is_torsion_free(conn)


def test_text_report_prints_numeric_basis_labels(tmp_path, capsys):
    # two rational-looking labels are labels, not a coefficient pair
    path = _write(tmp_path, "a.json", {"dim": 2, "basis": ["1", "2"]})
    assert main(["analyze", path]) == 0
    assert "  basis: [1, 2]\n" in capsys.readouterr().out
