"""Tests for file parsing, report payloads, and the command line."""

import json
import warnings

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


def test_zero_denominators_are_positioned_errors(tmp_path, capsys):
    bad = ["1/0", "0"]
    algebra = _write(tmp_path, "a.json", {"dim": 2, "brackets": [
        {"left": 0, "right": 1, "result": [_zero_pair(), bad]}]})
    with pytest.raises(ParseError) as exc:
        parse_algebra(algebra)
    assert exc.value.position.endswith(".brackets[0].result[1]")
    assert main(["analyze", algebra]) == 1
    assert "zero denominator" in capsys.readouterr().err

    g = builtin("heis3")
    gamma = [[[_zero_pair()] * 3 for _ in range(3)] for _ in range(3)]
    gamma[0][1][2] = ["0", "3/0"]
    with pytest.raises(ParseError) as exc:
        parse_connection(_write(tmp_path, "c.json", {"gamma": gamma}), g)
    assert exc.value.position.endswith(".gamma[0][1][2]")

    zero_A = [[_zero_pair()] * 3 for _ in range(3)]
    images = [{"A": zero_A, "v": [_zero_pair()] * 3} for _ in range(3)]
    images[2]["v"] = [_zero_pair(), bad, _zero_pair()]
    with pytest.raises(ParseError) as exc:
        parse_affmap(_write(tmp_path, "m.json", {"images": images}), g)
    assert exc.value.position.endswith(".images[2].v[1]")


def test_mixed_size_map_fails_at_the_image(tmp_path):
    g = builtin("heis3")
    images = [
        {"A": [[_zero_pair()] * n for _ in range(n)],
         "v": [_zero_pair()] * n}
        for n in (3, 3, 2)
    ]
    with pytest.raises(ParseError) as exc:
        parse_affmap(_write(tmp_path, "m.json", {"images": images}), g)
    assert exc.value.position.endswith(".images[2].A")


def test_algebra_name_must_be_a_string(tmp_path, capsys):
    for name in (5, ["a"], None):
        path = _write(tmp_path, "a.json", {"name": name, "dim": 1})
        with pytest.raises(ParseError) as exc:
            parse_algebra(path)
        assert exc.value.position == f"{path}.name"
        assert main(["analyze", path]) == 1
        assert ".name: expected a string" in capsys.readouterr().err
    path = _write(tmp_path, "a.json", {"name": "line", "dim": 1})
    assert main(["analyze", path]) == 0
    assert "  name: line\n" in capsys.readouterr().out


def test_constants_beyond_float_range_end_in_a_verdict(tmp_path, capsys):
    # [e1, e2] = 10^400 e2 is exact input, but no float holds 10^400; it is
    # aff1 in a scaled basis, a known YES
    huge = _write(tmp_path, "huge.json", {"dim": 2, "brackets": [
        {"left": 0, "right": 1,
         "result": [_zero_pair(), ["1" + "0" * 400, "0"]]}]})
    assert main(["analyze", huge, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["decision"]["verdict"] == "YES"
    assert data["profile"]["solvable"] is True
    assert data["profile"]["killing_rank"] == 1
    assert data["connection_analyses"]["standard"]["torsion_free"] is True

    assert main(["search", huge, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["certificate"] is not None
    assert data["exactly_verified"] is True


def test_constants_that_overflow_the_residual_end_quietly(tmp_path, capsys):
    # [e1, e2] = 10^e e2 is aff1 rescaled (a known YES); unscaled, the
    # first search step would overflow in floats from about 10^77 on
    for e in (100, 200, 307):
        path = _write(tmp_path, f"big{e}.json", {"dim": 2, "brackets": [
            {"left": 0, "right": 1,
             "result": [_zero_pair(), ["1" + "0" * e, "0"]]}]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["analyze", path, "--format", "json"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            assert json.loads(out)["decision"]["verdict"] == "YES"

            assert main(["search", path, "--format", "json"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            data = json.loads(out)
            assert data["certificate"] is not None
            assert data["exactly_verified"] is True


def test_text_report_renders_every_coefficient_shape(tmp_path, capsys):
    assert main(["analyze", "--builtin", "sol3"]) == 0
    text = capsys.readouterr().out
    assert (
        "  certificate_connection:\n"
        "    [0][1][1] = 1\n"
        "    [0][2][2] = -1\n"
        "    (all other entries zero)\n"
    ) in text
    assert (
        "        A:\n"
        "          [0, 0, 0]\n"
        "          [0, 1, 0]\n"
        "          [0, 0, -1]\n"
        "        v: [1, 0, 0]\n"
    ) in text

    gamma = [[[_zero_pair()] * 3 for _ in range(3)] for _ in range(3)]
    conn = _write(tmp_path, "zero.json", {"gamma": gamma})
    assert main(["check-connection", "--builtin", "heis3",
                 "--gamma", conn]) == 0
    assert "connection:\n  (all entries zero)\n" in capsys.readouterr().out


def _count_calls(monkeypatch, name, counts):
    """Count calls of the flataff function `name` from every module
    that binds it."""
    import flataff.affine
    import flataff.cli
    import flataff.connections
    import flataff.obstructions
    import flataff.search

    modules = (flataff.affine, flataff.cli, flataff.connections,
               flataff.obstructions, flataff.search)
    original = next(getattr(m, name) for m in modules if hasattr(m, name))
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for m in modules:
        if getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, counted)


def _gl2_files(tmp_path):
    """gl2 on E11, E12, E21, E22 and the flat torsion-free connection
    of matrix multiplication, E_ab E_cd = delta_bc E_ad."""
    def product(i, j):
        (a, b), (c, d) = divmod(i, 2), divmod(j, 2)
        return {2 * a + d: 1} if b == c else {}

    def pairs(vec):
        return [[str(vec.get(k, 0)), "0"] for k in range(4)]

    brackets = []
    for i in range(4):
        for j in range(i + 1, 4):
            vec = dict(product(i, j))
            for k, x in product(j, i).items():
                vec[k] = vec.get(k, 0) - x
            brackets.append({"left": i, "right": j, "result": pairs(vec)})
    gamma = [[pairs(product(i, j)) for j in range(4)] for i in range(4)]
    return (_write(tmp_path, "gl2.json", {"dim": 4, "brackets": brackets}),
            _write(tmp_path, "gl2_conn.json", {"gamma": gamma}))


def test_each_exact_check_runs_once_per_command(tmp_path, monkeypatch,
                                                capsys):
    counts = {}
    for name in ("check_homomorphism", "curvature", "torsion"):
        _count_calls(monkeypatch, name, counts)

    zero_A = [[_zero_pair()] * 3 for _ in range(3)]
    A1 = [[_zero_pair()] * 3 for _ in range(3)]
    A1[2][1] = ["1", "0"]
    emb = _write(tmp_path, "map.json", {"images": [
        {"A": A1, "v": [["1", "0"], _zero_pair(), _zero_pair()]},
        {"A": zero_A, "v": [_zero_pair(), ["1", "0"], _zero_pair()]},
        {"A": zero_A, "v": [_zero_pair(), _zero_pair(), ["1", "0"]]},
    ]})
    assert main(["check-embedding", "--builtin", "heis3", "--map", emb,
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["etale"] is True and data["induced_flat"] is True
    assert counts["check_homomorphism"] == 1

    algebra, conn = _gl2_files(tmp_path)
    counts.update(curvature=0, torsion=0)
    assert main(["check-connection", algebra, "--gamma", conn,
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["flat"] is True and data["torsion_free"] is True
    assert data["projectively_flat"] is True
    assert (counts["curvature"], counts["torsion"]) == (1, 1)
