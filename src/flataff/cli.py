"""Command line interface: file ingestion, analysis orchestration, and
report emission.

Input files are JSON with every coefficient written as a pair of
rational strings ["re", "im"] (grammar: -?digits(/digits)?). Floats are
rejected; exactness extends to I/O. Reports are emitted as text or as
JSON carrying the same fields; exit code 0 means the run had no errors,
whatever the mathematical verdict was.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .exact import GaussRat, ExactMatrix
from .liealg import (
    LieAlgebra,
    from_structure_constants,
    builtin,
    BUILTIN_NAMES,
)
from .connections import (
    InvariantConnection,
    zero_connection,
    standard_connection,
    is_flat,
    is_torsion_free,
    is_projectively_flat,
)
from .affine import (
    AffElement,
    AffMap,
    check_homomorphism,
    is_etale,
    lsa_from_etale,
)
from .obstructions import decide_existence
from .search import SearchConfig, run_search

__all__ = [
    "ParseError",
    "parse_algebra",
    "parse_connection",
    "parse_affmap",
    "analyze",
    "classify_dim3",
    "emit",
    "main",
]

_COEFF_RE = re.compile(r"^-?\d+(/\d+)?$")


class ParseError(ValueError):
    """Malformed input file; the message carries the position."""

    def __init__(self, position: str, message: str):
        self.position = position
        super().__init__(f"{position}: {message}")


def _coeff(value, position: str) -> GaussRat:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(p, str) for p in value)
    ):
        raise ParseError(
            position, 'expected a ["re", "im"] pair of rational strings'
        )
    for part in value:
        if not _COEFF_RE.match(part):
            raise ParseError(
                position,
                f"coefficient {part!r} does not match -?digits(/digits)?",
            )
    return GaussRat(value[0], value[1])


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"{path}:{e.lineno}:{e.colno}", f"invalid JSON ({e.msg})"
        ) from None


def _require_int(data, key, position, minimum=0):
    v = data.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ParseError(
            f"{position}.{key}", f"expected an integer >= {minimum}"
        )
    return v


def parse_algebra_data(data, source: str = "<input>") -> LieAlgebra:
    if not isinstance(data, dict):
        raise ParseError(source, "top level must be an object")
    n = _require_int(data, "dim", source)
    basis = data.get("basis")
    if basis is not None:
        if not isinstance(basis, list) or len(basis) != n or not all(
            isinstance(b, str) for b in basis
        ):
            raise ParseError(f"{source}.basis", f"expected {n} labels")
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError(f"{source}.brackets", "expected a list")
    table = {}
    for t, item in enumerate(brackets):
        where = f"{source}.brackets[{t}]"
        if not isinstance(item, dict):
            raise ParseError(where, "expected an object")
        left = _require_int(item, "left", where)
        right = _require_int(item, "right", where)
        if left >= n or right >= n:
            raise ParseError(where, f"index out of range for dim {n}")
        result = item.get("result")
        if not isinstance(result, list) or len(result) != n:
            raise ParseError(
                f"{where}.result", f"expected {n} coefficient pairs"
            )
        vec = [
            _coeff(pair, f"{where}.result[{s}]")
            for s, pair in enumerate(result)
        ]
        if (left, right) in table:
            raise ParseError(where, f"bracket ({left}, {right}) given twice")
        table[(left, right)] = vec
    return from_structure_constants(n, names=basis, brackets=table)


def parse_algebra(path: str) -> LieAlgebra:
    return parse_algebra_data(_load_json(path), source=path)


def parse_connection(path: str, g: LieAlgebra) -> InvariantConnection:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(path, "top level must be an object")
    n = g.n
    gm = data.get("gamma")
    if not isinstance(gm, list) or len(gm) != n:
        raise ParseError(f"{path}.gamma", f"expected {n} planes")
    gamma = []
    for i in range(n):
        if not isinstance(gm[i], list) or len(gm[i]) != n:
            raise ParseError(f"{path}.gamma[{i}]", f"expected {n} rows")
        plane = []
        for j in range(n):
            row = gm[i][j]
            if not isinstance(row, list) or len(row) != n:
                raise ParseError(
                    f"{path}.gamma[{i}][{j}]", f"expected {n} pairs"
                )
            plane.append(
                [
                    _coeff(row[k], f"{path}.gamma[{i}][{j}][{k}]")
                    for k in range(n)
                ]
            )
        gamma.append(plane)
    return InvariantConnection(g, gamma)


def parse_affmap(path: str, g: LieAlgebra) -> AffMap:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(path, "top level must be an object")
    images_data = data.get("images")
    if not isinstance(images_data, list) or len(images_data) != g.n:
        raise ParseError(f"{path}.images", f"expected {g.n} images")
    images = []
    for t, item in enumerate(images_data):
        where = f"{path}.images[{t}]"
        if not isinstance(item, dict):
            raise ParseError(where, "expected an object with A and v")
        A_data = item.get("A")
        v_data = item.get("v")
        if not isinstance(A_data, list) or not A_data:
            raise ParseError(f"{where}.A", "expected a square matrix")
        m = len(A_data)
        ents = []
        for r in range(m):
            if not isinstance(A_data[r], list) or len(A_data[r]) != m:
                raise ParseError(
                    f"{where}.A[{r}]", f"expected {m} pairs"
                )
            for c in range(m):
                ents.append(_coeff(A_data[r][c], f"{where}.A[{r}][{c}]"))
        if not isinstance(v_data, list) or len(v_data) != m:
            raise ParseError(f"{where}.v", f"expected {m} pairs")
        v = [_coeff(v_data[r], f"{where}.v[{r}]") for r in range(m)]
        images.append(AffElement(ExactMatrix(m, m, ents), v))
    return AffMap(g, images)


# ---------------------------------------------------------------- reports


class _Pair(list):
    """A ["re", "im"] coefficient pair. json writes it as a plain list;
    the text renderer tells it apart from other two-string lists."""


def _pair(x: GaussRat) -> list:
    return _Pair(x.to_pair())


def _gamma_payload(conn: InvariantConnection) -> list:
    n = conn.g.n
    return [
        [[_pair(conn.gamma[i][j][k]) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def _matrix_payload(m: ExactMatrix) -> list:
    return [[_pair(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def _embedding_payload(m: AffMap) -> dict:
    return {
        "ambient": m.ambient,
        "images": [
            {"A": _matrix_payload(im.A), "v": [_pair(x) for x in im.v]}
            for im in m.images
        ],
    }


def _algebra_payload(g: LieAlgebra, name: str | None) -> dict:
    return {
        "name": name or "algebra",
        "dim": g.n,
        "basis": list(g.names),
    }


def _profile_payload(g: LieAlgebra) -> dict:
    p = g.structural_profile()
    return {
        "abelian": p.abelian,
        "solvable": p.solvable,
        "nilpotent": p.nilpotent,
        "unimodular": p.unimodular,
        "semisimple": p.semisimple,
        "killing_rank": p.killing_rank,
        "derived_series_dims": p.derived_series_dims,
        "lower_central_dims": p.lower_central_dims,
    }


def _decision_payload(report) -> dict:
    out = {"verdict": report.verdict, "notes": list(report.notes)}
    if report.connection is not None:
        out["certificate_connection"] = _gamma_payload(report.connection)
    else:
        out["certificate_connection"] = None
    if report.embedding is not None:
        out["certificate_embedding"] = _embedding_payload(report.embedding)
    else:
        out["certificate_embedding"] = None
    if report.obstruction is not None:
        ev = report.obstruction
        out["obstruction"] = {
            "killing_rank": ev.killing_rank,
            "h1_adjoint": ev.h1_adjoint,
            "det_poly_is_zero": ev.det_poly_is_zero,
            "statement": ev.statement,
        }
    else:
        out["obstruction"] = None
    return out


def _connection_analysis(conn: InvariantConnection) -> dict:
    flat = is_flat(conn)
    tf = is_torsion_free(conn)
    if tf and conn.g.n >= 3:
        projectively_flat = is_projectively_flat(conn)
    else:
        projectively_flat = None
    return {
        "flat": flat,
        "torsion_free": tf,
        "projectively_flat": projectively_flat,
    }


def analyze(g: LieAlgebra, cfg: SearchConfig | None = None,
            name: str | None = None) -> dict:
    """Full report for one algebra: structural profile, existence
    decision, and analyses of the zero and standard connections."""
    decision = decide_existence(g, cfg)
    return {
        "algebra": _algebra_payload(g, name),
        "profile": _profile_payload(g),
        "decision": _decision_payload(decision),
        "connection_analyses": {
            "zero": _connection_analysis(zero_connection(g)),
            "standard": _connection_analysis(standard_connection(g)),
        },
    }


def classify_dim3(cfg: SearchConfig | None = None) -> dict:
    """The dimension-3 table: abelian3, heis3, sol3 admit flat
    torsion-free invariant connections, sl2 does not."""
    rows = []
    for name in ("abelian3", "heis3", "sol3", "sl2"):
        g = builtin(name)
        decision = decide_existence(g, cfg)
        rows.append(
            {
                "algebra": name,
                "verdict": decision.verdict,
                "decision": _decision_payload(decision),
            }
        )
    return {"rows": rows}


def search_report(g: LieAlgebra, cfg: SearchConfig,
                  name: str | None = None) -> dict:
    outcome = run_search(g, cfg)
    return {
        "algebra": _algebra_payload(g, name),
        "config": {
            "starts": cfg.starts,
            "seed": cfg.seed,
            "max_iters": cfg.max_iters,
            "residual_tol": cfg.residual_tol,
            "rationalize_denominator_bound":
                cfg.rationalize_denominator_bound,
            "rationalize_tol": cfg.rationalize_tol,
        },
        "numeric_candidates": [
            {
                "start_index": c.start_index,
                "residual_norm": c.residual_norm,
                "iterations": c.iterations,
            }
            for c in outcome.candidates
        ],
        "certificate": (
            _gamma_payload(outcome.certificate)
            if outcome.certificate is not None
            else None
        ),
        "certificate_start": outcome.certificate_start,
        "exactly_verified": outcome.found,
    }


# ----------------------------------------------------------- text output


def _pair_depth(x):
    """0 for a coefficient pair, d for a nonempty list whose items all
    have depth d - 1 (vector 1, matrix 2, tensor 3), else None."""
    if isinstance(x, _Pair):
        return 0
    if not isinstance(x, list) or not x:
        return None
    depths = {_pair_depth(e) for e in x}
    if len(depths) != 1 or None in depths:
        return None
    return depths.pop() + 1


def _fmt_pair(pair) -> str:
    return str(GaussRat(pair[0], pair[1]))


def _render(obj, lines, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, val in obj.items():
            _render_entry(key, val, lines, indent)
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                _render(val, lines, indent + 1)
            else:
                lines.append(f"{pad}- {val}")
    else:
        lines.append(f"{pad}{obj}")


def _render_entry(key, val, lines, indent):
    pad = "  " * indent
    depth = _pair_depth(val)
    if val is None:
        lines.append(f"{pad}{key}: none")
    elif isinstance(val, bool):
        lines.append(f"{pad}{key}: {'yes' if val else 'no'}")
    elif isinstance(val, (int, float, str)):
        lines.append(f"{pad}{key}: {val}")
    elif depth == 0:
        lines.append(f"{pad}{key}: {_fmt_pair(val)}")
    elif depth == 3:
        lines.append(f"{pad}{key}:")
        n = len(val)
        nonzero = []
        for i in range(n):
            for j in range(len(val[i])):
                for k in range(len(val[i][j])):
                    s = _fmt_pair(val[i][j][k])
                    if s != "0":
                        nonzero.append(f"[{i}][{j}][{k}] = {s}")
        inner = "  " * (indent + 1)
        if nonzero:
            for line in nonzero:
                lines.append(f"{inner}{line}")
            lines.append(f"{inner}(all other entries zero)")
        else:
            lines.append(f"{inner}(all entries zero)")
    elif depth == 2:
        lines.append(f"{pad}{key}:")
        inner = "  " * (indent + 1)
        for row in val:
            lines.append(f"{inner}[" + ", ".join(_fmt_pair(e) for e in row) + "]")
    elif depth == 1:
        lines.append(
            f"{pad}{key}: [" + ", ".join(_fmt_pair(e) for e in val) + "]"
        )
    elif isinstance(val, list) and all(
        isinstance(v, (int, float, str, bool)) for v in val
    ):
        lines.append(f"{pad}{key}: [" + ", ".join(str(v) for v in val) + "]")
    elif isinstance(val, dict):
        lines.append(f"{pad}{key}:")
        _render(val, lines, indent + 1)
    else:
        lines.append(f"{pad}{key}:")
        _render(val, lines, indent + 1)


def emit(payload: dict, fmt: str) -> str:
    """Serialize a report. The JSON form holds exactly the same fields
    the text form prints."""
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = []
    _render(payload, lines, 0)
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ main


def _algebra_from_args(args) -> tuple:
    if getattr(args, "builtin", None):
        return builtin(args.builtin), args.builtin
    if getattr(args, "path", None):
        data = _load_json(args.path)
        return parse_algebra_data(data, source=args.path), data.get("name")
    raise ParseError("<args>", "need an algebra file or --builtin NAME")


def _search_config(args) -> SearchConfig:
    kwargs = {}
    if getattr(args, "starts", None) is not None:
        kwargs["starts"] = args.starts
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    return SearchConfig(**kwargs)


def _add_algebra_arguments(sub):
    sub.add_argument("path", nargs="?", help="algebra file (JSON)")
    sub.add_argument(
        "--builtin",
        choices=BUILTIN_NAMES,
        help="use a built-in algebra instead of a file",
    )


def _add_common(sub):
    sub.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flataff",
        description=(
            "Decide whether a complex Lie algebra admits a flat "
            "torsion-free invariant holomorphic affine connection."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="profile, decision, and tensors")
    _add_algebra_arguments(p)
    p.add_argument("--starts", type=int, help="search starts (fallback)")
    p.add_argument("--seed", type=int, help="search seed (fallback)")
    _add_common(p)

    p = subs.add_parser(
        "check-connection", help="exact tensor checks for a Christoffel file"
    )
    _add_algebra_arguments(p)
    p.add_argument("--gamma", required=True, help="connection file (JSON)")
    _add_common(p)

    p = subs.add_parser(
        "check-embedding", help="homomorphism and etale checks for a map file"
    )
    _add_algebra_arguments(p)
    p.add_argument("--map", required=True, help="affine map file (JSON)")
    _add_common(p)

    p = subs.add_parser("search", help="numeric multistart + exact snap")
    _add_algebra_arguments(p)
    p.add_argument("--starts", type=int, help="number of starts")
    p.add_argument("--seed", type=int, help="random seed")
    _add_common(p)

    p = subs.add_parser(
        "classify-dim3", help="the dimension-3 existence table"
    )
    _add_common(p)

    args = parser.parse_args(argv)
    try:
        payload = _dispatch(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(emit(payload, args.format))
    return 0


def _dispatch(args) -> dict:
    if args.command == "analyze":
        g, name = _algebra_from_args(args)
        return analyze(g, _search_config(args), name=name)
    if args.command == "check-connection":
        g, name = _algebra_from_args(args)
        conn = parse_connection(args.gamma, g)
        payload = {
            "algebra": _algebra_payload(g, name),
            "connection": _gamma_payload(conn),
        }
        payload.update(_connection_analysis(conn))
        return payload
    if args.command == "check-embedding":
        g, name = _algebra_from_args(args)
        m = parse_affmap(args.map, g)
        verdict = check_homomorphism(m)
        payload = {
            "algebra": _algebra_payload(g, name),
            "ambient": m.ambient,
            "homomorphism": verdict.ok,
            "counterexample": (
                list(verdict.counterexample)
                if verdict.counterexample
                else None
            ),
            "injective": verdict.injective,
        }
        if verdict.ok:
            etale = is_etale(m)
            payload["etale"] = etale
            if etale:
                conn = lsa_from_etale(m)
                payload["induced_connection"] = _gamma_payload(conn)
                payload["induced_flat"] = is_flat(conn)
                payload["induced_torsion_free"] = is_torsion_free(conn)
            else:
                payload["induced_connection"] = None
                payload["induced_flat"] = None
                payload["induced_torsion_free"] = None
        else:
            payload["etale"] = None
            payload["induced_connection"] = None
            payload["induced_flat"] = None
            payload["induced_torsion_free"] = None
        return payload
    if args.command == "search":
        g, name = _algebra_from_args(args)
        return search_report(g, _search_config(args), name=name)
    if args.command == "classify-dim3":
        return classify_dim3()
    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
