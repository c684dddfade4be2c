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
from dataclasses import asdict
from functools import cache

from .exact import GaussRat, ExactMatrix, ZERO, _gauss, _ratio
from .liealg import (
    JacobiViolation,
    LieAlgebra,
    from_structure_constants,
    builtin,
    BUILTIN_NAMES,
)
from .connections import (
    InvariantConnection,
    zero_connection,
    standard_connection,
    is_torsion_free,
    _curved_pairs,
    _weyl_entries,
)
from .affine import (
    AffElement,
    AffMap,
    check_homomorphism,
    _induced_connection,
)
from .obstructions import decide_existence
from .search import SearchConfig, run_search
from .search import _DENOMINATOR_LADDER, _RATIONALIZE_TOL, _RESIDUAL_TOL

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

_COEFF_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class ParseError(ValueError):
    """Malformed input file; the message carries the position."""

    def __init__(self, position: str, message: str):
        self.position = position
        super().__init__(f"{position}: {message}")


def _coeff(value, position: str) -> GaussRat:
    if value == ["0", "0"]:
        return ZERO
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(p, str) for p in value)
    ):
        raise ParseError(
            position, 'expected a ["re", "im"] pair of rational strings'
        )
    parts = []
    for part in value:
        if not (m := _COEFF_RE.fullmatch(part)):
            raise ParseError(
                position,
                f"coefficient {part!r} does not match -?digits(/digits)?",
            )
        parts.append(m.groups())
    try:
        return _gauss(*_ratio(*parts[0]), *_ratio(*parts[1]))
    except ZeroDivisionError:
        raise ParseError(position, f"zero denominator in {value}") from None
    except ValueError as e:  # more digits than int() accepts
        raise ParseError(position, str(e)) from None


def _coeffs(value, shape: tuple, position: str):
    """Nested lists of GaussRat of the given shape, read from nested
    lists of ["re", "im"] pairs; () reads one pair."""
    if not shape:
        return _coeff(value, position)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ParseError(position, f"expected {shape[0]} entries")
    return [
        _coeffs(x, shape[1:], f"{position}[{t}]")
        for t, x in enumerate(value)
    ]


def _load_object(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"{path}:{e.lineno}:{e.colno}", f"invalid JSON ({e.msg})"
        ) from None
    except ValueError as e:  # not UTF-8, or an integer too long for int()
        raise ParseError(path, str(e)) from None
    except RecursionError:
        raise ParseError(path, "JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError(path, "top level must be an object")
    return data


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
    for key in data:
        if key not in ("name", "dim", "basis", "brackets"):
            raise ParseError(f"{source}.{key}", "unknown key; expected name, "
                             "dim, basis or brackets")
    if "name" in data and not isinstance(data["name"], str):
        raise ParseError(f"{source}.name", "expected a string")
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
        vec = _coeffs(item.get("result"), (n,), f"{where}.result")
        if (left, right) in table:
            raise ParseError(where, f"bracket ({left}, {right}) given twice")
        if left == right and any(vec):
            raise ParseError(where, f"[e{left + 1}, e{left + 1}] must vanish")
        if any(a + b for a, b in zip(vec, table.get((right, left), ()))):
            raise ParseError(where, f"brackets ({right}, {left}) and "
                             f"({left}, {right}) are not antisymmetric")
        table[(left, right)] = vec
    try:
        return from_structure_constants(n, names=basis, brackets=table)
    except JacobiViolation as e:
        raise ParseError(f"{source}.brackets", str(e)) from e


def parse_algebra(path: str) -> LieAlgebra:
    return parse_algebra_data(_load_object(path), source=path)


def parse_connection(path: str, g: LieAlgebra) -> InvariantConnection:
    n = g.n
    gamma = _coeffs(_load_object(path).get("gamma"), (n, n, n),
                    f"{path}.gamma")
    return InvariantConnection(g, gamma)


def parse_affmap(path: str, g: LieAlgebra) -> AffMap:
    images_data = _load_object(path).get("images")
    if not isinstance(images_data, list) or len(images_data) != g.n:
        raise ParseError(f"{path}.images", f"expected {g.n} images")
    images = []
    for t, item in enumerate(images_data):
        where = f"{path}.images[{t}]"
        if not isinstance(item, dict):
            raise ParseError(where, "expected an object with A and v")
        if t == 0:
            # the first image fixes the ambient dimension m of all
            A0 = item.get("A")
            if not isinstance(A0, list) or not A0:
                raise ParseError(f"{where}.A", "expected a square matrix")
            m = len(A0)
        A = _coeffs(item.get("A"), (m, m), f"{where}.A")
        v = _coeffs(item.get("v"), (m,), f"{where}.v")
        images.append(AffElement(ExactMatrix.from_rows(A), v))
    return AffMap(g, images)


# ---------------------------------------------------------------- reports


def _embedding_payload(m: AffMap) -> dict:
    return {
        "ambient": m.ambient,
        "images": [
            {"A": [im.A.row(i) for i in range(im.A.rows)], "v": im.v}
            for im in m.images
        ],
    }


def _algebra_payload(g: LieAlgebra, name: str | None) -> dict:
    return {
        "name": name or "algebra",
        "dim": g.n,
        "basis": list(g.names),
    }


def _decision_payload(report) -> dict:
    # a missing certificate or obstruction is None, and stays None
    conn, emb, ev = report.connection, report.embedding, report.obstruction
    return {
        "verdict": report.verdict,
        "notes": list(report.notes),
        "certificate_connection": conn and conn.gamma,
        "certificate_embedding": emb and _embedding_payload(emb),
        "obstruction": ev and asdict(ev),
    }


def _connection_analysis(conn: InvariantConnection) -> dict:
    R, tf = _curved_pairs(conn), is_torsion_free(conn)  # one defect pass
    return {
        "flat": not R,
        "torsion_free": tf,
        # the projective Weyl tensor needs zero torsion and n >= 3; R = 0
        # makes Ric and W vanish, so only a curved connection is checked
        "projectively_flat": (
            (not R or next(_weyl_entries(conn, R), None) is None)
            if tf and conn.g.n >= 3 else None
        ),
    }


def analyze(g: LieAlgebra, cfg: SearchConfig | None = None,
            name: str | None = None) -> dict:
    """Full report for one algebra: structural profile, existence
    decision, and analyses of the zero and standard connections."""
    decision = decide_existence(g, cfg)
    return {
        "algebra": _algebra_payload(g, name),
        "profile": asdict(g.structural_profile()),
        "decision": _decision_payload(decision),
        "connection_analyses": {
            "zero": _connection_analysis(zero_connection(g)),
            "standard": _connection_analysis(standard_connection(g)),
        },
    }


def classify_dim3() -> dict:
    """The dimension-3 table: abelian3, heis3, sol3 admit flat
    torsion-free invariant connections, sl2 does not."""
    rows = []
    for name in ("abelian3", "heis3", "sol3", "sl2"):
        g = builtin(name)
        decision = decide_existence(g)
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
            "residual_tol": _RESIDUAL_TOL,
            "rationalize_denominator_bound": _DENOMINATOR_LADDER[-1],
            "rationalize_tol": _RATIONALIZE_TOL,
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
            outcome.certificate and outcome.certificate.gamma
        ),
        "certificate_start": outcome.certificate_start,
        "exactly_verified": outcome.found,
    }


# ----------------------------------------------------------- text output


def _pair_depth(x):
    """0 for a coefficient, d for a nonempty list or tuple whose items
    all have depth d - 1 (vector 1, matrix 2, tensor 3), else None."""
    if isinstance(x, GaussRat):
        return 0
    if not isinstance(x, (list, tuple)) or not x:
        return None
    depths = {_pair_depth(e) for e in x}
    if len(depths) != 1 or None in depths:
        return None
    return depths.pop() + 1


def _render(obj, lines, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, val in obj.items():
            _render_entry(key, val, lines, indent)
    elif isinstance(obj, (list, tuple)):
        for val in obj:
            if isinstance(val, (dict, list, tuple)):
                lines.append(f"{pad}-")
                _render(val, lines, indent + 1)
            else:
                lines.append(f"{pad}- {val}")
    else:
        lines.append(f"{pad}{obj}")


def _render_entry(key, val, lines, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    depth = _pair_depth(val)
    if val is None:
        lines.append(f"{pad}{key}: none")
    elif isinstance(val, bool):
        lines.append(f"{pad}{key}: {'yes' if val else 'no'}")
    elif isinstance(val, (int, float, str)):
        lines.append(f"{pad}{key}: {val}")
    elif depth == 0:
        lines.append(f"{pad}{key}: {val}")
    elif depth == 3:
        lines.append(f"{pad}{key}:")
        nonzero = [
            f"{inner}[{i}][{j}][{k}] = {e}"
            for i, plane in enumerate(val)
            for j, row in enumerate(plane)
            for k, e in enumerate(row)
            if e
        ]
        lines.extend(nonzero)
        lines.append(
            f"{inner}(all other entries zero)" if nonzero
            else f"{inner}(all entries zero)"
        )
    elif depth == 2:
        lines.append(f"{pad}{key}:")
        for row in val:
            lines.append(f"{inner}[" + ", ".join(map(str, row)) + "]")
    elif depth == 1:
        lines.append(f"{pad}{key}: [" + ", ".join(map(str, val)) + "]")
    elif isinstance(val, (list, tuple)) and all(
        isinstance(v, (int, float, str, bool)) for v in val
    ):
        lines.append(f"{pad}{key}: [" + ", ".join(str(v) for v in val) + "]")
    else:
        lines.append(f"{pad}{key}:")
        _render(val, lines, indent + 1)


def emit(payload: dict, fmt: str) -> str:
    """Serialize a report. The JSON form holds exactly the same fields
    the text form prints; a GaussRat is its ["re", "im"] pair in JSON
    and its string in text."""
    if fmt == "json":
        return (json.dumps(payload, indent=2, sort_keys=True,
                           default=GaussRat.to_pair) + "\n")
    lines = []
    _render(payload, lines, 0)
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ main


def _algebra_from_args(args) -> tuple:
    name, path = getattr(args, "builtin", None), getattr(args, "path", None)
    if name and path:
        raise ParseError("<args>", "give an algebra file or --builtin NAME, "
                         "not both")
    if name:
        return builtin(name), name
    if path:
        data = _load_object(path)
        return parse_algebra_data(data, source=path), data.get("name")
    raise ParseError("<args>", "need an algebra file or --builtin NAME")


def _search_config(args) -> SearchConfig:
    try:
        return SearchConfig(**{
            k: v for k, v in vars(args).items()
            if k in ("starts", "seed") and v is not None
        })
    except ValueError as e:  # named by its field, which is the flag
        raise ParseError("<args>", f"--{e}") from None


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


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process, at main's first call."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
            "connection": conn.gamma,
        }
        payload.update(_connection_analysis(conn))
        return payload
    if args.command == "check-embedding":
        g, name = _algebra_from_args(args)
        m = parse_affmap(args.map, g)
        verdict = check_homomorphism(m)
        # None for a non-homomorphism; induced_* proved in _induced_connection
        conn = _induced_connection(m) if verdict.ok else None
        etale = conn is not None if verdict.ok else None
        return {
            "algebra": _algebra_payload(g, name),
            "ambient": m.ambient,
            "homomorphism": verdict.ok,
            "counterexample": (
                list(verdict.counterexample)
                if verdict.counterexample
                else None
            ),
            "injective": verdict.injective,
            "etale": etale,
            "induced_connection": conn and conn.gamma,
            "induced_flat": etale or None,
            "induced_torsion_free": etale or None,
        }
    if args.command == "search":
        g, name = _algebra_from_args(args)
        return search_report(g, _search_config(args), name=name)
    if args.command == "classify-dim3":
        return classify_dim3()
    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
