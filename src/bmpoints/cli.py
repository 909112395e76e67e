"""Command-line front end.

Subcommands: compute (run an algorithm on a point file and print or
serialize the result after verifying it), gen (seeded point-set files),
bench (algorithm grid with CSV output), verify (re-check a stored result
against its point file).  F_p results are checked by exact modular matrix
products, rational results by exact evaluation as integer sums over one
common denominator.  Exit codes: 0 success, 1 failed verification, 2 usage
error (arguments or input files), 3 internal error (an exception raised by
the runner, the checks or the output code).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .bench import RUNNERS, bench_csv, run_bench
from .bm import BMResult, bm_run, gpbm_run, spbm_run
from .fields import make_field
from .orders import ORDERS, order_by_name
from .points import format_point_file, parse_point_file
from .poly import (monomial_text, poly_from_json_terms, poly_json_terms,
                   poly_text)
from .randgen import gen_points
from .verify import verify_parts, verify_result


def result_to_json(result: BMResult) -> dict:
    order = result.order
    return {
        "field": result.field.name,
        "order": order.name,
        "algorithm": result.algorithm,
        "G": [poly_json_terms(g, order) for g in result.G],
        "N": [[i, j] for i, j in result.N],
        "Q": [poly_json_terms(q, order) for q in result.Q],
        "pointPermutation": list(result.point_permutation),
    }


def _json_text(doc: dict) -> str:
    """json.dumps(doc, indent=2) for a result_to_json document.

    dumps uses its C encoder only without indent, so with indent=2 it walks
    every term in Python.  Here each term and each N pair is one f-string
    and each array one join.  Keys other than G, N, Q and pointPermutation
    (the strings, and a "verify" block) go through dumps itself.
    """
    enc = encode_basestring_ascii
    items = []
    for key, value in doc.items():
        if key in ("G", "Q"):
            polys = [_json_array([f"[\n        {i},\n        {j},\n        "
                                  f"{enc(c)}\n      ]" for i, j, c in terms],
                                 "    ")
                     for terms in value]
            text = _json_array(polys, "  ")
        elif key == "N":
            text = _json_array([f"[\n      {i},\n      {j}\n    ]"
                                for i, j in value], "  ")
        elif key == "pointPermutation":
            text = _json_array([str(k) for k in value], "  ")
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"  {enc(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


def _json_array(items: list, pad: str) -> str:
    """Rendered items as a JSON array whose closing bracket sits at pad."""
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def result_text(result: BMResult) -> str:
    order = result.order
    lines = [f"field: {result.field.name}",
             f"order: {order.name}",
             f"algorithm: {result.algorithm}",
             f"points: {len(result.points)}",
             "G:"]
    lines += [f"  {poly_text(g, order)}" for g in result.G]
    lines.append("N: " + ", ".join(monomial_text(e) for e in result.N))
    lines.append("Q:")
    lines += [f"  {poly_text(q, order)}" for q in result.Q]
    lines.append("pointPermutation: "
                 + " ".join(str(k) for k in result.point_permutation))
    return "\n".join(lines)


class UsageError(Exception):
    """Bad arguments or a malformed input file (exit 2)."""


@contextmanager
def _input_stage():
    """Blame errors raised in the block on the input, not on bmpoints.

    FieldError and json.JSONDecodeError are ValueErrors.
    """
    try:
        yield
    except (ValueError, KeyError, OSError) as e:
        raise UsageError(e) from e


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bmpoints",
        description="Groebner bases and Newton interpolation bases of "
                    "vanishing ideals for planar point sets.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="run one algorithm on a point file")
    p.add_argument("--field", required=True,
                   help="field spec: q:<prime> or rational")
    p.add_argument("--order", required=True, choices=sorted(ORDERS))
    p.add_argument("--algo", default="auto",
                   choices=["bm", "spbm", "gpbm", "auto"])
    p.add_argument("--points", required=True, help="point file, one x,y per line")
    p.add_argument("--out", default="text", choices=["json", "text"])

    p = sub.add_parser("gen", help="write a seeded random point file")
    p.add_argument("--field", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("bench", help="time an algorithm grid, emit CSV")
    p.add_argument("--field", required=True)
    p.add_argument("--order", required=True, choices=sorted(ORDERS))
    p.add_argument("--sizes", required=True,
                   help="comma-separated point counts")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--algos", default="bm,spbm",
                   help="comma-separated subset of bm,spbm,gpbm")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output", help="CSV path (default: stdout)")

    p = sub.add_parser("verify", help="re-check a stored JSON result")
    p.add_argument("--result", required=True)
    p.add_argument("--points", required=True)
    return top


def _resolve_algo(algo: str, order_name: str) -> str:
    if algo == "auto":
        return "spbm" if order_name in ("lex", "inlex") else "gpbm"
    if algo == "spbm" and order_name not in ("lex", "inlex"):
        raise ValueError("spbm supports only lex and inlex")
    return algo


def _cmd_compute(args) -> int:
    with _input_stage():
        field = make_field(args.field)
        order = order_by_name(args.order)
        algo = _resolve_algo(args.algo, order.name)
        ps = parse_point_file(field, Path(args.points).read_text())
    result = {"bm": bm_run, "spbm": spbm_run, "gpbm": gpbm_run}[algo](ps, order)
    report = verify_result(result)
    if args.out == "json":
        doc = result_to_json(result)
        doc["verify"] = report.to_json()
        print(_json_text(doc))
    else:
        print(result_text(result))
        print("verify: " + ("PASS" if report.passed else "FAIL"))
        if not report.passed:
            print(report.text())
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    with _input_stage():
        field = make_field(args.field)
        ps = gen_points(field, args.n, args.seed)
        header = f"# field {field.name} n {args.n} seed {args.seed}\n"
        Path(args.output).write_text(header + format_point_file(ps))
        return 0


def _cmd_bench(args) -> int:
    with _input_stage():
        field = make_field(args.field)
        order = order_by_name(args.order)
        sizes = [int(s) for s in args.sizes.split(",") if s]
        algos = [a for a in args.algos.split(",") if a]
        if not sizes or not algos:
            raise ValueError("the grid needs at least one size and algorithm")
        for a in algos:
            if a not in RUNNERS:
                raise ValueError(f"unknown algorithm {a!r}")
            _resolve_algo(a, order.name)
        if args.reps < 1:
            raise ValueError(f"--reps must be at least 1, got {args.reps}")
        for n in sizes:
            if n < 1:
                raise ValueError(f"size {n} is below 1")
            if field.char and n > field.char ** 2:
                raise ValueError(f"size {n} exceeds the {field.char}x"
                                 f"{field.char} grid of {field.name}")
    text = bench_csv(run_bench(field, order, sizes, args.reps, algos,
                               args.seed))
    if args.output:
        with _input_stage():
            Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _each(entries, name: str, ok=None, what: str = "") -> list:
    """entries, named if it is not a list; given ok, the first entry that
    fails it is named."""
    if not isinstance(entries, list):
        raise ValueError(f"{name} is not a list: {entries!r}")
    for k, e in enumerate(entries):
        if ok and not ok(e):
            raise ValueError(f"{name}[{k}] is not {what}: {e!r}")
    return entries


def _is_pair(e) -> bool:
    return (isinstance(e, list) and len(e) == 2
            and all(type(v) is int for v in e))


def _is_term(t) -> bool:
    return (isinstance(t, list) and len(t) == 3 and _is_pair(t[:2])
            and isinstance(t[2], str))


def _stored_polys(field, doc: dict, key: str) -> list:
    """doc[key] as polynomials; a malformed term or a zero entry is named."""
    polys = []
    for k, terms in enumerate(_each(doc[key], key)):
        q = poly_from_json_terms(field, _each(terms, f"{key}[{k}]", _is_term,
                                              'an [i, j, "c"] triple'))
        if q.is_zero():
            raise ValueError(f"{key}[{k}] is the zero polynomial")
        polys.append(q)
    return polys


def _cmd_verify(args) -> int:
    with _input_stage():
        doc = json.loads(Path(args.result).read_text())
        if not isinstance(doc, dict):
            raise ValueError("the stored result is not a JSON object")
        for key in ("field", "order"):
            if not isinstance(doc[key], str):
                raise ValueError(f"{key} is not a string: {doc[key]!r}")
        field = make_field(doc["field"])
        order = order_by_name(doc["order"])
        ps = parse_point_file(field, Path(args.points).read_text())
        G = _stored_polys(field, doc, "G")
        N = [tuple(e) for e in _each(doc["N"], "N", _is_pair,
                                     "a pair of integers")]
        Q = _stored_polys(field, doc, "Q")
        perm = _each(doc["pointPermutation"], "pointPermutation",
                     lambda v: type(v) is int, "an integer")
    report = verify_parts(ps, order, G, N, Q, perm)
    print(report.text())
    return 0 if report.passed else 1


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    handlers = {"compute": _cmd_compute, "gen": _cmd_gen,
                "bench": _cmd_bench, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a fault in bmpoints, not in its input
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
