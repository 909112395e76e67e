"""Command-line front end.

Subcommands: compute (run an algorithm on a point file and print or
serialize the result after verifying it), gen (seeded point-set files),
bench (algorithm grid with CSV output), verify (re-check a stored result
against its point file).  Results are checked with one monomial table of
G's and Q's exponents at the points (verify.verify_parts).  Both output
formats render G and Q from their coefficient matrices through one term
walk (poly.render_rows) in one sort of G's columns, and compute writes
them after verify, poly.RENDER_ROWS rows at a time.  verify reads G and Q
back in one walk over their stored terms (_stored_polys), a map per row,
dropping each row's parsed terms; from_terms writes each map at once.
Exit codes: 0 success, 1 failed verification, 2 usage error (arguments or
input files), 3 internal error (an exception raised by the runner, the
checks or the output code; a writer fault may leave truncated output on
stdout), 141 stdout closed before the output was written (as by head).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from contextlib import contextmanager
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .bench import RUNNERS, bench_csv, run_bench
from .bm import SPBM_AXIS, BMResult, bm_run, gpbm_run, spbm_run
from .fields import make_field
from .orders import ORDERS, order_by_name
from .points import EmptySetError, format_point_file, parse_point_file
from .poly import PolyMatrix, monomial_text, render_rows, text_rows
from .randgen import gen_points
from .verify import verify_parts, verify_result

EXIT_PIPE = 141  # stdout closed early: 128 + SIGPIPE, as a shell reports


def result_to_json(result: BMResult) -> dict:
    """The result's JSON document: field, order, algorithm, G and Q as
    lists of [i, j, "c"] triples descending under the order, N and
    pointPermutation."""
    return json.loads("".join(_json_pieces(result)))


def _column_orders(result: BMResult):
    """G's column order, and Q's: G's order restricted to Q's columns,
    which are G's first len(N)."""
    perm = result.G_dense.column_order(result.order)
    return perm, perm[perm < len(result.Q_dense.exps)]


def _json_pieces(result: BMResult, report=None):
    """The result as JSON text, byte for byte json.dumps(doc, indent=2) of
    its document, with report's "verify" block last when given: a run of
    strings, G and Q a block of poly.RENDER_ROWS rows at a time, so that
    compute can write each before the next is rendered.

    dumps uses its C encoder only without indent, so with indent=2 it walks
    every term in Python.  Here G and Q are rendered from their matrices
    (_rows_json); the verify block goes through dumps itself.
    """
    enc = encode_basestring_ascii
    g_perm, q_perm = _column_orders(result)
    items = [("field", [enc(result.field.name)]),
             ("order", [enc(result.order.name)]),
             ("algorithm", [enc(result.algorithm)]),
             ("G", _rows_json(result.G_dense, g_perm)),
             ("N", [_json_array([f"[\n      {i},\n      {j}\n    ]"
                                 for i, j in result.N], "  ")]),
             ("Q", _rows_json(result.Q_dense, q_perm)),
             ("pointPermutation", [_json_array(
                 [str(k) for k in result.point_permutation], "  ")])]
    if report is not None:
        items.append(("verify", [json.dumps(report.to_json(), indent=2)
                                 .replace("\n", "\n  ")]))
    sep = "{\n"
    for key, pieces in items:
        yield f"{sep}  {enc(key)}: "
        yield from pieces
        sep = ",\n"
    yield "\n}"


def _rows_json(polys: PolyMatrix, perm: np.ndarray):
    """The rows as a JSON array of [i, j, "c"] term arrays, terms in the
    column order perm, in pieces of poly.RENDER_ROWS rows (render_rows);
    polys has at least one row."""
    exps = polys.exps
    columns = [f'[\n        {exps[c][0]},\n        {exps[c][1]},\n        "'
               for c in perm.tolist()]
    sep = "[\n    "
    for rows in render_rows(polys, perm, columns, '"\n      ],\n      '):
        yield sep + ",\n    ".join(
            [f'[\n      {r}"\n      ]\n    ]' if r else "[]" for r in rows])
        sep = ",\n    "
    yield "\n  ]"


def _json_array(items: list, pad: str) -> str:
    """Rendered items, at least one, as a JSON array closing at pad."""
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def _text_pieces(result: BMResult):
    """The result as text, a run of strings, G and Q a block of
    poly.RENDER_ROWS rows at a time (text_rows), one line per row."""
    g_perm, q_perm = _column_orders(result)
    yield (f"field: {result.field.name}\norder: {result.order.name}\n"
           f"algorithm: {result.algorithm}\npoints: {len(result.points)}\nG:")
    for rows in text_rows(result.G_dense, g_perm):
        yield "".join(["\n  " + r for r in rows])
    yield "\nN: " + ", ".join(monomial_text(e) for e in result.N) + "\nQ:"
    for rows in text_rows(result.Q_dense, q_perm):
        yield "".join(["\n  " + r for r in rows])
    yield "\npointPermutation: " + " ".join(
        str(k) for k in result.point_permutation)


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
        return "spbm" if order_name in SPBM_AXIS else "gpbm"
    if algo == "spbm" and order_name not in SPBM_AXIS:
        raise ValueError(f"spbm supports only {' and '.join(SPBM_AXIS)}")
    return algo


def _cmd_compute(args) -> int:
    with _input_stage():
        field = make_field(args.field)
        order = order_by_name(args.order)
        algo = _resolve_algo(args.algo, order.name)
        ps = parse_point_file(field, Path(args.points).read_text())
        if len(ps) == 0:
            raise EmptySetError(f"{args.points} holds no points")
    result = {"bm": bm_run, "spbm": spbm_run, "gpbm": gpbm_run}[algo](ps, order)
    report = verify_result(result)
    if args.out == "json":
        pieces = _json_pieces(result, report)
    else:
        verdict = "PASS" if report.passed else "FAIL\n" + report.text()
        pieces = chain(_text_pieces(result), [f"\nverify: {verdict}"])
    for piece in pieces:
        sys.stdout.write(piece)
    sys.stdout.write("\n")
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


def _stored_polys(field, doc: dict, key: str) -> PolyMatrix:
    """doc[key], lists of [i, j, "c"] terms, taken out of doc as a matrix.
    One walk checks each term (int exponents >= 0, a string c) and adds c,
    converted, into its row's {(i, j): value} map, then drops the row's
    terms.  A malformed term, a bad literal or a zero polynomial is named."""
    convert = field.convert
    stored = _each(doc.pop(key), key)
    rows = []
    for k, terms in enumerate(stored):
        row: dict = {}
        for t, term in enumerate(_each(terms, f"{key}[{k}]")):
            if type(term) is list and len(term) == 3:
                i, j, c = term
                if type(i) is int and type(j) is int and type(c) is str:
                    if i < 0 or j < 0:
                        raise ValueError(f"{key}[{k}][{t}] has a negative "
                                         f"exponent: {term!r}")
                    row[i, j] = row.get((i, j), 0) + convert(c)
                    continue
            raise ValueError(
                f'{key}[{k}][{t}] is not an [i, j, "c"] triple: {term!r}')
        rows.append(row)
        stored[k] = None
    polys = PolyMatrix.from_terms(field, rows)
    zero = np.flatnonzero(~polys.coeffs.astype(bool).any(axis=1))
    if zero.size:
        raise ValueError(f"{key}[{zero[0]}] is the zero polynomial")
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
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout, as head does
        return EXIT_PIPE
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a fault in bmpoints, not in its input
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    code = run_cli(sys.argv[1:] if argv is None else argv)
    if code == EXIT_PIPE:
        # the interpreter's last flush of stdout then writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
