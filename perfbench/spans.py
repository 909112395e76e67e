"""Span tracing of bmpoints from outside the package.

The tracer patches each traced function at the name its caller looks it up
by (a module global of the calling module, or a method on the engine and
polynomial classes), so no file under src/ changes.  Spans are kept in
memory as tuples and written out when the benchmark ends; per-layer
numbers are derived from them afterwards.
"""

from __future__ import annotations

import json
import time
from statistics import median

import bmpoints.bm
import bmpoints.cartesian
import bmpoints.cli
import bmpoints.verify
from bmpoints.engine import PrimeEngine, RationalEngine
from bmpoints.poly import Polynomial

COMPUTE = "cli.compute"


def _reduce_attrs(args, coeffs):
    eng = args[0]
    rows = eng.nrows
    ops = int(sum(1 for a in coeffs if a != 0))
    return {"rows": rows, "ops": ops,
            "bytes": ops * eng.width * 8 if isinstance(eng, PrimeEngine)
            else 0}


def _run_attrs(args, res):
    return {"mu": len(res.points), "processed": res.processed,
            "seeded": res.seeded_count, "appended": len(res.N) -
            res.seeded_count, "basis": len(res.G)}


def _subset_attrs(args, out):
    return {"subset": len(out[0]), "of": len(args[0])}


# (owner, attribute, span name, outermost only, attribute extractor)
TARGETS = [
    (bmpoints.cli, "parse_point_file", "points.parse", False, None),
    (bmpoints.cli, "bm_run", "bm.run", False, _run_attrs),
    (bmpoints.cli, "spbm_run", "bm.run", False, _run_attrs),
    (bmpoints.cli, "gpbm_run", "bm.run", False, _run_attrs),
    (bmpoints.cli, "verify_result", "verify.total", False, None),
    (bmpoints.verify, "check_vanishing", "verify.vanishing", False, None),
    (bmpoints.verify, "check_reduced_gb", "verify.gb_shape", False, None),
    (bmpoints.verify, "check_newton", "verify.newton", False, None),
    (Polynomial, "evaluate", "poly.evaluate", False, None),
    (bmpoints.bm, "max_cartesian_subset", "cartesian.subset", False,
     _subset_attrs),
    (bmpoints.bm, "line_cover", "points.line_cover", False, None),
    (bmpoints.cartesian, "line_cover", "points.line_cover", False, None),
    (bmpoints.bm, "newton_basis_rows", "newton.basis", False, None),
    (bmpoints.bm, "newton_basis_cols", "newton.basis", False, None),
    (bmpoints.bm, "evaluation_matrix", "newton.evalmat", False, None),
]
for _eng in (PrimeEngine, RationalEngine):
    TARGETS += [
        (_eng, "reduce_into", "engine.reduce", False, _reduce_attrs),
        (_eng, "append_row", "engine.append", False, None),
        (_eng, "monomial_vector", "engine.monomial", True, None),
        (_eng, "tail_terms", "engine.extract", True, None),
        (_eng, "coeff_terms", "engine.extract", True, None),
        (_eng, "bulk_load", "engine.bulk_load", False, None),
    ]


class Tracer:
    """Records (trace id, span id, parent id, name, start ns, end ns, attrs)
    for every traced call while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []  # (span id, name) of the open spans
        self._saved: list = []
        self.trace_id = 0
        self._next_id = 0

    def _wrap(self, fn, name, outermost, attrs):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if outermost and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append((self.trace_id, sid, parent, name, t0, t1,
                          attrs(args, out) if attrs else None))
            return out
        return traced

    def install(self) -> None:
        for owner, attr, name, outermost, attrs in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, outermost, attrs))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def root(self, trace_id: int, call):
        """Run call() as the root span of a new trace."""
        self.trace_id = trace_id
        return self._wrap(call, COMPUTE, False, None)()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def call_totals(spans) -> dict:
    """Per trace id: summed duration, self time, call count and attributes
    by span name.  Self time is duration minus the time of child spans."""
    child_ns: dict = {}
    for _tid, _sid, parent, _name, t0, t1, _a in spans:
        child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    out: dict = {}
    for tid, sid, _parent, name, t0, t1, attrs in spans:
        tot = out.setdefault(tid, {})
        dur = t1 - t0
        tot[name + ".dur"] = tot.get(name + ".dur", 0) + dur
        tot[name + ".self"] = tot.get(name + ".self", 0) + dur - \
            child_ns.get(sid, 0)
        tot[name + ".calls"] = tot.get(name + ".calls", 0) + 1
        for k, v in (attrs or {}).items():
            tot[name + "." + k] = tot.get(name + "." + k, 0) + v
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(t: dict, calls: int) -> dict:
    """Per-layer metrics from totals summed over `calls` compute calls:
    times and counts per call, fractions as ratios of the totals."""
    def per(key, scale=1.0):
        return t.get(key, 0) * scale / calls
    s = 1e-9
    return {
        "verify.total_s": per("verify.total.dur", s),
        "verify.newton_s": per("verify.newton.dur", s),
        "verify.vanishing_s": per("verify.vanishing.dur", s),
        "verify.gb_shape_s": per("verify.gb_shape.dur", s),
        "poly.evaluate_calls": per("poly.evaluate.calls"),
        "poly.evaluate_s": per("poly.evaluate.dur", s),
        "engine.reduce_s": per("engine.reduce.dur", s),
        "engine.reduce_calls": per("engine.reduce.calls"),
        "engine.rows_scanned": per("engine.reduce.rows"),
        "engine.row_ops": per("engine.reduce.ops"),
        "engine.useful_frac": _ratio(t.get("engine.reduce.ops", 0),
                                     t.get("engine.reduce.rows", 0)),
        "engine.bytes_computed": per("engine.reduce.bytes"),
        "engine.append_s": per("engine.append.dur", s),
        "engine.monomial_s": per("engine.monomial.dur", s),
        "engine.extract_s": per("engine.extract.dur", s),
        "engine.bulk_load_s": per("engine.bulk_load.dur", s),
        "bm.run_s": per("bm.run.dur", s),
        "bm.self_s": per("bm.run.self", s),
        "bm.candidates": per("bm.run.processed"),
        "bm.seeded_frac": _ratio(t.get("bm.run.seeded", 0),
                                 t.get("bm.run.mu", 0)),
        "bm.appended": per("bm.run.appended"),
        "bm.basis_size": per("bm.run.basis"),
        "cartesian.subset_s": per("cartesian.subset.dur", s),
        "cartesian.subset_frac": _ratio(t.get("cartesian.subset.subset", 0),
                                        t.get("cartesian.subset.of", 0)),
        "newton.basis_s": per("newton.basis.dur", s),
        "newton.evalmat_s": per("newton.evalmat.dur", s),
        "points.parse_s": per("points.parse.dur", s),
        "points.line_cover_s": per("points.line_cover.dur", s),
        "cli.self_s": per(COMPUTE + ".self", s),
    }


def round_metrics(totals: dict, rounds: list, scale: dict) -> dict:
    """Median over rounds of each round's layer metrics; a round is the list
    of trace ids of one compute call on each workload instance, and each
    call's times are multiplied by its scale factor."""
    per_round = []
    for ids in rounds:
        summed: dict = {}
        for tid in ids:
            for k, v in totals.get(tid, {}).items():
                if k.endswith((".dur", ".self")):
                    v *= scale[tid]
                summed[k] = summed.get(k, 0) + v
        per_round.append(layer_metrics(summed, len(ids)))
    return {k: median(r[k] for r in per_round) for k in per_round[0]}


COUNTS = ("poly.evaluate_calls", "engine.reduce_calls", "engine.rows_scanned",
          "engine.row_ops", "bm.candidates", "bm.appended", "bm.basis_size")
UNITS = {name: "count" if name in COUNTS
         else "ratio" if name.endswith("_frac")
         else "B" if name == "engine.bytes_computed" else "s"
         for name in [*layer_metrics({}, 1), "trace.overhead_frac"]}
