"""The benchmark tracer still finds and restores every traced name, and the
names it patches are the ones a compute call goes through."""

import contextlib
import io
import sys
from fractions import Fraction as Fr
from pathlib import Path

from bmpoints.cli import run_cli
from bmpoints.fields import make_field
from bmpoints.randgen import gen_points

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans


def test_tracer_targets_round_trip():
    spans = _spans()
    originals = [owner.__dict__[attr] for owner, attr, *_ in spans.TARGETS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (owner, attr, *_), fn in zip(spans.TARGETS, originals):
            assert owner.__dict__[attr] is not fn, attr
    finally:
        tracer.uninstall()
    for (owner, attr, *_), fn in zip(spans.TARGETS, originals):
        assert owner.__dict__[attr] is fn, attr


def test_tracer_sees_every_layer_of_a_seeded_compute(tmp_path):
    spbm_pts = tmp_path / "spbm.txt"
    spbm_pts.write_text("".join(
        f"{x},{y}\n" for x, y in gen_points(make_field("q:23"), 30, seed=1)))
    # a 6-point triangular block plus two points off its lines
    block = [(i, j) for j in range(3) for i in range(3 - j)]
    gpbm_pts = tmp_path / "gpbm.txt"
    gpbm_pts.write_text("".join(
        f"{x},{y}\n" for x, y in block + [(Fr(1, 2), Fr(7, 3)), (5, 9)]))
    # distinct coordinates: a one-point subset, so batches of candidates
    big_pts = tmp_path / "big.txt"
    big_pts.write_text("".join(
        f"{x},{y}\n"
        for x, y in gen_points(make_field("q:2147483647"), 40, seed=1)))
    argvs = {
        1: ["compute", "--field", "q:23", "--order", "lex", "--algo", "spbm",
            "--points", str(spbm_pts), "--out", "json"],
        2: ["compute", "--field", "rational", "--order", "tdinlex",
            "--algo", "gpbm", "--points", str(gpbm_pts), "--out", "json"],
        3: ["compute", "--field", "q:2147483647", "--order", "tdinlex",
            "--algo", "gpbm", "--points", str(big_pts), "--out", "json"],
    }
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for tid, argv in argvs.items():
                assert tracer.root(tid, lambda: run_cli(argv)) == 0
    finally:
        tracer.uninstall()
    totals = spans.call_totals(tracer.spans)
    for tid in argvs:
        for name in ("bm.run", "points.line_cover", "newton.basis",
                     "newton.evalmat", "engine.bulk_load", "engine.reduce",
                     "verify.total"):
            assert totals[tid].get(name + ".calls", 0) > 0, (tid, name)
    gpbm = totals[2]
    assert gpbm["cartesian.subset.calls"] == 1
    assert gpbm["cartesian.subset.subset"] == len(block)
    assert gpbm["cartesian.subset.of"] == len(block) + 2
    # the prime engine reduces a batch of candidates per traced call
    big = totals[3]
    assert big["engine.append.calls"] > 0
    assert big["engine.reduce.calls"] < big["bm.run.processed"]
