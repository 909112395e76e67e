"""Seeded runs far above the oracle's cap: the runners agree and every
result certifies, also on collinear sets whose staircase is one long line;
under lex and inlex the staircase is also checked against a line cover,
under tdinlex against a walk over degree layers."""

import random
from fractions import Fraction

import numpy as np
import pytest

from bmpoints.bm import SPBM_AXIS, bm_run, gpbm_run, spbm_run
from bmpoints.fields import make_field
from bmpoints.orders import INLEX, LEX, TDINLEX
from bmpoints.points import PointSet, line_cover, lower_set_of
from bmpoints.poly import PolyMatrix, values_at
from bmpoints.randgen import gen_points
from bmpoints.verify import verify_result


@pytest.mark.parametrize("field, order, size, runners", [
    ("q:23", LEX, 500, (bm_run, spbm_run, gpbm_run)),
    ("q:2147483647", TDINLEX, 500, (bm_run, gpbm_run)),
    ("q:101", TDINLEX, 1000, (gpbm_run,)),
    ("rational", LEX, 40, (bm_run, spbm_run, gpbm_run)),
    ("rational", TDINLEX, 40, (bm_run, gpbm_run)),
    ("q:2147483647", TDINLEX, 1500, (bm_run, gpbm_run)),
], ids=["q23-lex-500", "q2^31-1-tdinlex-500", "q101-tdinlex-1000",
        "rational-lex-40", "rational-tdinlex-40", "q2^31-1-tdinlex-1500"])
def test_runners_agree_and_certify(field, order, size, runners):
    ps = gen_points(make_field(field), size, seed=5)
    runs = [run(ps, order) for run in runners]
    for res in runs:
        assert len(res.N) == size, res.algorithm
        assert res.G == runs[0].G, res.algorithm
        assert set(res.N) == set(runs[0].N), res.algorithm
        report = verify_result(res)
        assert report.passed, f"{res.algorithm}\n{report.text()}"


@pytest.mark.parametrize("line", ["vertical", "horizontal"])
def test_collinear_seeded_runs_certify(line):
    """1050 points on one line: the border monomial (0, 1050) or (1050, 0)
    is built without recursing once per exponent step."""
    size = 1050
    pts = [(0, t) if line == "vertical" else (t, 0) for t in range(size)]
    ps = PointSet(make_field("q:2147483647"), pts)
    for run, order in ((spbm_run, LEX), (spbm_run, INLEX),
                       (gpbm_run, TDINLEX)):
        res = run(ps, order)
        assert len(res.N) == size, (run.__name__, order.name)
        report = verify_result(res)
        assert report.passed, f"{run.__name__} {order.name}\n{report.text()}"


@pytest.mark.parametrize("field, size", [
    ("q:23", 500), ("q:2147483647", 500), ("rational", 30),
], ids=["q23-500", "q2^31-1-500", "rational-30"])
@pytest.mark.parametrize("order", [LEX, INLEX], ids=lambda o: o.name)
def test_staircase_is_the_cover_lower_set(field, size, order):
    """Above the dense oracle's cap: under lex (inlex) the staircase of any
    run is the lower set of the row (column) cover of the points."""
    ps = gen_points(make_field(field), size, seed=7)
    want = set(lower_set_of(line_cover(ps, SPBM_AXIS[order.name])))
    for run in (bm_run, gpbm_run):
        assert set(run(ps, order).N) == want, run.__name__


def test_bm_lex_at_2000_points():
    """The unseeded loop under lex over q:2^31-1 at 2000 points, in
    batches of up to LOOKAHEAD candidates: the staircase is the lower set
    of the row cover and the result certifies.  spbm on the same points
    solves against a seeded block of 2000 rows, 63 diagonal blocks, and
    agrees with bm."""
    ps = gen_points(make_field("q:2147483647"), 2000, seed=7)
    res = bm_run(ps, LEX)
    assert set(res.N) == set(lower_set_of(line_cover(ps, "rows")))
    report = verify_result(res)
    assert report.passed, report.text()
    seeded = spbm_run(ps, LEX)
    assert seeded.G == res.G
    assert set(seeded.N) == set(res.N)
    report = verify_result(seeded)
    assert report.passed, report.text()


def _tdinlex_staircase(ps) -> list:
    """N under tdinlex by its definition, in walk order: degree layers
    ascend, y^d first within a layer, and a monomial joins N when its
    values at the points are independent of those of every smaller
    monomial.  A multiple of a rejected monomial is skipped unvisited.
    The values come from poly.values_at, exact over either field, and the
    elimination is written here, int64 mod p or on Fractions over Q, so no
    code is shared with the engine."""
    p, mu = ps.field.char, len(ps)
    reduce = (lambda v: v % p) if p else (lambda v: v)
    inverse = (lambda a: pow(int(a), -1, p)) if p else (lambda a: 1 / a)
    rows, pivots, N, rejected = [], [], [], []
    d = 0
    while len(N) < mu:
        # monomials of one degree do not divide each other
        layer = [(i, d - i) for i in range(d + 1)
                 if not any(a <= i and b <= d - i for a, b in rejected)]
        assert layer, "every monomial of a degree rejected before N is full"
        d += 1
        k = len(layer)
        ident = (PolyMatrix(ps.field, layer, np.eye(k, dtype=np.int64)) if p
                 else PolyMatrix(ps.field, layer, np.eye(k, dtype=object),
                                 np.ones(k, dtype=object)))
        values = values_at(ident, ps.points)
        for e, v in zip(layer, values):
            for row, piv in zip(rows, pivots):
                if v[piv]:
                    v = reduce(v - v[piv] * row)
            nonzero = np.flatnonzero(v)
            if nonzero.size:
                piv = nonzero[0]
                rows.append(reduce(v * inverse(v[piv])))
                pivots.append(piv)
                N.append(e)
            else:
                rejected.append(e)
    return N


def test_tdinlex_staircase_matches_layer_walk():
    """Above the dense oracle's cap under tdinlex, where no cover gives
    the staircase: 300 points over q:23, where x^23 = x keeps N off the
    first 300 monomials, so the walk must skip.  bm walks from an empty
    staircase, so its N is also in the walk's order."""
    ps = gen_points(make_field("q:23"), 300, seed=3)
    want = _tdinlex_staircase(ps)
    first = TDINLEX.sorted((i, d - i) for d in range(24) for i in range(d + 1))
    assert set(want) != set(first)
    assert bm_run(ps, TDINLEX).N == want
    assert set(gpbm_run(ps, TDINLEX).N) == set(want)


def test_tdinlex_staircase_matches_layer_walk_over_q():
    """The same walk over Q, on 40 rational points on five horizontal
    lines: their product in y vanishes on the points, so y^5 and its
    multiples stay out of N and N is not the first 40 monomials."""
    rng = random.Random(11)

    def rationals(k):
        out = set()
        while len(out) < k:
            out.add(Fraction(rng.randint(-50, 50), rng.randint(1, 30)))
        return sorted(out)
    pts = [(x, y) for y in rationals(5) for x in rationals(8)]
    ps = PointSet(make_field("rational"), pts)
    want = _tdinlex_staircase(ps)
    first = TDINLEX.sorted((i, d - i) for d in range(9) for i in range(d + 1))
    assert (0, 5) not in want and set(want) != set(first[:40])
    assert bm_run(ps, TDINLEX).N == want
    assert set(gpbm_run(ps, TDINLEX).N) == set(want)
