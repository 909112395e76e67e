"""Shared fixtures: fields and frozen example instances."""

from fractions import Fraction as Fr

import pytest

from bmpoints.bench import RUNNERS
from bmpoints.bm import SPBM_AXIS
from bmpoints.fields import make_field
from bmpoints.orders import INLEX, LEX, TDINLEX
from bmpoints.points import PointSet, line_cover
from bmpoints.poly import PolyMatrix, Polynomial, values_at

QQ = make_field("rational")
F3 = make_field("q:3")
F5 = make_field("q:5")
F7 = make_field("q:7")
F17 = make_field("q:17")

# 9 rational points whose inlex run is fully pinned (N, Q, G, point order)
EX1_POINTS = [(0, 1), (0, 3), (1, 0), (1, 2), (1, 3), (1, 4),
              (2, 1), (2, 2), (3, 1)]
EX1_N = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (2, 0), (2, 1),
         (3, 0)]
EX1_U = [(1, 0), (1, 2), (1, 3), (1, 4), (0, 1), (0, 3), (2, 1), (2, 2),
         (3, 1)]
EX1_Q_TEXT = [
    "1",
    "1/2y",
    "1/3y^2-2/3y",
    "1/8y^3-5/8y^2+3/4y",
    "-x+1",
    "-1/2xy+1/2y+1/2x-1/2",
    "1/2x^2-1/2x",
    "1/2x^2y-1/2xy-1/2x^2+1/2x",
    "1/6x^3-1/2x^2+1/3x",
]
EX1_G_TEXT = [
    "x^4-6x^3+11x^2-6x",
    "x^3y-3x^2y+2xy-x^3+3x^2-2x",
    "xy^2-y^2+1/2x^2y-9/2xy+4y-1/2x^2+7/2x-3",
    "y^4-9y^3+26y^2-9/2x^2y+15/2xy-27y-3x^3+39/2x^2-51/2x+9",
]
EX1_BORDER = {(0, 4), (1, 2), (1, 3), (2, 2), (3, 1), (4, 0)}

# 9 rational points with a fractional abscissa; lex run pinned (N, G)
EX2_POINTS = [(0, 0), (0, 2), (0, 3), (1, 1), (Fr(5, 2), 0), (Fr(5, 2), 1),
              (Fr(5, 2), 2), (4, 0), (4, 2)]
EX2_N = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2),
         (0, 3)]
EX2_G_TEXT = [
    "y^4-6y^3+11y^2-6y",
    "xy^3-3xy^2+2xy",
    "x^2y^2-2x^2y-7/2xy^2+7xy-5/4y^3+25/4y^2-15/2y",
    "x^3-13/2x^2-3xy^2+6xy+10x-15/4y^3+75/4y^2-45/2y",
]
EX2_MCS_SET = {(Fr(0), Fr(0)), (Fr(0), Fr(2)), (Fr(5, 2), Fr(0)),
               (Fr(5, 2), Fr(1)), (Fr(5, 2), Fr(2)), (Fr(4), Fr(0)),
               (Fr(4), Fr(2))}

# 20 points over F_7; tdinlex gpbm run pinned (MCS order, seeded Q', N, G)
EX5_POINTS = [(0, 0), (0, 1), (0, 4), (0, 5), (1, 0), (1, 1), (1, 4), (1, 6),
              (2, 1), (2, 2), (2, 6), (3, 2), (4, 2), (4, 5), (4, 6), (5, 1),
              (5, 5), (5, 6), (6, 0), (6, 2)]
EX5_MCS_ORDER = [(0, 1), (1, 1), (2, 1), (5, 1), (1, 6), (2, 6), (5, 6),
                 (1, 0), (1, 4)]
EX5_SEED_N = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (0, 2),
              (0, 3)]
EX5_SEED_Q_TEXT = [
    "1",
    "x",
    "4x^2+3x",
    "2x^3+x^2+4x",
    "3y+4",
    "3xy+4x+4y+3",
    "2x^2y+5x^2+xy+6x+4y+3",
    "6y^2+1",
    "2y^3+5y",
]
EX5_N_SET = {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (0, 2),
             (0, 3), (1, 2), (0, 4), (1, 3), (2, 2), (3, 1), (4, 0), (0, 5),
             (1, 4), (2, 3), (3, 2), (4, 1)}
EX5_G_LTS = {(5, 0), (0, 6), (1, 5), (2, 4), (3, 3), (4, 2)}
EX5_G_Y6 = "y^6+3y^5+2y^4+6y^3+4y^2+5y"
EX5_G_XY5 = ("xy^5+x^4y+6x^3y^2+x^2y^3+5xy^4+6y^5+6x^4+2x^3y+6x^2y^2+3xy^3"
             "+3y^4+6x^3+6x^2y+2xy^2+6y^3+x^2+2xy+6y^2+x")
EX5_G_X2Y4 = ("x^2y^4+x^4y+3x^2y^3+3xy^4+5y^5+x^4+6x^3y+3x^2y^2+2xy^3+4y^4"
              "+6x^3+4y^3+6x^2+2xy+3y^2+x+5y")


def order_algos():
    """Every (order, algorithm name) that runs: bench.RUNNERS under lex,
    inlex and tdinlex, spbm under lex and inlex only."""
    for order in (LEX, INLEX, TDINLEX):
        for algo in RUNNERS:
            if algo != "spbm" or order.name in SPBM_AXIS:
                yield order, algo


def reference_value(q, pt):
    """q at pt, term by term with no shared powers: the reference
    Polynomial.evaluate is tested against."""
    x, y = pt
    p = q.field.char
    if p:
        return sum(c * pow(x, i, p) * pow(y, j, p)
                   for (i, j), c in q.terms.items()) % p
    return sum((c * Fr(x) ** i * Fr(y) ** j for (i, j), c in q.terms.items()),
               Fr(0))


def nested_chains(ps):
    """The second cartesian criterion: the lines of each cover, as sets of
    coordinates, form a superset chain; the reference is_cartesian's
    S_x = S_y is tested against."""
    rows = [frozenset(x for x, _ in g)
            for _, g in line_cover(ps, "rows").groups]
    cols = [frozenset(y for _, y in g)
            for _, g in line_cover(ps, "columns").groups]
    return all(b <= a for chain in (rows, cols)
               for a, b in zip(chain, chain[1:]))


def values(field, polys, points):
    """values[k][m] = polys[k] at points[m], by one values_at call."""
    return values_at(PolyMatrix.from_polys(field, polys), points).tolist()


def leading_monomials(polys, order):
    """Each row's leading monomial, read by PolyMatrix.leading."""
    return [polys.exps[c] for c in polys.leading(order).tolist()]


def reference_newton(cover):
    """The Newton elements of a cover, each built as a Polynomial product of
    linear factors term by term and normalized at its point: the reference
    the newton recurrence is tested against."""
    f = cover.field
    inner = 0 if cover.axis == "rows" else 1

    def times_linear(terms, var, c):  # terms * (x - c) or (y - c)
        out = {}
        for (i, j), a in terms.items():
            for e, b in (((i + 1, j) if var == 0 else (i, j + 1), f.one),
                         ((i, j), f.neg(f.convert(c)))):
                out[e] = f.add(out.get(e, f.zero), f.mul(a, b))
        return {e: a for e, a in out.items() if a != f.zero}

    polys = []
    head = {(0, 0): f.one}
    for gidx, (_, grp) in enumerate(cover.groups):
        if gidx:
            head = times_linear(head, 1 - inner, cover.groups[gidx - 1][0])
        for pidx, pt in enumerate(grp):
            terms = head
            for prev in grp[:pidx]:
                terms = times_linear(terms, inner, prev[inner])
            s = f.inv(reference_value(Polynomial(f, terms), pt))
            polys.append(Polynomial(f, {e: f.mul(s, a)
                                        for e, a in terms.items()}))
    return polys


@pytest.fixture
def ex1():
    return PointSet(QQ, EX1_POINTS)


@pytest.fixture
def ex2():
    return PointSet(QQ, EX2_POINTS)


@pytest.fixture
def ex5():
    return PointSet(F7, EX5_POINTS)
