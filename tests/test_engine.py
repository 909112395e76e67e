"""Row-reduction engines: bulk-loaded rows reduce a vector in place."""

import pytest

from bmpoints.engine import PrimeEngine, RationalEngine
from conftest import F7, QQ

# three points give evaluation and coefficient halves of width 3 each
POINTS = [(0, 0), (1, 0), (2, 0)]
ROWS = [[1, 1, 1, 1, 0, 0],
        [0, 1, 2, 0, 1, 0]]


@pytest.mark.parametrize("engine_cls, field",
                         [(PrimeEngine, F7), (RationalEngine, QQ)],
                         ids=["prime", "rational"])
@pytest.mark.parametrize("evals, rows, coeffs, tail", [
    ([3, 4, 5], ROWS, [3, 1], [-3, -1, 0]),  # full reduction
    ([1, 1, 1], ROWS, [1, 0], [-1, 0, 0]),   # second coefficient is zero
    ([3, 4, 5], [], [], None),               # empty engine leaves v as is
], ids=["full", "zero-coeff", "empty"])
def test_reduce_into(engine_cls, field, evals, rows, coeffs, tail):
    eng = engine_cls(field, [tuple(map(field.convert, pt)) for pt in POINTS])
    if rows:
        eng.bulk_load([[field.convert(c) for c in row] for row in rows])
    assert eng.nrows == len(rows)
    v = eng.new_vector([field.convert(c) for c in evals])
    got = eng.reduce_into(v)
    assert [field.convert(int(a)) for a in got] == coeffs
    want = evals + [0, 0, 0] if tail is None else [0, 0, 0] + tail
    assert list(v) == [field.convert(c) for c in want]


@pytest.mark.parametrize("engine_cls, field",
                         [(PrimeEngine, F7), (RationalEngine, QQ)],
                         ids=["prime", "rational"])
def test_bulk_load_empty(engine_cls, field):
    eng = engine_cls(field, [tuple(map(field.convert, pt)) for pt in POINTS])
    eng.bulk_load([])
    assert eng.nrows == 0
    v = eng.new_vector([field.convert(c) for c in (3, 4, 5)])
    assert len(eng.reduce_into(v)) == 0
    assert list(v) == [field.convert(c) for c in (3, 4, 5, 0, 0, 0)]
