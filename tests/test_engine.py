"""Row-reduction engines: bulk-loaded rows reduce a vector in place."""

from fractions import Fraction as Fr

import numpy as np
import pytest

from bmpoints.engine import PrimeEngine, RationalEngine, _unitri_inverse
from bmpoints.fields import make_field
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


@pytest.mark.parametrize("engine_cls, field",
                         [(PrimeEngine, F7), (RationalEngine, QQ)],
                         ids=["prime", "rational"])
def test_monomial_vector_high_exponent(engine_cls, field):
    """Exponents far past the recursion limit are built in a loop."""
    pts = [tuple(map(field.convert, pt))
           for pt in [(Fr(1, 2), Fr(3)), (Fr(2, 3), Fr(-5, 4))]]
    eng = engine_cls(field, pts)
    cache = {}
    power = (lambda a, k: pow(a, k, field.p)) if field.char else pow
    for e in [(1200, 1300), (1201, 1300), (0, 2600)]:
        want = [field.mul(power(x, e[0]), power(y, e[1])) for x, y in pts]
        assert list(eng.monomial_vector(e, cache)) == want, e
    # every divisor on the way was cached: (0, 2600) grew from (0, 1300)
    assert len(cache) == 1201 + 1300 + 1 + 1300


def _reference_reduce(rows, pivots, v, p):
    """Sequential row-by-row reduction on Python ints: (coeffs, residual)."""
    coeffs = []
    for row, piv in zip(rows, pivots):
        a = v[piv]
        coeffs.append(a)
        if a:
            v = [(x - a * y) % p for x, y in zip(v, row)]
    return coeffs, v


def _matmul_mod_py(a, b, p):
    """a @ b mod p on lists of Python ints."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols]
            for row in a]


@pytest.mark.parametrize("p", [23, 2**31 - 1], ids=["p=23", "p=2^31-1"])
@pytest.mark.parametrize("mu, seeded, appended", [
    (80, 58, 14),    # reductions at depths 58..71 cross r = 64
    (1000, 999, 1),  # depth 999, then a full pivot block
], ids=["r=58..72", "r=999..1000"])
def test_prime_engine_matches_reference(p, mu, seeded, appended):
    """Bulk-loaded rows, then appends: every reduction returns the
    coefficients and residual of a sequential reduction on Python ints, and
    the bordered inverse equals the inverse of the pivot block."""
    rng = np.random.default_rng(p * mu + seeded)
    field = make_field(f"q:{p}")
    eng = PrimeEngine(field, [(0, 0)] * mu)
    block = np.triu(rng.integers(0, p, (seeded, mu)), 1)
    block[:, :seeded] += np.eye(seeded, dtype=np.int64)
    slots = np.tril(rng.integers(0, p, (seeded, mu)))
    seed_rows = np.hstack([block, slots])
    eng.bulk_load(seed_rows)
    rows = seed_rows.tolist()
    pivots = list(range(seeded))
    while eng.nrows < seeded + appended:
        evals = rng.integers(0, p, mu).tolist()
        want_c, want_v = _reference_reduce(rows, pivots, evals + [0] * mu, p)
        v = eng.new_vector(evals)
        assert eng.reduce_into(v).tolist() == want_c
        assert v.tolist() == want_v
        piv = eng.pivot_of(v)
        slot = eng.nrows
        eng.append_row(v, slot, piv)
        s = pow(want_v[piv], -1, p)
        rows.append([x * s % p for x in want_v])
        rows[-1][mu + slot] = s
        pivots.append(piv)
    r = eng.nrows
    assert eng.mat[:r].astype(np.int64).tolist() == rows
    assert eng.pivot_indices() == pivots
    block = np.array(rows, dtype=np.int64)[:, pivots]
    inv = eng.inv[:r, :r].astype(np.int64)
    assert (inv == _unitri_inverse(block, p)).all()
    if r < 100:
        eye = [[int(i == j) for j in range(r)] for i in range(r)]
        assert _matmul_mod_py(inv.tolist(), block.tolist(), p) == eye


@pytest.mark.parametrize("bad", ["diagonal", "below"])
def test_bulk_load_rejects_non_unitriangular(bad):
    rows = [list(row) for row in ROWS]
    if bad == "diagonal":
        rows[1][1] = 2
    else:
        rows[1][0] = 3
    eng = PrimeEngine(F7, POINTS)
    with pytest.raises(RuntimeError, match="unit upper triangular"):
        eng.bulk_load(rows)
