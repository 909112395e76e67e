"""Row-reduction engines: bulk-loaded rows reduce a stack in place."""

import random
from fractions import Fraction as Fr
from math import gcd, lcm

import numpy as np
import pytest

from bmpoints.engine import PrimeEngine, RationalEngine, _unitri_inverse
from bmpoints.fields import make_field
from conftest import F7, QQ

# three points give evaluation and coefficient halves of width 3 each
POINTS = [(0, 0), (1, 0), (2, 0)]
ROWS = [[1, 1, 1, 1, 0, 0],
        [0, 1, 2, 0, 1, 0]]


def _evals(eng, values) -> list:
    """Field values in the form monomial_vector returns: the values over
    F_p, and over Q their integer numerators followed by their common
    denominator."""
    if eng.field.char:
        return values
    den = lcm(*(c.denominator for c in values))
    return [(c * den).numerator for c in values] + [den]


def _stack(eng, values):
    """A one-vector stack of field values."""
    return eng.new_vectors([_evals(eng, values)])


def _entries(eng, v) -> list:
    """The entries of an engine vector as field values."""
    if eng.field.char:
        return list(v)
    return [Fr(c, v[-1]) for c in v[:-1]]


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
        eng.bulk_load(rows)  # unit diagonal: over Q every row is over a one
    assert eng.nrows == len(rows)
    v = _stack(eng, [field.convert(c) for c in evals])
    got = eng.reduce_into(v)
    assert [field.convert(int(a)) for a in got] == coeffs
    want = evals + [0, 0, 0] if tail is None else [0, 0, 0] + tail
    assert _entries(eng, v[0]) == [field.convert(c) for c in want]


@pytest.mark.parametrize("engine_cls, field",
                         [(PrimeEngine, F7), (RationalEngine, QQ)],
                         ids=["prime", "rational"])
def test_bulk_load_empty(engine_cls, field):
    eng = engine_cls(field, [tuple(map(field.convert, pt)) for pt in POINTS])
    eng.bulk_load([])
    assert eng.nrows == 0
    v = _stack(eng, [field.convert(c) for c in (3, 4, 5)])
    assert len(eng.reduce_into(v)) == 0
    assert _entries(eng, v[0]) == [field.convert(c)
                                   for c in (3, 4, 5, 0, 0, 0)]


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
        assert _entries(eng, eng.monomial_vector(e, cache)) == want, e
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
    after the last one the inverse equals that of the pivot block."""
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
    while True:
        evals = rng.integers(0, p, mu).tolist()
        want_c, want_v = _reference_reduce(rows, pivots, evals + [0] * mu, p)
        V = eng.new_vectors([evals])
        assert eng.reduce_into(V).tolist() == want_c
        assert V[0].tolist() == want_v
        if eng.nrows == seeded + appended:
            break
        piv = eng.pivot_of(V[0])
        slot = eng.nrows
        eng.append_row(V[0], slot, piv, V[1:])
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
    """Over F_p the diagonal must be one; over Q a row is taken over its
    diagonal entry, which must be positive."""
    for engine_cls, field, diagonals in ((PrimeEngine, F7, (2, 0)),
                                         (RationalEngine, QQ, (0, -1))):
        for diagonal in diagonals:
            rows = [list(row) for row in ROWS]
            if bad == "diagonal":
                rows[1][1] = diagonal
            else:
                rows[1][0] = 3
            eng = engine_cls(field, [tuple(map(field.convert, pt))
                                     for pt in POINTS])
            with pytest.raises(RuntimeError, match="unit upper triangular"):
                eng.bulk_load(rows)


def _height7(rng) -> Fr:
    """A rational of 7-bit numerator and denominator with a random sign."""
    sign = rng.choice((-1, 1))
    return Fr(sign * rng.randrange(64, 128), rng.randrange(64, 128))


def _reference_reduce_q(rows, pivots, v):
    """Sequential row-by-row reduction on Fractions: (coeffs, residual)."""
    coeffs = []
    for row, piv in zip(rows, pivots):
        a = v[piv]
        coeffs.append(a)
        if a:
            v = [x - a * y for x, y in zip(v, row)]
    return coeffs, v


def test_rational_engine_matches_reference():
    """Bulk-loaded rows with negative entries and mixed denominators, then
    appends of monomial vectors at points of 7-bit height, to depth 31:
    every reduction returns the coefficients and residual of a sequential
    Fraction reduction, and every stored row is that reduction's row, kept
    as a primitive integer row over a positive pivot entry."""
    rng = random.Random(12)
    mu, seeded, depth = 36, 10, 31
    pts = []
    while len(pts) < mu:
        pt = (_height7(rng), _height7(rng))
        if pt not in pts:
            pts.append(pt)
    eng = RationalEngine(QQ, pts)
    # about half the entries right of the diagonal and in the slots are
    # zero, so row steps also meet nonzero vector entries at zero row ones
    rows = [[Fr(0)] * r + [Fr(1)]
            + [_height7(rng) * rng.randrange(2) for _ in range(mu - r - 1)]
            + [_height7(rng) * rng.randrange(2) if s <= r else Fr(0)
               for s in range(mu)]
            for r in range(seeded)]
    dens = [lcm(*(c.denominator for c in row)) for row in rows]
    eng.bulk_load([[(c * d).numerator for c in row]
                   for row, d in zip(rows, dens)])
    pivots = list(range(seeded))
    cache = {}
    exps = sorted(((i, d - i) for d in range(10) for i in range(d + 1)),
                  key=lambda e: (sum(e), e))
    for e in exps:
        if eng.nrows == depth:
            break
        evals = [x**e[0] * y**e[1] for x, y in pts]
        V = eng.new_vectors([eng.monomial_vector(e, cache)])
        v = V[0]
        assert _entries(eng, v) == evals + [Fr(0)] * mu
        want_c, want_v = _reference_reduce_q(rows, pivots,
                                             evals + [Fr(0)] * mu)
        assert eng.reduce_into(V) == want_c
        assert _entries(eng, v) == want_v
        piv = eng.pivot_of(v)
        assert piv == next((c for c in range(mu) if want_v[c]), None)
        if piv is None:
            continue
        slot = eng.nrows
        eng.append_row(v, slot, piv, V[1:])
        s = 1 / want_v[piv]
        rows.append([x * s for x in want_v])
        rows[-1][mu + slot] = s
        pivots.append(piv)
    assert eng.nrows == depth
    assert eng.pivot_indices() == pivots
    for row, piv, want in zip(eng.mat, eng.pivots, rows):
        assert row[piv] > 0
        assert gcd(*row) == 1
        assert [Fr(c, row[piv]) for c in row] == want


@pytest.mark.parametrize("engine_cls, field", [
    (PrimeEngine, make_field("q:23")),
    (PrimeEngine, make_field("q:2147483647")),
    (RationalEngine, QQ),
], ids=["p=23", "p=2^31-1", "rational"])
def test_batch_matches_one_by_one(engine_cls, field):
    """One reduce_into on a stack gives each vector's coefficients and
    residual as if reduced alone.  Walking the batch, append_row(..., rest)
    leaves every pending vector equal to a sequential reduction of its
    original values against all rows stored so far, a member in the span
    of the rows before it reduces to zero, and the next reduction takes
    every member to zero through the inverse of the whole pivot block."""
    rng = random.Random(field.char + 3)
    p = field.char
    mu, seeded = 24, 8

    def rand():
        return rng.randrange(p) if p else Fr(rng.randrange(-30, 31),
                                             rng.randrange(1, 8))
    zero = field.convert(0)
    eng = engine_cls(field, [(zero, zero)] * mu)
    seed_rows = [[0] * r + [1] + [rng.randrange(23) for _ in range(mu - r - 1)]
                 + [rng.randrange(23) if s <= r else 0 for s in range(mu)]
                 for r in range(seeded)]
    eng.bulk_load(seed_rows)
    rows = [[field.convert(c) for c in row] for row in seed_rows]
    pivots = list(range(seeded))
    reference = ((lambda v: _reference_reduce(rows, pivots, v, p)) if p
                 else (lambda v: _reference_reduce_q(rows, pivots, v)))

    values = [[rand() for _ in range(mu)] for _ in range(4)]
    # member 4 lies in the span once members 0 and 2 are stored
    values.append([field.add(a, field.mul(field.convert(2), b))
                   for a, b in zip(values[0], values[2])])
    values.append([rand() for _ in range(mu)])
    singles = [_stack(eng, vals) for vals in values]
    single_coeffs = [c for v in singles for c in eng.reduce_into(v)]
    stack = eng.new_vectors([_evals(eng, vals) for vals in values])
    assert list(eng.reduce_into(stack)) == single_coeffs
    assert ([_entries(eng, v) for v in stack]
            == [_entries(eng, v[0]) for v in singles])

    for k, vals in enumerate(values):
        v = stack[k]
        piv = eng.pivot_of(v)
        assert (piv is None) == (k == 4)
        if piv is None:
            continue
        residual = reference(vals + [field.convert(0)] * mu)[1]
        assert _entries(eng, v) == residual
        slot = eng.nrows
        eng.append_row(v, slot, piv, stack[k + 1:])
        s = field.inv(residual[piv])
        rows.append([field.mul(x, s) for x in residual])
        rows[-1][mu + slot] = s
        pivots.append(piv)
        for j in range(k + 1, len(values)):
            want = reference(values[j] + [field.convert(0)] * mu)[1]
            assert _entries(eng, stack[j]) == want, (k, j)

    r = eng.nrows
    assert r == seeded + 5
    assert eng.pivot_indices() == pivots
    again = eng.new_vectors([_evals(eng, vals) for vals in values])
    eng.reduce_into(again)
    assert all(eng.pivot_of(v) is None for v in again)
    if p:
        assert eng.mat[:r].astype(np.int64).tolist() == rows
        block = np.array(rows, dtype=np.int64)[:, pivots]
        inv = eng.inv[:r, :r].astype(np.int64)
        assert (inv == _unitri_inverse(block, p)).all()
        eye = [[int(i == j) for j in range(r)] for i in range(r)]
        assert _matmul_mod_py(inv.tolist(), block.tolist(), p) == eye
    else:
        for row, piv, want in zip(eng.mat, eng.pivots, rows):
            assert row[piv] > 0
            assert [Fr(c, row[piv]) for c in row] == want
