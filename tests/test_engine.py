"""Row-reduction engines: bulk-loaded rows reduce a stack in place."""

import random
from fractions import Fraction as Fr
from math import gcd, lcm

import numpy as np
import pytest

from bmpoints.engine import (PrimeEngine, RationalEngine, _monomial, _mul_mod,
                             _unitri_inverse)
from bmpoints.fields import make_field
from bmpoints.newton import evaluation_matrix, newton_basis_rows
from bmpoints.points import PointSet, line_cover
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


def _coeffs(eng, got) -> list:
    """reduce_into's coefficients as field values: over Q a nonzero one is
    a (numerator, denominator) pair of ints and a zero one the int 0."""
    if eng.field.char:
        return [int(a) for a in got]
    assert all(type(a) is tuple and a[0] and a[1] > 0 if a
               else type(a) is int for a in got)
    return [Fr(*a) if a else Fr(0) for a in got]


def _point_order(eng, v) -> list:
    """PrimeEngine vectors or rows as lists, the evaluation half read in
    point order through colperm."""
    v = np.asarray(v, dtype=np.int64)
    return np.concatenate([v[..., np.argsort(eng.colperm)], v[..., eng.mu:]],
                          axis=-1).tolist()


def _entries(eng, v) -> list:
    """The entries of an engine vector as field values, in point order."""
    if eng.field.char:
        return _point_order(eng, v)
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
    assert _coeffs(eng, got) == coeffs
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
    """Exponents far past the recursion limit are built by square-and-
    multiply from the nearest cached divisor, each call caching O(log e)
    vectors at most."""
    pts = [tuple(map(field.convert, pt))
           for pt in [(Fr(1, 2), Fr(3)), (Fr(2, 3), Fr(-5, 4))]]
    eng = engine_cls(field, pts)
    power = (lambda a, k: pow(a, k, field.p)) if field.char else pow
    for e in [(1200, 1300), (1201, 1300), (0, 2600), (0, 2601)]:
        before = len(eng.cache)
        want = [field.mul(power(x, e[0]), power(y, e[1])) for x, y in pts]
        assert _entries(eng, eng.monomial_vector(e)) == want, e
        assert len(eng.cache) - before <= 2 * max(e).bit_length(), e
    assert eng.monomial_vector((0, 2600)) is eng.cache[0, 2600]


def _reference_reduce(rows, pivots, v, p):
    """Sequential row-by-row reduction of v by int64 rows, exact as every
    product is below p^2 < 2^62: (coeffs, residual) as lists of ints."""
    v = np.array(v, dtype=np.int64)
    coeffs = []
    for row, piv in zip(rows, pivots):
        a = int(v[piv])
        coeffs.append(a)
        if a:
            v = (v - a * np.asarray(row, dtype=np.int64)) % p
    return coeffs, v.tolist()


def _matmul_mod_py(a, b, p):
    """a @ b mod p on lists of Python ints."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols]
            for row in a]


@pytest.mark.parametrize("p", [23, 2**31 - 1], ids=["p=23", "p=2^31-1"])
@pytest.mark.parametrize("mu, seeded, appended, stack", [
    (80, 58, 14, 1),    # reductions at depths 58..71 cross r = 64
    (80, 20, 30, 1),    # the first block fills up, then a second one starts
    (400, 300, 40, 4),  # stacks at depths 300..339, ten blocks and more
    (1000, 999, 1, 4),  # a stack at depth 999, then a full pivot block
], ids=["r=58..72", "r=20..50", "r=300..340", "r=999..1000"])
def test_prime_engine_matches_reference(p, mu, seeded, appended, stack):
    """Bulk-loaded rows, then appends: every vector of every reduced stack
    has the coefficients and residual of a sequential reduction, also
    after rows joined a partial diagonal block of the solve, and the
    vectors after an appended one equal their residual stepped by the new
    row, though append_row updates only their live columns."""
    rng = np.random.default_rng(p * mu + seeded)
    field = make_field(f"q:{p}")
    eng = PrimeEngine(field, [(0, 0)] * mu)
    block = np.triu(rng.integers(0, p, (seeded, mu)), 1)
    block[:, :seeded] += np.eye(seeded, dtype=np.int64)
    slots = np.tril(rng.integers(0, p, (seeded, mu)))
    seed_rows = np.hstack([block, slots])
    eng.bulk_load(seed_rows)
    rows = list(seed_rows)
    pivots = list(range(seeded))
    while True:
        evals = rng.integers(0, p, (stack, mu)).tolist()
        wants = [_reference_reduce(rows, pivots, e + [0] * mu, p)
                 for e in evals]
        V = eng.new_vectors(evals)
        assert eng.reduce_into(V).tolist() == [a for c, _ in wants for a in c]
        assert [_point_order(eng, v) for v in V] == [v for _, v in wants]
        if eng.nrows == seeded + appended:
            break
        piv = eng.pivot_of(V[0])
        slot = eng.nrows
        want_v = wants[0][1]
        point = int(eng.colperm[piv])
        assert point == next(c for c in range(mu) if want_v[c])
        eng.append_row(V[0], piv, V[1:])
        s = pow(want_v[point], -1, p)
        rows.append(np.array(want_v) * s % p)
        rows[-1][mu + slot] = s
        pivots.append(point)
        for v, (_, want) in zip(V[1:], wants[1:]):
            a = want[point]
            assert _point_order(eng, v) == ((want - a * rows[-1]) % p).tolist()
    r = eng.nrows
    assert _point_order(eng, eng.mat[:r]) == [row.tolist() for row in rows]
    assert eng.pivot_indices() == pivots
    if p == 23 and r < mu:
        # a residual is zero at column r with chance 1/23, so some append
        # swapped its pivot column into place
        assert eng.colperm.tolist() != list(range(mu))


def test_append_row_live_columns_after_swap():
    """A row whose pivot lies two columns past r swaps into place r, and
    the pending stack, updated over its live columns only, equals the
    full-width rank-1 update by the stored row after the same swap."""
    p = 23
    eng = PrimeEngine(make_field("q:23"), [(x, 0) for x in range(6)])
    eng.bulk_load([[1, 4, 9, 2, 7, 3, 1, 0, 0, 0, 0, 0],
                   [0, 1, 5, 11, 6, 8, 20, 1, 0, 0, 0, 0]])
    rows = eng.mat[:2, :6].astype(np.int64)
    # zero at points 0..3 once reduced, so the pivot is column 4, not 2
    first = (np.array([0, 0, 0, 0, 5, 17]) + 3 * rows[0] + 13 * rows[1]) % p
    rng = np.random.default_rng(4)
    V = eng.new_vectors([first.tolist()] + rng.integers(0, p, (3, 6)).tolist())
    eng.reduce_into(V)
    piv = eng.pivot_of(V[0])
    assert piv == 4
    before = V[1:].copy()
    eng.append_row(V[0], piv, V[1:])
    assert eng.colperm.tolist() == [0, 1, 4, 3, 2, 5]
    before[:, [2, 4]] = before[:, [4, 2]]
    row = eng.mat[2].astype(np.int64)
    assert (V[1:] == (before - before[:, 2, None] * row) % p).all()
    assert not V[1:, :3].any()


def test_prime_pivot_is_lowest_point_after_swap():
    """Once point 2's column has swapped into place 0, a vector nonzero at
    points 0 and 1 pivots on point 0, whose column comes after point 1's."""
    eng = PrimeEngine(F7, [(x, 0) for x in range(4)])
    V = eng.new_vectors([[0, 0, 1, 1], [1, 1, 0, 0]])
    eng.reduce_into(V)
    eng.append_row(V[0], eng.pivot_of(V[0]), V[1:])
    assert eng.colperm.tolist() == [2, 1, 0, 3]
    piv = eng.pivot_of(V[1])
    assert piv == 2
    eng.append_row(V[1], piv, V[2:])
    assert eng.pivot_indices() == [2, 0]
    assert _point_order(eng, eng.mat[:2]) == [[0, 0, 1, 1, 1, 0, 0, 0],
                                              [1, 1, 0, 0, 0, 1, 0, 0]]


def _unitri(rng, p, n, upper=None):
    """A unit upper triangular n x n int64 block mod p, its entries above
    the diagonal random in [0, p) or all equal to upper."""
    above = rng.integers(0, p, (n, n)) if upper is None else np.full(
        (n, n), upper)
    return np.triu(above, 1) + np.eye(n, dtype=np.int64)


def _assert_inverses(blocks, invs, p):
    """Each float64 inverse has its block's shape and, times the block on
    Python ints, is the identity."""
    assert [inv.shape for inv in invs] == [b.shape for b in blocks]
    for a, inv in zip(blocks, invs):
        assert inv.dtype == np.float64
        n = len(a)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        got = inv.astype(np.int64).tolist()
        assert _matmul_mod_py(got, a.tolist(), p) == eye
        assert _matmul_mod_py(a.tolist(), got, p) == eye


@pytest.mark.parametrize("p", [2, 3, 23, 101, 2**31 - 1],
                         ids=["p=2", "p=3", "p=23", "p=101", "p=2^31-1"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 31, 32])
def test_unitri_inverse(p, n):
    """A diagonal block's inverse by recursive doubling, padded to a power
    of two where n is not one, times the block is the identity on Python
    ints, from the smallest prime to the largest."""
    a = _unitri(np.random.default_rng(p + n), p, n)
    _assert_inverses([a], _unitri_inverse([a.astype(np.float64)], p), p)


@pytest.mark.parametrize("upper", ["p-1", "1"])
@pytest.mark.parametrize("n", [2, 5, 17, 32])
def test_unitri_inverse_extreme_entries(n, upper):
    """At p = 2^31-1, blocks whose every entry above the diagonal is p - 1,
    or 1, so that the negated entries the doubling multiplies are 1, or
    p - 1, the largest a right factor can hold."""
    p = 2**31 - 1
    a = _unitri(None, p, n, p - 1 if upper == "p-1" else 1)
    _assert_inverses([a], _unitri_inverse([a.astype(np.float64)], p), p)


@pytest.mark.parametrize("p, sizes", [
    (23, (32, 32, 5, 1)),
    (2**31 - 1, (32, 32, 5, 1)),
    (101, (32,) * 8 + (17,)),
    (2**31 - 1, (32,) * 8 + (17,)),
], ids=["p=23", "p=2^31-1", "p=101-8x32+17", "p=2^31-1-8x32+17"])
def test_unitri_inverse_stack(p, sizes):
    """One call inverts blocks of mixed sizes, padded with the identity to
    a power of two, each block leaving the stack once its size is reached:
    each inverse times its block is the identity on Python ints."""
    rng = np.random.default_rng(p + len(sizes))
    blocks = [_unitri(rng, p, n) for n in sizes]
    invs = _unitri_inverse([b.astype(np.float64) for b in blocks], p)
    _assert_inverses(blocks, invs, p)


def test_unitri_inverse_needs_the_limb_split(monkeypatch):
    """At p = 2^31-1 a product of two entries alone may exceed 2^53: with
    _split returning the left factor whole, as one limb, the doubling's
    float64 sums round, or pass 2^63 and wrap in the cast back to int64,
    and a 32-row inverse comes out wrong, so the limb split is what keeps
    them exact."""
    import bmpoints.engine as engine
    p = 2**31 - 1
    a = _unitri(np.random.default_rng(7), p, 32)
    monkeypatch.setattr(engine, "_split",
                        lambda x, depth, q: (x.astype(np.float64), 31))
    with np.errstate(invalid="ignore"):
        inv = _unitri_inverse([a.astype(np.float64)], p)[0].astype(np.int64)
    eye = np.eye(32, dtype=np.int64).tolist()
    assert _matmul_mod_py(inv.tolist(), a.tolist(), p) != eye
    monkeypatch.undo()
    _assert_inverses([a], _unitri_inverse([a.astype(np.float64)], p), p)


@pytest.mark.parametrize("p", [23, 2**31 - 1], ids=["p=23", "p=2^31-1"])
@pytest.mark.parametrize("depth", [1, 32, 75, 2000])
def test_mul_mod_matches_python_ints(p, depth):
    """x @ m mod p through limbs, one at p = 23 and two or more at
    p = 2^31-1, equals the product on Python ints."""
    rng = np.random.default_rng(depth)
    x = rng.integers(0, p, (3, depth))
    m = rng.integers(0, p, (depth, 4))
    got = _mul_mod(x, m.astype(np.float64), p)
    assert got.tolist() == _matmul_mod_py(x.tolist(), m.tolist(), p)


@pytest.mark.parametrize("p", [23, 2**31 - 1], ids=["p=23", "p=2^31-1"])
def test_reduce_into_inverts_stale_and_new_blocks(p, monkeypatch):
    """One seeded row, then batches of 33 vectors each stored in turn, as
    the BM loop stores them: every later solve inverts the trailing block,
    stale since rows joined it, and the new block after it in one call,
    and every vector still reduces as row by row."""
    import bmpoints.engine as engine
    calls = []

    def recording(blocks, q):
        calls.append([len(b) for b in blocks])
        return _unitri_inverse(blocks, q)
    monkeypatch.setattr(engine, "_unitri_inverse", recording)
    mu = 120
    rng = np.random.default_rng(p + 1)
    eng = PrimeEngine(make_field(f"q:{p}"), [(0, 0)] * mu)
    seed = np.zeros(2 * mu, dtype=np.int64)
    seed[:mu] = rng.integers(0, p, mu)
    seed[0] = seed[mu] = 1
    eng.bulk_load([seed])
    rows, pivots = [seed], [0]
    while eng.nrows < 100:
        evals = rng.integers(0, p, (33, mu)).tolist()
        V = eng.new_vectors(evals)
        wants = [_reference_reduce(rows, pivots, e + [0] * mu, p)
                 for e in evals]
        assert eng.reduce_into(V).tolist() == [a for c, _ in wants for a in c]
        for k, e in enumerate(evals):
            want = _reference_reduce(rows, pivots, e + [0] * mu, p)[1]
            assert _point_order(eng, V[k]) == want
            slot, point = eng.nrows, next(c for c in range(mu) if want[c])
            eng.append_row(V[k], eng.pivot_of(V[k]), V[k + 1:])
            s = pow(want[point], -1, p)
            rows.append(np.array(want) * s % p)
            rows[-1][mu + slot] = s
            pivots.append(point)
    assert calls == [[1], [32, 2], [32, 3]]
    assert eng.pivot_indices() == pivots


def test_monomial_walks_square_and_multiply():
    """A walk of one step costs one product; a far exponent costs
    O(log e) products from its nearest cached divisor, and is cached."""
    products = []

    def mul(u, w):
        products.append(None)
        return [a * b for a, b in zip(u, w)]
    cache = {(0, 0): [1, 1]}
    xs, ys = [2, 3], [5, 7]
    for e, want in [((1, 0), [2, 3]), ((2, 0), [4, 9]), ((0, 1), [5, 7]),
                    ((1, 1), [10, 21])]:
        before = len(products)
        assert _monomial(e, cache, xs, ys, mul) == want
        assert len(products) == before + 1, e
    before = len(products)
    assert _monomial((1, 2000), cache, xs, ys, mul) == [
        2 * 5**2000, 3 * 7**2000]
    assert len(products) - before <= 2 * (2000).bit_length() + 1
    assert (1, 2000) in cache and (1, 1999) not in cache


@pytest.mark.parametrize("bad", ["diagonal", "below", "slot"])
def test_bulk_load_rejects_non_unitriangular(bad):
    """Over F_p the diagonal must be one; over Q a row is taken over its
    diagonal entry, which must be positive.  No row may have a coefficient
    beyond the seeded slots."""
    for engine_cls, field, diagonals in ((PrimeEngine, F7, (2, 0)),
                                         (RationalEngine, QQ, (0, -1))):
        for diagonal in diagonals:
            rows = [list(row) for row in ROWS]
            if bad == "diagonal":
                rows[1][1] = diagonal
            elif bad == "below":
                rows[1][0] = 3
            else:
                rows[0][5] = 1  # slot 2, past the two seeded rows
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


def _supports(eng) -> list:
    """The nonzero columns of each stored row, as the engine should record
    them."""
    return [[c for c, x in enumerate(row) if x] for row in eng.mat]


def test_rational_engine_matches_reference():
    """Bulk-loaded rows with negative entries and mixed denominators, then
    appends of monomial vectors at points of 7-bit height, to depth 31:
    every reduction returns the coefficients and residual of a sequential
    Fraction reduction, and every stored row is that reduction's row, kept
    as a primitive integer row over a positive pivot entry.  The
    coefficient halves handed out, of each residual and of the stored
    rows, are integer rows over their least common denominators."""
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
    assert eng.supports == _supports(eng)
    pivots = list(range(seeded))
    exps = sorted(((i, d - i) for d in range(10) for i in range(d + 1)),
                  key=lambda e: (sum(e), e))
    for e in exps:
        if eng.nrows == depth:
            break
        evals = [x**e[0] * y**e[1] for x, y in pts]
        V = eng.new_vectors([eng.monomial_vector(e)])
        v = V[0]
        assert _entries(eng, v) == evals + [Fr(0)] * mu
        want_c, want_v = _reference_reduce_q(rows, pivots,
                                             evals + [Fr(0)] * mu)
        assert _coeffs(eng, eng.reduce_into(V)) == want_c
        assert _entries(eng, v) == want_v
        tail, d = eng.tail_terms(v)
        assert d > 0 and gcd(d, *tail) == 1
        assert [Fr(c, d) for c in tail] == want_v[mu:]
        piv = eng.pivot_of(v)
        assert piv == next((c for c in range(mu) if want_v[c]), None)
        if piv is None:
            continue
        slot = eng.nrows
        eng.append_row(v, piv, V[1:])
        assert eng.supports == _supports(eng)
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
    coeffs, dens = eng.coeff_terms()
    assert coeffs.shape == (depth, mu) and dens.shape == (depth,)
    for row, d, want in zip(coeffs.tolist(), dens.tolist(), rows):
        assert d > 0 and gcd(d, *row) == 1
        assert [Fr(c, d) for c in row] == want[mu:]


def test_rational_support_reaches_the_coefficient_half():
    """Row 1's evaluation half is its pivot alone and its last nonzero lies
    in the coefficient half, so a d = 1 step by it must walk columns past
    the evaluation half to subtract its slot coefficients."""
    pts = [tuple(map(QQ.convert, pt)) for pt in POINTS]
    eng = RationalEngine(QQ, pts)
    eng.bulk_load([[1, 0, 0, 1, 0, 0], [0, 1, 0, 2, 1, 0]])
    assert eng.supports == _supports(eng) == [[0, 3], [1, 3, 4]]
    V = _stack(eng, [Fr(3), Fr(4), Fr(5)])
    assert _coeffs(eng, eng.reduce_into(V)) == [3, 4]
    assert _entries(eng, V[0]) == [0, 0, 5, -11, -4, 0]


def test_rational_support_walk_on_a_newton_block():
    """A bulk-loaded cartesian Newton block over Q is mostly zero, and each
    stored row, seeded or appended, records its nonzero columns.  A stack
    reduced against the block and one appended dense row gets the
    coefficients and residuals of a dense Fraction reduction."""
    xs = [Fr(-3, 2), Fr(1, 3), Fr(5, 4), Fr(2)]
    ys = [Fr(-1, 5), Fr(2, 7), Fr(3)]
    block = [(x, y) for y, size in zip(ys, (4, 3, 1)) for x in xs[:size]]
    loose = [(Fr(-7, 3), Fr(9, 2)), (Fr(11, 6), Fr(-5, 3))]
    cover = line_cover(PointSet(QQ, block), "rows")
    pts = cover.flatten() + loose
    mu, k = len(pts), len(block)
    seeded = evaluation_matrix(newton_basis_rows(cover), pts).tolist()
    eng = RationalEngine(QQ, pts)
    eng.bulk_load(seeded)
    assert eng.supports == _supports(eng)
    assert sum(map(len, eng.supports)) < k * mu
    rows = [[Fr(c, row[r]) for c in row] + [Fr(0)] * (2 * mu - len(row))
            for r, row in enumerate(seeded)]
    pivots = list(range(k))

    def reference(V, exps):
        for v, e in zip(V, exps):
            evals = [x**e[0] * y**e[1] for x, y in pts] + [Fr(0)] * mu
            want_c, want_v = _reference_reduce_q(rows, pivots, evals)
            yield _entries(eng, v), want_v, want_c

    exps = [(4, 0), (0, 3), (1, 2), (3, 1), (2, 2)]
    V = eng.new_vectors([eng.monomial_vector(e) for e in exps])
    got_c = _coeffs(eng, eng.reduce_into(V))
    for n, (got, want, want_c) in enumerate(reference(V, exps)):
        assert got == want
        assert got_c[n * k:(n + 1) * k] == want_c
    piv = eng.pivot_of(V[0])
    dense = _entries(eng, V[0])
    eng.append_row(V[0], piv, V[1:])
    assert eng.supports == _supports(eng)
    # nonzero at every evaluation column after the block, up to its slot
    assert eng.supports[-1][:mu - k] == list(range(k, mu))
    assert eng.supports[-1][-1] == mu + k
    rows.append([x / dense[piv] for x in dense])
    rows[-1][mu + k] = 1 / dense[piv]
    pivots.append(piv)
    for got, want, _ in reference(V[1:], exps[1:]):
        assert got == want
    V = eng.new_vectors([eng.monomial_vector(e) for e in exps[1:]])
    got_c = _coeffs(eng, eng.reduce_into(V))
    for n, (got, want, want_c) in enumerate(reference(V, exps[1:])):
        assert got == want
        assert got_c[n * (k + 1):(n + 1) * (k + 1)] == want_c


def test_rational_step_keeps_denominator_when_pivot_divides():
    """A row whose pivot entry divides the vector's entry there steps the
    numerators alone: the denominator stays and the content is kept, until
    a step by a row over a pivot entry above one divides it out.  A row
    appended from a vector that still has content is primitive over a
    positive pivot entry."""
    # row 0 over 3, row 1 over 2; the vector (6, 1, 3)/3 has 6 at pivot 0
    rows = [[3, 2, 0, 3, 0, 0], [0, 2, 1, 0, 1, 0]]
    rows_q = [[Fr(c, row[r]) for c in row] for r, row in enumerate(rows)]
    evals = [6, 1, 3, 3]
    want_v = [Fr(c, evals[-1]) for c in evals[:-1]] + [Fr(0)] * 3
    pts = [tuple(map(QQ.convert, pt)) for pt in POINTS]
    for depth in (1, 2):
        eng = RationalEngine(QQ, pts)
        eng.bulk_load(rows[:depth])
        V = eng.new_vectors([evals])
        v = V[0]
        want_c, want = _reference_reduce_q(rows_q[:depth],
                                           list(range(depth)), want_v)
        assert _coeffs(eng, eng.reduce_into(V)) == want_c
        assert _entries(eng, v) == want
        if depth == 1:
            # V - 2 R over the unchanged 3, with its content 3 kept
            assert v == [0, -3, 3, -6, 0, 0, 3]
            assert gcd(*v) == 3
        else:
            assert gcd(*v) == 1
    eng = RationalEngine(QQ, pts)
    eng.bulk_load(rows[:1])
    V = eng.new_vectors([evals, evals])
    eng.reduce_into(V)
    piv = eng.pivot_of(V[0])
    assert piv == 1 and V[0][piv] < 0
    eng.append_row(V[0], piv, V[1:])
    row = eng.mat[-1]
    assert row == [0, 1, -1, 2, -1, 0]
    assert row[piv] > 0 and gcd(*row) == 1
    # the same vector again is minus the new slot: its tail reads -1
    # over 1 though a d = 1 step kept the content 3 of -3/3
    assert _entries(eng, V[1]) == [0, 0, 0, 0, -1, 0]
    assert eng.tail_terms(V[1]) == ([0, -1, 0], 1)


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
    every member to zero."""
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
        point = int(eng.colperm[piv]) if p else piv
        eng.append_row(v, piv, stack[k + 1:])
        s = field.inv(residual[point])
        rows.append([field.mul(x, s) for x in residual])
        rows[-1][mu + slot] = s
        pivots.append(point)
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
        assert _point_order(eng, eng.mat[:r]) == rows
    else:
        for row, piv, want in zip(eng.mat, eng.pivots, rows):
            assert row[piv] > 0
            assert [Fr(c, row[piv]) for c in row] == want
