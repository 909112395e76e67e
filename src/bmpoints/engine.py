"""Row-reduction engines behind the BM loop.

Each engine owns an augmented matrix [E | C] of width 2*mu: the evaluation
half E (one column per point) and the coefficient half C (one column per
basis slot).  Every reduction acts on both halves at once, so the polynomial
combination t - sum a_i q_i materializes from C for free at the end instead
of costing a symbolic pass per reduction.  An engine numbers the slots
itself, the slot of a stored row being its row number, and caches the
monomial vectors it builds, each from its nearest cached divisor by
square-and-multiply.

Over F_p the evaluation columns are kept pivot first: column c holds point
colperm[c], and row r is one at column r and zero at the columns before it,
so the pivot block A = mat[:r, :r] is unit upper triangular.  A stack of
vectors, one per row of an int64 array, reduces by solving C A = V[:, :r]
by forward substitution in diagonal blocks of _BASE_BLOCK rows, each block
and the rows above it slices of mat, then by one product V - C mat over the
columns after the pivots: the blocked triangular solve of FFLAS-FFPACK
(Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  Only the diagonal blocks
are inverted, so a seeded block costs no elimination beyond them, and a
block is inverted again only after rows have joined it; a solve inverts
all the blocks it needs in one stacked call.  A row appended from the
stack reduces the vectors after it by one rank-1 update over their live
columns.  Two exact schemes serve every p < 2^31: the products, of the
solve and of the block inverses, run in float64 on base-2^b limbs of the
left factor, b chosen from the depth and p so that every sum stays below
2^53; the rank-1 updates run elementwise in int64, where every product
stays below p^2 < 2^62.  A block inverse doubles: each of its log2 n
levels joins the inverses of diagonal halves by two stacked products.

Over Q every row and vector is a list of Python integers over one positive
denominator (fraction-free elimination, after Bareiss, Math. Comp. 22,
1968), a stack is a list of vectors, and no value becomes a Fraction: a
reduction coefficient is a (numerator, denominator) pair, and the
coefficient halves handed out for G and Q are integer rows over their
least common denominators, the form of poly.PolyMatrix.  A row step takes
the gcd of the whole vector only when it grows the denominator.  A row
whose pivot entry divides the vector's entry there leaves the denominator
as it is, so the numerators stay the exact entries times that
denominator: their content divides it, and the next step that grows the
denominator divides the content out.  Each stored row keeps its nonzero
columns, and such a step walks only those: the rows of a seeded Newton
block are mostly zero.
"""

from __future__ import annotations

from math import gcd
from operator import index

import numpy as np

from .points import coordinate_scale, scale_points

# float64 holds every integer below this bound exactly
_FLOAT_EXACT = 2**53
# rows per diagonal block of the solve: the trailing block is inverted again
# after rows join it, so a larger block costs more per batch, and a smaller
# one more products per solve
_BASE_BLOCK = 32


def _split(x: np.ndarray, depth: int, p: int) -> tuple:
    """(limbs, b): int64 x in [0, p), one matrix or a stack of them, as
    float64 base-2^b limbs stacked by rows within each matrix, b the largest
    that keeps products of this depth below 2^53."""
    bits = ((_FLOAT_EXACT - 1) // (depth * (p - 1)) + 1).bit_length() - 1
    if bits < 1:
        raise ValueError(f"a product of depth {depth} mod {p} is not exact "
                         "in float64")
    shifts = np.arange(0, (p - 1).bit_length(), bits)[:, None, None]
    limbs = (x[..., None, :, :] >> shifts) & ((1 << bits) - 1)
    return (limbs.reshape(*x.shape[:-2], -1, x.shape[-1])
            .astype(np.float64), bits)


def _join(parts: np.ndarray, bits: int, p: int, n: int) -> np.ndarray:
    """The n product rows mod p, of each matrix of a stack, from the
    float64 product of n-row limbs."""
    parts = (parts.astype(np.int64) % p).reshape(*parts.shape[:-2], -1, n,
                                                 parts.shape[-1])
    out = parts[..., 0, :, :]
    for k in range(1, parts.shape[-3]):
        out += parts[..., k, :, :] * pow(2, k * bits, p)
        out %= p
    return out


def _mul_mod(x: np.ndarray, m: np.ndarray, p: int) -> np.ndarray:
    """x @ m mod p, exactly, for int64 x and float64 m with entries in
    [0, p), matrices or stacks of them, all limbs in one product; the
    certificate's evaluator (poly._matmul_mod) keeps its own copy."""
    limbs, bits = _split(x, m.shape[-2], p)
    return _join(limbs @ m, bits, p, x.shape[-2])


def _unitri_inverse(blocks: list, p: int) -> list:
    """Inverses mod p of unit upper triangular blocks with entries in
    [0, p), listed by non-increasing size, as float64.

    One pass inverts them all, as a stack padded with the identity to n,
    the power of two at or above the largest, by recursive doubling:
    inv([[A, B], [0, D]]) = [[A^-1, -A^-1 B D^-1], [0, D^-1]].  With its
    strictly upper entries negated every 2x2 diagonal block is inverted;
    level s joins pairs of s x s inverses of the blocks larger than s by
    two stacked products, exact by _mul_mod at depth s.
    """
    sizes = [len(d) for d in blocks]
    n = 1 << (sizes[0] - 1).bit_length()
    out = np.zeros((len(blocks), n, n))
    for x, d in zip(out, blocks):
        x[:len(d), :len(d)] = d
    np.subtract(p, out, out=out, where=out != 0)
    out.reshape(len(blocks), -1)[:, ::n + 1] = 1
    for s in [1 << k for k in range(1, n.bit_length() - 1)]:
        live, m = sum(size > s for size in sizes), n // (2 * s)
        # the 2s x 2s diagonal blocks of the live stack, as a view
        v = np.einsum("kiaib->kiab",
                      out[:live].reshape(live, m, 2 * s, m, 2 * s))
        x = _mul_mod(v[..., :s, :s].astype(np.int64), v[..., :s, s:], p)
        v[..., :s, s:] = _mul_mod(x, v[..., s:, s:], p)
    return [x[:size, :size] for x, size in zip(out, sizes)]


def _monomial(e, cache, xs, ys, mul):
    """The vector of x^i y^j, e = (i, j), from the nearest cached divisor d
    of e and cached; the cache holds (0, 0) from the start.

    d is the first cached exponent on the walk down from e that drops one
    x while the x-exponent is positive, then one y.  The vector is d's
    times x^a y^b, (a, b) = e - d, with x^a y^b by square-and-multiply over
    the bits of a and b, so a walk of one step costs one product, mul.
    """
    i, j = e
    while (i, j) not in cache:
        i, j = (i - 1, j) if i else (i, j - 1)
    a, b = e[0] - i, e[1] - j
    q = None
    for bit in range(max(a, b).bit_length() - 1, -1, -1):
        if q is not None:
            q = mul(q, q)
        if a >> bit & 1:
            q = xs if q is None else mul(q, xs)
        if b >> bit & 1:
            q = ys if q is None else mul(q, ys)
    if q is not None:
        cache[e] = mul(cache[i, j], q)
    return cache[e]


def _lowest(half: list, den: int) -> tuple:
    """(half, den) divided by their gcd, for den > 0."""
    g = gcd(den, *half)
    return ([c // g for c in half], den // g) if g > 1 else (half, den)


class PrimeEngine:
    """Augmented echelon matrix over F_p, reduced by a blocked triangular
    solve against its pivot block."""

    def __init__(self, field, points):
        mu = len(points)
        self.field = field
        self.p = field.p
        self.mu = mu
        self.width = 2 * mu
        self.xs = np.array([x for x, _ in points], dtype=np.int64)
        self.ys = np.array([y for _, y in points], dtype=np.int64)
        # rows, and the inverses taken from them, are float64, the right
        # operands of every product; their entries lie in [0, p), so they
        # are exact
        self.mat = np.zeros((mu, self.width))
        # the point of each evaluation column, so row r pivots at colperm[r]
        self.colperm = np.arange(mu)
        self.nrows = 0
        # the inverse of each diagonal block of the pivot block, first one
        # first; the last may cover fewer rows than its block holds now
        self.blocks: list = []
        # point-order monomial vectors by exponent, each from a cached divisor
        self.cache = {(0, 0): np.ones(mu, dtype=np.int64)}

    def monomial_vector(self, e):
        """Evaluations of x^i y^j at all points, from the nearest cached
        divisor (_monomial)."""
        p = self.p
        return _monomial(e, self.cache, self.xs, self.ys,
                         lambda u, w: u * w % p)

    def new_vectors(self, evals) -> np.ndarray:
        """A stack of vectors, one row per point-order entry of evals."""
        v = np.zeros((len(evals), self.width), dtype=np.int64)
        v[:, :self.mu] = np.asarray(evals)[:, self.colperm]
        return v

    def reduce_into(self, v: np.ndarray):
        """Reduce the stack v in place against all rows; returns the row
        coefficients, flattened vector by vector.

        The residual that is zero at every pivot is unique, so c equals the
        coefficients of a sequential row-by-row reduction.  Block by block,
        c_b = (v[:, s:e] - c_<b mat[:s, s:e]) D_b^-1, where block b holds
        rows s..e-1 and D_b = mat[s:e, s:e], the inverses first brought up
        to date by _invert_blocks.  The residual is then zero in the
        r pivot columns, and no stored row has a coefficient beyond slot
        r - 1, so only columns r..mu + r - 1 take the product.  Each c_b is
        cut into limbs once, at the width depth r allows, for every product.
        """
        r, p, n, cols = self.nrows, self.p, len(v), self.mu + self.nrows
        c = np.zeros((n, r), dtype=np.int64)
        if not r:
            return c.ravel()
        self._invert_blocks()
        limbs, bits = _split(c, r, p)
        for b, s in enumerate(range(0, r, _BASE_BLOCK)):
            e = min(s + _BASE_BLOCK, r)
            w = v[:, s:e]
            if s:
                w = w - _join(limbs[:, :s] @ self.mat[:s, s:e], bits, p, n)
            c[:, s:e] = _mul_mod(w % p, self.blocks[b], p)
            limbs[:, s:e] = _split(c[:, s:e], r, p)[0]
        v[:, r:cols] -= _join(limbs @ self.mat[:r, r:cols], bits, p, n)
        v[:, r:cols] %= p
        v[:, :r] = 0
        return c.ravel()

    def _invert_blocks(self) -> None:
        """Invert every diagonal block that lacks a current inverse, the
        trailing one if rows joined it and every new one, in one call."""
        r, size = self.nrows, _BASE_BLOCK
        first = len(self.blocks)
        if first and len(self.blocks[-1]) < min(size, r - (first - 1) * size):
            first -= 1
        starts = range(first * size, r, size)
        if starts:
            self.blocks[first:] = _unitri_inverse(
                [self.mat[s:e, s:e] for s, e in zip(starts, [*starts[1:], r])],
                self.p)

    def pivot_of(self, v: np.ndarray):
        """The nonzero evaluation column of the lowest point, or None."""
        nz = v[:self.mu].nonzero()[0]
        return int(nz[self.colperm[nz].argmin()]) if nz.size else None

    def append_row(self, v: np.ndarray, pivot: int, rest):
        """Normalize the pivot to 1 and store v as the next row, whose slot
        is its row number, with that slot's own coefficient.  A pivot
        column other than column r first swaps into place r, in the rows,
        v, rest and colperm.  The stack rest, the vectors after v in its
        batch (some perhaps never processed, perhaps none), is reduced
        against the new row by one rank-1 update over columns r..mu + r,
        as rest is zero before column r and the row after mu + r, exact in
        int64 as every product is below p^2 < 2^63."""
        p, r = self.p, self.nrows
        if pivot != r:
            for a in (self.mat[:r], v, rest, self.colperm):
                a[..., [r, pivot]] = a[..., [pivot, r]]
        cols = self.mu + r + 1
        s = self.field.inv(int(v[r]))
        row = v[r:cols] * s % p
        row[-1] = s
        self.mat[r, r:cols] = row
        self.nrows = r + 1
        rest[:, r:cols] = (rest[:, r:cols] - rest[:, r, None] * row) % p

    def bulk_load(self, aug_rows) -> None:
        """Store k unitriangular rows with entries in [0, p): row r has its
        pivot, a one, at column r and is zero at the columns before it, and
        no coefficient beyond the k slots.  Rows narrower than the matrix
        are zero beyond their end."""
        k, w = len(aug_rows), np.shape(aug_rows)[-1]
        self.mat[:k, :w] = aug_rows
        self.mat[:k, w:] = 0
        evals = self.mat[:k, :self.mu]
        first = (evals != 0).argmax(axis=1)
        if ((first != np.arange(k)).any() or (np.diagonal(evals) != 1).any()
                or self.mat[:k, self.mu + k:].any()):
            raise RuntimeError("seeded rows are not unit upper triangular")
        self.nrows = k

    def tail_terms(self, v: np.ndarray) -> tuple:
        """(half, 1): the coefficient half of v, copied out of its stack,
        its coefficient of each slot, over the denominator one."""
        return v[self.mu:].copy(), 1

    def coeff_terms(self) -> tuple:
        """(coeffs, None): the coefficient halves of the stored rows, one
        row per slot; None stands for the denominators, as in
        poly.PolyMatrix over F_p."""
        return self.mat[:self.nrows, self.mu:].astype(np.int64), None

    def pivot_indices(self) -> list:
        return self.colperm[:self.nrows].tolist()


class RationalEngine:
    """Exact twin of PrimeEngine over Q, on Python integers.

    The points are scaled to integers once: with B and C the lcms of the
    x- and y-denominators, X = B x and Y = C y, so the vector of x^i y^j is
    X^i Y^j over B^i C^j.  A vector is a list of integer numerators with
    their one positive denominator as the last entry.  A stored row is a
    primitive integer list over its own pivot entry, which is positive.  A
    reduction step by a row R over d takes the vector V/D to
    (d V - V[p] R)/(d D), with d and V[p] first divided by their gcd.  A
    step that leaves d > 1 divides out the gcd of the whole result, so no
    entry pays a gcd of its own.  A step that leaves d = 1, where R[p]
    divides V[p], is V - (V[p]/R[p]) R over the same D, with no multiply
    and no gcd of the whole vector, over the row's nonzero columns alone,
    which _store records once per row: the numerators are the new entries
    times D, so the vector may keep a content, but one that divides D, and
    the next step with d > 1 removes it.  Every consumer normalizes: _store
    divides a row by its gcd, and a coefficient half handed out for G or
    Q is divided by its gcd with its denominator (_lowest).  Reduction
    coefficients are handed out as (V[p], D) pairs, not reduced.
    """

    def __init__(self, field, points):
        mu = len(points)
        self.field = field
        self.mu = mu
        self.width = 2 * mu
        self.scale = coordinate_scale(points)
        scaled = scale_points(points, self.scale)
        # X and Y, each followed by its scale: x and y as vectors
        self.xs = [x for x, _ in scaled] + [self.scale[0]]
        self.ys = [y for _, y in scaled] + [self.scale[1]]
        self.mat: list = []
        self.pivots: list = []
        # the nonzero columns of each stored row
        self.supports: list = []
        self.cache = {(0, 0): [1] * (mu + 1)}

    @property
    def nrows(self):
        return len(self.mat)

    def monomial_vector(self, e):
        """X^i Y^j over B^i C^j, from the nearest cached divisor
        (_monomial)."""
        return _monomial(e, self.cache, self.xs, self.ys,
                         lambda u, w: [a * t for a, t in zip(u, w)])

    def new_vectors(self, evals) -> list:
        """A stack of vectors, one per entry of evals."""
        return [e[:-1] + [0] * self.mu + e[-1:] for e in evals]

    def reduce_into(self, v: list) -> list:
        """Reduce the stack v in place against all rows, in order; returns
        the row coefficients, flattened vector by vector: a nonzero one as
        a pair (numerator, denominator) of ints, a zero one as 0."""
        coeffs = []
        for w in v:
            for row, p, cols in zip(self.mat, self.pivots, self.supports):
                coeffs.append((w[p], w[-1]) if w[p] else 0)
                self._step(w, row, p, cols)
        return coeffs

    @staticmethod
    def _step(v: list, row: list, p: int, cols: list) -> None:
        """One row step in place: V/D to (d V - V[p] R)/(d D) for the row R
        over d = R[p], with d and V[p] first divided by their gcd.  If that
        leaves d = 1, the step is V - (V[p]/R[p]) R over the same D, taken
        at cols, the nonzero columns of R, and any content stays, dividing
        D; otherwise the gcd of the whole result is divided out."""
        a = v[p]
        if not a:
            return
        d = row[p]
        h = gcd(a, d)
        if h > 1:
            a, d = a // h, d // h
        if d == 1:
            for c in cols:
                v[c] -= a * row[c]
            return
        w = [d * x - a * y if y else d * x for x, y in zip(v, row)]
        w.append(d * v[-1])
        g = gcd(*w)
        v[:] = [x // g for x in w] if g > 1 else w

    def pivot_of(self, v: list):
        for c in range(self.mu):
            if v[c]:
                return c
        return None

    def _store(self, row: list, pivot: int) -> None:
        g = gcd(*row) if row[pivot] > 0 else -gcd(*row)
        self.mat.append([x // g for x in row] if g != 1 else row)
        self.pivots.append(pivot)
        self.supports.append([c for c, x in enumerate(row) if x])

    def append_row(self, v: list, pivot: int, rest):
        """Store V/D over V[pivot] as the next row, with its slot's own
        coefficient D (the slot is the row number), and step each vector
        of the stack rest by the stored row."""
        row = v[:-1]
        row[self.mu + self.nrows] = v[-1]
        self._store(row, pivot)
        for w in rest:
            self._step(w, self.mat[-1], pivot, self.supports[-1])

    def bulk_load(self, aug_rows) -> None:
        """Store k integer rows, row r over its entry at column r: that
        entry must be positive and the columns before it zero, so the rows
        are unit upper triangular over Q, and no row has a coefficient
        beyond the k slots.  Rows narrower than the matrix are zero beyond
        their end."""
        rows = [[index(c) for c in row] + [0] * (self.width - len(row))
                for row in aug_rows]
        end = self.mu + len(rows)
        for r, row in enumerate(rows):
            if row[r] <= 0 or any(row[:r]) or any(row[end:]):
                raise RuntimeError("seeded rows are not unit upper triangular "
                                   "over a positive diagonal")
        self.mat, self.pivots, self.supports = [], [], []
        for r, row in enumerate(rows):
            self._store(row, r)

    def tail_terms(self, v: list) -> tuple:
        """(numerators, denominator): the coefficient half of v over its
        least common denominator."""
        return _lowest(v[self.mu:2 * self.mu], v[-1])

    def coeff_terms(self) -> tuple:
        """(coeffs, dens): the coefficient halves of the stored rows, one
        row per slot, as an object array of integers, row r over its least
        common denominator dens[r]."""
        out = np.zeros((self.nrows, self.mu), dtype=object)
        dens = np.zeros(self.nrows, dtype=object)
        for r, (row, p) in enumerate(zip(self.mat, self.pivots)):
            out[r], dens[r] = _lowest(row[self.mu:], row[p])
        return out, dens

    def pivot_indices(self) -> list:
        return list(self.pivots)
