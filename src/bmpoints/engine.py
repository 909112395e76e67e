"""Row-reduction engines behind the BM loop.

Each engine owns an augmented matrix [E | C] of width 2*mu: the evaluation
half E (one column per point) and the coefficient half C (one column per
basis slot).  Every reduction acts on both halves at once, so the polynomial
combination t - sum a_i q_i materializes from C for free at the end instead
of costing a symbolic pass per reduction.

Over F_p, row r is zero at the pivots of the rows before it and one at its
own, so the pivot block A = mat[:r, pivots[:r]] is unit upper triangular,
and the engine keeps its inverse.  A stack of vectors, one per row of an
int64 array, reduces by two exact modular products, C = V[:, pivots] A^-1
and V - C mat, instead of a loop over the rows.  A row appended from the
stack reduces the vectors after it by one rank-1 update, and A^-1 is
extended at the next reduction over all the rows stored since the last
one, in the delayed, blocked style of FFLAS-FFPACK (Dumas, Giorgi and
Pernet, ACM TOMS 35(3), 2008).  The products run in float64 on base-2^b
limbs, so every sum stays exact.

Over Q every row and vector is a list of Python integers over one positive
denominator (fraction-free elimination with one gcd per row step, after
Bareiss, Math. Comp. 22, 1968), a stack is a list of vectors, and
Fractions appear only in the output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index

import numpy as np

from .points import coordinate_scale, scale_points

# float64 holds every integer below this bound exactly
_FLOAT_EXACT = 2**53
# unitriangular blocks up to this size are inverted directly
_BASE_BLOCK = 32


def _mul_mod(x: np.ndarray, m: np.ndarray, p: int) -> np.ndarray:
    """x @ m mod p, exactly, for int64 x and float64 m with entries in [0, p).

    x is cut into base-2^b limbs, with b as large as keeps every float64 sum
    below 2^53, and all limbs go through m in one product.  The certificate's
    evaluator (poly.values_at) keeps its own copy of this scheme, so it
    shares no code with the engine.
    """
    depth = m.shape[0]
    bits = ((_FLOAT_EXACT - 1) // (depth * (p - 1)) + 1).bit_length() - 1
    if bits < 1:
        raise ValueError(f"a product of depth {depth} mod {p} is not exact "
                         "in float64")
    width = (p - 1).bit_length()
    if bits >= width:
        return (x.astype(np.float64) @ m).astype(np.int64) % p
    shifts = np.arange(0, width, bits).reshape(-1, *(1,) * x.ndim)
    limbs = (x >> shifts) & ((1 << bits) - 1)
    parts = (limbs.reshape(-1, depth).astype(np.float64) @ m
             ).astype(np.int64) % p
    parts = parts.reshape(len(shifts), *x.shape[:-1], m.shape[1])
    out = parts[0]
    for s, part in zip(range(bits, width, bits), parts[1:]):
        out += part * pow(2, s, p)
        out %= p
    return out


def _unitri_inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of a unit upper triangular int64 matrix.

    By 2x2 blocks: [[A, B], [0, D]]^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]].
    A small block is I + N with N nilpotent: where one float64 product of
    its size is exact, the inverse is (I - N)(I + N^2)(I + N^4)...; where
    products need limbs, Gauss-Jordan from the last column is cheaper.
    """
    n = a.shape[0]
    if n > _BASE_BLOCK:
        h = n // 2
        out = np.zeros_like(a)
        out[:h, :h] = _unitri_inverse(a[:h, :h], p)
        out[h:, h:] = _unitri_inverse(a[h:, h:], p)
        right = _mul_mod(out[:h, :h], a[:h, h:].astype(np.float64), p)
        right = _mul_mod(right, out[h:, h:].astype(np.float64), p)
        out[:h, h:] = (p - right) % p
        return out
    out = np.eye(n, dtype=np.int64)
    if n * (p - 1) ** 2 >= _FLOAT_EXACT:
        for k in range(n - 1, 0, -1):  # products below p^2: exact in int64
            out[:k, k:] = (out[:k, k:] - a[:k, k, None] * out[k, k:]) % p
        return out
    power = (out - a) % p
    out = out + power
    span = 2
    while span < n:
        power = _mul_mod(power, power.astype(np.float64), p)
        out = (out + _mul_mod(out, power.astype(np.float64), p)) % p
        span *= 2
    return out


def _divisor_chain(e, cache) -> list:
    """e and its divisors down to the nearest cached one or (0, 0), lowest
    first.

    Each divisor drops one x while the x-exponent is positive, then one y,
    so the step up to (i, j) multiplies by x when i > 0 and by y otherwise.
    A loop rather than recursion, so any exponent is in reach.
    """
    chain = [e]
    while chain[-1] not in cache and chain[-1] != (0, 0):
        i, j = chain[-1]
        chain.append((i - 1, j) if i else (0, j - 1))
    return chain[::-1]


class PrimeEngine:
    """Augmented echelon matrix over F_p, reduced through the inverse of
    its pivot block."""

    def __init__(self, field, points):
        mu = len(points)
        self.field = field
        self.p = field.p
        self.mu = mu
        self.width = 2 * mu
        self.xs = np.array([x for x, _ in points], dtype=np.int64)
        self.ys = np.array([y for _, y in points], dtype=np.int64)
        # rows and the pivot block's inverse are float64, the right operands
        # of every product; their entries lie in [0, p), so they are exact
        self.mat = np.zeros((mu, self.width))
        self.inv = np.zeros((mu, mu))
        self.pivots = np.zeros(mu, dtype=np.int64)
        self.nrows = 0
        # inv holds the inverse of the pivot block of rows[:bordered]
        self.bordered = 0
        # columns that may be nonzero in a row: the evaluation half and the
        # slots stored so far
        self.ncols = mu

    def monomial_vector(self, e, cache):
        """Evaluations of x^i y^j at all points, built from cached divisors."""
        base, *steps = _divisor_chain(e, cache)
        v = cache.get(base)
        if v is None:
            v = cache[base] = np.ones(self.mu, dtype=np.int64) % self.p
        for step in steps:
            v = cache[step] = v * (self.xs if step[0] else self.ys) % self.p
        return v

    def new_vectors(self, evals) -> np.ndarray:
        """A stack of vectors, one row per entry of evals."""
        v = np.zeros((len(evals), self.width), dtype=np.int64)
        v[:, :self.mu] = evals
        return v

    def reduce_into(self, v: np.ndarray):
        """Reduce the stack v in place against all rows; returns the row
        coefficients, flattened vector by vector.

        The residual that is zero at every pivot is unique, so c equals the
        coefficients of a sequential row-by-row reduction.
        """
        if self.bordered < self.nrows:
            self._border()
        r, cols = self.nrows, self.ncols
        if not r:
            return np.zeros(0, dtype=np.int64)
        c = _mul_mod(v[:, self.pivots[:r]], self.inv[:r, :r], self.p)
        v[:, :cols] -= _mul_mod(c, self.mat[:r, :cols], self.p)
        v[:, :cols] %= self.p
        return c.ravel()

    def pivot_of(self, v: np.ndarray):
        """First nonzero coordinate of the evaluation half, or None."""
        nz = np.nonzero(v[:self.mu])[0]
        return int(nz[0]) if nz.size else None

    def append_row(self, v: np.ndarray, slot: int, pivot: int, rest):
        """Normalize the pivot to 1, record the slot's own coefficient and
        store.  The stack rest, the vectors after v in its batch (some
        perhaps never processed, perhaps none), is reduced against the new
        row by one rank-1 update, exact in int64 as every product is below
        p^2 < 2^63."""
        p = self.p
        s = self.field.inv(int(v[pivot]))
        v = v * s % p
        v[self.mu + slot] = s
        self.mat[self.nrows] = v
        self.ncols = cols = max(self.ncols, self.mu + slot + 1)
        self.pivots[self.nrows] = pivot
        self.nrows += 1
        rest[:, :cols] = (rest[:, :cols] - rest[:, pivot, None] * v[:cols]) % p

    def _border(self) -> None:
        """Extend the inverse over the rows stored since the last border.

        With A the bordered block, B the old rows at the new pivots and D
        the new rows at theirs, the pivot block is [[A, B], [0, D]]: each
        new row is zero at the old pivots and at the pivots of the new rows
        before it, so D is unit upper triangular, and the inverse is
        [[A^-1, -A^-1 B D^-1], [0, D^-1]].  A^-1 (B D^-1) is taken with the
        narrow operand on the left, as the transpose of (B D^-1)^T A^-T.
        With none bordered yet, D is the whole block, a seeded one
        included, and _unitri_inverse inverts it by 2x2 block recursion.
        """
        b, r, p = self.bordered, self.nrows, self.p
        new = self.pivots[b:r]
        d_inv = _unitri_inverse(self.mat[b:r, new].astype(np.int64), p)
        if b:
            y = _mul_mod(self.mat[:b, new].astype(np.int64),
                         d_inv.astype(np.float64), p)
            self.inv[:b, b:r] = ((p - _mul_mod(y.T, self.inv[:b, :b].T, p))
                                 % p).T
        self.inv[b:r, b:r] = d_inv
        self.bordered = r

    def bulk_load(self, aug_rows) -> None:
        """Store unitriangular rows with entries in [0, p): row r has its
        pivot, a one, at column r and is zero at the columns before it.
        Rows narrower than the matrix are zero beyond their end."""
        k, w = len(aug_rows), np.shape(aug_rows)[-1]
        self.mat[:k, :w] = aug_rows
        self.mat[:k, w:] = 0
        square = self.mat[:k, :k]
        if (np.diagonal(square) != 1).any() or np.tril(square, -1).any():
            raise RuntimeError("seeded rows are not unit upper triangular")
        self.ncols = (self.width if self.mat[:k, self.mu + k:].any()
                      else self.mu + k)
        self.pivots[:k] = np.arange(k)
        self.nrows = k

    def tail_terms(self, v: np.ndarray) -> np.ndarray:
        """The coefficient half of v, copied out of its stack: its
        coefficient of each slot."""
        return v[self.mu:].copy()

    def coeff_terms(self) -> np.ndarray:
        """The coefficient halves of the stored rows, one row per slot."""
        return self.mat[:self.nrows, self.mu:].astype(np.int64)

    def pivot_indices(self) -> list:
        return [int(p) for p in self.pivots[:self.nrows]]


class RationalEngine:
    """Exact twin of PrimeEngine over Q, on Python integers.

    The points are scaled to integers once: with B and C the lcms of the
    x- and y-denominators, X = B x and Y = C y, so the vector of x^i y^j is
    X^i Y^j over B^i C^j.  A vector is a list of integer numerators with
    their one positive denominator as the last entry.  A stored row is a
    primitive integer list over its own pivot entry, which is positive.  A
    reduction step by a row R over d takes the vector V/D to
    (d V - V[p] R)/(d D), with d and V[p] first divided by their gcd, and
    divides out the gcd of the whole result, so no entry pays a gcd of its
    own.  Fractions are built only for what the engine hands out:
    reduction coefficients and the terms of G and Q.
    """

    def __init__(self, field, points):
        mu = len(points)
        self.field = field
        self.mu = mu
        self.width = 2 * mu
        self.scale = coordinate_scale(points)
        scaled = scale_points(points, self.scale)
        self.xs = [x for x, _ in scaled]
        self.ys = [y for _, y in scaled]
        self.mat: list = []
        self.pivots: list = []

    @property
    def nrows(self):
        return len(self.mat)

    def monomial_vector(self, e, cache):
        """X^i Y^j over B^i C^j, built from cached divisors."""
        base, *steps = _divisor_chain(e, cache)
        v = cache.get(base)
        if v is None:
            v = cache[base] = [1] * (self.mu + 1)
        b, c = self.scale
        for step in steps:
            coords, s = (self.xs, b) if step[0] else (self.ys, c)
            v = cache[step] = [a * t for a, t in zip(v, coords)] + [v[-1] * s]
        return v

    def new_vectors(self, evals) -> list:
        """A stack of vectors, one per entry of evals."""
        return [e[:-1] + [0] * self.mu + e[-1:] for e in evals]

    def reduce_into(self, v: list) -> list:
        """Reduce the stack v in place against all rows, in order; returns
        the row coefficients as Fractions, flattened vector by vector."""
        coeffs = []
        zero = self.field.zero
        for w in v:
            for row, p in zip(self.mat, self.pivots):
                coeffs.append(Fraction(w[p], w[-1]) if w[p] else zero)
                self._step(w, row, p)
        return coeffs

    @staticmethod
    def _step(v: list, row: list, p: int) -> None:
        """One row step in place: V/D to (d V - V[p] R)/(d D) for the row R
        over d = R[p], with d and V[p] first divided by their gcd, then the
        gcd of the whole result divided out."""
        a = v[p]
        if not a:
            return
        d = row[p]
        h = gcd(a, d)
        if h > 1:
            a, d = a // h, d // h
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

    def append_row(self, v: list, slot: int, pivot: int, rest):
        """Store V/D over V[pivot], with the slot's own coefficient D, and
        step each vector of the stack rest by the stored row."""
        row = v[:-1]
        row[self.mu + slot] = v[-1]
        self._store(row, pivot)
        for w in rest:
            self._step(w, self.mat[-1], pivot)

    def bulk_load(self, aug_rows) -> None:
        """Store integer rows, row r over its entry at column r: that entry
        must be positive and the columns before it zero, so the rows are
        unit upper triangular over Q.  Rows narrower than the matrix are
        zero beyond their end."""
        rows = [[index(c) for c in row] + [0] * (self.width - len(row))
                for row in aug_rows]
        for r, row in enumerate(rows):
            if row[r] <= 0 or any(row[:r]):
                raise RuntimeError("seeded rows are not unit upper triangular "
                                   "over a positive diagonal")
        self.mat, self.pivots = [], []
        for r, row in enumerate(rows):
            self._store(row, r)

    def _half(self, v: list, den: int) -> list:
        return [Fraction(c, den) if c else 0 for c in v[self.mu:2 * self.mu]]

    def tail_terms(self, v: list) -> list:
        """The coefficient half of v as Fractions, zeros as 0."""
        return self._half(v, v[-1])

    def coeff_terms(self) -> np.ndarray:
        """The coefficient halves of the stored rows as an object array,
        one row per slot."""
        out = np.zeros((self.nrows, self.mu), dtype=object)
        for r, (row, p) in enumerate(zip(self.mat, self.pivots)):
            out[r] = self._half(row, row[p])
        return out

    def pivot_indices(self) -> list:
        return list(self.pivots)
