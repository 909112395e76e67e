"""Row-reduction engines behind the BM loop.

Each engine owns an augmented matrix [E | C] of width 2*mu: the evaluation
half E (one column per point) and the coefficient half C (one column per
basis slot).  A single row operation serves both halves, so the polynomial
combination t - sum a_i q_i materializes from C for free at the end instead
of costing a symbolic pass per reduction.

F_p rows are int64 numpy arrays (moduli < 2**31 keep products inside int64)
reduced by a per-row numpy loop; Q rows are Fraction lists.
"""

from __future__ import annotations

import numpy as np


class PrimeEngine:
    """Augmented echelon matrix over F_p with numpy row operations."""

    def __init__(self, field, points):
        mu = len(points)
        self.field = field
        self.p = field.p
        self.mu = mu
        self.width = 2 * mu
        self.xs = np.array([x for x, _ in points], dtype=np.int64)
        self.ys = np.array([y for _, y in points], dtype=np.int64)
        self.mat = np.zeros((mu, self.width), dtype=np.int64)
        self.pivots = np.zeros(mu, dtype=np.int64)
        self.nrows = 0

    def monomial_vector(self, e, cache):
        """Evaluations of x^i y^j at all points, built from cached divisors."""
        v = cache.get(e)
        if v is None:
            i, j = e
            if i == 0 and j == 0:
                v = np.ones(self.mu, dtype=np.int64) % self.p
            elif i > 0:
                v = self.monomial_vector((i - 1, j), cache) * self.xs % self.p
            else:
                v = self.monomial_vector((i, j - 1), cache) * self.ys % self.p
            cache[e] = v
        return v

    def new_vector(self, evals) -> np.ndarray:
        v = np.zeros(self.width, dtype=np.int64)
        v[:self.mu] = evals
        return v

    def reduce_into(self, v: np.ndarray):
        """Reduce v in place against all rows; returns the row coefficients."""
        mat, pivots, p = self.mat, self.pivots, self.p
        coeffs = np.zeros(self.nrows, dtype=np.int64)
        for r in range(self.nrows):
            a = int(v[pivots[r]])
            if a:
                v += (p - a) * mat[r]
                v %= p
                coeffs[r] = a
        return coeffs

    def pivot_of(self, v: np.ndarray):
        """First nonzero coordinate of the evaluation half, or None."""
        nz = np.nonzero(v[:self.mu])[0]
        return int(nz[0]) if nz.size else None

    def append_row(self, v: np.ndarray, slot: int, pivot: int):
        """Normalize the pivot to 1, record the slot's own coefficient, store."""
        s = self.field.inv(int(v[pivot]))
        v = v * s % self.p
        v[self.mu + slot] = s
        self.mat[self.nrows] = v
        self.pivots[self.nrows] = pivot
        self.nrows += 1

    def bulk_load(self, aug_rows) -> None:
        """Store unitriangular rows: row r has its pivot at column r."""
        k = len(aug_rows)
        self.mat[:k] = np.reshape(aug_rows, (k, self.width))
        self.pivots[:k] = np.arange(k)
        self.nrows = k

    def tail_terms(self, v: np.ndarray, slot_exponents):
        """Nonzero coefficient-half entries of v as (exponent, int) pairs."""
        tail = v[self.mu:]
        return [(slot_exponents[c], int(tail[c])) for c in np.nonzero(tail)[0]]

    def coeff_terms(self, r: int, slot_exponents):
        return self.tail_terms(self.mat[r], slot_exponents)

    def pivot_indices(self) -> list:
        return [int(p) for p in self.pivots[:self.nrows]]


class RationalEngine:
    """Exact Fraction twin of PrimeEngine (desk scale, pure Python)."""

    def __init__(self, field, points):
        mu = len(points)
        self.field = field
        self.mu = mu
        self.width = 2 * mu
        self.xs = [x for x, _ in points]
        self.ys = [y for _, y in points]
        self.mat: list = []
        self.pivots: list = []

    @property
    def nrows(self):
        return len(self.mat)

    def monomial_vector(self, e, cache):
        v = cache.get(e)
        if v is None:
            i, j = e
            if i == 0 and j == 0:
                v = [self.field.one] * self.mu
            elif i > 0:
                v = [a * b for a, b in
                     zip(self.monomial_vector((i - 1, j), cache), self.xs)]
            else:
                v = [a * b for a, b in
                     zip(self.monomial_vector((i, j - 1), cache), self.ys)]
            cache[e] = v
        return v

    def new_vector(self, evals) -> list:
        return list(evals) + [self.field.zero] * self.mu

    def reduce_into(self, v: list):
        coeffs = []
        for r, row in enumerate(self.mat):
            a = v[self.pivots[r]]
            coeffs.append(a)
            if a != 0:
                for c in range(self.width):
                    if row[c]:
                        v[c] -= a * row[c]
        return coeffs

    def pivot_of(self, v: list):
        for c in range(self.mu):
            if v[c] != 0:
                return c
        return None

    def append_row(self, v: list, slot: int, pivot: int):
        s = self.field.inv(v[pivot])
        v = [s * c for c in v]
        v[self.mu + slot] = s
        self.mat.append(v)
        self.pivots.append(pivot)

    def bulk_load(self, aug_rows: list) -> None:
        self.mat = [list(r) for r in aug_rows]
        self.pivots = list(range(len(aug_rows)))

    def tail_terms(self, v: list, slot_exponents):
        return [(slot_exponents[c], v[self.mu + c])
                for c in range(self.mu) if v[self.mu + c] != 0]

    def coeff_terms(self, r: int, slot_exponents):
        return self.tail_terms(self.mat[r], slot_exponents)

    def pivot_indices(self) -> list:
        return list(self.pivots)


def engine_for(field, points):
    """Pick the matching engine for the field."""
    if field.char:
        return PrimeEngine(field, points)
    return RationalEngine(field, points)
