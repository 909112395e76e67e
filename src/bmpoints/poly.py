"""Bivariate polynomials over a Field in two forms, and their exact
evaluation at many points at once.

A PolyMatrix holds many polynomials as the rows of one coefficient matrix
over a list of exponents: int64 over F_p; over Q, rows of Python integers,
each over its own least common denominator.  It is the form a run
produces (G and Q over the slots of N), the form both writers render, text
and JSON through one term walk (render_rows), and the form the
certificate checks.  A Polynomial is a sparse map from exponent to
coefficient, the library's view of one row, with Fraction coefficients
over Q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count, pairwise
from math import gcd, lcm

import numpy as np

from .fields import Field
from .orders import Exponent, TermOrder


class ZeroPolynomialError(ValueError):
    """Operation undefined for the zero polynomial."""


class Polynomial:
    """Finite map exponent -> nonzero coefficient over a fixed field.

    Instances are treated as immutable.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict):
        self.field = field
        self.terms = terms

    @classmethod
    def from_pairs(cls, field: Field, pairs) -> "Polynomial":
        """Sum of (exponent, raw coefficient) pairs, canonicalized."""
        terms: dict = {}
        for e, raw in pairs:
            terms[e] = terms.get(e, 0) + field.convert(raw)
        return PolyMatrix.from_terms(field, [terms]).polynomial(0)

    def evaluate(self, point):
        """Exact value at point = (x, y): an int over F_p, a Fraction over Q."""
        return values_at(PolyMatrix.from_polys(self.field, [self]),
                         [point]).item(0)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.field == self.field
                and other.terms == self.terms)

    def __repr__(self):
        return f"Polynomial({self.terms!r})"


class PolyMatrix:
    """Polynomials as the rows of one coefficient matrix.

    Polynomial k's coefficient of x^i y^j, (i, j) = exps[c], is
    coeffs[k, c]; the exponents are distinct.  Over F_p coeffs is int64
    with entries in [0, p) and dens is None.  Over Q the coefficient is
    coeffs[k, c] / dens[k]: coeffs is an object array of Python integers,
    and dens[k] > 0 is row k's least common denominator, so gcd(dens[k],
    *coeffs[k]) == 1.  Instances are treated as immutable.
    """

    __slots__ = ("field", "exps", "coeffs", "dens")

    def __init__(self, field: Field, exps: list, coeffs: np.ndarray,
                 dens: np.ndarray = None):
        self.field = field
        self.exps = exps
        self.coeffs = coeffs
        self.dens = dens

    @classmethod
    def from_terms(cls, field: Field, rows) -> "PolyMatrix":
        """Rows from {exponent: coefficient} maps, one assignment each, over
        the exponents in first-seen order less those zero in every row.
        Over F_p the coefficients may be sums of field elements, reduced
        here; over Q each row is scaled by the lcm of its denominators."""
        p = field.char
        col = dict(zip(dict.fromkeys(chain.from_iterable(rows)), count()))
        coeffs = np.zeros((len(rows), len(col)), np.int64 if p else object)
        dens = None if p else np.ones(len(rows), dtype=object)
        for k, row in enumerate(rows):
            values = [*row.values()]
            if not p:
                dens[k] = d = lcm(*(c.denominator for c in values))
                values = [c.numerator * (d // c.denominator) for c in values]
            coeffs[k, [*map(col.__getitem__, row)]] = values
        if p:
            coeffs %= p
        used = coeffs.astype(bool).any(axis=0)
        return cls(field, [e for e, u in zip(col, used.tolist()) if u],
                   coeffs[:, used], dens)

    @classmethod
    def from_polys(cls, field: Field, polys) -> "PolyMatrix":
        """The Polynomials as rows, over the exponents they use."""
        return cls.from_terms(field, [q.terms for q in polys])

    def __len__(self):
        return self.coeffs.shape[0]

    def polynomial(self, k: int) -> Polynomial:
        row = self.coeffs[k].tolist()
        if self.dens is not None:
            d = self.dens[k]
            row = [Fraction(c, d) if c else 0 for c in row]
        return Polynomial(self.field, {e: c for e, c in zip(self.exps, row)
                                       if c})

    def polys(self) -> list:
        """Every row as a Polynomial."""
        return [self.polynomial(k) for k in range(len(self))]

    def column_order(self, order: TermOrder) -> np.ndarray:
        """The columns, their exponents descending under order."""
        exps = self.exps
        return np.array(sorted(range(len(exps)), key=lambda c: order.key(
            exps[c]), reverse=True), dtype=np.intp)

    def leading(self, order: TermOrder) -> np.ndarray:
        """Column of each row's leading monomial: its first nonzero column
        in column_order."""
        perm = self.column_order(order)
        nonzero = (self.coeffs != 0)[:, perm]
        if not nonzero.any(axis=1).all():
            raise ZeroPolynomialError("zero polynomial has no leading term")
        return perm[nonzero.argmax(axis=1)] if perm.size else perm


# -- exact evaluation ---------------------------------------------------

# float64 holds every integer below this bound exactly
_FLOAT_EXACT = 2**53

# rows per block of _matmul_mod, each read up to its last nonzero column
_BLOCK = 128


def _power_rows(base: np.ndarray, exps, p: int = 0) -> np.ndarray:
    """rows[r] = base ** exps[r] for ascending exponents >= 0, in base's
    dtype: mod p when p is nonzero (int64), else exactly (object arrays of
    Python integers).  One multiplication per exponent step up to the
    last, and only the listed powers are kept."""
    rows = np.empty((len(exps), base.size), dtype=base.dtype)
    cur = np.ones_like(base)
    for r, (prev, e) in enumerate(pairwise([0, *exps])):
        for _ in range(e - prev):
            cur = cur * base % p if p else cur * base
        rows[r] = cur
    return rows


def _matmul_mod(coeffs: np.ndarray, table: np.ndarray, p: int,
                lower: bool = False) -> np.ndarray:
    """coeffs @ table mod p, exactly, for int64 coeffs in [0, p) and a
    float64 table with entries of absolute value at most p // 2.  With
    lower, only the entries [k, m] with m <= k are sure to be computed;
    the others are exact or zero.

    coeffs is cut into _BLOCK-row blocks, and each block is read only up
    to its last nonzero column, so a block's depth is read from the input
    alone and a block with no nonzero coefficient takes no product.  The
    monomial axis is cut into chunks and each block's coefficients into
    base-2^b limbs, with b as large as keeps every float64 sum over the
    block's depth d below 2^53, d (2^b - 1) (p // 2) < 2^53; the sums of a
    chunk add up in float64.  They join in int64 with one reduction: the
    lowest limb's sums are added as they are, and limb k's reduced and
    shifted by kb, below p 2^(kb) as kb is below the bit length of p - 1,
    so the block, reduced after the chunks before, stays below 2^63.  When
    one limb holds every coefficient, as over q:23, that is a single
    float64 product.  engine._mul_mod runs the same scheme; this copy
    keeps the certificate free of engine code.
    """
    n, depth = coeffs.shape
    out = np.zeros((n, table.shape[1]), dtype=np.int64)
    width = (p - 1).bit_length()
    span = (_FLOAT_EXACT - 1) // (p // 2)  # monomials per chunk: b >= 1
    for t0 in range(0, depth, span):
        c = coeffs[:, t0:t0 + span]
        t = table[t0:t0 + span]
        for r0 in range(0, n, _BLOCK):
            r1 = min(r0 + _BLOCK, n)
            used = np.flatnonzero(c[r0:r1].any(axis=0))
            if not used.size:
                continue
            d = int(used[-1]) + 1
            bits = ((_FLOAT_EXACT - 1) // (d * (p // 2)) + 1).bit_length() - 1
            shifts = range(0, width, bits)
            rows = c[r0:r1, :d]
            cols = r1 if lower else t.shape[1]
            if len(shifts) == 1:
                limbs = rows.astype(np.float64)
            else:
                limbs = np.concatenate([(rows >> s) & ((1 << bits) - 1)
                                        for s in shifts]).astype(np.float64)
            parts = (limbs @ t[:d, :cols]).astype(np.int64)
            h = r1 - r0
            block = out[r0:r1, :cols]
            block += parts[:h]
            for k in range(1, len(shifts)):
                block += parts[k * h:(k + 1) * h] % p << shifts[k]
            block %= p
    return out


def _scaled_powers(coords, exps, top: int) -> np.ndarray:
    """rows[r, m] = a^exps[r] * b^(top - exps[r]) for coords[m] = a/b, for
    ascending exponents at most top: _power_rows on the numerators over
    exps and on the denominators over the complements top - exps[r]."""
    nums = np.array([v.numerator for v in coords], dtype=object)
    dens = np.array([v.denominator for v in coords], dtype=object)
    return (_power_rows(nums, exps)
            * _power_rows(dens, [top - e for e in reversed(exps)])[::-1])


class MonomialTable:
    """The values of the monomials exps at points, computed once for every
    PolyMatrix whose exponents are among exps.

    Both fields build only the powers of each coordinate that exps list,
    one product per exponent step up to the largest (_power_rows).  Over
    F_p values[r, m] is exps[r] at points[m] mod p, as an exact float64 of
    absolute value at most p // 2, which leaves the limbs of _matmul_mod
    one bit more.  Over Q, with x = a/b, y = c/d and I, J the largest
    exponents, values[r, m] is the integer a^i b^(I-i) c^j d^(J-j)
    (_scaled_powers) and exps[r] at points[m] is values[r, m] / dens[m],
    with dens[m] = b^I d^J.  A negative exponent is a ValueError; the
    certificate lists none above the point count (verify.verify_parts).
    """

    __slots__ = ("field", "exps", "points", "row", "values", "dens")

    def __init__(self, field: Field, exps: list, points):
        self.field = field
        self.exps = exps
        self.points = list(points)
        self.row = {e: r for r, e in enumerate(exps)}
        xs = sorted({i for i, _ in exps})
        ys = sorted({j for _, j in exps})
        if (xs and xs[0] < 0) or (ys and ys[0] < 0):
            raise ValueError("cannot evaluate a negative exponent")
        xrow = {i: r for r, i in enumerate(xs)}
        yrow = {j: r for r, j in enumerate(ys)}
        xsel = [xrow[i] for i, _ in exps]
        ysel = [yrow[j] for _, j in exps]
        p = field.char
        if p:
            pts = np.array(self.points, dtype=np.int64).reshape(-1, 2) % p
            half = p // 2
            self.values = ((_power_rows(pts[:, 0], xs, p)[xsel]
                            * _power_rows(pts[:, 1], ys, p)[ysel] + half) % p
                           - half).astype(np.float64)
            self.dens = None
            return
        I, J = max(xs, default=0), max(ys, default=0)
        self.values = (
            _scaled_powers([x for x, _ in self.points], xs, I)[xsel]
            * _scaled_powers([y for _, y in self.points], ys, J)[ysel])
        self.dens = np.array([x.denominator**I * y.denominator**J
                              for x, y in self.points], dtype=object)

    def sums(self, polys: PolyMatrix, lower: bool = False):
        """(sums, dens): polys row k at points[m] is sums[k, m] / dens[k, m],
        exactly, with every denominator positive; the exponents of polys
        must be among the table's.

        Both fields take the table rows of polys' exponents: the leading
        rows as they are when the exponents are a prefix of exps, else a
        gather.  Over F_p the sums are the values, one exact modular
        matrix product as int64 (_matmul_mod), and the denominators are a
        read-only broadcast of one.  Over Q the rows are already integers
        over their denominators L = polys.dens; one integer matrix product
        with the table rows gives every value as a sum over L b^I d^J,
        both object arrays of Python integers.

        With lower, polys row k is evaluated only at points m <= k, the
        triangle the Newton check reads, and (sums, dens) are square: over
        F_p the entries above it are exact or zero; over Q they are zero,
        and each row takes one product over its nonzero coefficients.
        """
        n = len(polys)
        idx = [self.row[e] for e in polys.exps]
        table = (self.values[:len(idx)] if idx == list(range(len(idx)))
                 else self.values[idx])
        width = n if lower else len(self.points)
        p = self.field.char
        if p:
            sums = _matmul_mod(polys.coeffs, table, p, lower)[:, :width]
            return sums, np.broadcast_to(np.int64(1), sums.shape)
        coeffs = polys.coeffs
        if lower:
            sums = np.zeros((n, n), dtype=object)
            for k in range(n):
                nz = np.flatnonzero(coeffs[k])
                sums[k, :k + 1] = coeffs[k, nz] @ table[nz, :k + 1]
        else:
            sums = coeffs @ table
        return sums, np.outer(polys.dens, self.dens[:width])


def values_at(polys: PolyMatrix, points) -> np.ndarray:
    """values[k, m] = polys row k at points[m], exactly: int64 over F_p,
    an object array of Fractions over Q.

    The monomial table covers exactly the exponents of polys, whether or
    not they lie in N, so corrupt input is evaluated as is, at one product
    per exponent step; a negative exponent is a ValueError.
    """
    sums, dens = MonomialTable(polys.field, polys.exps, points).sums(polys)
    if polys.field.char:
        return sums
    return np.frompyfunc(Fraction, 2, 1)(sums, dens)


# -- rendering ----------------------------------------------------------

def monomial_text(e: Exponent) -> str:
    """Render x^i y^j without a coefficient; (0,0) renders as "1"."""
    return "".join(v if k == 1 else f"{v}^{k}"
                   for v, k in zip("xy", e) if k) or "1"


# rows of a matrix rendered at a time: every array of perfbench's
# workloads (at most 130 rows) is one block
RENDER_ROWS = 256


def _ratio_text(c: int, d: int) -> str:
    """str(Fraction(c, d)) for d > 0, at one gcd."""
    g = gcd(c, d)
    return str(c // g) if g == d else f"{c // g}/{d // g}"


def render_rows(polys: PolyMatrix, perm: np.ndarray, columns, glue: str,
                monomials: bool = False):
    """The rows' texts, a list per RENDER_ROWS rows: each row's nonzero
    terms in the column order perm, joined by glue; "" for a zero row.

    columns[k], the text of column perm[k], is rendered once.  A term is
    its column's text and then its coefficient's, as str() renders it, a
    rational c / d in lowest terms; with monomials the coefficient comes
    first, and 1 and -1 (|c| = d over Q) show as "" and "-" before a
    nonempty column text.  Over a field with no more elements than the
    matrix has nonzero terms, each element's text is rendered once and
    looked up per term.
    """
    columns = np.array(columns, dtype=object)
    shown = columns != ""
    p = polys.field.char
    text = str
    if 0 < p <= np.count_nonzero(polys.coeffs):
        text = [str(v) for v in range(p)].__getitem__
    for r0 in range(0, len(polys), RENDER_ROWS):
        coeffs = polys.coeffs[r0:r0 + RENDER_ROWS][:, perm]
        rows, cols = np.nonzero(coeffs)
        values = coeffs[rows, cols]
        # a term is [column, coefficient, glue], or with monomials
        # [glue, coefficient, column]; a row drops its last or first glue
        pieces = [glue] * (3 * len(cols))
        pieces[2 if monomials else 0::3] = columns[cols].tolist()
        if polys.dens is None:
            one = 1
            pieces[1::3] = map(text, values.tolist())
        else:  # each term over its row's denominator
            one = polys.dens[r0:r0 + RENDER_ROWS][rows]
            pieces[1::3] = map(_ratio_text, values.tolist(), one.tolist())
        if monomials:  # "1" and "-1" lose their 1
            for t in np.flatnonzero((abs(values) == one)
                                    & shown[cols]).tolist():
                pieces[3 * t + 1] = pieces[3 * t + 1][:-1]
        out, start = [], int(monomials)
        for n in np.bincount(rows, minlength=len(coeffs)).tolist():
            out.append("".join(pieces[start:start + 3 * n - 1]) if n else "")
            start += 3 * n
        yield out


def text_rows(polys: PolyMatrix, perm: np.ndarray):
    """render_rows as text, e.g. "-1/2xy+y-1"; "0" for a zero row."""
    columns = ["" if polys.exps[c] == (0, 0) else monomial_text(
        polys.exps[c]) for c in perm.tolist()]
    for rows in render_rows(polys, perm, columns, "+", monomials=True):
        yield [r.replace("+-", "-") or "0" for r in rows]


def row_text(polys: PolyMatrix, k: int, order: TermOrder) -> str:
    """Row k as text, terms descending under order."""
    dens = None if polys.dens is None else polys.dens[k:k + 1]
    row = PolyMatrix(polys.field, polys.exps, polys.coeffs[k:k + 1], dens)
    return next(text_rows(row, row.column_order(order)))[0]


def poly_text(p: Polynomial, order: TermOrder) -> str:
    """Terms descending under order, e.g. "2x^3+x^2+4x"; "0" for zero."""
    return row_text(PolyMatrix.from_polys(p.field, [p]), 0, order)


def poly_json_terms(p: Polynomial, order: TermOrder) -> list:
    """JSON form: [i, j, "coeff"] triples descending under order."""
    return [[i, j, str(c)] for (i, j), c in sorted(
        p.terms.items(), key=lambda t: order.key(t[0]), reverse=True)]

