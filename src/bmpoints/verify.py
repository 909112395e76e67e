"""Independent validation: structural checks on computed bases and a dense
brute-force oracle.

The checks take G and Q in dense form (poly.PolyMatrix: an exponent list
and a coefficient matrix), as a run hands them over or as `bmpoints verify`
reads them from JSON.  A leading monomial is the nonzero column that ranks
highest under the order.  verify_parts builds one poly.MonomialTable over
Q's exponents and G's others, at the points in pointPermutation order
(input order when the permutation is invalid), and the vanishing and Newton
checks both evaluate against it: G at every point, Q only on the triangle
m <= k.  The table leaves out every exponent above the point count μ in
either variable, which no valid G or Q holds, and a G or Q that holds one
fails its check unevaluated.  Over F_p these are exact modular matrix
products in 128-row blocks, each read up to its last nonzero column in the
input; over Q, integer matrix products of the rows' numerators, each row
over its denominator, Q's row by row over its nonzero coefficients.  The
checks compare integer sums with zero or their denominators, and "monic"
compares each leading numerator with its row's denominator, so no value
becomes a Fraction.  Every check reads only the points, G, N, Q and the
permutation, and neither field's path uses the engine code.

The oracle shares no elimination code with the main loop: it rebuilds rank
facts from scratch with full Gaussian elimination per candidate monomial and
solves one dense linear system per basis element.  It exists as desk-scale
ground truth, hence the size cap.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import accumulate, pairwise

import numpy as np

from .orders import LEX, TermOrder, exp_divides
from .points import PointSet, is_lower
from .poly import MonomialTable, PolyMatrix, Polynomial, row_text


class CapExceededError(ValueError):
    """Raised when the oracle is asked for more points than its cap."""


@dataclass
class VerifyReport:
    """A list of named checks; passes only if every check passed."""

    checks: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    def extend(self, other: "VerifyReport") -> None:
        self.checks.extend(other.checks)

    def text(self) -> str:
        lines = []
        for name, ok, detail in self.checks:
            suffix = f": {detail}" if detail else ""
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
        lines.append(f"{'PASS' if self.passed else 'FAIL'} overall")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "checks": [{"name": n, "passed": ok, "detail": d}
                           for n, ok, d in self.checks]}


def check_vanishing(G: PolyMatrix, ps: PointSet,
                    table: MonomialTable = None) -> VerifyReport:
    """Every polynomial must evaluate to zero at every point: every value's
    integer sum is zero.  table, when given, covers G's exponents at ps's
    points in any order; the detail names the first failing polynomial
    and, of its failing points, the first in ps."""
    if table is None:
        table = MonomialTable(G.field, G.exps, ps.points)
    sums = table.sums(G)[0] != 0
    rep = VerifyReport()
    bad = np.flatnonzero(sums.any(axis=1))
    detail = ""
    if bad.size:
        k = int(bad[0])
        at = ps.index_map()
        m = min(at[table.points[c]] for c in np.flatnonzero(sums[k]).tolist())
        detail = f"{row_text(G, k, LEX)} is nonzero at {ps[m]}"
    rep.add("vanishing", not bad.size, detail)
    return rep


def check_reduced_gb(G: PolyMatrix, N, order: TermOrder,
                     n_points=None) -> VerifyReport:
    """Shape checks pinning the reduced basis and its escalier.  Sorted by
    (i, j), the leading monomials are distinct and pairwise non-divisible
    exactly when their y-exponents fall strictly.  N must list n_points
    distinct monomials, when given; the detail names a repeat."""
    rep = VerifyReport()

    lead = G.leading(order)
    lms = [G.exps[c] for c in lead.tolist()]
    rows = np.arange(len(G))
    one = G.field.one if G.dens is None else G.dens
    rep.add("monic", bool((G.coeffs[rows, lead] == one).all()))

    clash = next(((a, b) for a, b in pairwise(sorted(lms)) if b[1] >= a[1]),
                 None)
    rep.add("leading monomials pairwise non-divisible", clash is None,
            f"{clash[0]} divides {clash[1]}" if clash else "")

    nset = set(N)
    stray = G.coeffs.astype(bool) & np.array(
        [e not in nset for e in G.exps], dtype=bool)
    stray[rows, lead] = False
    hits = np.argwhere(stray)
    rep.add("tails supported in N", not hits.size,
            f"monomial {G.exps[hits[0, 1]]} outside N" if hits.size else "")

    rep.add("N is a lower set", is_lower(N))

    if n_points is not None:
        seen = set()
        dup = next((n for n in N if n in seen or seen.add(n)), None)
        rep.add("N size equals point count", len(N) == n_points and not dup,
                f"{len(N)} vs {n_points}{f', {dup} repeated' if dup else ''}")

    divisible = _multiple_of_any(lms)
    hit = next((n for n in nset if divisible(n)), None)
    rep.add("N avoids leading-monomial multiples", hit is None,
            f"{hit} divisible by a leading monomial" if hit else "")

    shifts = ({(i + 1, j) for i, j in nset} |
              {(i, j + 1) for i, j in nset}) - nset
    if not nset:
        shifts = {(0, 0)}
    uncovered = next((b for b in shifts if not divisible(b)), None)
    rep.add("border covered by leading monomials", uncovered is None,
            f"border monomial {uncovered} not divisible" if uncovered else "")
    return rep


def _multiple_of_any(lms):
    """A test of whether some monomial of lms divides an exponent (i, j):
    the lowest y-exponent among the monomials with x-exponent at most i
    must be at most j."""
    lms = sorted(lms)
    xs = [i for i, _ in lms]
    low = list(accumulate((j for _, j in lms), min))
    return lambda e: (k := bisect_right(xs, e[0])) > 0 and low[k - 1] <= e[1]


def check_newton(Q: PolyMatrix, ordered_points,
                 table: MonomialTable = None) -> VerifyReport:
    """Triangular unit evaluations: Q[k] at point m is delta(k, m), m <= k,
    so a value's integer sum is zero, or its denominator on the diagonal.
    Only that triangle is evaluated.  table, when given, covers Q's
    exponents at points that start with ordered_points."""
    if len(Q) != len(ordered_points):
        raise ValueError(
            f"{len(Q)} polynomials against {len(ordered_points)} points")
    if table is None:
        table = MonomialTable(Q.field, Q.exps, ordered_points)
    elif table.points[:len(Q)] != list(ordered_points):
        raise ValueError("the table's points do not start with the "
                         "ordered points")
    rep = VerifyReport()
    detail = ""
    if len(Q):
        sums, dens = table.sums(Q, lower=True)
        want = np.where(np.eye(len(Q), dtype=bool), dens, 0)
        wrong = np.flatnonzero(np.tril(sums != want))
        if wrong.size:
            k, m = divmod(int(wrong[0]), len(Q))
            value = Fraction(int(sums[k, m]), int(dens[k, m]))
            detail = f"Q[{k}] at point {m} gave {value}"
    rep.add("newton triangularity", not detail, detail)
    return rep


def verify_parts(ps: PointSet, order: TermOrder, G: PolyMatrix, N,
                 Q: PolyMatrix, perm) -> VerifyReport:
    """Full battery on a run's output, whether fresh or deserialized.

    One monomial table over Q's exponents, then G's others, serves both
    evaluating checks.  Its points are in pointPermutation order, then the
    points it leaves out, or in input order when the permutation is
    invalid.  It lists no exponent above μ = len(ps) in either variable; a
    G or Q that holds one fails its evaluating check, which is not run.
    """
    mu = len(ps)
    perm_ok = (len(set(perm)) == len(perm) == len(Q)
               and all(0 <= k < mu for k in perm))
    cols = list(perm) if perm_ok else []
    taken = set(cols)
    cols += [k for k in range(mu) if k not in taken]
    exps = [e for e in dict.fromkeys(Q.exps + G.exps) if max(e) <= mu]
    table = MonomialTable(ps.field, exps, [ps[k] for k in cols])
    g_skip, q_skip = (next((f"skipped: exponent {e} exceeds the point count "
                            f"{mu}" for e in P.exps if max(e) > mu), "")
                      for P in (G, Q))
    rep = VerifyReport()
    if g_skip:
        rep.add("vanishing", False, g_skip)
    else:
        rep.extend(check_vanishing(G, ps, table))
    rep.extend(check_reduced_gb(G, N, order, n_points=mu))
    rep.add("permutation indices valid", perm_ok)
    q_skip = q_skip if perm_ok else "skipped: bad permutation"
    if q_skip:
        rep.add("newton triangularity", False, q_skip)
    else:
        rep.extend(check_newton(Q, [ps[k] for k in perm], table))
    nset = set(N)
    q_lms = [Q.exps[c] for c in Q.leading(order).tolist()]
    rep.add("Q leading monomials enumerate N",
            len(q_lms) == len(set(q_lms)) and set(q_lms) == nset)
    used = Q.coeffs.astype(bool).any(axis=0).tolist()
    stray = [e for e, u in zip(Q.exps, used) if u and e not in nset]
    rep.add("Q supported in N", not stray,
            f"monomial {stray[0]} outside N" if stray else "")
    return rep


def verify_result(result) -> VerifyReport:
    """verify_parts applied to a BMResult, as the CLI runs before success."""
    return verify_parts(result.points, result.order, result.G_dense,
                        result.N, result.Q_dense, result.point_permutation)


def _rank(f, rows) -> int:
    """Row rank by fresh full Gaussian elimination, pivoting on the first
    nonzero entry."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows))
                    if not f.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = f.inv(rows[rank][c])
        for i in range(rank + 1, len(rows)):
            if not f.is_zero(rows[i][c]):
                s = f.mul(rows[i][c], inv)
                rows[i] = [f.sub(a, f.mul(s, b))
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _solve(f, rows, rhs):
    """Solve a square nonsingular system by full elimination and back
    substitution; rows are consumed as copies."""
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next(i for i in range(c, n) if not f.is_zero(aug[i][c]))
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = f.inv(aug[c][c])
        aug[c] = [f.mul(inv, a) for a in aug[c]]
        for i in range(n):
            if i != c and not f.is_zero(aug[i][c]):
                s = aug[i][c]
                aug[i] = [f.sub(a, f.mul(s, b))
                          for a, b in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


def _eval_column(f, e, points):
    out = []
    for x, y in points:
        v = f.one
        for _ in range(e[0]):
            v = f.mul(v, x)
        for _ in range(e[1]):
            v = f.mul(v, y)
        out.append(v)
    return out


def oracle_dense(ps: PointSet, order: TermOrder, cap: int = 64):
    """Ground-truth (G, N) by brute force.

    Enumerates monomials ascending under the order, keeps the greedy set
    whose evaluation columns stay independent (checked from scratch each
    time), then solves one dense system per staircase corner.
    """
    mu = len(ps)
    if mu > cap:
        raise CapExceededError(f"{mu} points exceeds oracle cap {cap}")
    f = ps.field
    points = list(ps)

    # total degree <= mu always suffices for the escalier of mu points
    universe = [(i, d - i) for d in range(mu + 1) for i in range(d + 1)]
    universe.sort(key=order.key)

    N, cols, g_lms = [], [], []
    for t in universe:
        if len(N) == mu:
            break
        if any(exp_divides(m, t) for m in g_lms):
            continue
        vec = _eval_column(f, t, points)
        if _rank(f, cols + [vec]) == len(cols) + 1:
            N.append(t)
            cols.append(vec)
        else:
            g_lms.append(t)
    if len(N) != mu:
        raise RuntimeError(f"degree bound exhausted with {len(N)} of {mu} "
                           "staircase monomials")

    l_x = {}
    for i, j in N:
        l_x[j] = max(l_x.get(j, 0), i)
    nu = max(l_x)
    corners = [(l_x[0] + 1, 0)]
    corners += [(l_x[j] + 1, j) for j in range(1, nu + 1)
                if l_x[j] < l_x[j - 1]]
    corners.append((0, nu + 1))

    point_rows = [[cols[c][r] for c in range(mu)] for r in range(mu)]
    G = []
    for t in sorted(corners, key=order.key):
        rhs = _eval_column(f, t, points)
        coeffs = _solve(f, point_rows, rhs)
        terms = {e: f.neg(c) for e, c in zip(N, coeffs) if not f.is_zero(c)}
        terms[t] = f.one
        G.append(Polynomial(f, terms))
    return G, N
