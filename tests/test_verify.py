"""Verification checks and the dense-elimination oracle."""

import ast
import random
from pathlib import Path

import numpy as np
import pytest

import bmpoints.engine
import bmpoints.poly
import bmpoints.verify
from bmpoints.bm import bm_run, gpbm_run, spbm_run
from bmpoints.fields import make_field
from bmpoints.newton import evaluation_matrix, newton_basis_rows
from bmpoints.orders import INLEX, LEX, TDINLEX
from bmpoints.points import PointSet, line_cover
from bmpoints.poly import (_BLOCK, MonomialTable, PolyMatrix, Polynomial,
                           _matmul_mod, poly_text, values_at)
from bmpoints.randgen import gen_points
from bmpoints.verify import (CapExceededError, VerifyReport, check_newton,
                             check_reduced_gb, check_vanishing, oracle_dense,
                             verify_parts, verify_result)
from conftest import EX5_MCS_ORDER, F5, F7, QQ, reference_value

F23 = make_field("q:23")
BIG = make_field("q:2147483647")


def test_oracle_single_point():
    G, N = oracle_dense(PointSet(F7, [(3, 5)]), LEX)
    assert N == [(0, 0)]
    assert [poly_text(g, LEX) for g in G] == ["y+2", "x+4"]


def test_oracle_matches_preprocessed_run(ex1):
    res = spbm_run(ex1, INLEX)
    G, N = oracle_dense(ex1, INLEX)
    assert G == res.G
    assert set(N) == set(res.N)


def test_oracle_matches_bm_random():
    for seed in range(10):
        ps = gen_points(F5, 1 + (seed * 3) % 12, seed=300 + seed)
        for order in (LEX, INLEX, TDINLEX):
            res = bm_run(ps, order)
            G, N = oracle_dense(ps, order)
            assert G == res.G and N == res.N


def test_oracle_cap():
    ps = gen_points(F7, 5, seed=1)
    with pytest.raises(CapExceededError):
        oracle_dense(ps, LEX, cap=4)


def test_check_vanishing():
    ps = PointSet(F7, [(0, 0), (1, 2)])
    assert check_vanishing(PolyMatrix.from_polys(F7, []), ps).passed
    assert check_vanishing(bm_run(ps, LEX).G_dense, ps).passed
    one = PolyMatrix.from_polys(F7, [Polynomial(F7, {(0, 0): 1})])
    rep = check_vanishing(one, ps)
    assert not rep.passed


def test_check_reduced_gb_failures():
    x2 = Polynomial.from_pairs(F7, [((2, 0), 1), ((1, 0), -1)])
    x3 = Polynomial(F7, {(3, 0): 1})
    y1 = Polynomial(F7, {(0, 1): 1})

    def check(G, N, **kw):
        return check_reduced_gb(PolyMatrix.from_polys(F7, G), N, LEX, **kw)

    # divisible leading monomials
    assert not check([x2, x3], [(0, 0), (1, 0)]).passed
    # one element twice: its leading monomial divides itself
    x = Polynomial.from_pairs(F23, [((1, 0), 1), ((0, 0), 20)])
    y = Polynomial.from_pairs(F23, [((0, 1), 1), ((0, 0), 19)])
    rep = check_reduced_gb(PolyMatrix.from_polys(F23, [x, x, y]), [(0, 0)],
                           LEX, n_points=1)
    assert [(name, detail) for name, ok, detail in rep.checks if not ok] == [
        ("leading monomials pairwise non-divisible", "(1, 0) divides (1, 0)")]
    assert check_reduced_gb(PolyMatrix.from_polys(F23, [x, y]), [(0, 0)],
                            LEX, n_points=1).passed
    # exponent gap: x^2 without x is not a lower set
    assert not check([y1], [(0, 0), (2, 0)]).passed
    # non-monic element
    two_x = Polynomial(F7, {(1, 0): 2})
    assert not check([two_x, y1], [(0, 0)]).passed
    # tail monomial outside N
    g = Polynomial.from_pairs(F7, [((2, 0), 1), ((0, 1), 1)])
    assert not check([g, Polynomial(F7, {(0, 2): 1})], [(0, 0), (1, 0)]).passed
    # point count pins #N when supplied
    good = bm_run(PointSet(F7, [(0, 0), (1, 0)]), LEX)
    assert check_reduced_gb(good.G_dense, good.N, LEX, n_points=2).passed
    assert not check_reduced_gb(good.G_dense, good.N, LEX,
                                n_points=3).passed


def test_check_newton():
    basis = newton_basis_rows(line_cover(PointSet(F7, EX5_MCS_ORDER), "rows"))
    Q = PolyMatrix(F7, basis.index_order,
                   evaluation_matrix(basis, basis.point_order)[:, len(basis):])
    assert check_newton(Q, basis.point_order).passed
    swapped = list(basis.point_order)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not check_newton(Q, swapped).passed
    with pytest.raises(ValueError):
        check_newton(Q, basis.point_order[:-1])
    # a shared table must list the ordered points first
    shared = MonomialTable(F7, Q.exps, basis.point_order)
    assert check_newton(Q, basis.point_order, shared).passed
    with pytest.raises(ValueError):
        check_newton(Q, swapped, shared)


def test_report_aggregation():
    rep = VerifyReport()
    rep.add("a", True, "fine")
    assert rep.passed
    rep.add("b", False, "broken")
    assert not rep.passed
    sub = VerifyReport()
    sub.add("c", True)
    rep.extend(sub)
    assert [n for n, ok, _ in rep.checks] == ["a", "b", "c"]
    txt = rep.text()
    assert "PASS a" in txt and "FAIL b" in txt and "FAIL" in txt.splitlines()[-1]
    doc = rep.to_json()
    assert doc["passed"] is False and len(doc["checks"]) == 3


def test_verify_result_on_runs(ex1, ex2, ex5):
    assert verify_result(spbm_run(ex1, INLEX)).passed
    assert verify_result(spbm_run(ex2, LEX)).passed
    assert verify_result(gpbm_run(ex5, TDINLEX)).passed


def test_corruption_is_caught(ex5):
    res = gpbm_run(ex5, TDINLEX)

    def parts(G=None, Q=None, perm=None):
        return verify_parts(res.points, res.order,
                            PolyMatrix.from_polys(F7, G or res.G), res.N,
                            PolyMatrix.from_polys(F7, Q or res.Q),
                            perm or res.point_permutation)

    assert parts().passed
    bad_g = list(res.G)
    bad_g[0] = Polynomial.from_pairs(
        F7, [*bad_g[0].terms.items(), ((0, 0), 1)])
    assert not parts(G=bad_g).passed
    bad_q = list(res.Q)
    bad_q[3] = Polynomial(F7, {e: F7.mul(2, c)
                              for e, c in bad_q[3].terms.items()})
    assert not parts(Q=bad_q).passed
    bad_perm = list(res.point_permutation)
    bad_perm[0], bad_perm[1] = bad_perm[1], bad_perm[0]
    assert not parts(perm=bad_perm).passed
    assert not parts(perm=[0] * len(bad_perm)).passed


def test_verify_rational(ex1):
    res = spbm_run(ex1, INLEX)
    rep = verify_parts(ex1, INLEX, res.G_dense, res.N, res.Q_dense,
                       res.point_permutation)
    assert rep.passed and res.field is QQ


def _random_case(field, rng, n_polys, n_terms, n_points, max_exp):
    """Polynomials with exponents up to max_exp (not a lower set) and points
    that include zero coordinates."""
    p = field.p
    polys = [Polynomial(field, {(rng.randrange(max_exp), rng.randrange(max_exp)):
                                rng.randrange(1, p) for _ in range(n_terms)})
             for _ in range(n_polys)]
    points = [(0, 0), (0, rng.randrange(p))]
    points += [(rng.randrange(p), rng.randrange(p)) for _ in range(n_points)]
    return polys, points


def _reference_values(polys, points):
    return [[reference_value(q, pt) for pt in points] for q in polys]


@pytest.mark.parametrize("field", [F23, BIG], ids=["p=23", "p=2^31-1"])
@pytest.mark.parametrize("n_polys, n_terms", [(0, 0), (1, 0), (4, 3), (6, 150)],
                         ids=["no-polys", "zero-poly", "sparse", "dense"])
def test_values_mod_p_matches_evaluate(field, n_polys, n_terms):
    # compared with conftest.reference_value, not with Polynomial.evaluate,
    # which delegates to values_at; "dense" at p = 2^31-1 has over 128
    # monomials, which takes three limbs
    rng = random.Random(n_polys * 1000 + n_terms)
    polys, points = _random_case(field, rng, n_polys, n_terms, 9, 90)
    got = values_at(PolyMatrix.from_polys(field, polys), points)
    assert got.shape == (len(polys), len(points))
    assert got.tolist() == _reference_values(polys, points)


def test_values_mod_p_chunks_monomial_axis(monkeypatch):
    # with a 2^10 exactness bound and table entries of absolute value at
    # most 11, monomials at p = 23 go in chunks of at most 93, each split
    # into one-bit limbs
    monkeypatch.setattr(bmpoints.poly, "_FLOAT_EXACT", 2**10)
    polys, points = _random_case(F23, random.Random(3), 5, 200, 12, 40)
    assert len({e for q in polys for e in q.terms}) > 93
    got = values_at(PolyMatrix.from_polys(F23, polys), points)
    assert got.tolist() == _reference_values(polys, points)


def test_values_mod_p_rejects_negative_exponent():
    with pytest.raises(ValueError):
        values_at(PolyMatrix.from_polys(F7, [Polynomial(F7, {(0, -1): 1})]),
                  [(1, 2)])


def _block_coeffs(p, rng):
    """Coefficients mod p over 150 monomials in four _BLOCK-row blocks:
    rows that end at different columns up to 37, an all-zero block, a
    block whose only nonzero entry is in the last column, and a lower
    triangular block cut off at 22 rows."""
    coeffs = np.zeros((3 * _BLOCK + 22, 150), dtype=np.int64)
    for k in range(_BLOCK):
        end = rng.randrange(38)
        coeffs[k, :end] = [rng.randrange(p) for _ in range(end)]
    coeffs[2 * _BLOCK + rng.randrange(_BLOCK), -1] = rng.randrange(1, p)
    for k in range(3 * _BLOCK, len(coeffs)):
        coeffs[k, :k - 3 * _BLOCK + 1] = rng.randrange(1, p)
    return coeffs


def _matmul_mod_reference(coeffs, table, p):
    """coeffs @ table mod p in Python integers."""
    rows = table.astype(np.int64).tolist()
    out = []
    for row in coeffs.tolist():
        acc = [0] * len(rows[0])
        for c, t in zip(row, rows):
            if c:
                acc = [a + c * v for a, v in zip(acc, t)]
        out.append([a % p for a in acc])
    return out


def _block_case(p, rng):
    """_block_coeffs against a random table."""
    coeffs = _block_coeffs(p, rng)
    half = p // 2
    table = np.array([[rng.randint(-half, half)
                       for _ in range(len(coeffs) + 3)]
                      for _ in range(coeffs.shape[1])], dtype=np.float64)
    return coeffs, table


def _deep_case(p, rng):
    """Coefficients and table entries within 2^8 of their bounds, p - 1
    and +-(p // 2), over 200 monomials: a first block that stops at column
    _BLOCK, the deepest that two 16-bit limbs keep exact at p = 2^31-1,
    and a short block that runs to the last column."""
    coeffs = np.array([[p - 1 - rng.randrange(2**8) for _ in range(200)]
                       for _ in range(_BLOCK + 6)], dtype=np.int64)
    coeffs[:_BLOCK, _BLOCK:] = 0
    table = np.array([[p // 2 - rng.randrange(2**8)
                       for _ in range(len(coeffs) + 3)]
                      for _ in range(coeffs.shape[1])], dtype=np.float64)
    table[:, 1::2] *= -1
    return coeffs, table


def _bound_case(p, rng):
    """Coefficients all p - 1 and table columns all p // 2 or all
    -(p // 2), so every limb's sums are the largest of their sign: a first
    block of depth _BLOCK, two limbs at p = 2^31-1, and a block of depth
    200, three limbs."""
    coeffs = np.full((_BLOCK + 6, 200), p - 1, dtype=np.int64)
    coeffs[:_BLOCK, _BLOCK:] = 0
    table = np.full((200, len(coeffs) + 3), float(p // 2))
    table[:, 1::2] *= -1
    return coeffs, table


def _check_matmul_mod(coeffs, table, p):
    want = _matmul_mod_reference(coeffs, table, p)
    assert _matmul_mod(coeffs, table, p).tolist() == want
    got = _matmul_mod(coeffs, table, p, lower=True)
    assert got.shape == (len(coeffs), table.shape[1])
    for k, (row, ref) in enumerate(zip(got.tolist(), want)):
        assert row[:k + 1] == ref[:k + 1]
        assert all(v in (0, r) for v, r in zip(row[k + 1:], ref[k + 1:]))


# p = 23 takes one limb; at p = 2^31-1 a block of depth at most 128
# takes two, a deeper one three
@pytest.mark.parametrize("p, case", [(F23.p, _block_case),
                                     (BIG.p, _block_case),
                                     (BIG.p, _deep_case),
                                     (BIG.p, _bound_case)],
                         ids=["p=23", "p=2^31-1", "p=2^31-1-deep",
                              "p=2^31-1-bound"])
def test_matmul_mod_matches_python_ints(p, case):
    _check_matmul_mod(*case(p, random.Random(p)), p)


def test_matmul_mod_chunks_and_limbs(monkeypatch):
    # as in test_values_mod_p_chunks_monomial_axis: the 150 monomials go
    # in chunks of 93 and 57, and each block splits into limbs as wide as
    # its depth allows: five one-bit limbs, three two-bit ones for the
    # 22-column triangle; the first block is empty in the second chunk and
    # the third in the first
    monkeypatch.setattr(bmpoints.poly, "_FLOAT_EXACT", 2**10)
    _check_matmul_mod(*_block_case(23, random.Random(5)), 23)


def _first_vanishing_failure(G, ps):
    """The vanishing check's detail, by one reference value per entry."""
    for g in G:
        for pt in ps:
            if reference_value(g, pt) != 0:
                return f"{poly_text(g, LEX)} is nonzero at {pt}"
    return ""


def _first_newton_failure(Q, points):
    """The triangularity check's detail, by one reference value per entry."""
    for k, q in enumerate(Q):
        for m in range(k + 1):
            v = reference_value(q, points[m])
            if v != (1 if m == k else 0):
                return f"Q[{k}] at point {m} gave {v}"
    return ""


def _zero_block_entry(coeffs):
    """(row, column) of the first row of a row block of the evaluator
    (poly._BLOCK rows) and a column of a coefficient block that is zero
    there, or None."""
    for r0 in range(0, coeffs.shape[0], _BLOCK):
        for c0 in range(0, coeffs.shape[1], _BLOCK):
            if not coeffs[r0:r0 + _BLOCK, c0:c0 + _BLOCK].any():
                return r0, c0
    return None


# p = 2^31-1 at 300 points spans three evaluation blocks, of which Q's
# true coefficient matrix leaves three zero
@pytest.mark.parametrize("field, n, rounds",
                         [(BIG, 30, 8), (QQ, 20, 8), (BIG, 300, 1)],
                         ids=["p=2^31-1", "rational", "p=2^31-1-blocks"])
def test_corrupted_reports(field, n, rounds):
    ps = gen_points(field, n, seed=11)
    res = gpbm_run(ps, TDINLEX)
    rng = random.Random(4)
    ordered = [ps[i] for i in res.point_permutation]
    for _ in range(rounds):
        G, Q, perm = list(res.G), list(res.Q), list(res.point_permutation)
        k = rng.randrange(len(G))
        G[k] = Polynomial.from_pairs(
            field, [*G[k].terms.items(), ((rng.randrange(40), 1), 5)])
        k = rng.randrange(len(Q))
        c = field.convert(rng.randrange(2, 10**9))
        Q[k] = Polynomial(field, {e: field.mul(c, v)
                                  for e, v in Q[k].terms.items()})
        a, b = rng.sample(range(len(perm)), 2)
        perm[a], perm[b] = perm[b], perm[a]
        swapped = [ps[i] for i in perm]
        details = {name: detail for name, _, detail in
                   verify_parts(ps, TDINLEX, PolyMatrix.from_polys(field, G),
                                res.N, res.Q_dense, perm).checks}
        assert details["vanishing"] == _first_vanishing_failure(G, ps) != ""
        assert details["newton triangularity"] == \
            _first_newton_failure(res.Q, swapped) != ""
        newton = check_newton(PolyMatrix.from_polys(field, Q),
                              ordered).checks[0]
        assert newton[1] is False
        assert newton[2] == _first_newton_failure(Q, ordered)
        # a term where the true Q has a zero coefficient block: the
        # product may skip only blocks that are zero in its input
        entry = _zero_block_entry(res.Q_dense.coeffs)
        if entry is None:
            continue
        k, c0 = entry
        coeffs = res.Q_dense.coeffs.copy()
        coeffs[k, c0 + rng.randrange(_BLOCK)] = rng.randrange(1, field.p)
        bad = PolyMatrix(field, res.Q_dense.exps, coeffs)
        details = {name: detail for name, _, detail in
                   verify_parts(ps, TDINLEX, res.G_dense, res.N, bad,
                                res.point_permutation).checks}
        assert details["vanishing"] == ""
        assert details["newton triangularity"] == \
            _first_newton_failure(bad.polys(), ordered) != ""


def _imported_names(module) -> set:
    """Module and object names a module's source imports."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[-1] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported |= {a.name for a in node.names}
    return imported


def test_verify_imports_no_checked_code():
    """The certificate must stay independent of the code it checks."""
    assert not _imported_names(bmpoints.verify) & {"engine", "bm", "newton"}


def test_poly_imports_no_checked_code():
    """poly holds the certificate's evaluator, so it is held to the same rule,
    and it must not lean on the checks that use it."""
    assert not _imported_names(bmpoints.poly) & {"engine", "bm", "newton",
                                                 "verify"}


def test_engine_imports_no_checker():
    """Nor may the engine lean on the checks, on the certificate's evaluator
    or on the loop that drives it."""
    assert not _imported_names(bmpoints.engine) & {"verify", "poly", "bm",
                                                   "newton"}
