"""Verification checks and the dense-elimination oracle."""

import ast
import random
from pathlib import Path

import pytest

import bmpoints.engine
import bmpoints.poly
import bmpoints.verify
from bmpoints.bm import bm_run, gpbm_run, spbm_run
from bmpoints.fields import make_field
from bmpoints.newton import evaluation_matrix, newton_basis_rows
from bmpoints.orders import INLEX, LEX, TDINLEX
from bmpoints.points import PointSet, line_cover
from bmpoints.poly import PolyMatrix, Polynomial, poly_text, values_at
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
    # which delegates to values_at; "dense" at p = 2^31-1 has over 64
    # monomials, which takes three limbs
    rng = random.Random(n_polys * 1000 + n_terms)
    polys, points = _random_case(field, rng, n_polys, n_terms, 9, 90)
    got = values_at(PolyMatrix.from_polys(field, polys), points)
    assert got.shape == (len(polys), len(points))
    assert got.tolist() == _reference_values(polys, points)


def test_values_mod_p_chunks_monomial_axis(monkeypatch):
    # with a 2^10 exactness bound, 200 monomials at p = 23 need chunks of
    # at most 46 monomials, each split into one-bit limbs
    monkeypatch.setattr(bmpoints.poly, "_FLOAT_EXACT", 2**10)
    polys, points = _random_case(F23, random.Random(3), 5, 200, 12, 40)
    assert len({e for q in polys for e in q.terms}) > 46
    got = values_at(PolyMatrix.from_polys(F23, polys), points)
    assert got.tolist() == _reference_values(polys, points)


def test_values_mod_p_rejects_negative_exponent():
    with pytest.raises(ValueError):
        values_at(PolyMatrix.from_polys(F7, [Polynomial(F7, {(0, -1): 1})]),
                  [(1, 2)])


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


@pytest.mark.parametrize("field, n", [(BIG, 30), (QQ, 20)],
                         ids=["p=2^31-1", "rational"])
def test_corrupted_reports(field, n):
    ps = gen_points(field, n, seed=11)
    res = gpbm_run(ps, TDINLEX)
    rng = random.Random(4)
    for _ in range(8):
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
        ordered = [ps[i] for i in res.point_permutation]
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
