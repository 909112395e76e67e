"""End-to-end acceptance checks; each test prints one PASS/FAIL line."""

import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

from bmpoints.bench import run_bench
from bmpoints.bm import bm_run, gpbm_run, spbm_run
from bmpoints.cartesian import is_cartesian, max_cartesian_subset
from bmpoints.fields import make_field
from bmpoints.newton import (evaluation_matrix, newton_basis_cols,
                             newton_basis_rows)
from bmpoints.orders import INLEX, LEX, TDINLEX
from bmpoints.points import PointSet, line_cover
from bmpoints.poly import PolyMatrix, poly_text
from bmpoints.randgen import gen_points
from bmpoints.verify import (check_newton, check_reduced_gb, check_vanishing,
                             oracle_dense, verify_result)
from conftest import (EX1_G_TEXT, EX1_N, EX1_Q_TEXT, EX2_G_TEXT, EX2_N,
                      EX5_G_Y6, EX5_MCS_ORDER, EX5_SEED_Q_TEXT, F3, F5, F17,
                      QQ)

F23 = make_field("q:23")


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


def test_criterion_1_first_example_exact(ex1):
    with criterion(1, "9 rational points, inlex: N, Q, G all coefficient-exact"):
        t0 = time.perf_counter()
        res = spbm_run(ex1, INLEX)
        elapsed = time.perf_counter() - t0
        assert res.N == EX1_N
        assert [poly_text(q, INLEX) for q in res.Q] == EX1_Q_TEXT
        assert [poly_text(g, INLEX) for g in res.G] == EX1_G_TEXT
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_second_example_exact(ex2):
    with criterion(2, "9 rational points, lex: N and G exact, Q triangular"):
        t0 = time.perf_counter()
        res = spbm_run(ex2, LEX)
        elapsed = time.perf_counter() - t0
        assert res.N == EX2_N
        assert [poly_text(g, LEX) for g in res.G] == EX2_G_TEXT
        ordered = [ex2.points[i] for i in res.point_permutation]
        assert check_newton(res.Q_dense, ordered).passed
        assert [q.leading_monomial(LEX) for q in res.Q] == res.N
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3_prime_field_subset_run(ex5):
    with criterion(3, "20 points over q:7, tdinlex: subset, seed basis, G"):
        t0 = time.perf_counter()
        cover, _ = max_cartesian_subset(ex5)
        res = gpbm_run(ex5, TDINLEX)
        oracle_g, oracle_n = oracle_dense(ex5, TDINLEX)
        elapsed = time.perf_counter() - t0
        assert cover.flatten() == EX5_MCS_ORDER
        assert [poly_text(q, TDINLEX) for q in res.Q[:9]] == EX5_SEED_Q_TEXT
        assert len(res.N) == 20
        by_lt = {g.leading_monomial(TDINLEX): g for g in res.G}
        assert poly_text(by_lt[(0, 6)], TDINLEX) == EX5_G_Y6
        assert res.G == oracle_g
        assert set(res.N) == set(oracle_n)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_4_oracle_equivalence():
    with criterion(4, "216 random instances agree with the dense oracle"):
        t0 = time.perf_counter()
        count = 0
        for fidx, field in enumerate((F5, F17, QQ)):
            for i in range(72):
                size = i % 12 + 1
                ps = gen_points(field, size, seed=10_000 * fidx + i)
                count += 1
                for order in (LEX, INLEX, TDINLEX):
                    base = bm_run(ps, order)
                    runs = [base, gpbm_run(ps, order)]
                    if order in (LEX, INLEX):
                        runs.append(spbm_run(ps, order))
                    oracle_g, oracle_n = oracle_dense(ps, order)
                    assert base.G == oracle_g and base.N == oracle_n
                    for res in runs:
                        assert res.G == base.G
                        assert set(res.N) == set(base.N)
                        assert verify_result(res).passed
                    dense_g = PolyMatrix.from_polys(field, oracle_g)
                    assert check_vanishing(dense_g, ps).passed
                    assert check_reduced_gb(dense_g, oracle_n, order,
                                            n_points=size).passed
        elapsed = time.perf_counter() - t0
        assert count == 216
        assert elapsed < 60.0, f"took {elapsed:.3f}s"


def test_criterion_5_subset_maximality_exhaustive():
    with criterion(5, "maximal cartesian subset exhaustive over q:3 plane"):
        t0 = time.perf_counter()
        plane = [(x, y) for x in range(3) for y in range(3)]
        cartesian = []
        for r in range(1, 10):
            for sub in combinations(plane, r):
                if is_cartesian(PointSet(F3, list(sub))):
                    cartesian.append(frozenset(sub))
        checked = 0
        for r in range(1, 10):
            for sub in combinations(plane, r):
                s = frozenset(sub)
                cover, removed = max_cartesian_subset(PointSet(F3, list(sub)))
                chosen = frozenset(cover.flatten())
                assert chosen | set(removed) == s
                assert len(chosen) + len(removed) == len(s)
                assert chosen in cartesian
                assert not any(chosen < t and t <= s for t in cartesian)
                checked += 1
        elapsed = time.perf_counter() - t0
        assert checked == 511
        assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_criterion_6_seeded_run_speedup():
    with criterion(6, "500 points over q:23, lex: seeded run at least 2x"):
        records = run_bench(F23, LEX, sizes=[500], reps=5,
                            algos=["bm", "spbm"], seed=11)
        med = {algo: statistics.median(r.wall_nanos for r in records
                                       if r.algorithm == algo)
               for algo in ("bm", "spbm")}
        assert med["spbm"] <= 0.5 * med["bm"], (
            f"bm {med['bm']/1e6:.1f}ms vs spbm {med['spbm']/1e6:.1f}ms")


def test_criterion_7_subset_ratio():
    with criterion(7, "median cartesian-subset ratio at 250 points in q:17"):
        t0 = time.perf_counter()
        ratios = []
        for seed in range(11):
            ps = gen_points(F17, 250, seed=seed)
            cover, _ = max_cartesian_subset(ps)
            ratios.append(len(cover) / 250)
        med = statistics.median(ratios)
        elapsed = time.perf_counter() - t0
        assert 0.40 <= med <= 0.80, f"median {med:.3f}"
        assert elapsed < 60.0, f"took {elapsed:.3f}s"


def test_criterion_8_invariant_suites():
    with criterion(8, "order, field, basis, subset and generator invariants"):
        exps = [(i, j) for i in range(4) for j in range(4)]
        for order in (LEX, INLEX, TDINLEX):
            key = order.key
            for a, b in product(exps, exps):
                assert (key(a) < key(b)) == (key(b) > key(a))
                assert (key(a) == key(b)) == (a == b)
                shifted = ((a[0] + 2, a[1] + 1), (b[0] + 2, b[1] + 1))
                assert ((key(shifted[0]) < key(shifted[1]))
                        == (key(a) < key(b)))
            assert all(key((0, 0)) <= key(e) for e in exps)
            chain = order.sorted(exps)
            assert all(key(chain[k]) < key(chain[k + 1])
                       for k in range(len(chain) - 1))

        for f, elems in ((F17, [f_v for f_v in range(17)]),
                         (QQ, [Fraction(n, d) for n in range(-3, 4)
                               for d in range(1, 4)])):
            for a, b in product(elems[:8], elems[:8]):
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                assert f.add(a, f.neg(a)) == f.zero
                if b != f.zero:
                    assert f.mul(f.convert(b), f.inv(b)) == f.one
            c = elems[5]
            for a, b in product(elems[:6], elems[:6]):
                lhs = f.mul(c, f.add(a, b))
                rhs = f.add(f.mul(c, a), f.mul(c, b))
                assert lhs == rhs

        for seed in (0, 1, 2, 3):
            ps = gen_points(F17, 7 + seed, seed=77 + seed)
            for build, axis in ((newton_basis_rows, "rows"),
                                (newton_basis_cols, "columns")):
                basis = build(line_cover(ps, axis))
                vals = evaluation_matrix(basis, basis.point_order).tolist()
                for k in range(len(basis)):
                    for m in range(k + 1):
                        want = F17.one if m == k else F17.zero
                        assert vals[k][m] == want

        for seed in range(40):
            ps = gen_points(F5, seed % 10 + 1, seed=500 + seed)
            assert (is_cartesian(ps, method="sx_eq_sy")
                    == is_cartesian(ps, method="nested_chains"))

        for field in (F5, F17, QQ):
            a = gen_points(field, 9, seed=42)
            assert a.points == gen_points(field, 9, seed=42).points
