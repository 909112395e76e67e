"""Cartesian criteria and maximal cartesian subsets."""

import hashlib
import json
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, strategies as st

from bmpoints.bm import bm_run, gpbm_run, spbm_run
from bmpoints.cartesian import is_cartesian, max_cartesian_subset
from bmpoints.cli import result_to_json
from bmpoints.fields import make_field
from bmpoints.orders import INLEX, LEX, TDINLEX
from bmpoints.points import (EmptySetError, PointSet, coordinate_scale,
                             line_cover, scale_points)
from bmpoints.randgen import gen_points
from bmpoints.verify import verify_result
from conftest import (EX2_MCS_SET, EX2_POINTS, EX5_MCS_ORDER, EX5_POINTS, F5,
                      F7, QQ, nested_chains)


def test_is_cartesian_golden():
    grid = PointSet(F5, [(x, y) for x in range(3) for y in range(2)])
    assert is_cartesian(grid)
    L = PointSet(F5, [(0, 0), (1, 0), (0, 1)])
    assert is_cartesian(L)  # staircases count, not just full grids
    assert is_cartesian(PointSet(F5, [(2, 3)]))
    assert is_cartesian(PointSet(F5, [(0, 0), (1, 0), (2, 0)]))
    diag = PointSet(F5, [(0, 0), (1, 1)])
    assert not is_cartesian(diag)
    dented = PointSet(F5, [(x, y) for x in range(3) for y in range(2)
                           if (x, y) != (2, 1)])
    assert is_cartesian(dented)  # removing a corner keeps a lower shape
    holed = PointSet(F5, [(x, y) for x in range(3) for y in range(2)
                          if (x, y) != (1, 1)])
    assert is_cartesian(holed)  # abscissae may be relabelled: {0,2} works
    crossed = PointSet(F5, [(0, 0), (1, 0), (1, 1), (2, 1)])
    assert not is_cartesian(crossed)  # rows {0,1} and {1,2} do not nest


def test_is_cartesian_errors():
    with pytest.raises(EmptySetError):
        is_cartesian(PointSet(F5, []))


@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
               min_size=1, max_size=14))
def test_criteria_agree(pts):
    ps = PointSet(F5, sorted(pts))
    assert is_cartesian(ps) == nested_chains(ps)


def test_criteria_agree_on_the_plane():
    """The 101 x 101 plane, minus one point and minus two points in
    different rows and columns."""
    plane = [(x, y) for x in range(101) for y in range(101)]
    for missing, want in (((), True), (((3, 7),), True),
                          (((3, 7), (50, 60)), False)):
        ps = PointSet(make_field("q:101"),
                      [pt for pt in plane if pt not in missing])
        assert is_cartesian(ps) == want
        assert nested_chains(ps) == want


def test_mcs_second_example():
    ps = PointSet(QQ, EX2_POINTS)
    cover, removed = max_cartesian_subset(ps)
    assert set(cover.flatten()) == EX2_MCS_SET
    assert removed == [(Fr(0), Fr(3)), (Fr(1), Fr(1))]  # input order
    assert is_cartesian(PointSet(QQ, cover.flatten()))


def test_mcs_f7_example_order():
    ps = PointSet(F7, EX5_POINTS)
    cover, removed = max_cartesian_subset(ps)
    assert cover.flatten() == EX5_MCS_ORDER
    assert len(removed) == 11
    assert removed == [p for p in ps if p not in set(EX5_MCS_ORDER)]
    assert is_cartesian(PointSet(F7, cover.flatten()))


def test_mcs_of_cartesian_set_is_identity():
    grid = PointSet(F5, [(x, y) for x in range(2) for y in range(3)])
    cover, removed = max_cartesian_subset(grid)
    assert set(cover.flatten()) == set(grid.points)
    assert removed == []


@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
               min_size=1, max_size=12))
def test_mcs_partitions_input(pts):
    ps = PointSet(F5, sorted(pts))
    cover, removed = max_cartesian_subset(ps)
    assert is_cartesian(PointSet(F5, cover.flatten()))
    got = set(cover.flatten()) | set(removed)
    assert got == set(ps.points)
    assert len(cover) + len(removed) == len(ps)
    # growing back any single removed point must not stay trivially fine:
    # maximality is checked exhaustively in the acceptance suite


def test_gpbm_run_order():
    """gpbm runs the subset in row-cover order, then the rest in input
    order."""
    ps = PointSet(F7, EX5_POINTS)
    _, removed = max_cartesian_subset(ps)
    run = gpbm_run(ps, TDINLEX).run_points
    assert run == EX5_MCS_ORDER + removed
    assert sorted(run) == sorted(ps.points)


def _early_exit_subset(ps):
    """Reference greedy loop that stops as soon as the working set is
    cartesian and takes all of it; returns the chosen points as a set and
    the others in input order."""
    key = scale_points(ps.points, coordinate_scale(ps.points))
    work = list(range(len(ps)))
    chosen = []
    while work:
        if is_cartesian(PointSet(ps.field, [ps[k] for k in work])):
            chosen += work
            break
        rows = {}
        for k in work:
            rows.setdefault(key[k][1], []).append(k)
        a = rows[min(rows, key=lambda y: (-len(rows[y]), y))]
        abscissae = {key[k][0] for k in a}
        chosen += a
        work = [k for k in work if k not in a and key[k][0] in abscissae]
    taken = set(chosen)
    return ({ps[k] for k in chosen},
            [pt for k, pt in enumerate(ps) if k not in taken])


def _block_plus_noise(field, rng, width, extra, coords):
    """A shuffled triangular cartesian block {(x_i, y_j) : i + j < width}
    on distinct coordinates drawn from coords, plus `extra` other points
    drawn from coords."""
    xs, ys = rng.sample(coords, width), rng.sample(coords, width)
    pts = {(xs[i], ys[j]) for i in range(width) for j in range(width - i)}
    while len(pts) < width * (width + 1) // 2 + extra:
        pts.add((rng.choice(coords), rng.choice(coords)))
    pts = sorted(pts)
    rng.shuffle(pts)
    return PointSet(field, pts)


def _subset_cases():
    rng = random.Random(11)
    for spec, sizes in (("q:2", (1, 3, 4)), ("q:3", (2, 5, 9)),
                        ("q:23", (1, 20, 120, 400)),
                        ("q:2147483647", (1, 30, 200)),
                        ("rational", (1, 15, 60))):
        field = make_field(spec)
        for n in sizes:
            yield gen_points(field, n, rng.randrange(1, 1000))
    F23, F101 = make_field("q:23"), make_field("q:101")
    yield PointSet(F23, [(x, y) for x in range(23) for y in range(23)])
    rational = [Fr(a, b) for a in range(-6, 7) for b in (1, 2, 3)]
    for field, coords in ((F23, list(range(23))), (F101, list(range(101))),
                          (QQ, sorted(set(rational)))):
        for width, extra in ((1, 0), (3, 2), (6, 5), (8, 20)):
            yield _block_plus_noise(field, rng, width, extra, coords)


def test_mcs_matches_early_exit_loop():
    for ps in _subset_cases():
        cover, removed = max_cartesian_subset(ps)
        chosen, want_removed = _early_exit_subset(ps)
        assert cover.groups == line_cover(PointSet(ps.field, list(chosen)),
                                          "rows").groups
        assert removed == want_removed


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gpbm_rational_block_with_new_denominators(seed):
    """A rational triangular block plus loose points whose denominators the
    block lacks: the run points' integer scale exceeds the subset's, and
    gpbm and spbm still match bm and certify."""
    rng = random.Random(seed)
    block_coords = sorted({Fr(a, b) for a in range(-9, 10) for b in (1, 2, 3)})
    xs, ys = rng.sample(block_coords, 4), rng.sample(block_coords, 4)
    block = [(xs[i], ys[j]) for i in range(4) for j in range(4 - i)]
    loose = [(Fr(rng.randrange(-50, 50), d), Fr(rng.randrange(-50, 50), e))
             for d, e in ((5, 7), (7, 11), (11, 13), (13, 5))]
    pts = block + loose
    rng.shuffle(pts)
    ps = PointSet(QQ, pts)
    cover, removed = max_cartesian_subset(ps)
    assert sorted(cover.flatten()) == sorted(block)
    assert coordinate_scale(cover.flatten() + removed) != \
        coordinate_scale(cover.flatten())
    for order in (LEX, INLEX, TDINLEX):
        want = bm_run(ps, order)
        runs = [gpbm_run(ps, order)]
        if order is not TDINLEX:
            runs.append(spbm_run(ps, order))
        for res in runs:
            assert res.G == want.G, res.algorithm
            assert set(res.N) == set(want.N), res.algorithm
            assert verify_result(res).passed, res.algorithm


def _digest(res) -> str:
    """SHA-256 of the run's G, N, Q and pointPermutation as compute's JSON
    gives them, keys sorted."""
    doc = result_to_json(res)
    keep = {k: doc[k] for k in ("G", "N", "Q", "pointPermutation")}
    return hashlib.sha256(json.dumps(keep, sort_keys=True).encode()).hexdigest()


# the runs of _pinned_runs, recorded before RationalEngine stopped taking a
# vector's content on steps that keep its denominator
PINNED_RATIONAL_DIGESTS = {
    "block6+5 lex bm":
        "088c20cacead12a35dd60e6670d1ae77b458a4f83c2bbed86e4b9bb589ff16e1",
    "block6+5 lex gpbm":
        "947c68cfcf90d86f1e151cc47fb36302a11ba8f3acfdf896bdffac942d251eaa",
    "block6+5 lex spbm":
        "3f792e037103b99ad07f13d3cd82408826487f2f017d463ea0cb5a1c2b942ffe",
    "block6+5 inlex bm":
        "fd4b71a1581ee9226c158d9dbb746c0df9581a83d3bca421cab92d7a3cc30de0",
    "block6+5 inlex gpbm":
        "3fa4b223f4d77d0bdefa6ab95fea88ab95fcf4c3f0d54341de3d0b06e781c774",
    "block6+5 inlex spbm":
        "29dfce61de7da47ce438fc7e07d89802679fe5197f5c168213d587fd70b2b1ac",
    "block6+5 tdinlex bm":
        "779dd054ef0f7f11e44777b4f8eb497b4d6d0c049356a5a061906f2f8444dd81",
    "block6+5 tdinlex gpbm":
        "a19ed833d2217453b12cb52981245a5f6e7a08cd3d48f8a9fd1479bb8ca9f262",
    "block8+10 lex bm":
        "bc44f6731b6c3e8673574c69ca4a610339c864f945979fb2a3898733668c32dc",
    "block8+10 lex gpbm":
        "f4996abb101c63436a36decf52326de8fc8e3d029ca67497f1907e2cd26396ad",
    "block8+10 lex spbm":
        "6264693e770bae9a278843a6fcf984d3fc66d6f7a9e02eb81921648187913347",
    "block8+10 inlex bm":
        "49155017f0e40fa4e453d33efa140fbba47de91178a7efc70e7b673d774bffb8",
    "block8+10 inlex gpbm":
        "334721e03ff0feab4f868f84c14af1dbcf1ac3ba9d2a0e488f41ebbb1f716cf0",
    "block8+10 inlex spbm":
        "5f8cc7e6da82ff1e4ee61f05906f8a0849d823a39536cb7eb5d218c52049758b",
    "block8+10 tdinlex bm":
        "465e157df5a12157915834728b1751fbcb582caaba3c0b429e69d8bd7947a938",
    "block8+10 tdinlex gpbm":
        "f666c4ebb9153528b4e21d2b47ef973834fc5cefb0c9c6afcefbde58d449473b",
    "gen30 seed5 tdinlex bm":
        "7c466e14e245aa736cd1cc1f632c971670474110920f0825e3bc5140adbf2854",
}


def _pinned_runs():
    """Rational runs through the seeded path, two triangular blocks plus
    loose points, and one unseeded tdinlex run: (name, result)."""
    rng = random.Random(22)
    coords = sorted({Fr(a, b) for a in range(-6, 7) for b in (1, 2, 3)})
    runners = {"bm": bm_run, "gpbm": gpbm_run, "spbm": spbm_run}
    for width, extra in ((6, 5), (8, 10)):
        ps = _block_plus_noise(QQ, rng, width, extra, coords)
        for order in (LEX, INLEX, TDINLEX):
            for algo in ("bm", "gpbm", "spbm"):
                if algo != "spbm" or order is not TDINLEX:
                    yield (f"block{width}+{extra} {order.name} {algo}",
                           runners[algo](ps, order))
    yield "gen30 seed5 tdinlex bm", bm_run(gen_points(QQ, 30, 5), TDINLEX)


def test_rational_runs_match_pinned_digests():
    got = {name: _digest(res) for name, res in _pinned_runs()}
    assert got == PINNED_RATIONAL_DIGESTS
