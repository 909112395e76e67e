"""Same outputs on a grid of seeded sets: every run of bm, gpbm and spbm
over q:2, q:3, q:23, q:101, q:2^31-1 and Q, and over the whole F_2, F_3 and
F_23 planes, keeps its recorded digest, agrees with the other algorithms
on G and N, and certifies.

A change that moves a digest changes an output.  To record the digests
again, run PYTHONPATH=src python tests/test_grid.py > tests/grid_digests.json
and say in CHANGES.md why they moved.
"""

import hashlib
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from bmpoints.bench import RUNNERS
from bmpoints.fields import make_field
from bmpoints.points import PointSet
from bmpoints.randgen import gen_points
from bmpoints.verify import verify_result
from conftest import order_algos

# SHA-256 of _content of every run of _grid, keyed "set/order/algo"
GRID_DIGESTS = json.loads(
    (Path(__file__).parent / "grid_digests.json").read_text())

# field spec, its name in a set's key, and the sizes drawn at seeds 1 and 2
SIZES = [("q:2", "q2", (2, 3)), ("q:3", "q3", (4, 7)),
         ("q:23", "q23", (30, 120, 300)), ("q:101", "q101", (100, 300)),
         ("q:2147483647", "q2^31-1", (100, 300)),
         ("rational", "rational", (10, 30))]


def _grid() -> dict:
    """Set name -> a function building its PointSet."""
    sets = {}
    for spec, short, sizes in SIZES:
        for n in sizes:
            for seed in (1, 2):
                sets[f"{short}-{n}-seed{seed}"] = partial(
                    gen_points, make_field(spec), n, seed)
    for p in (2, 3, 23):
        sets[f"plane-F{p}"] = partial(PointSet, make_field(f"q:{p}"), [
            (x, y) for x in range(p) for y in range(p)])
    return sets


GRID = _grid()


def _content(res) -> list:
    """What a digest covers: N, pointPermutation, processed, seeded_count,
    and G's and Q's exponents, coefficients and denominators (None over
    F_p).  The columns are taken by ascending exponent and an all-zero
    column is left out, so the content is that of the polynomials,
    whatever the column layout."""
    content = [res.N, res.point_permutation, res.processed,
               res.seeded_count]
    for polys in (res.G_dense, res.Q_dense):
        cols = sorted(np.flatnonzero(polys.coeffs.any(axis=0)).tolist(),
                      key=polys.exps.__getitem__)
        content += [[polys.exps[c] for c in cols],
                    polys.coeffs[:, cols].tolist(),
                    None if polys.dens is None else polys.dens.tolist()]
    return content


def _digest(content) -> str:
    return hashlib.sha256(repr(content).encode()).hexdigest()


def _runs(name: str):
    """(key, result) of every run on the set name."""
    ps = GRID[name]()
    for order, algo in order_algos():
        yield f"{name}/{order.name}/{algo}", RUNNERS[algo](ps, order)


@pytest.mark.parametrize("name", list(GRID))
def test_grid_keeps_digests_agrees_and_certifies(name):
    first = {}  # order -> G's content and the set N of its first run
    for key, res in _runs(name):
        content = _content(res)
        assert _digest(content) == GRID_DIGESTS[key], key
        assert verify_result(res).passed, key
        g_and_n = (content[4:7], set(res.N))
        assert first.setdefault(res.order.name, g_and_n) == g_and_n, key
    assert sum(k.startswith(f"{name}/") for k in GRID_DIGESTS) == 8


if __name__ == "__main__":
    json.dump({key: _digest(_content(res)) for name in GRID
               for key, res in _runs(name)}, sys.stdout, indent=1)
    print()
