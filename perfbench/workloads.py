"""Seeded workload instances for the bmpoints benchmark.

Every workload is a few point sets drawn from one SplitMix64 stream seeded
by the benchmark's --seed, so a seed pins the point files bit for bit.
The program under test sees only the point files written here (and the
PointSets parsed back from them).
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from bmpoints import PointSet, SplitMix64, gen_points, make_field
from bmpoints.points import format_point_file

# Instances per workload.  Timings pool calls over all of them, which damps
# the seed-to-seed spread of a single random point set.
INSTANCES = 5


class Workload:
    """One benchmark workload: a field, an order and a point-set recipe."""

    def __init__(self, name, field, order, algo, make):
        self.name = name
        self.field = field
        self.order = order
        self.algo = algo  # what `compute --algo auto` picks for this order
        self.make = make  # (field, seed) -> PointSet

    def seeds(self, seed: int) -> list:
        rng = SplitMix64(seed)
        return [rng.next_u64() for _ in range(INSTANCES)]

    def instances(self, seed: int) -> list:
        field = make_field(self.field)
        return [self.make(field, s) for s in self.seeds(seed)]

    def paths(self, outdir: Path, seed: int) -> list:
        return [outdir / f"{self.name}-s{seed}-{k}.txt"
                for k in range(INSTANCES)]

    def write(self, outdir: Path, seed: int) -> list:
        """Write the instance point files; returns their paths."""
        outdir.mkdir(parents=True, exist_ok=True)
        paths = self.paths(outdir, seed)
        for path, ps in zip(paths, self.instances(seed)):
            path.write_text(format_point_file(ps))
        return paths


def _fixed_height(rng: SplitMix64) -> Fraction:
    """A rational of 7-bit numerator and denominator with a random sign.

    A fixed height keeps coefficient growth, and so the run time, about the
    same from seed to seed.
    """
    sign = -1 if rng.below(2) else 1
    return Fraction(sign * (64 + rng.below(64)), 64 + rng.below(64))


def _distinct(rng: SplitMix64, k: int, avoid=frozenset()) -> list:
    out: list = []
    while len(out) < k:
        v = _fixed_height(rng)
        if v not in out and v not in avoid:
            out.append(v)
    return out


def rational_grid(field, seed: int, width: int = 6,
                  extra: int = 5) -> PointSet:
    """A width-wide triangular cartesian block plus `extra` loose points.

    The block is {(x_i, y_j) : i + j < width} on distinct coordinates; the
    loose points use coordinates outside the block, so the block is the
    maximal cartesian subset.  The list is shuffled so the runner, not the
    file order, has to find the block.
    """
    rng = SplitMix64(seed)
    xs = _distinct(rng, width)
    ys = _distinct(rng, width)
    pts = [(xs[i], ys[j]) for j in range(width) for i in range(width - j)]
    loose: set = set()
    while len(loose) < extra:
        pt = (_distinct(rng, 1, frozenset(xs))[0],
              _distinct(rng, 1, frozenset(ys))[0])
        if pt not in loose:
            loose.add(pt)
            pts.append(pt)
    for k in range(len(pts) - 1, 0, -1):
        j = rng.below(k + 1)
        pts[k], pts[j] = pts[j], pts[k]
    return PointSet(field, pts)


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload("lex-seeded", "q:23", "lex", "spbm",
             lambda f, s: gen_points(f, 120, s)),
    Workload("tdinlex-bigprime", "q:2147483647", "tdinlex", "gpbm",
             lambda f, s: gen_points(f, 75, s)),
    Workload("rational-grid", "rational", "tdinlex", "gpbm", rational_grid),
]}
