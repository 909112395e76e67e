"""The cartesian-set criterion and maximal cartesian subset extraction.

A point set is cartesian when it equals {(x_i, y_j) : (i, j) in A} for a
lower set A, distinct abscissae x_i and distinct ordinates y_j.  Cartesian
subsets are what lets a run be seeded with a ready-made triangular block.
max_cartesian_subset returns the subset's row cover and the removed points
in input order, so the cover's points followed by the removed points are
the order in which gpbm runs.  Its greedy loop works on point positions
keyed by integer-scaled coordinates, so the loop hashes no Fraction.
"""

from __future__ import annotations

from .points import (EmptySetError, PointSet, coordinate_scale, line_cover,
                     lower_set_of, scale_points)


def is_cartesian(ps: PointSet) -> bool:
    """True iff the row and column covers yield the same lower set,
    S_x = S_y."""
    if len(ps) == 0:
        raise EmptySetError("empty point set")
    return (set(lower_set_of(line_cover(ps, "rows")))
            == set(lower_set_of(line_cover(ps, "columns"))))


def max_cartesian_subset(ps: PointSet):
    """Greedy maximal cartesian subset.

    Loop: take a maximal row subset A of the working set (greatest
    cardinality, ties by smallest ordinate), keep only the other points
    whose abscissa occurs in A, and repeat on them until none is left.  Once
    the working set is cartesian its rows nest, so the loop takes all of it.

    Returns (cover, removed): the row cover of the subset (groups by
    descending size then ascending ordinate, ascending abscissa within a
    group) and the other points in the original input order.
    """
    if len(ps) == 0:
        raise EmptySetError("empty point set")
    # positions keyed by integer coordinates; scaling by positive integers
    # keeps the order of the ordinates, which breaks ties
    key = scale_points(ps.points, coordinate_scale(ps.points))
    work = list(range(len(ps)))
    chosen: list = []
    while work:
        rows: dict = {}
        for k in work:
            rows.setdefault(key[k][1], []).append(k)
        y = min(rows, key=lambda t: (-len(rows[t]), t))
        abscissae = {key[k][0] for k in rows[y]}
        chosen += rows[y]
        work = [k for k in work if key[k][1] != y and key[k][0] in abscissae]
    # the row-cover ordering is total, so any construction order works here
    cover = line_cover(PointSet(ps.field, [ps[k] for k in chosen]), "rows")
    taken = set(chosen)
    return cover, [pt for k, pt in enumerate(ps) if k not in taken]
