"""Cartesian-set criteria and maximal cartesian subset extraction.

A point set is cartesian when it equals {(x_i, y_j) : (i, j) in A} for a
lower set A, distinct abscissae x_i and distinct ordinates y_j.  Cartesian
subsets are what lets a run be seeded with a ready-made triangular block.
max_cartesian_subset returns the subset's row cover and the removed points
in input order, so the cover's points followed by the removed points are
the order in which gpbm runs.
"""

from __future__ import annotations

from .points import EmptySetError, PointSet, line_cover, lower_set_of


def _nested(chain) -> bool:
    """True iff the given coordinate sets form a superset chain."""
    prev = None
    for cur in chain:
        if prev is not None and not cur <= prev:
            return False
        prev = cur
    return True


def is_cartesian(ps: PointSet, method: str = "sx_eq_sy") -> bool:
    """Decide cartesianness by either of two equivalent criteria: the row
    and column covers yield the same lower set (S_x = S_y), or the lines of
    each cover form a superset chain."""
    if len(ps) == 0:
        raise EmptySetError("empty point set")
    if method == "sx_eq_sy":
        sx = lower_set_of(line_cover(ps, "rows"))
        sy = lower_set_of(line_cover(ps, "columns"))
        return set(sx) == set(sy)
    if method == "nested_chains":
        rows = [frozenset(x for x, _ in g)
                for _, g in line_cover(ps, "rows").groups]
        cols = [frozenset(y for _, y in g)
                for _, g in line_cover(ps, "columns").groups]
        return _nested(rows) and _nested(cols)
    raise ValueError(f"unknown method {method!r}")


def max_cartesian_subset(ps: PointSet):
    """Greedy maximal cartesian subset.

    Loop: if the working set is cartesian, union it in and stop; otherwise
    take a maximal row subset A (greatest cardinality, ties by smallest
    ordinate), keep only leftover points whose abscissa occurs in A, and
    repeat on the remainder.

    Returns (cover, removed): the row cover of the subset (groups by
    descending size then ascending ordinate, ascending abscissa within a
    group) and the other points in the original input order.
    """
    if len(ps) == 0:
        raise EmptySetError("empty point set")
    field = ps.field
    work = list(ps)
    chosen: set = set()
    while True:
        if is_cartesian(PointSet(field, work)):
            chosen.update(work)
            break
        rows: dict = {}
        for pt in work:
            rows.setdefault(pt[1], []).append(pt)
        key = min(rows, key=lambda k: (-len(rows[k]), k))
        a = rows[key]
        abscissae = {x for x, _ in a}
        chosen.update(a)
        work = [pt for pt in work if pt not in a and pt[0] in abscissae]
        if not work:
            break
    # the row-cover ordering is total, so any construction order works here
    cover = line_cover(PointSet(field, list(chosen)), "rows")
    removed = [pt for pt in ps if pt not in chosen]
    return cover, removed
