"""Point sets in F^2, line covers and the lower sets S_x / S_y they induce.

A line cover groups the points on lines parallel to one axis, largest group
first.  Its group sizes are the staircase of a monomial basis for the
points: lower_set_of turns a cover into that staircase, listed in cover
order.  It is the one place that does so; the Newton basis of the cover is
indexed by the same list.  is_cartesian's criterion, S_x = S_y, compares
the lower sets of the row and the column cover as sets.
"""

from __future__ import annotations

from math import lcm

from .fields import Field, FieldError


class EmptySetError(ValueError):
    """Operation requires a nonempty point set."""


class DuplicatePointError(ValueError):
    """Point set contains a repeated point; first and second locate its two
    occurrences (list positions, or file lines from parse_point_file)."""

    def __init__(self, message: str, first: int, second: int):
        super().__init__(message)
        self.first = first
        self.second = second


class PointSet:
    """Ordered list of pairwise-distinct points over a fixed field."""

    __slots__ = ("field", "points")

    def __init__(self, field: Field, points):
        """Each coordinate goes through field.convert once; a FieldError it
        raises gains position, the list position of its point."""
        seen: dict = {}  # point -> position
        try:
            for x, y in points:
                pt = (field.convert(x), field.convert(y))
                if pt in seen:
                    raise DuplicatePointError(
                        f"duplicate point {pt} at positions {seen[pt]} and "
                        f"{len(seen)}", seen[pt], len(seen))
                seen[pt] = len(seen)
        except FieldError as err:
            err.position = len(seen)
            raise
        self.field = field
        self.points = list(seen)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, k):
        return self.points[k]

    def __eq__(self, other):
        return (isinstance(other, PointSet) and other.field == self.field
                and other.points == self.points)

    def __repr__(self):
        return f"PointSet({len(self.points)} points over {self.field.name})"

    def subset(self, indices) -> "PointSet":
        """The points at the distinct nonnegative positions indices, in
        that order, as the same point objects: they are valid and distinct
        already."""
        if len(set(indices)) < len(indices) or min(indices, default=0) < 0:
            raise ValueError("subset positions repeat or are negative")
        sub = object.__new__(PointSet)
        sub.field, sub.points = self.field, [self.points[k] for k in indices]
        return sub

    def index_map(self) -> dict:
        """point -> position in this set's order."""
        return {pt: k for k, pt in enumerate(self.points)}


def parse_point_file(field: Field, text: str) -> PointSet:
    """Parse "x,y" lines; '#' starts a comment; duplicates are a hard error."""
    pts = []
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        coords = [c.strip() for c in line.split(",")]
        if len(coords) != 2:
            raise ValueError(f"line {lineno}: expected \"x,y\", got {raw!r}")
        pts.append(coords)
        lines.append(lineno)
    try:
        return PointSet(field, pts)
    except DuplicatePointError as err:
        first, second = lines[err.first], lines[err.second]
        raise DuplicatePointError(
            f"duplicate point on lines {first} and {second}",
            first, second) from None
    except FieldError as err:
        raise type(err)(f"line {lines[err.position]}: {err}") from None


def format_point_file(ps: PointSet) -> str:
    return "".join(f"{x},{y}\n" for x, y in ps)


class LineCover:
    """Cover of a point set by lines parallel to an axis.

    axis "rows": groups share an ordinate (lines parallel to the x-axis);
    axis "columns": groups share an abscissa.  Groups are ordered by
    descending size with ties by ascending key; within a group points
    ascend by the varying coordinate.
    """

    __slots__ = ("axis", "groups", "field")

    def __init__(self, axis: str, groups, field: Field):
        self.axis = axis
        self.groups = groups  # list of (key, [points])
        self.field = field

    def __len__(self):
        """The number of points covered."""
        return sum(len(g) for _, g in self.groups)

    def sizes(self) -> tuple:
        return tuple(len(g) for _, g in self.groups)

    def flatten(self) -> list:
        """All points in cover order: group by group, u_{0j}, u_{1j}, ..."""
        return [pt for _, grp in self.groups for pt in grp]


def line_cover(ps: PointSet, axis: str) -> LineCover:
    """Group points into lines; see LineCover for the canonical ordering."""
    if len(ps) == 0:
        raise EmptySetError("cannot cover an empty point set")
    if axis not in ("rows", "columns"):
        raise ValueError(f"axis must be rows or columns, got {axis!r}")
    keyed: dict = {}
    for x, y in ps:
        keyed.setdefault(y if axis == "rows" else x, []).append((x, y))
    vary = 0 if axis == "rows" else 1
    groups = []
    for key, grp in keyed.items():
        grp.sort(key=lambda pt: pt[vary])
        groups.append((key, grp))
    groups.sort(key=lambda kg: (-len(kg[1]), kg[0]))
    return LineCover(axis, groups, ps.field)


def lower_set_of(cover: LineCover) -> list:
    """The staircase a cover hands over, in cover order: S_x row-major,
    (0..m_j, j) for group j of a row cover, and S_y column-major, (i, 0..n_i)
    for group i of a column cover.  Group sizes descend, so the list is a
    lower set by construction; it is the index order of the cover's Newton
    basis."""
    if cover.axis == "rows":
        return [(i, j) for j, s in enumerate(cover.sizes()) for i in range(s)]
    return [(i, j) for i, s in enumerate(cover.sizes()) for j in range(s)]


def coordinate_scale(points) -> tuple:
    """(B, C): the lcms of the x- and y-denominators of the points, (1, 1)
    when every coordinate is an integer (as over F_p)."""
    return (lcm(*(x.denominator for x, _ in points)),
            lcm(*(y.denominator for _, y in points)))


def scale_points(points, scale) -> list:
    """The points as integer points (B x, C y), for a scale (B, C) that
    clears every denominator."""
    b, c = scale
    return [(x.numerator * (b // x.denominator),
             y.numerator * (c // y.denominator)) for x, y in points]


def is_lower(exponents) -> bool:
    """True iff the exponent set is downward closed."""
    exps = set(exponents)
    return all((i - 1, j) in exps or i == 0 for i, j in exps) and \
        all((i, j - 1) in exps or j == 0 for i, j in exps)
