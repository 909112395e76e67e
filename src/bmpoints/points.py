"""Point sets in F^2, line covers and the lower sets S_x / S_y they induce."""

from __future__ import annotations

from .fields import Field
from .orders import Exponent


class EmptySetError(ValueError):
    """Operation requires a nonempty point set."""


class DuplicatePointError(ValueError):
    """Point set contains a repeated point; first and second locate its two
    occurrences (list positions, or file lines from parse_point_file)."""

    def __init__(self, message: str, first: int, second: int):
        super().__init__(message)
        self.first = first
        self.second = second


Point = tuple  # (x, y) with coordinates in some Field


class PointSet:
    """Ordered list of pairwise-distinct points over a fixed field."""

    __slots__ = ("field", "points")

    def __init__(self, field: Field, points):
        pts = [(field.convert(x), field.convert(y)) for x, y in points]
        seen: dict = {}
        for k, pt in enumerate(pts):
            if pt in seen:
                raise DuplicatePointError(
                    f"duplicate point {pt} at positions {seen[pt]} and {k}",
                    seen[pt], k)
            seen[pt] = k
        self.field = field
        self.points = pts

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
        pts.append((field.parse(coords[0]), field.parse(coords[1])))
        lines.append(lineno)
    try:
        return PointSet(field, pts)
    except DuplicatePointError as err:
        first, second = lines[err.first], lines[err.second]
        raise DuplicatePointError(
            f"duplicate point on lines {first} and {second}",
            first, second) from None


def format_point_file(ps: PointSet) -> str:
    f = ps.field
    return "".join(f"{f.format(x)},{f.format(y)}\n" for x, y in ps)


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


class LowerSet:
    """Downward-closed finite subset of N_0^2 with L_x / L_y tuple views."""

    __slots__ = ("exponents", "l_x", "l_y")

    def __init__(self, exponents):
        exps = frozenset(exponents)
        if not exps:
            raise EmptySetError("lower set must be nonempty")
        row_max: dict = {}
        col_max: dict = {}
        for i, j in exps:
            row_max[j] = max(row_max.get(j, -1), i)
            col_max[i] = max(col_max.get(i, -1), j)
        nu = max(row_max)
        m0 = max(col_max)
        if sorted(row_max) != list(range(nu + 1)):
            raise ValueError("not a lower set: missing row")
        if sorted(col_max) != list(range(m0 + 1)):
            raise ValueError("not a lower set: missing column")
        l_x = tuple(row_max[j] for j in range(nu + 1))
        l_y = tuple(col_max[i] for i in range(m0 + 1))
        if any(l_x[j] < l_x[j + 1] for j in range(nu)) or \
           any(l_y[i] < l_y[i + 1] for i in range(m0)) or \
           len(exps) != sum(m + 1 for m in l_x):
            raise ValueError("not a lower set")
        self.exponents = exps
        self.l_x = l_x
        self.l_y = l_y

    @classmethod
    def from_l_x(cls, ms) -> "LowerSet":
        """L_x(m_0,...,m_nu): row j holds exponents (0..m_j, j)."""
        return cls({(i, j) for j, m in enumerate(ms) for i in range(m + 1)})

    @classmethod
    def from_l_y(cls, ns) -> "LowerSet":
        """L_y(n_0,...,n_m0): column i holds exponents (i, 0..n_i)."""
        return cls({(i, j) for i, n in enumerate(ns) for j in range(n + 1)})

    def __len__(self):
        return len(self.exponents)

    def __contains__(self, e: Exponent):
        return e in self.exponents

    def __eq__(self, other):
        return isinstance(other, LowerSet) and other.exponents == self.exponents

    def __repr__(self):
        return f"LowerSet(L_x{self.l_x})"

    def row_major(self) -> list:
        """Exponents ascending under inlex: row 0 left-to-right, row 1, ..."""
        return [(i, j) for j, m in enumerate(self.l_x) for i in range(m + 1)]

    def column_major(self) -> list:
        """Exponents ascending under lex: column 0 bottom-up, column 1, ..."""
        return [(i, j) for i, n in enumerate(self.l_y) for j in range(n + 1)]


def lower_set_of(cover: LineCover) -> LowerSet:
    """S_x from a row cover, S_y from a column cover."""
    sizes = cover.sizes()
    if cover.axis == "rows":
        return LowerSet.from_l_x([s - 1 for s in sizes])
    return LowerSet.from_l_y([s - 1 for s in sizes])


def is_lower(exponents) -> bool:
    """True iff the exponent set is downward closed."""
    exps = set(exponents)
    return all((i - 1, j) in exps or i == 0 for i, j in exps) and \
        all((i, j - 1) in exps or j == 0 for i, j in exps)
