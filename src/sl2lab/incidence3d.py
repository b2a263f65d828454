"""Points, lines and planes of F_q^3, and the incidence counts behind the
stabilizer bounds.

The bridge from the group to 3-space is project_matrix: (a b; c d) maps
to (a, d, c), forgetting b.  On matrices with c != 0 the entry b is
recoverable as (ad - 1)/c, so the projection is injective there, and
the set of solutions of theta(src) = dst projects onto an explicit line
(transport_line).  Counting point-line incidences among such lines is
what turns stabilizer questions into 3-space geometry.

Lines are kept in a canonical form so that equal point sets compare
equal: the direction is scaled to make its first nonzero coordinate 1
(at index `lead`) and the base point is translated to have coordinate 0
there.  Planes are (normal, offset) pairs with the normal's first
nonzero coordinate scaled to 1; there are exactly q(q^2 + q + 1) of
them.  A line lies in exactly q + 1 planes, one per normal in the
pencil orthogonal to its direction (normal_pencil, memoized per
direction), so plane richness walks that pencil.  Three parallel lines
need no pencil: parallel_coplanar is one determinant on their shared
direction, and the triple-count audit uses it.  The test suite keeps
the oracles (the brute transport set, plane points and a pencil-walking
triple test) on plain ctx.add/ctx.mul calls, off these kernels.

The hot kernels (_dot, _det3, line_points, count_incidences,
plane_richness) index the field's add/mul rows and negation table
directly, one subscript per field operation; on_line and
count_incidences_brute, the incidence oracle, keep the ctx.add/ctx.mul
calls.  Line3 is a NamedTuple, so the sets and dicts of lines hash and
compare them in C.  Two per-line dicts, kept by ctx.memo and fetched
once per call, serve the campaigns, which meet the same lines again and
again: count_incidences keeps each line's q points, and plane_richness
keeps each line's q + 1 planes as integer keys normal_index * q +
offset, counted in a Counter; only the largest count is returned.

incidence_bound_report returns an instance's report cells as a dict
keyed by INCIDENCE_COLUMNS, in that order, so this module alone names
the incidence campaign's columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .gf import FieldCtx


def project_matrix(m) -> tuple:
    """(a b; c d) -> (a, d, c)."""
    a, b, c, d = m
    return (a, d, c)


def _dot(ctx, u, v):
    add, mul = ctx.add_rows, ctx.mul_rows
    return add[add[mul[u[0]][v[0]]][mul[u[1]][v[1]]]][mul[u[2]][v[2]]]


def _minus(ctx, u, v) -> tuple:
    """u - v in F_q^3, read as u + (-v)."""
    add, neg = ctx.add_rows, ctx.neg_table
    return (add[u[0]][neg[v[0]]], add[u[1]][neg[v[1]]], add[u[2]][neg[v[2]]])


def _det3(ctx, u, v, w):
    """det of the rows u, v, w, expanded along u; each x - y is x + (-y)."""
    add, mul, neg = ctx.add_rows, ctx.mul_rows, ctx.neg_table
    m1 = add[mul[v[1]][w[2]]][neg[mul[v[2]][w[1]]]]
    m2 = add[mul[v[0]][w[2]]][neg[mul[v[2]][w[0]]]]
    m3 = add[mul[v[0]][w[1]]][neg[mul[v[1]][w[0]]]]
    return add[add[mul[u[0]][m1]][neg[mul[u[1]][m2]]]][mul[u[2]][m3]]


class Line3(NamedTuple):
    """A line of F_q^3 in canonical (base, dir) form; build via line3()."""

    base: tuple
    dir: tuple
    lead: int  # index of the first nonzero direction coordinate

    def __repr__(self):
        return f"Line3(base={self.base}, dir={self.dir})"


def line3(ctx: FieldCtx, base, dir) -> Line3:
    """Canonicalize (base, dir) so equal lines get equal representatives."""
    if dir == (0, 0, 0):
        raise ValueError("a line needs a nonzero direction")
    lead = 0 if dir[0] else (1 if dir[1] else 2)
    s = ctx.inv(dir[lead])
    mul, sub = ctx.mul, ctx.sub
    d = tuple(mul(s, x) for x in dir)
    t = base[lead]
    b = tuple(sub(base[i], mul(t, d[i])) for i in range(3))
    return Line3(b, d, lead)


def line_points(ctx: FieldCtx, line: Line3) -> list:
    """The q points base + t * dir, t ascending."""
    add, mul = ctx.add_rows, ctx.mul_rows
    (bx, by, bz), (dx, dy, dz) = line.base, line.dir
    bx, by, bz, dx, dy, dz = add[bx], add[by], add[bz], mul[dx], mul[dy], mul[dz]
    return [(bx[dx[t]], by[dy[t]], bz[dz[t]]) for t in range(ctx.q)]


def on_line(ctx: FieldCtx, pt, line: Line3) -> bool:
    """Exact membership test; O(1) thanks to the canonical form."""
    t = pt[line.lead]  # base coord there is 0 and dir coord is 1
    add, mul = ctx.add, ctx.mul
    b, d = line.base, line.dir
    return all(pt[i] == add(b[i], mul(t, d[i])) for i in range(3))


def all_lines(ctx: FieldCtx):
    """Every line of F_q^3, canonical, q^2(q^2+q+1) of them.

    Per canonical direction, every base with 0 at the lead coordinate,
    its two free coordinates in lexicographic order.
    """
    for d in canonical_normals(ctx):
        lead = d.index(1)
        for s in range(ctx.q):
            for t in range(ctx.q):
                free = (s, t)
                yield Line3(free[:lead] + (0,) + free[lead:], d, lead)


# ---------------------------------------------------------------------------
# Transport of plane points and the line it projects to


def transport_line(ctx: FieldCtx, src, dst) -> Line3:
    """The projected image of the transport set as an explicit Line3.

    Requires src = (u1, v1), dst = (u2, v2) with u1 != 0, u2 != 0 and
    (v1, v2) != (0, 0); under those conditions the three defining
    equations (two linear, one determinant) project to the line
    base + b * dir with

      base = (u2/u1, u1/u2, v2/u1 - v1/u2)
      dir  = (-v1/u1, v2/u2, -v1*v2/(u1*u2)).
    """
    u1, v1 = src
    u2, v2 = dst
    if u1 == 0 or u2 == 0:
        raise ValueError("transport_line needs nonzero first coordinates")
    if v1 == 0 and v2 == 0:
        raise ValueError("transport_line needs (v1, v2) != (0, 0)")
    div, sub, neg, mul = ctx.div, ctx.sub, ctx.neg, ctx.mul
    base = (div(u2, u1), div(u1, u2), sub(div(v2, u1), div(v1, u2)))
    dir = (neg(div(v1, u1)), div(v2, u2), neg(div(mul(v1, v2), mul(u1, u2))))
    return line3(ctx, base, dir)


# ---------------------------------------------------------------------------
# Incidence counting


def count_incidences(ctx: FieldCtx, points, lines) -> int:
    """I(P, L) = number of (p, l) pairs with p on l.

    Intersects the q distinct points of each line with a hashed point
    set; the quadratic double loop lives in count_incidences_brute as
    the independent check.
    """
    pset = set(points)
    cache = ctx.memo("line_points", dict)
    total = 0
    for ln in lines:
        pts = cache.get(ln)
        if pts is None:
            pts = cache[ln] = tuple(line_points(ctx, ln))
        total += len(pset.intersection(pts))
    assert 0 <= total <= len(pset) * len(set(lines))
    return total


def count_incidences_brute(ctx: FieldCtx, points, lines) -> int:
    return sum(1 for p in set(points) for ln in set(lines) if on_line(ctx, p, ln))


def canonical_normals(ctx: FieldCtx):
    """The q^2 + q + 1 plane normals with first nonzero coordinate 1;
    they are also the canonical line directions."""
    q = ctx.q
    return (
        [(1, a, b) for a in range(q) for b in range(q)]
        + [(0, 1, b) for b in range(q)]
        + [(0, 0, 1)]
    )


def normal_pencil(ctx: FieldCtx, dir) -> tuple:
    """The q + 1 canonical normals orthogonal to dir, memoized per direction."""
    pencils = ctx.memo("normal_pencils", dict)
    pencil = pencils.get(dir)
    if pencil is None:
        pencil = pencils[dir] = tuple(n for n in canonical_normals(ctx) if _dot(ctx, n, dir) == 0)
    return pencil


def _normal_index(ctx: FieldCtx) -> dict:
    """Each canonical normal's position in canonical_normals; memoized
    on ctx by _plane_keys."""
    return {n: i for i, n in enumerate(canonical_normals(ctx))}


def _plane_keys(ctx: FieldCtx, line: Line3) -> tuple:
    """The q + 1 planes holding line, each as the integer key
    normal_index * q + offset (normal_index its position in
    canonical_normals)."""
    q, add, mul = ctx.q, ctx.add_rows, ctx.mul_rows
    index = ctx.memo("normal_index", _normal_index, ctx)
    bx, by, bz = (mul[b] for b in line.base)  # the offset n . base, inline
    return tuple(
        index[n] * q + add[add[bx[n[0]]][by[n[1]]]][bz[n[2]]]
        for n in normal_pencil(ctx, line.dir)
    )


def plane_richness(ctx: FieldCtx, lines) -> int:
    """The max number of the given lines lying in one plane; 0 for none.

    Each line lies in exactly q + 1 planes (its normal pencil), so
    counting those per line is exact without enumerating all
    q(q^2+q+1) planes; the counts run on integer plane keys
    (_plane_keys, memoized per line).
    """
    cache = ctx.memo("plane_keys", dict)
    keys = []
    for ln in set(lines):
        line_keys = cache.get(ln)
        if line_keys is None:
            line_keys = cache[ln] = _plane_keys(ctx, ln)
        keys += line_keys
    return max(Counter(keys).values(), default=0)


def relation(ctx: FieldCtx, l1: Line3, l2: Line3) -> str:
    """Classify a line pair: equal | parallel | intersecting | skew."""
    if l1 == l2:
        return "equal"
    if l1.dir == l2.dir:  # canonical directions, so proportional == equal
        return "parallel"
    if _det3(ctx, l1.dir, l2.dir, _minus(ctx, l2.base, l1.base)) == 0:
        return "intersecting"
    return "skew"


def parallel_coplanar(ctx: FieldCtx, l1: Line3, l2: Line3, l3: Line3) -> bool:
    """Whether three lines with one shared direction v lie in one plane.

    Every plane holding l1 and l2 contains v and b2 - b1 (b the bases),
    so the three are coplanar iff det(v, b2 - b1, b3 - b1) = 0: one
    determinant, where triple_coplanar walks l1's pencil of q + 1 planes.
    """
    if not l1.dir == l2.dir == l3.dir:
        raise ValueError("parallel_coplanar needs three lines with one direction")
    gap2, gap3 = _minus(ctx, l2.base, l1.base), _minus(ctx, l3.base, l1.base)
    return _det3(ctx, l1.dir, gap2, gap3) == 0


# ---------------------------------------------------------------------------
# Bound reports for an incidence instance


@dataclass(frozen=True)
class IncidenceInstance:
    """A point set, line set, their incidence count and plane richness."""

    points: frozenset
    lines: frozenset
    incidences: int
    plane_max: int


def build_instance(ctx: FieldCtx, points, lines):
    pts = frozenset(points)
    lns = frozenset(lines)
    inc = count_incidences(ctx, pts, lns)
    return IncidenceInstance(pts, lns, inc, plane_richness(ctx, lns))


# The keys of incidence_bound_report's dict, in column order: the
# instance's cells, then four cells per bound.
INCIDENCE_COLUMNS = ("points", "lines", "incidences", "plane_max") + tuple(
    f"{name}_{part}"
    for name in ("plane_cap", "balanced_deviation", "rich_plane", "projection", "projection_scale")
    for part in ("applicable", "observed", "rhs", "ratio")
)


def incidence_bound_report(ctx: FieldCtx, inst: IncidenceInstance, c: float = 1.0) -> dict:
    """Observed-versus-bound cells for one instance, keyed by
    INCIDENCE_COLUMNS in that order, floats unrounded.

    Each bound compares I(P, L) (or its deviation from the mean value
    |P||L|/q^2) against a standard upper bound; `c` scales the
    plane-richness bound and the rich-plane applicability cutoff.
    Bounds whose hypotheses fail keep their numbers but are flagged
    not applicable.  With no points, projection_scale's observed and
    ratio cells are None.
    """
    np_, nl = len(inst.points), len(inst.lines)
    q, p = ctx.q, ctx.p
    inc, rich = inst.incidences, inst.plane_max
    cells = {"points": np_, "lines": nl, "incidences": inc, "plane_max": rich}

    def add(name, applicable, observed, rhs):
        cells[f"{name}_applicable"] = applicable
        cells[f"{name}_observed"] = observed
        cells[f"{name}_rhs"] = rhs
        cells[f"{name}_ratio"] = observed / rhs if observed is not None and rhs > 0 else None

    add(
        "plane_cap",
        True,
        float(inc),
        c * (np_**0.5 * nl**0.75 * rich**0.25 + np_ + nl),
    )
    mean = np_ * nl / q**2
    add("balanced_deviation", True, abs(inc - mean), q * (np_ * nl) ** 0.5)
    add(
        "rich_plane",
        rich <= c * nl**0.5,
        float(inc),
        nl * np_**0.4 + np_**1.2,
    )
    projection_ok = np_ > 0 and nl > 0 and np_**0.875 < nl < np_ ** (8 / 7)
    add("projection", projection_ok, float(inc), (np_ * nl) ** (11 / 15))
    # size of |P|^-2 |L|^13 relative to p^15, reported alongside the
    # projection bound since its conclusion degrades when this is large
    scale = np_**-2.0 * nl**13 if np_ else None
    add("projection_scale", projection_ok, scale, float(p) ** 15)
    return cells
