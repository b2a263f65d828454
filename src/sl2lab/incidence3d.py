"""Points, lines and planes of F_q^3, and the incidence counts behind the
stabilizer bounds.

The bridge from the group to 3-space is project_matrix: (a b; c d) maps
to (a, d, c), forgetting b.  On matrices with c != 0 the entry b is
recoverable as (ad - 1)/c, so the projection is injective there.  The
solutions of theta(src) = dst are the coset theta_b = M0 + b*M1 that
plane._frame's matrices give (the one the transport route tests), and
the projection is linear, so they project onto the line through
pi(M0) with direction pi(M1) (transport_line).  Counting point-line
incidences among such lines is what turns stabilizer questions into
3-space geometry.

Lines are kept in a canonical form so that equal point sets compare
equal: the direction is scaled to make its first nonzero coordinate 1
(at index `lead`) and the base point is translated to have coordinate 0
there.  Planes are (normal, offset) pairs with the normal's first
nonzero coordinate scaled to 1; there are exactly q(q^2 + q + 1) of
them.  A line lies in exactly q + 1 planes, one per normal in the
pencil orthogonal to its direction (normal_pencil, memoized per
direction), so plane richness walks that pencil.  The test suite keeps
the oracles (the brute transport set, plane points and a pencil-walking
triple test) on plain ctx.add/ctx.mul calls, off these kernels.

The hot kernels (_dot, line_points, _plane_keys) index the field's
add/mul rows directly, one subscript per field operation; on_line and
count_incidences_brute, the incidence oracle, keep the ctx.add/ctx.mul
calls.  Line3 is a NamedTuple, so the sets and dicts of lines hash and
compare them in C.  A line's q points come from line_points and its
q + 1 planes, as integer keys normal_index * q + offset, from
_plane_keys; each formula is written once, and two table layouts hold
what they give.

  * The incidence campaign draws its lines from all of them, so
    line_tables builds, in one pass, the pool of every line and two
    flat arrays indexed by pool position: each line's q point codes
    x*q^2 + y*q + z, and its q + 1 plane keys.  build_instance counts
    a draw of point codes and pool positions from those arrays.
  * The triple-count audit meets a few hundred of the ~q^4 lines, and
    a dense table would not fit at its larger q, so it keeps per-line
    memos on ctx: points_of holds a line's points, which
    count_incidences intersects, and planes_of its plane keys, which
    plane_richness counts in a Counter.  The audit reads the same two
    memos to tell how its transport lines meet: two lines share a
    point exactly when a point lists both, and lie in one plane
    exactly when a plane key does.

build_instance returns an instance's four counts, and
incidence_bound_report returns its report cells as a dict keyed by
INCIDENCE_COLUMNS, in that order, so this module alone names the
incidence campaign's columns.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain
from typing import NamedTuple

from .gf import FieldCtx
from .plane import _frame, mat_inv, mat_mul


def project_matrix(m) -> tuple:
    """(a b; c d) -> (a, d, c)."""
    a, b, c, d = m
    return (a, d, c)


def _dot(ctx, u, v):
    add, mul = ctx.add_rows, ctx.mul_rows
    return add[add[mul[u[0]][v[0]]][mul[u[1]][v[1]]]][mul[u[2]][v[2]]]


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

    The elements carrying src to dst are theta_b = F_dst (1 b; 0 1)
    F_src^-1 = M0 + b*M1, F_x being _frame's matrix for x, with
    M0 = F_dst F_src^-1 and M1 = F_dst (0 1; 0 0) F_src^-1; they
    project onto the line through pi(M0) with direction pi(M1).
    Requires src = (u1, v1), dst = (u2, v2) with u1 != 0, u2 != 0 and
    (v1, v2) != (0, 0), where pi(M1) = (-u2 v1, u1 v2, -v1 v2) is
    nonzero.
    """
    u1, v1 = src
    u2, v2 = dst
    if u1 == 0 or u2 == 0:
        raise ValueError("transport_line needs nonzero first coordinates")
    if v1 == 0 and v2 == 0:
        raise ValueError("transport_line needs (v1, v2) != (0, 0)")
    f_dst = _frame(ctx, u2 * ctx.q + v2)
    f_src_inv = mat_inv(ctx, _frame(ctx, u1 * ctx.q + v1))
    m0 = mat_mul(ctx, f_dst, f_src_inv)
    m1 = mat_mul(ctx, mat_mul(ctx, f_dst, (0, 1, 0, 0)), f_src_inv)
    return line3(ctx, project_matrix(m0), project_matrix(m1))


# ---------------------------------------------------------------------------
# Incidence counting


def points_of(ctx: FieldCtx, line: Line3) -> tuple:
    """line_points(line) as a tuple, kept per line by ctx.memo."""
    cache = ctx.memo("line_points", dict)
    pts = cache.get(line)
    if pts is None:
        pts = cache[line] = tuple(line_points(ctx, line))
    return pts


def count_incidences(ctx: FieldCtx, points, lines) -> int:
    """I(P, L) = number of (p, l) pairs with p on l.

    Intersects the q distinct points of each line (points_of) with a
    hashed point set; the quadratic double loop lives in
    count_incidences_brute as the independent check.
    """
    pset = set(points)
    total = 0
    for ln in lines:
        total += len(pset.intersection(points_of(ctx, ln)))
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
    on ctx by planes_of."""
    return {n: i for i, n in enumerate(canonical_normals(ctx))}


def _plane_keys(ctx: FieldCtx, line: Line3) -> tuple:
    """The q + 1 planes holding line, each as the integer key
    normal_index * q + offset (normal_index its position in
    canonical_normals)."""
    q, add, mul = ctx.q, ctx.add_rows, ctx.mul_rows
    index = ctx.memo("normal_index", _normal_index, ctx)
    bx, by, bz = (mul[b] for b in line.base)  # the offset n . base, inline
    return tuple(
        index[n] * q + add[add[bx[n[0]]][by[n[1]]]][bz[n[2]]] for n in normal_pencil(ctx, line.dir)
    )


def planes_of(ctx: FieldCtx, line: Line3) -> tuple:
    """_plane_keys(line), kept per line by ctx.memo."""
    cache = ctx.memo("plane_keys", dict)
    keys = cache.get(line)
    if keys is None:
        keys = cache[line] = _plane_keys(ctx, line)
    return keys


def plane_richness(ctx: FieldCtx, lines) -> int:
    """The max number of the given lines lying in one plane; 0 for none.

    Each line lies in exactly q + 1 planes (its normal pencil), so
    counting those per line is exact without enumerating all
    q(q^2+q+1) planes; the counts run on integer plane keys
    (planes_of).
    """
    keys = Counter(k for ln in set(lines) for k in planes_of(ctx, ln))
    return max(keys.values(), default=0)


# ---------------------------------------------------------------------------
# Bound reports for an incidence instance


class LineTables(NamedTuple):
    """A pool of lines and two flat tables indexed by pool position i,
    built by line_tables: the incidence campaign's per-field tables."""

    pool: list  # the Line3s, in the order given
    codes: array  # line i's q point codes x*q^2 + y*q + z at [i*q, (i+1)*q)
    keys: array  # line i's q + 1 plane keys (_plane_keys) at [i*(q+1), (i+1)*(q+1))


def line_tables(ctx: FieldCtx, lines) -> LineTables:
    """The LineTables of lines, in one pass over them: each line's point
    codes from line_points and its plane keys from _plane_keys."""
    q = ctx.q
    pool, codes, keys = [], array("i"), array("i")
    for ln in lines:
        pool.append(ln)
        codes.extend((x * q + y) * q + z for x, y, z in line_points(ctx, ln))
        keys.extend(_plane_keys(ctx, ln))
    return LineTables(pool, codes, keys)


def decode_point(q: int, code: int) -> tuple:
    """The point (x, y, z) of the code x*q^2 + y*q + z that LineTables lists."""
    rest, z = divmod(code, q)
    return (*divmod(rest, q), z)


def build_instance(ctx: FieldCtx, tables: LineTables, codes, positions) -> tuple:
    """(|P|, |L|, I(P, L), plane richness) of the points with these codes
    and the lines at these positions of tables.pool: the counts
    incidence_bound_report reads.  A repeated code or position counts
    once.  I(P, L) is the number of point codes of the lines that are
    in P, and plane richness the largest count among their plane keys."""
    q, k = ctx.q, ctx.q + 1
    pts, lns = set(codes), set(positions)
    line_codes, line_keys = tables.codes, tables.keys
    on = chain.from_iterable(line_codes[i * q : i * q + q] for i in lns)
    inc = sum(map(pts.__contains__, on))
    keys = Counter(chain.from_iterable(line_keys[i * k : i * k + k] for i in lns))
    return len(pts), len(lns), inc, max(keys.values(), default=0)


# The keys of incidence_bound_report's dict, in column order: the
# instance's cells, then four cells per bound.
INCIDENCE_COLUMNS = ("points", "lines", "incidences", "plane_max") + tuple(
    f"{name}_{part}"
    for name in ("plane_cap", "balanced_deviation", "rich_plane", "projection", "projection_scale")
    for part in ("applicable", "observed", "rhs", "ratio")
)


def incidence_bound_report(ctx: FieldCtx, counts: tuple, c: float = 1.0) -> dict:
    """Observed-versus-bound cells for one instance, from its
    build_instance counts, keyed by INCIDENCE_COLUMNS in that order,
    floats unrounded.

    Each bound compares I(P, L) (or its deviation from the mean value
    |P||L|/q^2) against a standard upper bound; `c` scales the
    plane-richness bound and the rich-plane applicability cutoff.
    Bounds whose hypotheses fail keep their numbers but are flagged
    not applicable.  With no points, projection_scale's observed and
    ratio cells are None.
    """
    np_, nl, inc, rich = counts
    q, p = ctx.q, ctx.p
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
