"""Test oracles and the output-file reader, kept out of the package.

The oracles recompute by definition what sl2lab computes through its
kernels: each field operation is a ctx.add/ctx.mul/ctx.sub call and the
group is streamed by sl2_elements, so none of them reads the add/mul
rows, _dot, normal_pencil or the per-line point and plane-key tables
that count_incidences, plane_richness and the triple-count audit run on.
line_pair_counts classifies the audit's transport lines pair by pair,
on point sets and triple_coplanar.

read_rows reads a campaign's output file back as row dicts, with each
CSV cell decoded to the value it was written from.
"""

import csv
import functools
import itertools
import json

from sl2lab.harness import CAMPAIGNS
from sl2lab.incidence3d import canonical_normals
from sl2lab.plane import sl2_elements


def dot(ctx, u, v):
    add, mul = ctx.add, ctx.mul
    return add(add(mul(u[0], v[0]), mul(u[1], v[1])), mul(u[2], v[2]))


def transport_set(ctx, src, dst):
    """All theta in SL2 with theta(src) = dst, by brute filter (size q)."""
    add, mul = ctx.add, ctx.mul
    (x, y), out = src, set()
    for m in sl2_elements(ctx):
        a, b, c, d = m
        if (add(mul(a, x), mul(b, y)), add(mul(c, x), mul(d, y))) == dst:
            out.add(m)
    assert len(out) == ctx.q
    return out


def plane_points(ctx, plane):
    normal, offset = plane
    q = ctx.q
    return [
        (x, y, z)
        for x in range(q)
        for y in range(q)
        for z in range(q)
        if dot(ctx, normal, (x, y, z)) == offset
    ]


def plane_contains_line(ctx, plane, line) -> bool:
    normal, offset = plane
    return dot(ctx, normal, line.dir) == 0 and dot(ctx, normal, line.base) == offset


@functools.lru_cache(maxsize=None)
def _normals_orthogonal_to(ctx, d) -> tuple:
    return tuple(n for n in canonical_normals(ctx) if dot(ctx, n, d) == 0)


def triple_coplanar(ctx, l1, l2, l3) -> bool:
    """Whether some plane contains all three lines: one of the planes
    through l1, one per normal orthogonal to its direction."""
    for n in _normals_orthogonal_to(ctx, l1.dir):
        plane = (n, dot(ctx, n, l1.base))
        if plane_contains_line(ctx, plane, l2) and plane_contains_line(ctx, plane, l3):
            return True
    return False


def line_point_set(ctx, line) -> frozenset:
    """The q points base + t * dir of a Line3."""
    add, mul = ctx.add, ctx.mul
    return frozenset(
        tuple(add(b, mul(t, d)) for b, d in zip(line.base, line.dir)) for t in range(ctx.q)
    )


def line_pair_counts(ctx, lines_by_probe) -> dict:
    """The triple-count audit's four line-pair counts, pair by pair, over
    the transport lines of each probe (one list per probe).

    Two of a probe's lines meet when their point sets share a point.
    Disjoint lines are parallel when they have the same direction, that
    is, the same points less one of their own points, and skew
    otherwise.  Every triple of parallel lines is asserted not to lie in
    one plane (triple_coplanar) and counted.
    """
    sub = ctx.sub
    counts = dict.fromkeys(("skew_pairs", "meeting_pairs", "parallel_pairs", "parallel_triples"), 0)
    for lines in lines_by_probe:
        points = [line_point_set(ctx, ln) for ln in lines]
        dirs = []
        for pts in points:
            x0 = min(pts)
            dirs.append(frozenset(tuple(map(sub, x, x0)) for x in pts))
        for i, j in itertools.combinations(range(len(lines)), 2):
            shared = len(points[i] & points[j])
            assert shared <= 1, "two transport lines coincide"
            if dirs[i] == dirs[j]:
                assert not shared
                counts["parallel_pairs"] += 1
            elif shared:
                counts["meeting_pairs"] += 1
            else:
                counts["skew_pairs"] += 1
        classes: dict = {}  # the lines of each direction
        for d, ln in zip(dirs, lines):
            classes.setdefault(d, []).append(ln)
        for parallel in classes.values():
            for triple in itertools.combinations(parallel, 3):
                assert not triple_coplanar(ctx, *triple), "three parallel lines lie in a plane"
                counts["parallel_triples"] += 1
    return counts


# CSV columns that hold strings; every other cell is decoded by _decode_cell
_TEXT_COLUMNS = frozenset({"descriptor", "violations", "audit_error", "strategy"})


def _decode_cell(cell: str):
    """The value v with harness._fmt(v) == cell, for a column of scalars."""
    if cell == "":
        return None
    if cell in ("true", "false"):
        return cell == "true"
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def read_rows(path) -> list:
    """The rows of a campaign's output file: JSON's as written, CSV's
    decoded, a ranked campaign's index kept as its text tag ("12+o")."""
    with open(path, newline="") as fh:
        if fh.read(1) == "{":
            fh.seek(0)
            return json.load(fh)["rows"]
        echo = fh.readline()  # the rest of the echo line
        campaign = next(p for p in echo.split() if p.startswith("campaign="))[len("campaign="):]
        reader = csv.reader(fh)
        cols = next(reader)
        text = _TEXT_COLUMNS
        if CAMPAIGNS[campaign].rank is not None:
            text = text | {"index"}
        decoders = [str if c in text else _decode_cell for c in cols]
        return [{c: dec(v) for c, dec, v in zip(cols, decoders, rec)} for rec in reader]
