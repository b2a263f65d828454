"""3-space layer: canonical lines, transport lines, incidence counts, planes."""

import itertools
from collections import Counter

import pytest

from sl2lab.gf import make_field
from sl2lab.incidence3d import (
    _dot,
    all_lines,
    build_instance,
    canonical_normals,
    count_incidences,
    count_incidences_brute,
    decode_point,
    incidence_bound_report,
    line3,
    line_points,
    line_tables,
    normal_pencil,
    on_line,
    plane_richness,
    planes_of,
    project_matrix,
    transport_line,
)
from sl2lab.plane import line_of_point, mat_apply, sl2_elements, sl2_order
from sl2lab.rng import DetRng, nth_seed

from oracles import plane_contains_line, plane_points, transport_set, triple_coplanar


def all_planes(ctx):
    return [(n, d) for n in canonical_normals(ctx) for d in range(ctx.q)]


def brute_richness(ctx, lines):
    """The richest count over every plane."""
    lines = set(lines)
    return max(sum(1 for ln in lines if plane_contains_line(ctx, pl, ln)) for pl in all_planes(ctx))


def random_lines(ctx, rng, count):
    pool = list(all_lines(ctx))
    return [pool[i] for i in rng.sample(len(pool), count)]


def test_project_matrix():
    assert project_matrix((1, 2, 3, 4)) == (1, 4, 3)


def test_line3_canonical(fields):
    ctx = fields[5]
    ln = line3(ctx, (1, 2, 3), (2, 4, 1))
    # same line under rebasing and rescaling of the direction
    assert line3(ctx, (3, 1, 4), (4, 3, 2)) == ln  # base + 1*dir, dir*2
    assert set(line_points(ctx, line3(ctx, (3, 1, 4), (4, 3, 2)))) == set(
        line_points(ctx, ln))
    with pytest.raises(ValueError):
        line3(ctx, (0, 0, 0), (0, 0, 0))


@pytest.mark.parametrize("q", [2, 3])
def test_all_lines_census(fields, q):
    ctx = fields[q]
    lines = list(all_lines(ctx))
    assert len(lines) == q * q * (q * q + q + 1)
    assert len(set(lines)) == len(lines)
    space = list(itertools.product(range(q), repeat=3))
    for ln in lines:
        pts = line_points(ctx, ln)
        assert len(set(pts)) == q
        for pt in space:
            assert on_line(ctx, pt, ln) == (pt in set(pts))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_all_lines_order_matches_generate_and_dedup(fields, q):
    # incidence campaigns sample lines by position, so the order is pinned
    # against canonicalizing every (point, direction) pair in turn
    ctx = fields[q]
    seen, want = set(), []
    for d in canonical_normals(ctx):
        for pt in itertools.product(range(q), repeat=3):
            ln = line3(ctx, pt, d)
            if ln not in seen:
                seen.add(ln)
                want.append(ln)
    assert list(all_lines(ctx)) == want


def test_transport_set_is_coset(fields):
    ctx = fields[5]
    for src, dst in [((1, 0), (1, 0)), ((1, 2), (3, 4)), ((0, 1), (2, 0))]:
        ts = transport_set(ctx, src, dst)
        assert len(ts) == 5
        assert all(mat_apply(ctx, m, src) == dst for m in ts)
    brute = {m for m in sl2_elements(ctx) if mat_apply(ctx, m, (1, 2)) == (3, 4)}
    assert transport_set(ctx, (1, 2), (3, 4)) == brute


def admissible_pairs(q):
    """src = (u1, v1), dst = (u2, v2) with u1, u2 != 0, (v1, v2) != (0, 0)."""
    for u1 in range(1, q):
        for v1 in range(q):
            for u2 in range(1, q):
                for v2 in range(q):
                    if (v1, v2) != (0, 0):
                        yield (u1, v1), (u2, v2)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_transport_line_is_projected_transport_set(fields, q):
    ctx = fields[q]
    for src, dst in admissible_pairs(q):
        ln = transport_line(ctx, src, dst)
        image = {project_matrix(m) for m in transport_set(ctx, src, dst)}
        assert image == set(line_points(ctx, ln))


def test_transport_line_rejects_inadmissible(fields):
    ctx = fields[5]
    with pytest.raises(ValueError):
        transport_line(ctx, (0, 1), (1, 1))
    with pytest.raises(ValueError):
        transport_line(ctx, (1, 1), (0, 1))
    with pytest.raises(ValueError):
        transport_line(ctx, (1, 0), (2, 0))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_projection_fiber_census(fields, q):
    # |f^-1(a,d,c)| is 1 when c != 0, q at the q-1 points (a, 1/a, 0),
    # and 0 elsewhere; totals recover |SL2| = q^3 - q.
    ctx = fields[q]
    fibers: dict = {}
    for m in sl2_elements(ctx):
        pt = project_matrix(m)
        fibers[pt] = fibers.get(pt, 0) + 1
    for (a, d, c), size in fibers.items():
        if c != 0:
            assert size == 1
        else:
            assert size == q and d == ctx.inv(a)
    assert sum(fibers.values()) == sl2_order(q)
    assert sum(1 for (_, _, c) in fibers if c != 0) == q * q * (q - 1)
    assert sum(1 for (_, _, c) in fibers if c == 0) == q - 1


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_count_incidences_matches_brute(fields, q):
    ctx = fields[q]
    pool = list(itertools.product(range(q), repeat=3))
    for trial in range(30):
        rng = DetRng(nth_seed(q, trial))
        pts = [pool[i] for i in rng.sample(len(pool), 1 + rng.below(len(pool)))]
        lns = random_lines(ctx, rng, 1 + rng.below(2 * q * q))
        assert count_incidences(ctx, pts, lns) == count_incidences_brute(ctx, pts, lns)


def test_canonical_normals(fields):
    for q in (3, 4):
        ctx = fields[q]
        normals = canonical_normals(ctx)
        assert len(normals) == q * q + q + 1
        assert len(set(normals)) == len(normals)
        # first nonzero coordinate is 1, so no two are proportional
        for n in normals:
            lead = next(x for x in n if x != 0)
            assert lead == 1


@pytest.mark.parametrize("q", [3, 4])
def test_plane_points_and_containment(fields, q):
    ctx = fields[q]
    rng = DetRng(q)
    lines = random_lines(ctx, rng, 12)
    for pl in all_planes(ctx)[:: max(1, q)]:
        pts = plane_points(ctx, pl)
        assert len(pts) == q * q
        for ln in lines:
            assert plane_contains_line(ctx, pl, ln) == (
                set(line_points(ctx, ln)) <= set(pts))


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_plane_richness_matches_brute(fields, q):
    ctx = fields[q]
    for trial in range(12):
        rng = DetRng(nth_seed(100 + q, trial))
        lines = random_lines(ctx, rng, 1 + rng.below(3 * q))
        assert plane_richness(ctx, lines) == brute_richness(ctx, lines)
    assert plane_richness(ctx, []) == 0 == brute_richness(ctx, [])


@pytest.mark.parametrize("q", [3, 4, 5])
def test_normal_pencil(fields, q):
    ctx = fields[q]
    add, mul = ctx.add, ctx.mul
    for d in canonical_normals(ctx):  # canonical directions have the same form
        pencil = normal_pencil(ctx, d)
        assert len(pencil) == len(set(pencil)) == q + 1
        for n in pencil:
            assert add(add(mul(n[0], d[0]), mul(n[1], d[1])), mul(n[2], d[2])) == 0
        assert normal_pencil(ctx, d) is pencil


def test_triple_coplanar_matches_brute(fields):
    ctx = fields[3]
    lines = list(all_lines(ctx))[::11]
    for l1, l2, l3 in itertools.combinations(lines[:12], 3):
        brute = any(
            all(plane_contains_line(ctx, pl, ln) for ln in (l1, l2, l3))
            for pl in all_planes(ctx))
        assert triple_coplanar(ctx, l1, l2, l3) == brute


def pool_tables(ctx):
    """line_tables over every line, in all_lines order, as the incidence
    campaign builds them."""
    return line_tables(ctx, all_lines(ctx))


def test_build_instance(fields):
    ctx = fields[3]
    tables = pool_tables(ctx)
    positions = DetRng(0).sample(len(tables.pool), 6)
    lines = [tables.pool[i] for i in positions]
    codes = list(range(14))  # the first 14 points in (x, y, z) order
    pts = list(itertools.product(range(3), repeat=3))[:14]
    # repeats count once
    counts = build_instance(ctx, tables, codes + codes[:3], positions + positions[:2])
    assert counts == (
        14, 6, count_incidences_brute(ctx, pts, lines), brute_richness(ctx, lines))


def test_line_tables_match_per_line_kernels(fields):
    # each line's slice of the flat tables decodes to its line_points and
    # equals its planes_of keys; the pool is all_lines in order
    for q in (2, 3, 4, 5):
        ctx = fields[q]
        tables = pool_tables(ctx)
        assert tables.pool == list(all_lines(ctx))
        assert len(tables.codes) == q * len(tables.pool)
        assert len(tables.keys) == (q + 1) * len(tables.pool)
        for i, ln in enumerate(tables.pool):
            codes = tables.codes[i * q : (i + 1) * q]
            assert [decode_point(q, c) for c in codes] == line_points(ctx, ln)
            assert tuple(tables.keys[i * (q + 1) : (i + 1) * (q + 1)]) == planes_of(ctx, ln)
    assert [decode_point(3, c) for c in range(27)] == list(itertools.product(range(3), repeat=3))


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_table_counts_match_oracles(p, r):
    # the campaign's draws, counted from the flat tables, against the
    # brute incidence loop and the plane-by-plane richness on the decoded
    # points and lines
    ctx = make_field(p, r)
    q = ctx.q
    tables = pool_tables(ctx)
    for trial in range(6):
        rng = DetRng(nth_seed(200 + q, trial))
        # at most q^2 draws of each, so the brute richness stays quick at q = 9
        codes = rng.sample(q**3, 1 + rng.below(q * q))
        positions = rng.sample(len(tables.pool), 1 + rng.below(q * q))
        pts = [decode_point(q, c) for c in codes]
        lines = [tables.pool[i] for i in positions]
        assert build_instance(ctx, tables, codes, positions) == (
            len(set(pts)),
            len(set(lines)),
            count_incidences_brute(ctx, pts, lines),
            brute_richness(ctx, lines),
        )


def test_incidence_bound_report_shapes(fields):
    ctx = fields[5]
    tables = pool_tables(ctx)
    positions = DetRng(1).sample(len(tables.pool), 10)
    pts = [(x, y, z) for x in range(5) for y in range(5) for z in range(2)]
    codes = [(x * 5 + y) * 5 + z for x, y, z in pts]
    lines = [tables.pool[i] for i in positions]
    P, L, inc, rich = counts = build_instance(ctx, tables, codes, positions)
    assert inc == count_incidences_brute(ctx, pts, lines)
    rep = incidence_bound_report(ctx, counts, c=1.0)
    names = [k.removesuffix("_applicable") for k in rep if k.endswith("_applicable")]
    assert names == [
        "plane_cap", "balanced_deviation", "rich_plane",
        "projection", "projection_scale",
    ]
    assert rep["plane_cap_applicable"] and rep["balanced_deviation_applicable"]
    assert (P, L) == (len(pts), len(lines))
    assert (rep["points"], rep["lines"]) == (P, L)
    assert (rep["incidences"], rep["plane_max"]) == (inc, rich)
    assert rep["projection_applicable"] == (P**0.875 < L < P ** (8 / 7))
    assert rep["rich_plane_applicable"] == (rich <= L**0.5)
    assert rep["plane_cap_observed"] == float(inc)
    mean = P * L / 25
    assert rep["balanced_deviation_observed"] == abs(inc - mean)
    for name in names:
        observed, rhs = rep[f"{name}_observed"], rep[f"{name}_rhs"]
        if observed is not None and rhs > 0:
            assert rep[f"{name}_ratio"] == observed / rhs


def test_projection_flag_tracks_window(fields):
    ctx = fields[3]
    tables = pool_tables(ctx)
    # 27 points: window is (27^0.875, 27^(8/7)) ~ (17.9, 43.2)
    for nl, inside in [(10, False), (18, True), (43, True), (44, False)]:
        rep = incidence_bound_report(ctx, build_instance(ctx, tables, range(27), range(nl)))
        assert rep["projection_applicable"] == inside
        assert rep["projection_scale_applicable"] == inside


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (2, 4), (61, 1), (2, 6)])
def test_table_kernels_match_field_ops(p, r):
    # independent of the kernels' table indexing: field ops written out
    ctx = make_field(p, r)
    q = ctx.q
    add, mul = ctx.add, ctx.mul
    rng = DetRng(q)
    for _ in range(200):
        u, v = (tuple(rng.below(q) for _ in range(3)) for _ in range(2))
        dot = add(add(mul(u[0], v[0]), mul(u[1], v[1])), mul(u[2], v[2]))
        assert _dot(ctx, u, v) == dot
        if v != (0, 0, 0):
            ln = line3(ctx, u, v)
            b, d = ln.base, ln.dir
            want = [tuple(add(b[i], mul(t, d[i])) for i in range(3)) for t in range(q)]
            assert line_points(ctx, ln) == want


def share_a_plane(ctx, *lines) -> bool:
    """The audit's plane-key test: some plane key (planes_of) is held by
    every one of the lines."""
    keys = Counter(k for ln in lines for k in planes_of(ctx, ln))
    return max(keys.values()) == len(lines)


def parallel_transport_triples(ctx):
    """Every triple of transport lines from one probe u to three targets
    on one origin line, probes and targets off both axes, as the audit
    forms them: the lines of a triple share one direction."""
    q = ctx.q
    off_axes = [(x, y) for x in range(1, q) for y in range(1, q)]
    for u in off_axes:
        by_dir = {}
        for v in off_axes:
            by_dir.setdefault(line_of_point(ctx, v), []).append(transport_line(ctx, u, v))
        for lines in by_dir.values():
            yield from itertools.combinations(lines, 3)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_parallel_coplanar_matches_triple_coplanar_on_transport_lines(fields, q):
    ctx = fields[q]
    triples = 0
    for l1, l2, l3 in parallel_transport_triples(ctx):
        assert l1.dir == l2.dir == l3.dir
        got = share_a_plane(ctx, l1, l2, l3)
        assert got == triple_coplanar(ctx, l1, l2, l3)
        assert not got  # the audit's claim: no three are coplanar
        triples += 1
    assert triples == (q - 1) ** 3 * (q - 1) * (q - 2) * (q - 3) // 6


@pytest.mark.parametrize("q", [3, 4, 5])
def test_parallel_coplanar_matches_triple_coplanar(fields, q):
    # every direction's parallel lines, coplanar triples included
    ctx = fields[q]
    rng = DetRng(q)
    by_dir = {}
    for ln in all_lines(ctx):
        by_dir.setdefault(ln.dir, []).append(ln)
    coplanar = 0
    for lines in by_dir.values():
        triples = list(itertools.combinations(lines, 3))
        for i in rng.sample(len(triples), min(len(triples), 60)):
            l1, l2, l3 = triples[i]
            got = share_a_plane(ctx, l1, l2, l3)
            assert got == triple_coplanar(ctx, l1, l2, l3)
            coplanar += got
    assert coplanar > 0
