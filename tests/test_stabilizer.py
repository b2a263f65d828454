"""Stabilizer computation: dual routes, closed-form families, bound reports."""

import itertools

import pytest

import sl2lab.stabilizer as stabmod
from sl2lab.gf import make_field, multiplicative_subgroup, subfield_elements
from sl2lab.incidence3d import transport_line
from sl2lab.plane import (
    IDENTITY,
    PointSet,
    _frame,
    act,
    apply_to_set,
    line_of_point,
    mat_inv,
    mat_mul,
    proj_lines,
    sl2_materialize,
    sl2_order,
    sl2_unrank,
)
from sl2lab.rng import DetRng, nth_seed
from sl2lab.stabilizer import (
    Constants,
    _transport_candidates,
    _transport_route,
    all_subset_stabilizer_orders,
    bound_report,
    complement_agrees,
    contained_in_line,
    line_partition,
    line_set_stabilizer,
    report_key,
    stabilizer_brute,
    stabilizer_fast,
    stabilizer_order,
    subgroup_closure,
    subgroup_orbits,
    triple_count_audit,
)

from oracles import line_pair_counts, transport_set


def report(ctx, E, constants=Constants()):
    """bound_report for the set E, its order from stabilizer_order."""
    return bound_report(ctx, report_key(ctx, E, stabilizer_order(ctx, E)), constants)


def random_subset(q, seed):
    rng = DetRng(seed)
    while True:
        bits = rng.bits(q * q)
        if bits:
            return PointSet(q, bits)


@pytest.mark.parametrize("q", [2, 3])
def test_fast_equals_brute_exhaustive(fields, q):
    ctx = fields[q]
    whole = set(sl2_materialize(ctx))
    for bits in range(1 << (q * q)):
        E = PointSet(q, bits)
        if E.nonzero_size:
            assert stabilizer_fast(ctx, E) == stabilizer_brute(ctx, E)
        else:
            assert stabilizer_brute(ctx, E) == whole
            assert stabilizer_order(ctx, E) == sl2_order(q)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_fast_equals_brute_random(fields, q):
    ctx = fields[q]
    for trial in range(60):
        E = random_subset(q, nth_seed(q, trial))
        assert stabilizer_fast(ctx, E) == stabilizer_brute(ctx, E)


def test_stabilizer_dispatch_and_group_structure(fields):
    ctx = fields[7]
    E = random_subset(7, 12345)
    stab = stabilizer_fast(ctx, E)
    assert stab == stabilizer_brute(ctx, E)
    assert IDENTITY in stab
    some = sorted(stab)[:6]
    for a in some:
        assert mat_inv(ctx, a) in stab
        for b in some:
            assert mat_mul(ctx, a, b) in stab


def route_elements(ctx, bits):
    """R of the points in bits as a set: the subgroup the route's
    generators generate, which must have the route's order."""
    order, gens = _transport_route(ctx, bits)
    found = subgroup_closure(ctx, gens)
    assert len(found) == order, "the accepted elements must generate a group of the route's order"
    return found


@pytest.mark.parametrize("q", [5, 7])
def test_complement_invariance(fields, q):
    # the transport route on E's side and on the complement's side
    ctx = fields[q]
    full = (1 << (q * q)) - 2
    for trial in range(8):
        E = random_subset(q, nth_seed(1000 + q, trial))
        mine = E.bits & ~1
        assert mine and full ^ mine
        assert route_elements(ctx, mine) == route_elements(ctx, full ^ mine)
        order = stabilizer_order(ctx, E)
        assert complement_agrees(ctx, E, order)
        assert not complement_agrees(ctx, E, 2 * order)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_transport_candidates_match_brute(fields, q):
    # every nonzero src, y-axis points included, against the brute filter
    ctx = fields[q]
    pts = [divmod(code, q) for code in range(1, q * q)]
    for src in pts:
        for dst in pts:
            got = _transport_candidates(ctx, src, dst)
            assert len(got) == q
            assert set(got) == transport_set(ctx, src, dst)


def transport_by_frames(ctx, src, dst):
    """theta_b = F_dst (1 b; 0 1) F_src^-1 for b ascending, by matrix
    products of _frame's matrices."""
    q = ctx.q
    f_dst = _frame(ctx, dst[0] * q + dst[1])
    f_src_inv = mat_inv(ctx, _frame(ctx, src[0] * q + src[1]))
    return [mat_mul(ctx, mat_mul(ctx, f_dst, (1, b, 0, 1)), f_src_inv) for b in range(q)]


@pytest.mark.parametrize("q", [7, 8, 9, 16])
def test_transport_candidates_match_brute_sampled(fields, q):
    # two seeded pairs for each (src, dst) shape: on the y-axis (u = 0),
    # on the x-axis (v = 0) or off both, so both frame cases run for src
    # and for dst
    ctx = fields[q]
    rng = DetRng(q)

    def point(shape):
        u, v = 1 + rng.below(q - 1), 1 + rng.below(q - 1)
        return {"y-axis": (0, v), "x-axis": (u, 0), "off": (u, v)}[shape]

    shapes = ("y-axis", "x-axis", "off")
    for src_shape, dst_shape in itertools.product(shapes, repeat=2):
        for _ in range(2):
            src, dst = point(src_shape), point(dst_shape)
            got = _transport_candidates(ctx, src, dst)
            assert got == transport_by_frames(ctx, src, dst)
            assert set(got) == transport_set(ctx, src, dst)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_transport_candidates_order_matches_field_ops(fields, q):
    # the same candidates in the same b order as the matrix products
    ctx = fields[q]
    pts = [divmod(code, q) for code in range(1, q * q)]
    for src in pts[:: max(1, len(pts) // 12)]:
        for dst in pts:
            assert _transport_candidates(ctx, src, dst) == transport_by_frames(ctx, src, dst)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_base_candidates_multiply_by_adding_b(fields, q):
    # base -> base, theta_b = I + b*N with N^2 = 0: theta_0 is the
    # identity and theta_b theta_c = theta_{b+c}, the field's addition,
    # which is what lets _transport_route grow Stab_R(base) as a span of
    # b.  Every nonzero base, every pair (b, c)
    ctx = fields[q]
    for code in range(1, q * q):
        base = divmod(code, q)
        cands = _transport_candidates(ctx, base, base)
        assert cands[0] == IDENTITY
        for b, c in itertools.product(range(q), repeat=2):
            assert mat_mul(ctx, cands[b], cands[c]) == cands[ctx.add(b, c)]


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (2, 4), (61, 1), (2, 6)])
def test_filter_kernel_matches_act(p, r):
    # for sampled theta and every point P: with member marking only
    # act(theta, P) the kernel accepts [P], and with member marking every
    # other code it rejects [P], so it computes act's image exactly
    ctx = make_field(p, r)
    q = ctx.q
    rng = DetRng(q)
    thetas = [IDENTITY] + [sl2_unrank(ctx, rng.below(sl2_order(q))) for _ in range(4)]
    only = bytearray(q * q)
    others = bytearray(b"\x01" * (q * q))
    for m in thetas:
        for x in range(q):
            for y in range(q):
                img = act(ctx, m, x * q + y)
                only[img], others[img] = 1, 0
                assert stabmod._maps_into(ctx, m, [(x, y)], only)
                assert not stabmod._maps_into(ctx, m, [(x, y)], others)
                only[img], others[img] = 0, 1


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16])
def test_filter_side_marks_exactly_the_nonzero_points(fields, q):
    ctx = fields[q]
    for seed in range(5):
        E = random_subset(q, seed)
        pts, member = stabmod._filter_side(q, E.bits)
        assert pts == [divmod(c, q) for c in E.nonzero_codes]
        assert [i for i, v in enumerate(member) if v] == list(E.nonzero_codes)


def orbit_union(ctx, seed):
    """(H, E): a seeded random subgroup H, built by the closure oracle,
    and a union of its orbits, so R(E) contains H and the route's orbit
    BFS has work to do."""
    q = ctx.q
    rng = DetRng(seed)
    gens = [sl2_unrank(ctx, rng.below(sl2_order(q))) for _ in range(1 + rng.below(2))]
    order, orbits = subgroup_orbits(ctx, gens)
    H = subgroup_closure(ctx, gens)
    assert order == len(H)
    bits = 0
    for orb in orbits:
        if rng.below(2):
            bits |= orb.bits
    return H, PointSet(q, bits)


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_fast_equals_brute_orbit_unions(fields, q):
    ctx = fields[q]
    rich = 0
    for trial in range(16):
        H, E = orbit_union(ctx, nth_seed(4000 + q, trial))
        if not E.nonzero_size:
            continue
        stab = stabilizer_fast(ctx, E)
        assert stab == stabilizer_brute(ctx, E)
        assert H <= stab
        rich += len(stab) > 2
    assert rich >= 8


@pytest.mark.parametrize("q", [2, 3, 4])
def test_order_matches_subset_table(fields, q):
    # the order-only route against the one-pass cycle table, every subset
    ctx = fields[q]
    table = all_subset_stabilizer_orders(ctx)
    for bits in range(1 << (q * q)):
        assert stabilizer_order(ctx, PointSet(q, bits)) == table[bits]


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_order_matches_brute(fields, q):
    ctx = fields[q]
    for trial in range(16):
        E = random_subset(q, nth_seed(6000 + q, trial))
        assert stabilizer_order(ctx, E) == len(stabilizer_brute(ctx, E))
        H, E = orbit_union(ctx, nth_seed(7000 + q, trial))
        order = stabilizer_order(ctx, E)
        assert order == len(stabilizer_brute(ctx, E))
        assert order % len(H) == 0


def _subgroup_generators(ctx, rng):
    """Named generator lists: unipotent, torus, Borel, subfield SL2 for
    each proper subfield, the whole group, and two random lists."""
    q, p, r = ctx.q, ctx.p, ctx.r
    t = ctx.primitive
    torus = (t, 0, 0, ctx.inv(t))
    basis = [p**i for i in range(r)]  # codes of 1, x, ..., x^(r-1)
    out = {
        "unipotent": [(1, 1, 0, 1)],
        "torus": [torus],
        "borel": [torus, (1, 1, 0, 1)],
        "whole": [(1, b, 0, 1) for b in basis] + [(1, 0, b, 1) for b in basis],
    }
    for r_sub in range(1, r):
        if r % r_sub == 0:
            sub = sorted(subfield_elements(ctx, r_sub))
            out[f"subfield-{r_sub}"] = [(1, b, 0, 1) for b in sub] + [(1, 0, b, 1) for b in sub]
    for k in range(2):
        out[f"random-{k}"] = [
            sl2_unrank(ctx, rng.below(sl2_order(q))) for _ in range(1 + rng.below(2))
        ]
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_subgroup_order_matches_closure(fields, q):
    # |H| by orbit-stabilizer and Schreier generators, against the closure
    ctx = fields[q]
    named = _subgroup_generators(ctx, DetRng(nth_seed(8000, q)))
    for name, gens in named.items():
        order, orbits = subgroup_orbits(ctx, gens)
        H = subgroup_closure(ctx, gens)
        assert order == len(H), name
        for orb in orbits:  # the orbits are H's: invariant, and covering
            rep = min(orb.nonzero_codes, default=0)
            assert orb == PointSet.from_codes(q, {act(ctx, h, rep) for h in H}), name
    assert len(subgroup_closure(ctx, named["whole"])) == sl2_order(q)
    assert len(subgroup_closure(ctx, named["unipotent"])) == ctx.p
    for r_sub in range(1, ctx.r):
        if ctx.r % r_sub == 0:
            sub = ctx.p**r_sub
            assert len(subgroup_closure(ctx, named[f"subfield-{r_sub}"])) == sub**3 - sub


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_fast_equals_brute_on_y_axis(fields, q):
    # every nonempty subset of the nonzero y-axis: the base is (0, y)
    ctx = fields[q]
    for sub in range(1, 1 << (q - 1)):
        E = PointSet.from_codes(q, [y for y in range(1, q) if sub >> (y - 1) & 1])
        assert stabilizer_fast(ctx, E) == stabilizer_brute(ctx, E)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_fast_equals_brute_when_complement_smaller(fields, q):
    ctx = fields[q]
    for trial in range(20):
        rng = DetRng(nth_seed(5000 + q, trial))
        small = PointSet.from_codes(q, rng.sample(q * q, 1 + rng.below(2 * q)))
        E = small.complement()
        if trial % 2:
            E = E.with_origin()
        assert stabilizer_fast(ctx, E) == stabilizer_brute(ctx, E)


@pytest.mark.parametrize("q", [5, 8])
def test_origin_is_ignored(fields, q):
    ctx = fields[q]
    for trial in range(8):
        E = random_subset(q, nth_seed(2000 + q, trial))
        stab = stabilizer_fast(ctx, E)
        assert stab == stabilizer_fast(ctx, E.with_origin())
        assert stab == stabilizer_fast(ctx, E.without_origin())


@pytest.mark.parametrize("q", [3, 7])
def test_degenerate_sets_fixed_by_whole_group(fields, q):
    ctx = fields[q]
    whole = set(sl2_materialize(ctx))
    for E in (PointSet(q), PointSet.from_points(q, [(0, 0)]),
              PointSet.full(q), PointSet.full(q).without_origin()):
        assert stabilizer_brute(ctx, E) == whole
        assert stabilizer_order(ctx, E) == sl2_order(q)
        assert complement_agrees(ctx, E, sl2_order(q))
    # the fast route refuses the empty-away-from-origin cases explicitly
    with pytest.raises(ValueError):
        stabilizer_fast(ctx, PointSet(q))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_origin_line_order(fields, q):
    # a line through the origin is stabilized by exactly q^2 - q elements
    ctx = fields[q]
    for line in proj_lines(ctx):
        from sl2lab.plane import points_on_line
        E = PointSet.from_points(q, points_on_line(ctx, line))
        assert len(stabilizer_fast(ctx, E)) == q * q - q


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_affine_line_order(fields, q):
    # a line missing the origin, e.g. x = 1, has stabilizer order q
    ctx = fields[q]
    E = PointSet.from_points(q, [(1, y) for y in range(q)])
    assert len(stabilizer_fast(ctx, E)) == q


@pytest.mark.parametrize("q,c", [(5, 2), (7, 2), (7, 3), (13, 3)])
def test_axis_subgroup_is_triangular_family(fields, q, c):
    ctx = fields[q]
    S = multiplicative_subgroup(ctx, c)
    E = PointSet.from_points(q, [(0, s) for s in S])
    stab = stabilizer_brute(ctx, E) if q <= 7 else stabilizer_fast(ctx, E)
    family = {(a, 0, t, ctx.inv(a)) for a in S for t in range(q)}
    assert stab == family
    assert len(stab) == q * (q - 1) // c


@pytest.mark.parametrize("p,r,r_sub", [(2, 2, 1), (3, 2, 1)])
def test_subfield_plane_order(p, r, r_sub):
    ctx = make_field(p, r)
    sub = subfield_elements(ctx, r_sub)
    E = PointSet.from_points(ctx.q, [(x, y) for x in sub for y in sub])
    stab = stabilizer_brute(ctx, E)
    s = p**r_sub
    assert len(stab) == s**3 - s
    embedded = {m for m in stab if all(x in sub for x in m)}
    assert len(embedded) == s**3 - s  # the whole stabilizer is the embedded copy


def test_line_partition(fields):
    ctx = fields[5]
    # two full axes minus origin plus one extra point off both
    pts = [(0, y) for y in range(1, 5)] + [(x, 0) for x in range(1, 5)] + [(1, 1)]
    E = PointSet.from_points(5, pts)
    classes = line_partition(ctx, E)
    assert classes == {1: ((1, 1),), 4: ((1, 0), (0, 1))}
    assert 2 not in classes
    rep = report(ctx, E)
    assert rep["lines_meeting"] == 3 and rep["all_classes_small"]
    assert line_partition(ctx, PointSet.full(5)) == {4: tuple(proj_lines(ctx))}
    assert not report(ctx, PointSet.full(5))["all_classes_small"]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_line_set_stabilizer_matches_brute(fields, q):
    from sl2lab.plane import line_apply, line_index

    ctx = fields[q]
    lines = proj_lines(ctx)
    # the per-element filter the bitsets replace: each element's image
    # index of every direction, then every picked direction into the set
    perms = [
        (m, [line_index(ctx, line_apply(ctx, m, ln)) for ln in lines])
        for m in sl2_materialize(ctx)
    ]
    linesets = [lines[:1], lines[:2], lines]
    linesets += itertools.combinations(lines, 3)
    linesets += itertools.combinations(lines, 4)
    for lineset in linesets:
        picked = {line_index(ctx, ln) for ln in lineset}
        want = {m for m, perm in perms if all(perm[i] in picked for i in picked)}
        assert line_set_stabilizer(ctx, lineset) == want
    # known orders: one line q(q-1); the axis pair 2(q-1); all lines everything
    assert len(line_set_stabilizer(ctx, [lines[0]])) == q * (q - 1)
    assert len(line_set_stabilizer(ctx, [(1, 0), (0, 1)])) == 2 * (q - 1)
    assert len(line_set_stabilizer(ctx, lines)) == sl2_order(q)
    with pytest.raises(ValueError):
        line_set_stabilizer(ctx, [])


def test_line_set_stabilizer_validates_and_builds_table_once(monkeypatch):
    real = stabmod.line_apply
    calls = []

    def counted(ctx, m, line):
        calls.append(ctx.q)
        return real(ctx, m, line)

    monkeypatch.setattr(stabmod, "line_apply", counted)
    make_field.cache_clear()
    ctx = make_field(5, 1)  # a fresh context, so no table is memoized yet
    for bad in ([(2, 1)], [(1, 0), (0, 2)], [(1, 5)]):
        with pytest.raises(ValueError):
            line_set_stabilizer(ctx, bad)
    lines = proj_lines(ctx)
    line_set_stabilizer(ctx, lines[:3])
    assert len(calls) == sl2_order(5) * 6
    line_set_stabilizer(ctx, lines[2:])
    line_set_stabilizer(ctx, [lines[0]])
    assert len(calls) == sl2_order(5) * 6
    line_set_stabilizer(make_field(7, 1), [(1, 0)])
    assert len(calls) == sl2_order(5) * 6 + sl2_order(7) * 8


def test_line_set_stabilizer_cap(fields):
    ctx = fields[7]
    lines = proj_lines(ctx)
    for m in (3, 4, 5):
        for lineset in itertools.combinations(lines, m):
            assert len(line_set_stabilizer(ctx, lineset)) <= 2 * m**3 * (m - 1) ** 2


def test_subgroup_closure(fields):
    ctx = fields[5]
    # the two standard unipotents generate the whole group
    whole = subgroup_closure(ctx, [(1, 1, 0, 1), (1, 0, 1, 1)])
    assert len(whole) == sl2_order(5)
    single = subgroup_closure(ctx, [(1, 1, 0, 1)])
    assert single == frozenset((1, b, 0, 1) for b in range(5))
    assert subgroup_closure(ctx, []) == frozenset({IDENTITY})
    with pytest.raises(ValueError):
        subgroup_closure(ctx, [(1, 1, 0, 1), (1, 0, 1, 1)], limit=10)


def test_subgroup_orbits(fields):
    ctx = fields[5]
    order, orbits = subgroup_orbits(ctx, [(1, 1, 0, 1)])
    H = subgroup_closure(ctx, [(1, 1, 0, 1)])
    assert order == len(H) == 5
    covered = 0
    for orb in orbits:
        assert covered & orb.bits == 0
        covered |= orb.bits
        assert len(H) % len(orb) == 0  # orbit sizes divide the group order
    assert covered == (1 << 25) - 1
    assert orbits[0].bits == 1  # origin orbit listed first
    # every orbit is H-invariant
    from sl2lab.plane import apply_to_set
    for orb in orbits:
        for m in H:
            assert apply_to_set(ctx, m, orb) == orb


@pytest.mark.parametrize("q", [2, 3])
def test_all_subset_table_matches_brute(fields, q):
    ctx = fields[q]
    table = all_subset_stabilizer_orders(ctx)
    assert len(table) == 1 << (q * q)
    for bits in range(len(table)):
        assert table[bits] == len(stabilizer_brute(ctx, PointSet(q, bits)))


def test_all_subset_table_gf4_spots(fields):
    ctx = fields[4]
    table = all_subset_stabilizer_orders(ctx)
    assert table[0] == sl2_order(4)
    assert table[(1 << 16) - 1] == sl2_order(4)
    rng = DetRng(77)
    for _ in range(40):
        bits = rng.below(1 << 16)
        assert table[bits] == len(stabilizer_fast(ctx, PointSet(4, bits)))
    # the subfield plane: codes {0,1,4,5} = F_2 x F_2
    assert table[0b0000000000110011] == 6
    with pytest.raises(ValueError):
        all_subset_stabilizer_orders(fields[5])


def test_contained_in_line(fields):
    ctx = fields[5]

    def on_line(points):
        return contained_in_line(ctx, PointSet.from_points(5, points).bits)

    assert on_line([(0, 1), (0, 3)])
    assert on_line([(1, 2), (2, 4), (0, 0)])
    assert on_line([(1, 1)])
    assert on_line([])
    # any pair is collinear; a proper triangle is not
    assert on_line([(1, 0), (0, 1)])
    assert not on_line([(1, 0), (0, 1), (1, 1)])
    # affine line not through the origin still counts as a line
    assert on_line([(1, y) for y in range(5)])
    assert on_line([(1, 0), (0, 1), (2, 4)])  # x + y = 1


def contained_in_line_reference(ctx, E):
    """The cross-product test: every point lies on the line through the first two."""
    pts = [(0, 0)] * (E.bits & 1) + [divmod(c, ctx.q) for c in E.nonzero_codes]
    if len(pts) <= 2:
        return True
    sub, mul = ctx.sub, ctx.mul
    (x0, y0), (x1, y1) = pts[0], pts[1]
    dx, dy = sub(x1, x0), sub(y1, y0)
    return all(sub(mul(sub(x, x0), dy), mul(sub(y, y0), dx)) == 0 for x, y in pts[2:])


def near_line_subset(ctx, seed):
    """A seeded subset that often lies on a line: a few random points, or
    part of the line through two random points plus maybe one stray."""
    q = ctx.q
    rng = DetRng(seed)
    if rng.below(2):
        return PointSet.from_codes(q, rng.sample(q * q, rng.below(q + 3)))
    a, b = rng.sample(q * q, 2)
    line = [c for c in range(q * q)
            if contained_in_line_reference(ctx, PointSet.from_codes(q, [a, b, c]))]
    codes = [c for c in line if rng.below(2)]
    if rng.below(2):
        codes.append(rng.below(q * q))
    return PointSet.from_codes(q, codes)


@pytest.mark.parametrize("q", [2, 3])
def test_contained_in_line_matches_cross_product_exhaustive(fields, q):
    ctx = fields[q]
    for bits in range(1 << (q * q)):
        E = PointSet(q, bits)
        assert contained_in_line(ctx, bits) == contained_in_line_reference(ctx, E)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_contained_in_line_matches_cross_product_random(fields, q):
    ctx = fields[q]
    hits = 0
    for trial in range(500):
        E = near_line_subset(ctx, nth_seed(3000 + q, trial))
        want = contained_in_line_reference(ctx, E)
        assert contained_in_line(ctx, E.bits) == want
        hits += want and E.size > 2
    assert hits >= 50  # the sample tests lines, not only scattered sets


def test_constants_defaults():
    c = Constants()
    assert (c.c1, c.c2, c.alpha, c.beta) == (1.0, 1.0, 0.5, 0.75)


def test_bound_report_subfield_plane(fields):
    ctx = fields[4]
    E = PointSet.from_points(4, [(0, 0), (0, 1), (1, 0), (1, 1)])
    rep = report(ctx, E)
    assert rep["size"] == 4 and rep["size_nonzero"] == 3
    assert rep["stab_order"] == 6
    assert rep["lines_meeting"] == 3
    assert rep["ratio_full"] == pytest.approx(6 / 4**1.5)   # 0.75
    assert rep["ratio_nonzero"] == pytest.approx(6 / 3**1.5)
    assert not rep["two_lines_applicable"]
    assert rep["line_set_applicable"] and rep["line_set_rhs"] == 2 * 27 * 4
    assert rep["prime_power_applicable"] and rep["prime_power_rhs"] == 8.0
    assert rep["prime_power_violated"] is False
    assert rep["whole_plane_violated"] is None
    assert rep["three_halves_violated"] is None
    assert rep["violations"] == ""
    assert not rep["contained_line"]


def test_bound_report_two_lines(fields):
    ctx = fields[5]
    E = PointSet.from_points(5, [(0, 1), (0, 2), (1, 0)])
    rep = report(ctx, E)
    assert rep["lines_meeting"] == 2
    assert rep["two_lines_applicable"]
    assert rep["two_lines_violated"] is False
    assert not rep["line_set_applicable"]
    assert rep["stab_order"] <= rep["size_nonzero"]


@pytest.mark.parametrize("q,key,name", [
    # two lines, 3 nonzero points: two_lines' rhs is 3, prime_power's 2 * 3
    (4, (4, 3, (1, 2), False), "two_lines"),
    # three lines: line_set's cap is 2 * 3^3 * 2^2 = 216, prime_power's
    # rhs 8 * 45
    (16, (300, 45, (15, 15, 15), False), "line_set"),
    # three lines over a prime field: prime_power's rhs is |E| = 3
    (5, (4, 3, (1, 1, 1), False), "prime_power"),
], ids=["two_lines", "line_set", "prime_power"])
def test_bound_report_names_a_violated_bound(fields, q, key, name):
    # an order past one checked bound's right-hand side, and within the
    # others', flags that bound alone
    rep = bound_report(fields[q], key)
    assert rep[f"{name}_applicable"] is True
    assert rep[f"{name}_rhs"] < key[0]
    assert rep[f"{name}_violated"] is True
    assert rep["violations"] == name


def test_bound_report_accepts_precomputed_order(fields):
    ctx = fields[5]
    E = random_subset(5, 9)
    want = len(stabilizer_fast(ctx, E))
    rep = bound_report(ctx, report_key(ctx, E, want))
    assert rep["stab_order"] == want
    assert rep == report(ctx, E)


def check_key_cells(ctx, E):
    """bound_report's cells read off the key against the same quantities
    counted from line_partition's classes."""
    classes = line_partition(ctx, E)
    lines = sum(len(v) for v in classes.values())
    rep = bound_report(ctx, report_key(ctx, E, 1))
    assert rep["size"] == E.size
    assert rep["lines_meeting"] == lines
    assert rep["size_nonzero"] == sum(m * len(v) for m, v in classes.items()) == E.nonzero_size
    assert rep["all_classes_small"] == (lines >= 2 and all(len(v) <= 2 for v in classes.values()))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_bound_report_key_cells_match_line_partition_exhaustive(fields, q):
    ctx = fields[q]
    for bits in range(1 << (q * q)):
        check_key_cells(ctx, PointSet(q, bits))


@pytest.mark.parametrize("q", [5, 7])
def test_bound_report_key_cells_match_line_partition_random(fields, q):
    ctx = fields[q]
    for trial in range(200):
        rng = DetRng(nth_seed(5000 + q, trial))
        # half dense, half a few points, so small classes come up too
        if trial % 2:
            E = PointSet.from_codes(q, rng.sample(q * q, 1 + rng.below(q)))
        else:
            E = PointSet(q, rng.bits(q * q))
        check_key_cells(ctx, E)


def test_bound_report_exhaustive_gf3_no_violations(fields):
    ctx = fields[3]
    table = all_subset_stabilizer_orders(ctx)
    for bits in range(1 << 9):
        rep = bound_report(ctx, report_key(ctx, PointSet(3, bits), table[bits]))
        assert rep["violations"] == ""


def test_confirmation_logic(fields):
    ctx = fields[9]
    # small and line-rich: an origin line is confirmed contained
    from sl2lab.plane import points_on_line
    E = PointSet.from_points(9, points_on_line(ctx, (1, 0)))
    rep = report(ctx, E, Constants(c1=10.0, c2=1.0))
    assert rep["small"] and rep["rich"]
    assert rep["confirmed"] is True
    # scattered set with trivial stabilizer is not rich, so no verdict
    E2 = PointSet.from_points(9, [(1, 2), (2, 5), (3, 1), (0, 4), (7, 7)])
    rep2 = report(ctx, E2, Constants(c1=10.0, c2=1.0))
    assert rep2["confirmed"] is None or rep2["rich"]


GF9_SUBFIELD_AUDIT = dict(
    multiplicity=2, class_count=4, probe_count=2, target_count=4,
    preserver_count=24, mover_count=18, fixer_count=6, transport_total=24,
    fixer_part=8, mover_part=16, incidence_count=16, transport_lines=8,
    plane_max=4, plane_cap=8, lower_bound=0, pair_cap=8, class_cap=32, stab_order=24,
    skew_pairs=4, meeting_pairs=4, parallel_pairs=4, parallel_triples=0,
    final_cap_applies=False, final_cap_holds=True, normalizer=IDENTITY,
)


def test_audit_gf9_subfield_plane(fields):
    ctx = fields[9]
    sub = subfield_elements(ctx, 1)
    E = PointSet.from_points(9, [(x, y) for x in sub for y in sub])
    audit = triple_count_audit(ctx, E, 2)
    for name, want in GF9_SUBFIELD_AUDIT.items():
        assert getattr(audit, name) == want, name
    assert audit.plane_max <= 2 * audit.class_count
    assert audit.preserver_count == audit.mover_count + audit.fixer_count
    assert audit.transport_total == audit.fixer_part + audit.mover_part
    assert audit.mover_part == audit.incidence_count


def test_audit_axis_pair(fields):
    # two axes in GF(7): class of multiplicity 6 has exactly 2 lines
    ctx = fields[7]
    E = PointSet.from_points(7, [(0, y) for y in range(1, 7)]
                             + [(x, 0) for x in range(1, 7)])
    audit = triple_count_audit(ctx, E, 6)
    assert audit.class_count == 2
    assert audit.lower_bound == 0  # m0 - 4 < 0
    assert audit.stab_order <= audit.preserver_count


def test_audit_random_uniform_sets(fields):
    from sl2lab.harness import random_uniform_class_set

    ctx = fields[7]
    for trial in range(10):
        E, m0, m1 = random_uniform_class_set(ctx, nth_seed(7000, trial))
        audit = triple_count_audit(ctx, E, m1)
        assert audit.class_count == m0
        assert audit.multiplicity == m1
        assert audit.plane_max <= 2 * m0
        assert audit.transport_total >= max(0, m0 - 4) * audit.preserver_count
        assert audit.fixer_part <= audit.pair_cap <= audit.class_cap
        assert audit.stab_order == len(stabilizer_brute(ctx, E))


def act_image_preservers(ctx, class_sets):
    """S as the elements whose act images of every class set are again a
    class set: the formula the audit replaces by R(U)."""
    frozen = {frozenset(cs) for cs in class_sets}
    return [
        m
        for m in sl2_materialize(ctx)
        if all(frozenset(act(ctx, m, code) for code in cs) in frozen for cs in class_sets)
    ]


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_audit_preservers_match_act_images(fields, q, monkeypatch):
    from sl2lab.harness import random_uniform_class_set

    ctx = fields[q]
    seen = []
    real = stabmod.stabilizer_brute

    def recorded(ctx, U):
        out = real(ctx, U)
        seen.append((U, out))
        return out

    monkeypatch.setattr(stabmod, "stabilizer_brute", recorded)
    cases = [random_uniform_class_set(ctx, nth_seed(7100 + q, t)) for t in range(40)]
    if q == 9:
        sub = subfield_elements(ctx, 1)
        cases.append((PointSet.from_points(9, [(x, y) for x in sub for y in sub]), 4, 2))
    normalized = 0
    for E, _, m1 in cases:
        audit = triple_count_audit(ctx, E, m1)
        normalized += audit.normalizer != IDENTITY
        [(U, got)] = seen  # S is the audit's one brute-filter call
        seen.clear()
        # the class sets, found again: the points of the normalized E - 0
        # grouped by origin line, on the lines holding m1 of them
        moved = apply_to_set(ctx, audit.normalizer, E.without_origin())
        by_line = {}
        for code in moved.nonzero_codes:
            by_line.setdefault(line_of_point(ctx, divmod(code, q)), []).append(code)
        class_sets = [cs for cs in by_line.values() if len(cs) == m1]
        assert U == PointSet.from_codes(q, [code for cs in class_sets for code in cs])
        assert got == set(act_image_preservers(ctx, class_sets))
        assert len(got) == audit.preserver_count
    assert normalized  # some cases went through normalize_two_lines


def audit_lines_by_probe(ctx, E, audit):
    """The transport lines from each of the audit's probes to its
    targets, found again from its normalizer: the class sets are the
    points of the normalized E - 0 on the lines holding multiplicity of
    them, the probes their smallest points and the targets all their
    points, each off both axes."""
    q = ctx.q
    moved = apply_to_set(ctx, audit.normalizer, E.without_origin())
    by_line = {}
    for code in moved.nonzero_codes:
        by_line.setdefault(line_of_point(ctx, divmod(code, q)), []).append(code)
    class_sets = [cs for cs in by_line.values() if len(cs) == audit.multiplicity]

    def off_axes(code):
        return code // q != 0 and code % q != 0

    probes = [min(cs) for cs in class_sets if off_axes(min(cs))]
    targets = sorted(code for cs in class_sets for code in cs if off_axes(code))
    assert (len(probes), len(targets)) == (audit.probe_count, audit.target_count)
    return [[transport_line(ctx, divmod(u, q), divmod(v, q)) for v in targets] for u in probes]


@pytest.mark.parametrize("q,rows", [(5, 40), (7, 40), (8, 40), (9, 40), (16, 12)])
def test_audit_line_pair_counts_match_oracle(fields, q, rows):
    # the audit reads the four counts off set equalities; the oracle
    # classifies every pair and parallel triple of transport lines
    from sl2lab.harness import random_uniform_class_set

    ctx = fields[q]
    totals = dict.fromkeys(("skew_pairs", "meeting_pairs", "parallel_pairs", "parallel_triples"), 0)
    for t in range(rows):
        E, _, m1 = random_uniform_class_set(ctx, nth_seed(7300 + q, t))
        audit = triple_count_audit(ctx, E, m1)
        want = line_pair_counts(ctx, audit_lines_by_probe(ctx, E, audit))
        assert {name: getattr(audit, name) for name in want} == want, t
        for name, count in want.items():
            totals[name] += count
    assert all(totals.values()), totals  # every kind of pair and triple occurs


def test_audit_rejects_missing_multiplicity(fields):
    ctx = fields[7]
    E = PointSet.from_points(7, [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        triple_count_audit(ctx, E, 3)
