"""Plane layer: SL2 enumeration, the origin-line pencil, point sets."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2lab.gf import make_field
from sl2lab.plane import (
    IDENTITY,
    MATERIALIZE_LIMIT,
    PointSet,
    act,
    apply_to_set,
    is_sl2,
    line_apply,
    line_index,
    line_nonzero_masks,
    line_of_point,
    mat_apply,
    mat_det,
    mat_inv,
    mat_mul,
    normalize_two_lines,
    parse_mat,
    parse_point,
    point_permutation,
    points_on_line,
    proj_lines,
    sl2_elements,
    sl2_materialize,
    sl2_order,
    sl2_unrank,
)
from sl2lab.rng import DetRng
from sl2lab.stabilizer import stabilizer_brute, stabilizer_fast, stabilizer_order


def brute_sl2(ctx):
    q = ctx.q
    out = set()
    for m in itertools.product(range(q), repeat=4):
        if mat_det(ctx, m) == 1:
            out.add(m)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_sl2_order_matches_brute(fields, q):
    assert sl2_order(q) == q**3 - q
    assert len(brute_sl2(fields[q])) == q**3 - q


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_unrank_is_bijection(fields, q):
    ctx = fields[q]
    seen = {sl2_unrank(ctx, i) for i in range(sl2_order(q))}
    assert len(seen) == sl2_order(q)
    assert all(mat_det(ctx, m) == 1 for m in seen)


def test_unrank_agrees_with_iteration(fields):
    ctx = fields[5]
    assert list(sl2_elements(ctx)) == [sl2_unrank(ctx, i) for i in range(sl2_order(5))]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_elements_follow_documented_order(fields, q):
    # a = 0 block keyed by (b, d), then a != 0 keyed by (a, b, c)
    def key(m):
        a, b, c, d = m
        return (0, b, d) if a == 0 else (1, a, b, c)

    ctx = fields[q]
    assert list(sl2_elements(ctx)) == sorted(brute_sl2(ctx), key=key)


def test_unrank_out_of_range(fields):
    with pytest.raises(IndexError):
        sl2_unrank(fields[3], 24)
    with pytest.raises(IndexError):
        sl2_unrank(fields[3], -1)


def test_materialize_equals_brute(fields):
    for q in (2, 3, 4):
        assert set(sl2_materialize(fields[q])) == brute_sl2(fields[q])


def test_materialize_guard_refuses_gf256(monkeypatch):
    # |SL2(256)| = 16,776,960: both calls refuse before enumerating a matrix
    ctx = make_field(2, 8)
    assert sl2_order(ctx.q) > MATERIALIZE_LIMIT
    monkeypatch.setattr("sl2lab.plane.sl2_elements", lambda ctx: pytest.fail("SL2 enumerated"))
    with pytest.raises(ValueError, match="materialization guard"):
        sl2_materialize(ctx)
    with pytest.raises(ValueError, match="materialization guard"):
        stabilizer_brute(ctx, PointSet.from_points(ctx.q, [(1, 0)]))


@given(st.integers(0, 335), st.integers(0, 335), st.integers(0, 335))
@settings(max_examples=60)
def test_group_laws_gf7(i, j, k):
    ctx = make_field(7, 1)
    a, b, c = (sl2_unrank(ctx, x) for x in (i, j, k))
    assert mat_mul(ctx, mat_mul(ctx, a, b), c) == mat_mul(ctx, a, mat_mul(ctx, b, c))
    assert mat_mul(ctx, a, mat_inv(ctx, a)) == IDENTITY
    assert mat_det(ctx, mat_mul(ctx, a, b)) == 1
    assert is_sl2(ctx, a)


@given(st.integers(0, 335), st.integers(0, 335), st.integers(0, 48))
@settings(max_examples=60)
def test_action_is_composition_gf7(i, j, code):
    # Column convention: (mn)(pt) = m(n(pt)).
    ctx = make_field(7, 1)
    m, n = sl2_unrank(ctx, i), sl2_unrank(ctx, j)
    pt = divmod(code, 7)
    assert mat_apply(ctx, mat_mul(ctx, m, n), pt) == mat_apply(ctx, m, mat_apply(ctx, n, pt))


@pytest.mark.parametrize("q", [3, 5, 8])
def test_point_permutation(fields, q):
    ctx = fields[q]
    for i in range(0, sl2_order(q), 7):
        m = sl2_unrank(ctx, i)
        perm = point_permutation(ctx, m)
        assert sorted(perm) == list(range(q * q))
        assert perm[0] == 0  # origin is always fixed
        for code in range(q * q):
            x, y = mat_apply(ctx, m, divmod(code, q))
            assert perm[code] == x * q + y
    mi, mj = sl2_unrank(ctx, 5), sl2_unrank(ctx, 11)
    pi, pj = point_permutation(ctx, mi), point_permutation(ctx, mj)
    pij = point_permutation(ctx, mat_mul(ctx, mi, mj))
    assert pij == [pi[x] for x in pj]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_action_kernel_matches_field_ops(fields, q):
    # independent of the kernel's table indexing: field ops written out
    ctx = fields[q]
    add, mul = ctx.add, ctx.mul
    for m in brute_sl2(ctx):
        a, b, c, d = m
        perm = point_permutation(ctx, m)
        for x in range(q):
            for y in range(q):
                img = (add(mul(a, x), mul(b, y)), add(mul(c, x), mul(d, y)))
                assert mat_apply(ctx, m, (x, y)) == img
                assert act(ctx, m, x * q + y) == perm[x * q + y] == img[0] * q + img[1]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_mat_mul_matches_field_ops(fields, q):
    # mat_mul indexes the mul/add rows; the product written out with
    # ctx.add/ctx.mul is independent of that
    ctx = fields[q]
    add, mul = ctx.add, ctx.mul
    rng = DetRng(q)
    for _ in range(300):
        m = sl2_unrank(ctx, rng.below(sl2_order(q)))
        n = sl2_unrank(ctx, rng.below(sl2_order(q)))
        a, b, c, d = m
        e, f, g, h = n
        want = (add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
                add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))
        assert mat_mul(ctx, m, n) == want


def test_mat_text_roundtrip(fields):
    ctx = fields[9]
    for i in (0, 1, 17, 100, 719):
        m = sl2_unrank(ctx, i)
        assert parse_mat("[{},{};{},{}]".format(*m)) == m
    assert parse_mat("[1,0;1,1]") == (1, 0, 1, 1)
    with pytest.raises(ValueError):
        parse_mat("[1,0,1,1]")


def test_parse_point():
    assert parse_point("(3,4)") == (3, 4)
    assert parse_point(" ( 0 , 1 ) ") == (0, 1)
    with pytest.raises(ValueError):
        parse_point("(1)")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_pencil_partitions_nonzero_points(fields, q):
    ctx = fields[q]
    lines = proj_lines(ctx)
    assert len(lines) == q + 1
    assert len(set(lines)) == q + 1
    masks = line_nonzero_masks(ctx)
    union = 0
    for mask in masks:
        assert bin(mask).count("1") == q - 1
        assert union & mask == 0  # pairwise disjoint
        union |= mask
    assert union == (1 << (q * q)) - 2  # everything except the origin bit


@pytest.mark.parametrize("q", [3, 5, 9])
def test_line_of_point_consistency(fields, q):
    ctx = fields[q]
    for line in proj_lines(ctx):
        assert line_index(ctx, line) == proj_lines(ctx).index(line)
        pts = points_on_line(ctx, line)
        assert len(set(pts)) == q
        assert (0, 0) in pts
        for pt in pts:
            if pt != (0, 0):
                assert line_of_point(ctx, pt) == line
    with pytest.raises(ValueError):
        line_of_point(ctx, (0, 0))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_line_apply_matches_pointwise_image(fields, q):
    ctx = fields[q]
    for i in range(0, sl2_order(q), 5):
        m = sl2_unrank(ctx, i)
        for line in proj_lines(ctx):
            image = line_apply(ctx, m, line)
            got = {mat_apply(ctx, m, pt) for pt in points_on_line(ctx, line)}
            assert got == set(points_on_line(ctx, image))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_normalize_two_lines(fields, q):
    ctx = fields[q]
    lines = proj_lines(ctx)
    for l1, l2 in itertools.permutations(lines, 2):
        g = normalize_two_lines(ctx, l1, l2)
        assert mat_det(ctx, g) == 1
        assert line_apply(ctx, g, l1) == (1, 0)
        assert line_apply(ctx, g, l2) == (0, 1)
    assert normalize_two_lines(ctx, (1, 0), (0, 1)) == IDENTITY
    with pytest.raises(ValueError):
        normalize_two_lines(ctx, (1, 1), (1, 1))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_point_stabilizer(fields, q):
    # R({pt}) is the stabilizer of pt: q elements, a subgroup fixing pt
    ctx = fields[q]
    for code in range(1, q * q):
        pt = divmod(code, q)
        stab = stabilizer_fast(ctx, PointSet.from_points(q, [pt]))
        assert len(stab) == q
        assert all(mat_apply(ctx, m, pt) == pt for m in stab)
        # closure spot-check makes it a subgroup, not just a fixing set
        some = sorted(stab)[:3]
        for a in some:
            for b in some:
                assert mat_mul(ctx, a, b) in stab
    assert stabilizer_order(ctx, PointSet.from_points(q, [(0, 0)])) == sl2_order(q)


def test_point_stabilizer_is_brute_fixer(fields):
    ctx = fields[5]
    for pt in [(1, 0), (0, 1), (2, 3)]:
        brute = {m for m in sl2_materialize(ctx) if mat_apply(ctx, m, pt) == pt}
        assert stabilizer_fast(ctx, PointSet.from_points(5, [pt])) == brute


def test_pointset_basics():
    ps = PointSet.from_points(5, [(0, 0), (1, 2), (4, 4)])
    assert len(ps) == 3
    assert 1 * 5 + 2 in ps and 2 * 5 + 1 not in ps
    assert 4 * 5 + 4 in ps
    assert ps.bits & 1 and [divmod(c, 5) for c in ps.nonzero_codes] == [(1, 2), (4, 4)]
    assert PointSet.from_codes(5, [0, *ps.nonzero_codes]) == ps
    assert ps.nonzero_size == 2
    assert sorted(ps.nonzero_codes) == sorted(
        x * 5 + y for x, y in [(1, 2), (4, 4)])


def test_pointset_origin_and_complement():
    ps = PointSet.from_points(3, [(1, 1), (2, 0)])
    assert 0 in ps.with_origin()
    assert ps.with_origin().without_origin() == ps
    comp = ps.complement()
    assert len(comp) == 9 - 2
    assert comp.union(ps) == PointSet.full(3)
    assert PointSet.full(3).nonzero_size == 8


def test_pointset_text():
    ps = PointSet.from_points(4, [(1, 0), (0, 1), (1, 1), (0, 0)])
    assert ps.text() == "points:(0,0);(0,1);(1,0);(1,1)"
    assert PointSet(4).text() == "points:"


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 11, 13, 16, 256])
def test_pointset_text_matches_formula(q):
    n = q * q
    rng = DetRng(q)
    if q == 256:
        # 65,536 points: sparse sets reaching the last byte, since the
        # whole plane would build a literal table for every byte
        masks = [1 << (n - 1), 0xFF << (n - 8)]
        masks += [rng.bits(8) << (n - 8) | rng.bits(16) for _ in range(50)]
    else:
        masks = range(1 << n) if n <= 9 else [0, (1 << n) - 1, *(rng.bits(n) for _ in range(300))]
    for bits in masks:
        ps = PointSet(q, bits)
        pts = [(0, 0)] * (bits & 1) + [divmod(c, q) for c in ps.nonzero_codes]
        assert ps.text() == "points:" + ";".join(f"({x},{y})" for x, y in pts)


def test_pointset_dedup_and_range_check():
    assert len(PointSet.from_points(3, [(1, 1), (1, 1)])) == 1
    with pytest.raises(ValueError):
        PointSet.from_points(3, [(3, 0)])


@pytest.mark.parametrize("q", [4, 7])
def test_apply_to_set(fields, q):
    ctx = fields[q]
    ps = PointSet.from_codes(q, range(0, q * q, 3))
    for i in range(0, sl2_order(q), 11):
        m = sl2_unrank(ctx, i)
        image = apply_to_set(ctx, m, ps)
        assert len(image) == len(ps)
        perm = point_permutation(ctx, m)
        assert 0 in image and 0 in ps
        assert image.without_origin() == PointSet.from_codes(q, [perm[c] for c in ps.nonzero_codes])
    assert apply_to_set(ctx, IDENTITY, ps) == ps
