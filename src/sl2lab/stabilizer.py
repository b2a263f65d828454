"""Computing which SL2(F_q) elements preserve a plane point set.

The symmetry set of E is R(E) = {theta : theta(E) = E}; it is always a
subgroup, it ignores the origin (linear maps fix it), and it equals the
symmetry set of the complement.  Two independent routes compute it:

  * stabilizer_brute filters the whole group, testing theta(E) = E
    point by point.  Trustworthy and slow; this is the oracle.
  * the transport route works from group structure.  It takes the side,
    E minus 0 or its complement minus 0, with fewer points, and a base
    point in that side's multiplicity class with the fewest points
    (theta permutes origin lines and keeps |L ∩ E|, so the base can
    only go to points of its class).  The q elements carrying base to
    a point dst form a line, theta_b = F_dst (1 b; 0 1) F_base^-1 =
    M0 + b*M1 for b in the field, with F_x a frame carrying e1 = (1, 0)
    to x (plane._frame; the audit's transport lines are this coset's
    projections).  All q are tested only for the base itself, which
    gives Stab_R(base) as the b that pass, a span of b under field
    addition.  The orbit R * base is closed by a BFS on points under the
    elements accepted so far, and only a point of the class it has not
    reached is tested, so by orbit-stabilizer |R(E)| = |R * base| *
    |Stab_R(base)| comes from points alone.  The route returns that
    order and the elements it accepted, which generate R(E):
    stabilizer_order reports the order, and a check that holds on the
    generators holds on R(E), so no caller builds R(E) as a set.

Both keep a candidate by the same test (_maps_into: theta sends the
side's points into the side); they stay independent through where their
candidates come from.  _maps_into is the point-filter kernel: act's
formula inline off the field's mul and add rows, with membership read
from a bytearray that each route call builds once (_filter_side).
_transport_candidates builds the q transporters M0 + b*M1 off the same rows.
The two routes must agree exactly; the test suite holds them together,
through stabilizer_fast (the subgroup the route's generators generate,
of the route's order; kept for the tests), on every subset of small
planes, on random subsets and on orbit unions of random subgroups of
larger ones.  complement_agrees runs the transport route on the side
stabilizer_order did not use, which keeps family-verify's complement
check a comparison of two computations.

The rest of the module turns theorems about R(E) into checkable
reports: line partitions, the exact stabilizer of a set of directions,
orbit decompositions and orders of a generated subgroup (again by
orbit-stabilizer, with Schreier generators for the point stabilizer),
per-set bound reports, and the triple-count audit that replays the
incidence-geometry argument behind the |R(E)| <= 16 c^2 (m0 m1)^{3/2}
cap, identity by identity.  bound_report reads a set only through
report_key, the key campaigns memoize the report on.  This module names
the columns of both reports: bound_report returns its cells as a dict
keyed by REPORT_COLUMNS, in that order, and TripleCountAudit holds its
cells as fields in the order of AUDIT_COLUMNS; campaigns build their
headers from those names.  The line-set stabilizer intersects bitsets
over the group, one per (direction, image direction) pair, built once
per field from the action on directions.  The audit's group S of
class-set permuters is R(U) for the union U of the class sets, found by
stabilizer_brute, so it shares no candidates with the transport route
it checks.  It classifies its transport lines by set equalities on the
points and plane keys that count_incidences and plane_richness keep per
line, not by visiting pairs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import NamedTuple

from .gf import FieldCtx
from .incidence3d import (
    count_incidences,
    plane_richness,
    planes_of,
    points_of,
    project_matrix,
    transport_line,
)
from .plane import (
    IDENTITY,
    PointSet,
    _frame,
    act,
    affine_line_mask,
    apply_to_set,
    is_sl2,
    line_apply,
    line_index,
    line_nonzero_masks,
    mat_inv,
    mat_mul,
    normalize_two_lines,
    point_permutation,
    proj_lines,
    sl2_materialize,
    sl2_order,
)
from .rng import DetRng


def _group_spot_check(ctx: FieldCtx, mats: set, samples: int = 64) -> None:
    """Cheap group-property asserts: identity, inverses, sampled products."""
    assert IDENTITY in mats
    for m in mats:
        assert mat_inv(ctx, m) in mats
    if len(mats) > 1:
        rng = DetRng(len(mats))
        pool = sorted(mats)
        for _ in range(min(samples, len(mats) * 2)):
            a = pool[rng.below(len(pool))]
            b = pool[rng.below(len(pool))]
            assert mat_mul(ctx, a, b) in mats


def _filter_side(q: int, bits: int) -> tuple:
    """(pts, member) for _maps_into: the nonzero points of the bitset
    bits as (x, y) pairs, ascending by packed code, and a bytearray over
    packed codes holding 1 at each of them.  Built once per route call,
    so no candidate copies the bitset."""
    codes = PointSet(q, bits & ~1).nonzero_codes
    member = bytearray(q * q)
    for code in codes:
        member[code] = 1
    return [divmod(code, q) for code in codes], member


def _maps_into(ctx: FieldCtx, m, pts, member) -> bool:
    """Whether m sends every point of pts to a code marked in member.

    With (pts, member) = _filter_side(q, E.bits) this is theta(E) = E,
    since theta is a bijection fixing the origin; both routes filter
    their candidates with it.  This is the point-filter kernel: it reads
    the mul rows of a, b, c, d once and computes act's formula inline
    for each point.
    """
    add, mul, q = ctx.add_rows, ctx.mul_rows, ctx.q
    a, b, c, d = m
    ra, rb, rc, rd = mul[a], mul[b], mul[c], mul[d]
    for x, y in pts:
        if not member[add[ra[x]][rb[y]] * q + add[rc[x]][rd[y]]]:
            return False
    return True


def stabilizer_brute(ctx: FieldCtx, E: PointSet) -> set:
    """R(E) by filtering every group element (the oracle route)."""
    pts, member = _filter_side(ctx.q, E.bits)
    out = {m for m in sl2_materialize(ctx) if _maps_into(ctx, m, pts, member)}
    _group_spot_check(ctx, out)
    return out


def _transport_candidates(ctx: FieldCtx, src, dst) -> list:
    """The q solutions of theta(src) = dst, for nonzero src and dst, in
    ascending b: theta_b = F_dst (1 b; 0 1) F_src^-1 = M0 + b*M1.

    F_x is _frame's matrix for x (first column x), and (1 b; 0 1) runs
    over U, the stabilizer of e1, so these are the coset of U carrying
    src to dst.  M0 = F_dst F_src^-1 and M1 = dst (-v1, u1) for src =
    (u1, v1), (-v1, u1) being F_src^-1's second row.  Each entry is one
    add row indexed by one mul row, as in the kernel.
    """
    add, mul, inv = ctx.add_rows, ctx.mul_rows, ctx.inv
    (u1, v1), (u2, v2) = src, dst
    # F_src^-1 = (t1 n1; -v1 u1) and F_dst = (u2 s2; v2 t2), each frame in
    # its two cases; rn and ru are the rows of F_src^-1's second row
    t1, n1 = (inv(u1), 0) if u1 else (0, inv(v1))
    s2, t2 = (0, inv(u2)) if u2 else (ctx.neg_table[inv(v2)], 0)
    rn, ru, ru2, rv2 = mul[ctx.neg_table[v1]], mul[u1], mul[u2], mul[v2]
    # M0's entries as add rows, M1's as mul rows
    a0, b0 = add[add[ru2[t1]][rn[s2]]], add[add[ru2[n1]][ru[s2]]]
    c0, d0 = add[add[rv2[t1]][rn[t2]]], add[add[rv2[n1]][ru[t2]]]
    a1, b1, c1, d1 = mul[rn[u2]], mul[ru[u2]], mul[rn[v2]], mul[ru[v2]]
    out = []  # a loop, not a comprehension, keeps the rows plain locals
    for b in range(ctx.q):
        out.append((a0[a1[b]], b0[b1[b]], c0[c1[b]], d0[d1[b]]))
    return out


def _grow_span(span: set, row, p: int) -> None:
    """Close span, a subgroup of the field's additive group, under one
    more element t, where row is t's add row.

    The enlarged group is the p translates of span by 0, t, ..., (p-1)t.
    """
    layer = span
    for _ in range(p - 1):
        layer = {row[x] for x in layer}
        span |= layer


def _transport_route(ctx: FieldCtx, bits: int) -> tuple:
    """(|R|, generators of R) for R the symmetry set of the points in
    bits, a nonempty bitset without the origin bit.

    It works on bits as given and never switches sides.  The base is
    the lowest point of the multiplicity class with the fewest points
    (ties to the smaller multiplicity): theta maps origin lines to
    origin lines and keeps |L ∩ E|, so it can only carry the base
    within that class.  Stab_R(base) is the q candidates fixing the
    base, filtered.  They are I + b*N with N^2 = 0 (M0 = I in
    _transport_candidates), so they multiply by adding b: the b that
    pass are an additive subgroup of the field, whose span the route
    grows by field additions, accepting one candidate per new
    dimension as a generator.  The orbit R * base grows by a BFS on
    points under the accepted elements (those generators of
    Stab_R(base) and every transporter accepted so far); a point of the
    class the BFS has not reached is tested directly, and its first
    passing candidate is accepted.  So |R| = |orbit| * |Stab_R(base)|,
    and the accepted elements, in that order, generate R.
    """
    q = ctx.q
    pts, member = _filter_side(q, bits)
    by_mult: dict = {}
    for mask in line_nonzero_masks(ctx):
        hit = bits & mask
        if hit:
            k = hit.bit_count()
            by_mult[k] = by_mult.get(k, 0) | hit
    rare = min(by_mult.items(), key=lambda kv: (kv[1].bit_count(), kv[0]))[1]
    dsts = PointSet(q, rare).nonzero_codes
    base = divmod(dsts[0], q)
    cands = _transport_candidates(ctx, base, base)
    kept = [b for b, m in enumerate(cands) if _maps_into(ctx, m, pts, member)]
    orbit = {dsts[0]}
    gens = []

    def accept(g):
        # g on every known point, then every generator on each new one
        gens.append(g)
        new = list({act(ctx, g, pt) for pt in orbit} - orbit)
        orbit.update(new)
        while new:
            pt = new.pop()
            for x in gens:
                to = act(ctx, x, pt)
                if to not in orbit:
                    orbit.add(to)
                    new.append(to)

    spanned = {0}
    for b in kept:
        if b not in spanned:
            _grow_span(spanned, ctx.add_rows[b], ctx.p)
            accept(cands[b])
    for dst in dsts[1:]:
        if dst in orbit:
            continue
        for g in _transport_candidates(ctx, base, divmod(dst, q)):
            if _maps_into(ctx, g, pts, member):
                accept(g)
                break
    return len(orbit) * len(kept), gens


def _sides(ctx: FieldCtx, E: PointSet) -> tuple:
    """(used, other): the nonzero bitsets of E and of its complement.

    The transport route works on `used`, the side with fewer points; it
    is E's side on a tie and whenever the complement has no nonzero
    point.
    """
    mine = E.bits & ~1
    theirs = ((1 << (ctx.q * ctx.q)) - 2) ^ mine
    if theirs and theirs.bit_count() < mine.bit_count():
        return theirs, mine
    return mine, theirs


def stabilizer_fast(ctx: FieldCtx, E: PointSet) -> set:
    """R(E) as a set: the subgroup the transport route's generators
    generate, on the smaller of E and its complement, asserted to have
    the route's order.  A test oracle; campaigns need only
    stabilizer_order.

    Raises ValueError when E minus the origin is empty (the answer
    would be the whole group).
    """
    if not E.nonzero_size:
        raise ValueError("E minus the origin is empty; its symmetry set is all of SL2")
    order, gens = _transport_route(ctx, _sides(ctx, E)[0])
    found = set(subgroup_closure(ctx, gens))
    assert len(found) == order, "the accepted elements must generate a group of the route's order"
    return found


def stabilizer_order(ctx: FieldCtx, E: PointSet) -> int:
    """|R(E)| = |orbit of the base| * |Stab_R(base)|, building no element
    set; a set that is the whole group's (E minus 0 or its complement
    minus 0 empty) reads q^3 - q without building SL2."""
    full = sl2_order(ctx.q)
    if E.nonzero_size in (0, ctx.q * ctx.q - 1):
        return full
    order = _transport_route(ctx, _sides(ctx, E)[0])[0]
    assert full % order == 0, f"|R| = {order} does not divide |SL2| = {full}"
    return order


def complement_agrees(ctx: FieldCtx, E: PointSet, order: int) -> bool:
    """Whether the transport route on the side stabilizer_order did not
    use finds a group of the given order whose generators all keep the
    used side.

    Those generators put R(other side) inside R(E), and equal orders
    make the two equal.  Where the other side has no nonzero point its
    symmetry set is the whole group, q^3 - q.
    """
    used, other = _sides(ctx, E)
    if not other:
        return order == sl2_order(ctx.q)
    other_order, gens = _transport_route(ctx, other)
    if other_order != order:
        return False
    pts, member = _filter_side(ctx.q, used)
    return all(_maps_into(ctx, g, pts, member) for g in gens)


# ---------------------------------------------------------------------------
# Line partitions


def line_counts(ctx: FieldCtx, bits: int) -> list:
    """|L ∩ (E - 0)| for every origin line L, in pencil order."""
    return [(bits & mask).bit_count() for mask in line_nonzero_masks(ctx)]


def line_partition(ctx: FieldCtx, E: PointSet) -> dict:
    """Directions through the origin grouped by |L ∩ (E - 0)|: each
    multiplicity >= 1, ascending, maps to the tuple of canonical
    directions meeting E - 0 that many times, in pencil order; lines
    missing E entirely are not recorded."""
    by_mult: dict = {}
    covered = 0
    for line, m in zip(proj_lines(ctx), line_counts(ctx, E.bits)):
        if m:
            by_mult.setdefault(m, []).append(line)
            covered += m
    assert covered == E.nonzero_size, "pencil must partition the nonzero points"
    return {k: tuple(by_mult[k]) for k in sorted(by_mult)}


def _line_action(ctx: FieldCtx) -> tuple:
    """(mats, hits): the group elements in sl2_materialize order, and
    hits[i][j], the bitset over their positions of the elements carrying
    direction i to direction j.

    Built with line_apply, the action on directions, so the line-set
    route shares nothing with the point-set routes; line_set_stabilizer
    memoizes it, so it is built once per field.
    """
    lines = proj_lines(ctx)
    mats = sl2_materialize(ctx)
    size = (len(mats) + 7) // 8
    rows = [[bytearray(size) for _ in lines] for _ in lines]
    for pos, m in enumerate(mats):
        byte, bit = pos >> 3, 1 << (pos & 7)
        for i, ln in enumerate(lines):
            rows[i][line_index(ctx, line_apply(ctx, m, ln))][byte] |= bit
    hits = tuple(tuple(int.from_bytes(b, "little") for b in row) for row in rows)
    return mats, hits


def line_set_stabilizer(ctx: FieldCtx, lines) -> set:
    """All theta permuting the given set of directions among themselves.

    Exact filter over the group's cached action on directions: theta
    qualifies when it carries each picked direction i into the set, so
    the answer is the AND over i of the OR over picked j of hits[i][j].
    For three or more lines the result is asserted against the
    2 m^3 (m-1)^2 cap, which holds for every set of directions.
    """
    lineset = frozenset(lines)
    if not lineset:
        raise ValueError("need at least one line")
    picked = [line_index(ctx, ln) for ln in lineset]  # validates canonical form
    mats, hits = ctx.memo("line_action", _line_action, ctx)
    keep = (1 << len(mats)) - 1
    for i in picked:
        row = hits[i]
        into = 0
        for j in picked:
            into |= row[j]
        keep &= into
    out = set()
    while keep:
        low = keep & -keep
        out.add(mats[low.bit_length() - 1])
        keep ^= low
    count = len(lineset)
    if count >= 3:
        assert len(out) <= 2 * count**3 * (count - 1) ** 2
    _group_spot_check(ctx, out)
    return out


# ---------------------------------------------------------------------------
# Subgroups and orbits


def subgroup_closure(ctx: FieldCtx, generators, limit: int = 1_000_000) -> frozenset:
    """The subgroup generated by the given matrices (BFS under products)."""
    for g in generators:
        if not is_sl2(ctx, g):
            raise ValueError(f"{g} is not in SL2")
    seen = {IDENTITY}
    frontier = [IDENTITY]
    gens = list(generators)
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = mat_mul(ctx, h, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        if len(seen) > limit:
            raise ValueError(f"subgroup closure exceeded {limit} elements")
        frontier = nxt
    return frozenset(seen)


def subgroup_orbits(ctx: FieldCtx, generators) -> tuple:
    """(|H|, orbits) for the subgroup H the given matrices generate,
    without building H.

    Orbits come from a BFS on points under the generators, ordered by
    smallest packed code, each as a PointSet.  For a nonzero orbit the
    BFS keeps a frame u_x carrying e1 = (1, 0) to each point x, starting
    from _frame(rep) at the orbit's smallest point rep.  By Schreier's
    lemma the stabilizer of e1 in the conjugate u_rep^-1 H u_rep is
    generated by the elements u_{gx}^-1 g u_x, which are unipotent
    (1 b; 0 1); it has as many elements as the F_p-span of their b.
    So |H| = |orbit| * |span| by orbit-stabilizer, and every nonzero
    orbit must give the same |H|.
    """
    q = ctx.q
    gens = list(generators)
    for g in gens:
        if not is_sl2(ctx, g):
            raise ValueError(f"{g} is not in SL2")
    seen = [False] * (q * q)
    seen[0] = True
    orbits = [PointSet(q, 1)]  # linear maps fix the origin
    orders = set()
    for start in range(1, q * q):
        if seen[start]:
            continue
        seen[start] = True
        frames = {start: _frame(ctx, start)}
        span = {0}
        stack = [start]
        while stack:
            ux = frames[stack.pop()]
            for g in gens:
                gu = mat_mul(ctx, g, ux)
                to = gu[0] * q + gu[2]  # gu carries e1 to g(x)
                if to not in frames:
                    seen[to] = True
                    frames[to] = gu
                    stack.append(to)
                elif len(span) < q:
                    s = mat_mul(ctx, mat_inv(ctx, frames[to]), gu)
                    assert (s[0], s[2], s[3]) == (1, 0, 1), "Schreier generator must fix e1"
                    if s[1] not in span:
                        _grow_span(span, ctx.add_rows[s[1]], ctx.p)
        orbits.append(PointSet.from_codes(q, frames))
        orders.add(len(frames) * len(span))
    assert len(orders) == 1, f"orbits give different subgroup orders {sorted(orders)}"
    assert sum(len(o) for o in orbits) == q * q
    return orders.pop(), orbits


# ---------------------------------------------------------------------------
# Whole-plane subset sweeps


def all_subset_stabilizer_orders(ctx: FieldCtx) -> list:
    """|R(E)| for every subset of the plane at once (q <= 4 only).

    For each group element the fixed subsets are exactly the unions of
    cycles of its point permutation, so one pass over the group fills
    the whole 2^(q^2) table; this is what makes exhaustive campaigns
    instant compared to per-subset filtering.
    """
    q = ctx.q
    n = q * q
    if n > 16:
        raise ValueError("exhaustive subset table needs q <= 4")
    counts = [0] * (1 << n)
    for m in sl2_materialize(ctx):
        perm = point_permutation(ctx, m)
        seen = [False] * n
        masks = [0]
        for s in range(n):
            if not seen[s]:
                cyc = 0
                t = s
                while not seen[t]:
                    seen[t] = True
                    cyc |= 1 << t
                    t = perm[t]
                masks += [mk | cyc for mk in masks]
        for mk in masks:
            counts[mk] += 1
    return counts


def contained_in_line(ctx: FieldCtx, bits: int) -> bool:
    """Whether the bitset's points lie on one line (affine lines count).

    The line through its two lowest points is memoized per point pair,
    in a dict fetched once per call.
    """
    if bits.bit_count() <= 2:
        return True
    a = (bits & -bits).bit_length() - 1
    rest = bits & (bits - 1)
    b = (rest & -rest).bit_length() - 1
    lines = ctx.memo("pair_lines", dict)
    mask = lines.get((a, b))
    if mask is None:
        mask = lines[a, b] = affine_line_mask(ctx, a, b)
    return bits & ~mask == 0


# ---------------------------------------------------------------------------
# Bound reports


class Constants(NamedTuple):
    """Tunable constants for report columns: c1/alpha and c2/beta are
    the thresholds |E| <= c1 q^alpha and |R(E)| >= c2 q^beta of the
    containment criterion (beta = 3 alpha / 2 is the interesting edge,
    so the defaults sit at alpha = 1/2, beta = 3/4).  A value type, so
    campaigns key their report memos on it.
    """

    c1: float = 1.0
    c2: float = 1.0
    alpha: float = 0.5
    beta: float = 0.75


# The bounds bound_report checks, and the keys of its dict in column
# order: the set's cells, four cells per bound, then the violated bounds.
BOUNDS = ("two_lines", "line_set", "prime_power", "whole_plane", "three_halves")
REPORT_COLUMNS = (
    "size",
    "size_nonzero",
    "lines_meeting",
    "stab_order",
    "ratio_full",
    "ratio_nonzero",
    "contained_line",
    "all_classes_small",
    "small",
    "rich",
    "confirmed",
    *(f"{name}_{part}" for name in BOUNDS for part in ("applicable", "rhs", "ratio", "violated")),
    "violations",
)


def report_key(ctx: FieldCtx, E: PointSet, stab_order: int) -> tuple:
    """(|R(E)|, |E|, the sorted |L ∩ (E - 0)| of the origin lines L meeting
    E, whether E lies on a line): every bound the report checks sees E
    only through how it meets the pencil of origin lines."""
    mults = tuple(sorted(m for m in line_counts(ctx, E.bits) if m))
    return stab_order, E.size, mults, contained_in_line(ctx, E.bits)


def bound_report(ctx: FieldCtx, key: tuple, constants: Constants = Constants()) -> dict:
    """Compare |R(E)| against every bound with checkable hypotheses, for
    the set E with this report_key.

    Returns the report's cells, keyed by REPORT_COLUMNS in that order,
    floats unrounded.  A bound's violated cell is None when the bound is
    not applicable or only reports a ratio (its constant is unspecified);
    violations joins the names of the violated bounds with ";".
    Cardinalities: size counts the origin when present, while every line
    hypothesis and the two-line bound use E minus the origin, whose size
    is the sum of the multiplicities.
    """
    q = ctx.q
    stab_order, size, mults, contained = key
    lines = len(mults)
    size_nz = sum(mults)
    c = constants
    small = size <= c.c1 * q**c.alpha
    rich = stab_order >= c.c2 * q**c.beta

    cells = {
        "size": size,
        "size_nonzero": size_nz,
        "lines_meeting": lines,
        "stab_order": stab_order,
        "ratio_full": stab_order / size**1.5 if size else None,
        "ratio_nonzero": stab_order / size_nz**1.5 if size_nz else None,
        "contained_line": contained,
        # no multiplicity class holds three lines: with mults sorted, no
        # multiplicity recurs two places on
        "all_classes_small": lines >= 2 and all(a != b for a, b in zip(mults, mults[2:])),
        "small": small,
        "rich": rich,
        "confirmed": contained if (small and rich) else None,
    }
    bad = []

    def add(name, applicable, rhs, check):
        violated = (not check()) if (applicable and check is not None) else None
        cells[f"{name}_applicable"] = applicable
        cells[f"{name}_rhs"] = rhs
        cells[f"{name}_ratio"] = (stab_order / rhs) if rhs > 0 else None
        cells[f"{name}_violated"] = violated
        if violated:
            bad.append(name)

    add("two_lines", lines == 2, float(size_nz), lambda: stab_order <= size_nz)
    cap = 2 * lines**3 * (lines - 1) ** 2
    add("line_set", lines >= 3, float(cap), lambda: stab_order <= cap)
    whole = q * q
    proper = 0 < size_nz < whole - 1
    pp_rhs = ctx.p ** (ctx.r - 1) * size
    add("prime_power", lines >= 2 and proper, float(pp_rhs), lambda: stab_order <= pp_rhs)
    add("whole_plane", proper, float(whole), None)
    add("three_halves", lines >= 2, size**1.5, None)
    cells["violations"] = ";".join(bad)
    return cells


# ---------------------------------------------------------------------------
# The triple-count audit


class TripleCountAudit(NamedTuple):
    """Every quantity of the triple-count argument for one (E, class).

    The argument bounds the set S of group elements permuting the
    chosen class sets among themselves (R(E) is contained in S).  It
    counts transports (probe, target, theta) with theta(probe) =
    target: at least (class_count - 4) |S| of them exist, the part from
    x-axis-fixing elements is at most probe_count * target_count, and
    the moving part equals an exact point-line incidence count in
    3-space, where no plane holds more than plane_cap = 2 * class_count
    of the transport lines.  All of those identities are asserted, so an
    audit that returns is an audit that passed.

    The fields up to final_cap_holds are the audit's report columns, in
    column order (AUDIT_COLUMNS); the last, normalizer, records the
    coordinates the audit worked in.
    """

    multiplicity: int
    class_count: int
    probe_count: int
    target_count: int
    preserver_count: int
    mover_count: int
    fixer_count: int
    transport_total: int
    lower_bound: int
    fixer_part: int
    mover_part: int
    incidence_count: int
    transport_lines: int
    pair_cap: int
    class_cap: int
    plane_max: int
    plane_cap: int
    skew_pairs: int
    meeting_pairs: int
    parallel_pairs: int
    parallel_triples: int
    stab_order: int
    mt_rhs: float
    final_cap_value: float
    final_cap_applies: bool
    final_cap_holds: bool
    normalizer: tuple


AUDIT_COLUMNS = TripleCountAudit._fields[:-1]


def triple_count_audit(
    ctx: FieldCtx, E: PointSet, multiplicity: int, c: float = 1.0
) -> TripleCountAudit:
    """Replay the triple-count argument on E's class of the given
    multiplicity and assert every step.

    Coordinates are first normalized so two class lines become the axes
    (mirroring the argument's normalization) whenever the class has two
    or more lines and neither axis already belongs to it; the audited
    quantities are conjugation-invariant, so this only fixes which
    points get excluded as axis points.
    """
    q = ctx.q
    E = E.without_origin()
    classes = line_partition(ctx, E)
    if multiplicity not in classes:
        raise ValueError(f"no line meets E - 0 in exactly {multiplicity} points")
    lines = classes[multiplicity]
    m0 = len(lines)

    axes = ((1, 0), (0, 1))
    normalizer = IDENTITY
    if m0 >= 2 and not any(ln in axes for ln in lines):
        normalizer = normalize_two_lines(ctx, lines[0], lines[1])
        E = apply_to_set(ctx, normalizer, E)
        lines = line_partition(ctx, E)[multiplicity]
        assert len(lines) == m0, "normalization must preserve multiplicities"

    masks = line_nonzero_masks(ctx)
    class_sets = []
    union = 0
    for ln in lines:
        cs = PointSet(q, E.bits & masks[line_index(ctx, ln)])
        class_sets.append(cs.nonzero_codes)
        union |= cs.bits

    # Each class set is U ∩ L for its class line L, U their union, and
    # theta permutes origin lines, so theta permutes the class sets
    # exactly when theta(U) = U: S is R(U), from the brute filter over
    # the whole group, never from the transport route the audit checks.
    preservers = stabilizer_brute(ctx, PointSet(q, union))
    movers = [m for m in preservers if m[2] != 0]  # these move the x-axis
    fixers = [m for m in preservers if m[2] == 0]

    def off_axes(code):
        x, y = divmod(code, q)
        return x != 0 and y != 0

    base_codes = tuple(min(cs) for cs in class_sets)
    probes = [code for code in base_codes if off_axes(code)]
    targets = sorted(code for cs in class_sets for code in cs if off_axes(code))
    target_set = set(targets)

    transport_total = 0
    fixer_part = 0
    for m in preservers:
        for code in probes:
            if act(ctx, m, code) in target_set:
                transport_total += 1
                if m[2] == 0:
                    fixer_part += 1
    mover_part = transport_total - fixer_part

    lower = max(0, m0 - 4) * len(preservers)
    assert transport_total >= lower, "transport lower bound failed"
    pair_cap = len(probes) * len(targets)
    class_cap = m0 * m0 * multiplicity
    assert fixer_part <= pair_cap <= class_cap, "fixer-part cap failed"

    by_pair = {
        (u, v): transport_line(ctx, divmod(u, q), divmod(v, q))
        for u in probes
        for v in targets
    }
    lines3 = set(by_pair.values())
    assert len(lines3) == pair_cap, "transport lines must be pairwise distinct"
    proj = {project_matrix(m) for m in movers}
    assert len(proj) == len(movers), "projection must be injective off c = 0"
    inc = count_incidences(ctx, proj, lines3)
    assert inc == mover_part, "mover part must equal the incidence count"

    plane_max = plane_richness(ctx, lines3)
    plane_cap = 2 * m0
    assert plane_max <= plane_cap, "plane richness cap failed"

    # How the transport lines from one probe meet, read off the points
    # and plane keys count_incidences and plane_richness keep per line:
    # targets on one origin line give parallel lines, and no three of
    # those lie in a plane; targets on distinct origin lines give skew
    # lines UNLESS they share their second coordinate, in which case both
    # lines pass through the one projected point that forgets the
    # upper-right entry of an axis-fixing transporter.  That exception
    # is real (not an artifact), so it is asserted too.  Off-axis targets
    # with one second coordinate lie on distinct origin lines.
    target_classes = {frozenset(filter(off_axes, cs)) for cs in class_sets} - {frozenset()}
    # targets ascend, so each pair here and in meeting is (smaller, larger)
    same_y = {(v, w) for v, w in itertools.combinations(targets, 2) if v % q == w % q}
    for u in probes:
        by_dir: dict = {}
        by_point: dict = {}
        for v in targets:
            ln = by_pair[(u, v)]
            by_dir.setdefault(ln.dir, []).append(v)
            for pt in points_of(ctx, ln):
                by_point.setdefault(pt, []).append(v)
        assert {frozenset(vs) for vs in by_dir.values()} == target_classes, (
            "transport lines must be parallel exactly for targets on one origin line"
        )
        meeting = {pair for vs in by_point.values() for pair in itertools.combinations(vs, 2)}
        assert meeting == same_y, (
            "transport lines must meet exactly for targets with one second coordinate"
        )
        for vs in by_dir.values():
            keys = Counter(k for v in vs for k in planes_of(ctx, by_pair[(u, v)]))
            assert max(keys.values()) <= 2, "three parallel transport lines lie in a plane"
    # Two distinct lines are parallel, meeting or skew
    sizes = [len(vs) for vs in target_classes]
    parallel_pairs = len(probes) * sum(math.comb(n, 2) for n in sizes)
    parallel_triples = len(probes) * sum(math.comb(n, 3) for n in sizes)
    meeting_pairs = len(probes) * len(same_y)
    skew_pairs = len(probes) * math.comb(len(targets), 2) - parallel_pairs - meeting_pairs

    # R(E) sits inside S: S is a group, so it is enough that the elements
    # the transport route accepted, which generate R(E), lie in S
    stab_order, gens = _transport_route(ctx, _sides(ctx, E)[0])
    assert preservers.issuperset(gens), "symmetries must permute the class sets"

    s_count = len(preservers)
    mt_rhs = 2 * c * (
        m0**1.75 * multiplicity**0.75 * s_count**0.5 + m0 * m0 * multiplicity + s_count
    )
    # The closing cap is reported rather than asserted: its constant
    # rides on the unspecified incidence constant c, which callers pick.
    final_cap = 16 * c * c * (m0 * multiplicity) ** 1.5
    applies = m0 > 8 + 4 * c
    holds = s_count <= final_cap

    return TripleCountAudit(
        multiplicity=multiplicity,
        class_count=m0,
        probe_count=len(probes),
        target_count=len(targets),
        preserver_count=s_count,
        mover_count=len(movers),
        fixer_count=len(fixers),
        transport_total=transport_total,
        lower_bound=lower,
        fixer_part=fixer_part,
        mover_part=mover_part,
        incidence_count=inc,
        transport_lines=len(lines3),
        pair_cap=pair_cap,
        class_cap=class_cap,
        plane_max=plane_max,
        plane_cap=plane_cap,
        skew_pairs=skew_pairs,
        meeting_pairs=meeting_pairs,
        parallel_pairs=parallel_pairs,
        parallel_triples=parallel_triples,
        stab_order=stab_order,
        mt_rhs=mt_rhs,
        final_cap_value=final_cap,
        final_cap_applies=applies,
        final_cap_holds=holds,
        normalizer=normalizer,
    )
