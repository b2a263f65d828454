"""Acceptance battery: one labeled PASS/FAIL line per criterion.

Each test performs its full check, prints a single verdict line through
capsys.disabled() so it survives pytest's capture, and then asserts.
Wall-clock limits are part of the criteria; the measured costs on one
core sit far below them, so a limit trip indicates a real regression.
"""

import itertools
import math
import time

import pytest

from sl2lab.gf import make_field, multiplicative_subgroup, subfield_elements
from sl2lab.harness import CampaignConfig, run_campaign
from sl2lab.incidence3d import (
    all_lines,
    build_instance,
    count_incidences,
    count_incidences_brute,
    incidence_bound_report,
    line_points,
    line_tables,
    project_matrix,
    transport_line,
)
from sl2lab.plane import (
    PointSet,
    line_of_point,
    points_on_line,
    proj_lines,
    sl2_elements,
    sl2_materialize,
    sl2_order,
)
from sl2lab.rng import DetRng, nth_seed
from sl2lab.stabilizer import (
    stabilizer_brute,
    stabilizer_fast,
    stabilizer_order,
    triple_count_audit,
)

from oracles import read_rows, transport_set


def _verdict(capsys, num, label, problems, detail):
    ok = not problems
    line = f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
        for p in problems:
            print(f"               - {p}")
    assert ok, f"{label}: " + "; ".join(problems)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# --------------------------------------------------------------------------
# 1. A full line through the origin has stabilizer of order q^2 - q.


def test_c01_origin_line_order(capsys):
    problems = []
    worst = 0.0
    for p, r in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        ctx = make_field(p, r)
        q = ctx.q
        t0 = time.perf_counter()
        for line in proj_lines(ctx):
            E = PointSet.from_points(q, points_on_line(ctx, line))
            fast = stabilizer_fast(ctx, E)
            brute = stabilizer_brute(ctx, E)
            if set(fast) != set(brute):
                problems.append(f"q={q} line {line}: fast != brute")
            if len(fast) != q * q - q:
                problems.append(f"q={q} line {line}: |R| = {len(fast)} != {q * q - q}")
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if dt >= 1.0:
            problems.append(f"q={q}: {dt:.2f}s over the 1s per-field limit")
    _verdict(capsys, 1, "origin-line stabilizer order", problems,
             f"7 fields x all q+1 lines, both routes, worst field {worst:.2f}s")


# --------------------------------------------------------------------------
# 2. Index-c subgroup on the y-axis: order q(q-1)/c and the exact
#    lower-triangular family {(a, 0; t, 1/a) : a in S, t in F_q}.


def test_c02_axis_subgroup_family(capsys):
    problems = []
    t0 = time.perf_counter()
    for (p, c) in [(7, 2), (7, 3), (13, 2), (13, 3), (13, 4)]:
        ctx = make_field(p, 1)
        q = ctx.q
        S = multiplicative_subgroup(ctx, c)
        E = PointSet.from_points(q, [(0, s) for s in S])
        fast = set(stabilizer_fast(ctx, E))
        brute = set(stabilizer_brute(ctx, E))
        family = {(a, 0, t, ctx.inv(a)) for a in S for t in range(q)}
        if fast != brute:
            problems.append(f"(q={q}, c={c}): fast != brute")
        if fast != family:
            problems.append(f"(q={q}, c={c}): R differs from the triangular family")
        if len(fast) != q * (q - 1) // c:
            problems.append(f"(q={q}, c={c}): |R| = {len(fast)} != {q * (q - 1) // c}")
    dt = time.perf_counter() - t0
    if dt >= 5.0:
        problems.append(f"runtime {dt:.2f}s over the 5s limit")
    _verdict(capsys, 2, "axis-subgroup triangular stabilizer", problems,
             f"5 (q, c) cases, both routes, {dt:.2f}s")


# --------------------------------------------------------------------------
# 3. Subfield plane: brute force over all q^3 - q matrices finds exactly
#    the embedded copy of the subfield's unimodular group.


def test_c03_subfield_plane_brute(capsys):
    problems = []
    t0 = time.perf_counter()
    for (p, r, r_sub) in [(2, 2, 1), (3, 2, 1), (5, 2, 1), (2, 4, 2)]:
        ctx = make_field(p, r)
        q = ctx.q
        sub = subfield_elements(ctx, r_sub)
        E = PointSet.from_points(q, [(x, y) for x in sub for y in sub])
        brute = set(stabilizer_brute(ctx, E))
        embedded = {m for m in sl2_materialize(ctx) if all(e in sub for e in m)}
        want = p ** (3 * r_sub) - p**r_sub
        if not embedded <= brute:
            problems.append(f"GF({q}): embedded copy not contained in R")
        if len(embedded) != want:
            problems.append(f"GF({q}): embedded copy has order {len(embedded)}")
        if len(brute) != want:
            problems.append(f"GF({q}): |R| = {len(brute)} != {want}")
        if brute != set(stabilizer_fast(ctx, E)):
            problems.append(f"GF({q}): fast != brute")
    dt = time.perf_counter() - t0
    if dt >= 30.0:
        problems.append(f"runtime {dt:.2f}s over the 30s limit")
    _verdict(capsys, 3, "subfield-plane stabilizer via brute force", problems,
             f"4 towers incl. GF(16) over all 4080 matrices, {dt:.2f}s")


# --------------------------------------------------------------------------
# 4. Transport lines: closed form equals the projected solution set on
#    every admissible pair, the lines are pairwise distinct whenever the
#    sources agree or span, and the projection fibers have the exact
#    1 / q / 0 census.


def _admissible(q):
    for u1 in range(1, q):
        for v1 in range(q):
            for u2 in range(1, q):
                for v2 in range(q):
                    if (v1, v2) != (0, 0):
                        yield (u1, v1), (u2, v2)


def test_c04_transport_lines(capsys):
    problems = []
    t0 = time.perf_counter()
    for q in (3, 5):
        ctx = make_field(q, 1)
        entries = []
        for src, dst in _admissible(q):
            ln = transport_line(ctx, src, dst)
            image = {project_matrix(m) for m in transport_set(ctx, src, dst)}
            if image != set(line_points(ctx, ln)):
                problems.append(f"q={q} {src}->{dst}: line != projected solutions")
            entries.append((src, dst, (ln.base, ln.dir), line_of_point(ctx, src)))
        want = (q - 1) * q * (q - 1) * q - (q - 1) ** 2
        if len(entries) != want:
            problems.append(f"q={q}: {len(entries)} admissible pairs, expected {want}")
        clashes = sum(
            1
            for (s1, d1, k1, l1), (s2, d2, k2, l2) in itertools.combinations(entries, 2)
            if (s1 == s2 or l1 != l2) and k1 == k2
        )
        if clashes:
            problems.append(f"q={q}: {clashes} coincident lines under the source condition")

        fibers = {}
        for m in sl2_elements(ctx):
            pt = project_matrix(m)
            fibers[pt] = fibers.get(pt, 0) + 1
        bad = sum(
            1
            for (a, d, c), n in fibers.items()
            if n != (1 if c != 0 else q) or (c == 0 and d != ctx.inv(a))
        )
        if bad or sum(fibers.values()) != sl2_order(q):
            problems.append(f"q={q}: projection fiber census mismatch")
        if len(fibers) != q * q * (q - 1) + (q - 1):
            problems.append(f"q={q}: wrong number of nonempty fibers")
    dt = time.perf_counter() - t0
    if dt >= 60.0:
        problems.append(f"runtime {dt:.2f}s over the 60s limit")
    _verdict(capsys, 4, "transport-line algebra", problems,
             f"q in (3, 5) exhaustive: image, distinctness, fibers, {dt:.2f}s")


# --------------------------------------------------------------------------
# 5. Every set meeting exactly two origin lines satisfies |R| <= |E - 0|,
#    with and without the origin, exhaustively for q <= 5.


def test_c05_two_line_bound(capsys, tmp_path):
    problems = []
    total = 0
    t0 = time.perf_counter()
    for (p, r) in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        q = p**r
        res = run_campaign(CampaignConfig(
            p=p, r=r, campaign="two-line-exhaustive",
            out=str(tmp_path / f"twoline-{q}.csv"),
        ))
        rows = read_rows(res.out)
        want = math.comb(q + 1, 2) * (2 ** (q - 1) - 1) ** 2 * 2
        if len(rows) != want:
            problems.append(f"q={q}: {len(rows)} rows, expected {want}")
        if res.summary["violations"]:
            problems.append(f"q={q}: {res.summary['violations']} bound violations")
        over = sum(1 for row in rows if row["stab_order"] > row["size_nonzero"])
        if over:
            problems.append(f"q={q}: {over} rows with |R| > |E - 0|")
        total += len(rows)
    dt = time.perf_counter() - t0
    if dt >= 120.0:
        problems.append(f"runtime {dt:.2f}s over the 120s limit")
    _verdict(capsys, 5, "two-line sets obey |R| <= |E - 0|", problems,
             f"{total} sets over q in (2, 3, 4, 5), {dt:.2f}s")


# --------------------------------------------------------------------------
# 6. Unions of m origin lines satisfy |R| <= 2 m^3 (m-1)^2: all 3- and
#    4-subsets plus 200 seeded 5-subsets for q in (5, 7).


def test_c06_line_union_cap(capsys, tmp_path):
    problems = []
    total = 0
    t0 = time.perf_counter()
    for q in (5, 7):
        res = run_campaign(CampaignConfig(
            p=q, r=1, campaign="lineset-exhaustive", budget=200,
            out=str(tmp_path / f"lineset-{q}.csv"),
        ))
        rows = read_rows(res.out)
        want = math.comb(q + 1, 3) + math.comb(q + 1, 4) + 200
        if len(rows) != want:
            problems.append(f"q={q}: {len(rows)} rows, expected {want}")
        if res.summary["violations"]:
            problems.append(f"q={q}: {res.summary['violations']} bound violations")
        over = sum(
            1
            for row in rows
            if row["stab_order"] > 2 * row["lines_meeting"] ** 3 * (row["lines_meeting"] - 1) ** 2
        )
        if over:
            problems.append(f"q={q}: {over} rows above the line-count cap")
        total += len(rows)
    dt = time.perf_counter() - t0
    if dt >= 120.0:
        problems.append(f"runtime {dt:.2f}s over the 120s limit")
    _verdict(capsys, 6, "origin-line unions obey the m-line cap", problems,
             f"{total} unions (m = 3, 4 exhaustive; 200 at m = 5), {dt:.2f}s")


# --------------------------------------------------------------------------
# 7. Prime-power bound |R| <= p^(r-1) |E| over every qualifying subset
#    (proper nonzero part meeting >= 2 lines), exhaustively for q <= 4.
#    The GF(4) sweep must fit the single-worker budget and stay
#    byte-identical (and within a far smaller budget) at 8 workers.


def test_c07_prime_power_bound(capsys, tmp_path):
    problems = []
    total = 0
    t0 = time.perf_counter()
    for (p, r) in [(2, 1), (3, 1), (2, 2)]:
        q = p**r
        res = run_campaign(CampaignConfig(
            p=p, r=r, campaign="prime-bound-exhaustive",
            out=str(tmp_path / f"prime-{q}.csv"), workers=1,
        ))
        rows = read_rows(res.out)
        if res.summary["violations"]:
            problems.append(f"q={q}: {res.summary['violations']} bound violations")
        over = sum(
            1 for row in rows if row["stab_order"] > p ** (r - 1) * row["size"]
        )
        if over:
            problems.append(f"q={q}: {over} rows above p^(r-1)|E|")
        # qualifying = proper nonzero part meeting at least two lines
        if q <= 3:
            ctx = make_field(p, r)
            masks = [
                sum(1 << (ctx.mul(t, u) * q + ctx.mul(t, v)) for t in range(1, q))
                for (u, v) in proj_lines(ctx)
            ]
            qualify = sum(
                1
                for m in range(1 << (q * q))
                if 0 < (m & ~1).bit_count() < q * q - 1
                and sum(1 for lm in masks if m & ~1 & lm) >= 2
            )
            if len(rows) != qualify:
                problems.append(f"q={q}: {len(rows)} rows != {qualify} qualifying sets")
        total += len(rows)
    serial_dt = time.perf_counter() - t0
    if serial_dt >= 600.0:
        problems.append(f"single-worker runtime {serial_dt:.1f}s over the 600s limit")

    t0 = time.perf_counter()
    res8 = run_campaign(CampaignConfig(
        p=2, r=2, campaign="prime-bound-exhaustive",
        out=str(tmp_path / "prime-4-w8.csv"), workers=8,
    ))
    pool_dt = time.perf_counter() - t0
    if pool_dt >= 120.0:
        problems.append(f"8-worker runtime {pool_dt:.1f}s over the 120s limit")
    if res8.summary["violations"]:
        problems.append(f"8-worker rerun: {res8.summary['violations']} violations")
    if _read_bytes(tmp_path / "prime-4.csv") != _read_bytes(tmp_path / "prime-4-w8.csv"):
        problems.append("GF(4) output differs between 1 and 8 workers")
    _verdict(capsys, 7, "prime-power bound sweep", problems,
             f"{total} qualifying sets over q in (2, 3, 4), "
             f"serial {serial_dt:.1f}s, 8 workers {pool_dt:.1f}s")


# --------------------------------------------------------------------------
# 8. The exhaustive ratio sweep is deterministic: byte-identical CSVs
#    across reruns and worker counts, a finite recorded maximum of
#    |R| / |E - 0|^1.5 over sets meeting >= 2 lines, and the GF(4)
#    subfield plane sitting in the table at ratio_full = 0.75.


def test_c08_extremal_ratio_reproducibility(capsys, tmp_path):
    problems = []
    t0 = time.perf_counter()
    summaries = {}
    for (p, r) in [(2, 1), (3, 1), (2, 2)]:
        q = p**r
        res_a = run_campaign(CampaignConfig(
            p=p, r=r, campaign="exhaustive-subsets",
            out=str(tmp_path / f"ex-{q}-a.csv"), workers=1,
        ))
        res_b = run_campaign(CampaignConfig(
            p=p, r=r, campaign="exhaustive-subsets",
            out=str(tmp_path / f"ex-{q}-b.csv"), workers=1,
        ))
        if _read_bytes(tmp_path / f"ex-{q}-a.csv") != _read_bytes(tmp_path / f"ex-{q}-b.csv"):
            problems.append(f"q={q}: rerun not byte-identical")
        if res_a.summary != res_b.summary:
            problems.append(f"q={q}: summaries differ between reruns")
        rows = read_rows(res_a.out)
        if len(rows) != 1 << (q * q):
            problems.append(f"q={q}: {len(rows)} rows != 2^(q^2)")
        mx = res_a.summary["max_ratio"]
        if not (isinstance(mx, float) and math.isfinite(mx) and mx > 0):
            problems.append(f"q={q}: max_ratio {mx!r} not a finite positive float")
        best = max(
            (row["ratio_nonzero"] for row in rows
             if row["lines_meeting"] >= 2 and row["ratio_nonzero"] is not None),
            default=None,
        )
        if best != mx:
            problems.append(f"q={q}: summary max_ratio {mx} != table max {best}")
        summaries[q] = res_a.summary

    res_w = run_campaign(CampaignConfig(
        p=2, r=2, campaign="exhaustive-subsets",
        out=str(tmp_path / "ex-4-w2.csv"), workers=2,
    ))
    if _read_bytes(tmp_path / "ex-4-a.csv") != _read_bytes(tmp_path / "ex-4-w2.csv"):
        problems.append("GF(4): output differs between 1 and 2 workers")
    if res_w.summary != summaries[4]:
        problems.append("GF(4): summary differs between 1 and 2 workers")

    plane_mask = sum(1 << (x * 4 + y) for x in (0, 1) for y in (0, 1))
    row = read_rows(res_w.out)[plane_mask]
    if row["descriptor"] != "points:(0,0);(0,1);(1,0);(1,1)":
        problems.append(f"GF(4): row {plane_mask} is {row['descriptor']!r}")
    if row["ratio_full"] != 0.75:
        problems.append(f"GF(4): subfield plane ratio_full {row['ratio_full']} != 0.75")
    dt = time.perf_counter() - t0
    _verdict(capsys, 8, "extremal-ratio sweep reproducibility", problems,
             f"q in (2, 3, 4) reruns + GF(4) worker swap, "
             f"max ratios {[summaries[k]['max_ratio'] for k in (2, 3, 4)]}, {dt:.1f}s")


# --------------------------------------------------------------------------
# 9. The triple-count audit replays every step of the counting argument
#    with hard asserts: the GF(9) subfield plane plus 20 seeded sets
#    with a uniform line-multiplicity class over GF(7).


def test_c09_triple_count_audits(capsys, tmp_path):
    problems = []
    t0 = time.perf_counter()
    ctx9 = make_field(3, 2)
    sub = subfield_elements(ctx9, 1)
    E = PointSet.from_points(9, [(x, y) for x in sub for y in sub])
    aud = triple_count_audit(ctx9, E, 2)
    checks = [
        (aud.class_count == 4, "GF(9): class_count != 4"),
        (aud.transport_total == aud.fixer_part + aud.mover_part,
         "GF(9): transport decomposition not exact"),
        (aud.transport_total >= aud.lower_bound, "GF(9): transport below lower bound"),
        (aud.mover_part <= aud.class_cap, "GF(9): mover part above m0^2 m1 cap"),
        (aud.plane_max <= 2 * aud.class_count, "GF(9): plane richness above 2 m0"),
        (aud.skew_pairs + aud.meeting_pairs + aud.parallel_pairs
         == aud.class_count * (aud.class_count - 1),
         "GF(9): pair classification does not cover all ordered pairs"),
        (aud.parallel_triples == 0, "GF(9): coplanar parallel triple found"),
        (aud.stab_order == 24, "GF(9): stabilizer order != 24"),
    ]
    problems += [msg for ok, msg in checks if not ok]

    res = run_campaign(CampaignConfig(
        p=3, r=2, campaign="triple-audit", set_spec="family:subfield-plane:sub-r=1",
        out=str(tmp_path / "audit-9.csv"),
    ))
    if res.summary["violations"] or not read_rows(res.out)[0]["audit_ok"]:
        problems.append("GF(9): campaign audit row not clean")

    rand = run_campaign(CampaignConfig(
        p=7, r=1, campaign="triple-audit", budget=20, seed=5,
        out=str(tmp_path / "audit-7.csv"),
    ))
    rows = read_rows(rand.out)
    if len(rows) != 20:
        problems.append(f"GF(7): {len(rows)} audit rows, expected 20")
    bad = [row["index"] for row in rows if not row["audit_ok"] or row["audit_error"]]
    if bad or rand.summary["violations"]:
        problems.append(f"GF(7): audits failed at {bad}, violations {rand.summary['violations']}")
    over = sum(1 for row in rows if row["plane_max"] > 2 * row["class_count"])
    if over:
        problems.append(f"GF(7): {over} rows with plane richness above 2 m0")
    dt = time.perf_counter() - t0
    if dt >= 300.0:
        problems.append(f"runtime {dt:.1f}s over the 300s limit")
    _verdict(capsys, 9, "triple-count audit battery", problems,
             f"GF(9) subfield plane + 20 random GF(7) uniform sets, {dt:.1f}s")


# --------------------------------------------------------------------------
# 10. The bucketed incidence count equals the brute double loop on 1000
#     seeded instances per field, and the bound report flags hypotheses
#     correctly (projection only inside |P|^(7/8) < |L| < |P|^(8/7)).


def test_c10_incidence_counts(capsys):
    problems = []
    t0 = time.perf_counter()
    for q in (3, 5, 7):
        ctx = make_field(q, 1)
        # a point's position in pool_pts is its code x*q^2 + y*q + z
        pool_pts = list(itertools.product(range(q), repeat=3))
        tables = line_tables(ctx, all_lines(ctx))
        pool_lns = tables.pool
        mismatches = 0
        for trial in range(1000):
            rng = DetRng(nth_seed(q, trial))
            npts = 1 + rng.below(min(2 * q * q, len(pool_pts)))
            nlns = 1 + rng.below(min(2 * q * q, len(pool_lns)))
            codes = rng.sample(len(pool_pts), npts)
            positions = rng.sample(len(pool_lns), nlns)
            pts = [pool_pts[i] for i in codes]
            lns = [pool_lns[i] for i in positions]
            brute = count_incidences_brute(ctx, pts, lns)
            if count_incidences(ctx, pts, lns) != brute:
                mismatches += 1
                continue
            if trial % 25:
                continue
            counts = build_instance(ctx, tables, codes, positions)
            if counts[2] != brute:
                problems.append(f"q={q} trial {trial}: table count != brute")
            _, _, inc, rich = counts
            rep = incidence_bound_report(ctx, counts)
            window = npts**0.875 < nlns < npts ** (8 / 7)
            if rep["projection_applicable"] != window:
                problems.append(f"q={q} trial {trial}: projection flag != window")
            if rep["rich_plane_applicable"] != (rich <= nlns**0.5):
                problems.append(f"q={q} trial {trial}: rich_plane flag wrong")
            want = abs(inc - npts * nlns / q**2)
            if not (rep["balanced_deviation_applicable"]
                    and rep["balanced_deviation_observed"] == want
                    and rep["balanced_deviation_rhs"] > 0):
                problems.append(f"q={q} trial {trial}: deviation row not populated")
            if any(v is None for k, v in rep.items() if k.endswith("_rhs")):
                problems.append(f"q={q} trial {trial}: missing rhs")
        if mismatches:
            problems.append(f"q={q}: {mismatches} fast/brute count mismatches")
    dt = time.perf_counter() - t0
    if dt >= 60.0:
        problems.append(f"runtime {dt:.1f}s over the 60s limit")
    _verdict(capsys, 10, "incidence counts and bound flags", problems,
             f"3000 instances over q in (3, 5, 7), reports on every 25th, {dt:.1f}s")


# --------------------------------------------------------------------------
# 11. stabilizer_fast agrees with the brute filter everywhere: all
#     subsets for q <= 3 and 1000 seeded subsets for each larger field.


def test_c11_fast_equals_brute(capsys):
    problems = []
    t0 = time.perf_counter()
    for q in (2, 3):
        ctx = make_field(q, 1)
        whole = set(sl2_materialize(ctx))
        for mask in range(1 << (q * q)):
            E = PointSet(q, mask)
            brute = set(stabilizer_brute(ctx, E))
            if E.nonzero_size == 0:
                # fast refuses sets it cannot pin down; the order route
                # reads the whole group's order, which brute must confirm
                with pytest.raises(ValueError):
                    stabilizer_fast(ctx, E)
                if not (brute == whole and stabilizer_order(ctx, E) == len(whole)):
                    problems.append(f"q={q} mask {mask}: degenerate set mishandled")
            elif set(stabilizer_fast(ctx, E)) != brute:
                problems.append(f"q={q} mask {mask}: fast != brute")
    for (p, r) in [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        ctx = make_field(p, r)
        q = ctx.q
        bad = 0
        for trial in range(1000):
            rng = DetRng(nth_seed(100 * q, trial))
            bits = 0
            while not (bits & ~1):
                bits = rng.bits(q * q)
            E = PointSet(q, bits)
            if set(stabilizer_fast(ctx, E)) != set(stabilizer_brute(ctx, E)):
                bad += 1
        if bad:
            problems.append(f"q={q}: {bad} of 1000 random subsets disagree")
    dt = time.perf_counter() - t0
    if dt >= 300.0:
        problems.append(f"runtime {dt:.1f}s over the 300s limit")
    _verdict(capsys, 11, "fast-vs-brute stabilizer equivalence", problems,
             f"all subsets q <= 3 + 1000 random each for q in (4, 5, 7, 8, 9), {dt:.1f}s")
