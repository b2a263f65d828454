"""Campaign harness: determinism, resume, campaign row semantics, CLI."""

import csv
import hashlib
import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import sl2lab.harness as harness
import sl2lab.stabilizer as stabmod
from sl2lab.gf import FieldCtx, make_field
from sl2lab.harness import (
    CAMPAIGNS,
    CampaignConfig,
    CampaignResult,
    _echo,
    _f6,
    _fmt,
    main,
    random_uniform_class_set,
    run_campaign,
)
from sl2lab.families import MAX_NESTING, gen_family, parse_set_spec
from sl2lab.incidence3d import all_lines, build_instance, incidence_bound_report, line_tables
from sl2lab.plane import (
    IDENTITY,
    PointSet,
    apply_to_set,
    line_nonzero_masks,
    parse_point,
    proj_lines,
    sl2_materialize,
)
from sl2lab.rng import DetRng, nth_seed
from sl2lab.stabilizer import (
    BOUNDS,
    Constants,
    all_subset_stabilizer_orders,
    bound_report,
    line_partition,
    report_key,
    stabilizer_brute,
)

from oracles import read_rows


def read_csv(path):
    with open(path) as fh:
        echo = fh.readline().rstrip("\n")
        rows = list(csv.reader(fh))
    return echo, rows[0], rows[1:]


def csv_lines(rows):
    """rows as csv.writer writes them, one line each."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def cfg(tmp_path, **kw):
    kw.setdefault("out", str(tmp_path / "out.csv"))
    return CampaignConfig(**kw)


def crash_campaign(monkeypatch, config, at):
    """Run config until the chunk starting at index `at` or later raises,
    leaving the checkpoint of the chunks before it."""
    real = harness._run_range

    def explode(config, start, stop):
        if start >= at:
            raise RuntimeError("injected crash")
        return real(config, start, stop)

    monkeypatch.setattr(harness, "_run_range", explode)
    with pytest.raises(RuntimeError):
        run_campaign(config)
    monkeypatch.setattr(harness, "_run_range", real)


def direct_report_row(ctx, index, E, stab_order, config):
    """A report row built straight from bound_report, with no memo."""
    consts = Constants(config.c1, config.c2, config.alpha, config.beta)
    rep = bound_report(ctx, report_key(ctx, E, stab_order), consts)
    pts = [(0, 0)] * (E.bits & 1) + [divmod(c, ctx.q) for c in E.nonzero_codes]
    row = {
        "index": index,
        "descriptor": "points:" + ";".join(f"({x},{y})" for x, y in pts),
    }
    for name, value in rep.items():
        row[name] = _f6(value) if isinstance(value, float) else value
    bad = [name for name in BOUNDS if rep[f"{name}_violated"]]
    assert rep["violations"] == ";".join(bad)
    return row, len(bad)


def lines_meeting(ctx, E):
    """The number of origin lines meeting E - 0, from its line partition."""
    return sum(len(lines) for lines in line_partition(ctx, E).values())


def expand(item):
    """A producer item (index, descriptor, entry) as (index, row,
    violations), with row the dict of every column."""
    index, descriptor, entry = item
    head = {"index": index} if descriptor is None else {"index": index, "descriptor": descriptor}
    return index, {**head, **entry.cells}, entry.nviol


def json_row_members(row):
    """The members after index and descriptor of a row, as json.dump
    (indent=1) lays them out in the rows list."""
    text = json.dumps({"rows": [row]}, indent=1)
    return "\n".join(text.splitlines()[5:-3])


def test_f6_and_fmt():
    assert _f6(None) is None
    assert _f6(1.15470053838) == 1.15470
    assert _f6(6) == 6.0
    assert _fmt(None) == ""
    assert _fmt(True) == "true" and _fmt(False) == "false"
    assert _fmt(1.1547005) == "1.1547"
    assert _fmt(12) == "12"
    assert _fmt("x") == "x"


def test_columns_for_shapes():
    stab_cols = CAMPAIGNS["exhaustive-subsets"].columns
    assert stab_cols[:2] == ["index", "descriptor"]
    assert "two_lines_violated" in stab_cols and "three_halves_rhs" in stab_cols
    assert stab_cols[-1] == "violations"
    fam = CAMPAIGNS["family-verify"].columns
    assert fam[-3:] == ["complement_match", "expected_order", "expected_match"]
    search = CAMPAIGNS["search-extremal"].columns
    assert search[-3:] == ["strategy", "subgroup_order", "contains_subgroup"]
    audit = CAMPAIGNS["triple-audit"].columns
    assert audit[:2] == ["index", "descriptor"] and "audit_ok" in audit
    inc = CAMPAIGNS["incidence-report"].columns
    assert inc[:5] == ["index", "points", "lines", "incidences", "plane_max"]
    for name in CAMPAIGNS:
        assert CAMPAIGNS[name].columns
    # the full headers, pinned: the report modules name these columns and
    # a row's cells follow them in order, so a reordered report shows here
    bounds = ["two_lines", "line_set", "prime_power", "whole_plane", "three_halves"]
    assert stab_cols == [
        "index", "descriptor", "size", "size_nonzero", "lines_meeting", "stab_order",
        "ratio_full", "ratio_nonzero", "contained_line", "all_classes_small", "small",
        "rich", "confirmed",
        *(f"{b}_{x}" for b in bounds for x in ("applicable", "rhs", "ratio", "violated")),
        "violations",
    ]
    assert fam == stab_cols + ["complement_match", "expected_order", "expected_match"]
    assert search == stab_cols + ["strategy", "subgroup_order", "contains_subgroup"]
    inc_bounds = ["plane_cap", "balanced_deviation", "rich_plane", "projection",
                  "projection_scale"]
    assert inc == ["index", "points", "lines", "incidences", "plane_max", *(
        f"{b}_{x}" for b in inc_bounds for x in ("applicable", "observed", "rhs", "ratio"))]
    assert audit == [
        "index", "descriptor", "multiplicity", "class_count", "probe_count",
        "target_count", "preserver_count", "mover_count", "fixer_count",
        "transport_total", "lower_bound", "fixer_part", "mover_part", "incidence_count",
        "transport_lines", "pair_cap", "class_cap", "plane_max", "plane_cap",
        "skew_pairs", "meeting_pairs", "parallel_pairs", "parallel_triples",
        "stab_order", "mt_rhs", "final_cap_value", "final_cap_applies",
        "final_cap_holds", "audit_ok", "audit_error",
    ]


def test_report_keys_are_their_campaigns_columns(monkeypatch):
    # each report module names its columns; the harness writes a report's
    # cells in dict order under a header built from those names
    ctx = make_field(3, 1)
    table = all_subset_stabilizer_orders(ctx)
    stab_header = CAMPAIGNS["exhaustive-subsets"].columns
    for bits in range(1 << 9):
        rep = bound_report(ctx, report_key(ctx, PointSet(3, bits), table[bits]))
        assert ["index", "descriptor", *rep] == stab_header
    inc_header = CAMPAIGNS["incidence-report"].columns
    tables = line_tables(ctx, all_lines(ctx))
    for i in range(60):
        rng = DetRng(nth_seed(11, i))
        # from no points up, so the empty-instance cells are keyed too
        codes = rng.sample(27, rng.below(27))
        positions = rng.sample(len(tables.pool), 1 + rng.below(40))
        rep = incidence_bound_report(ctx, build_instance(ctx, tables, codes, positions))
        assert ["index", *rep] == inc_header
    audit_header = CAMPAIGNS["triple-audit"].columns
    config = CampaignConfig(p=7, r=1, campaign="triple-audit", seed=12)
    for item in harness._gen_audit(config, 0, 8):
        _, row, nviol = expand(item)
        assert list(row) == audit_header and nviol == 0

    def failing(*args, **kwargs):
        raise AssertionError("injected")

    monkeypatch.setattr(harness, "triple_count_audit", failing)
    _, row, nviol = expand(next(harness._gen_audit(config, 7, 8)))
    _, _, m1 = random_uniform_class_set(make_field(7, 1), nth_seed(12, 7))
    assert list(row) == audit_header and nviol == 1
    assert row["multiplicity"] == m1 and row["audit_error"] == "injected"


def test_echo_line():
    e = _echo(CampaignConfig(p=2, r=2, campaign="family-verify", seed=3, budget=7))
    assert e == ("# slab-v1 campaign=family-verify p=2 r=2 seed=3 budget=7"
                 " c=1 c1=1 c2=1 alpha=0.5 beta=0.75")
    e2 = _echo(CampaignConfig(p=3, r=1, campaign="search-extremal",
                              strategy="random", set_spec="family:full"))
    assert "strategy=random" in e2 and "set=family:full" in e2
    for name in CAMPAIGNS:
        echoed = "strategy=" in _echo(CampaignConfig(p=3, r=1, campaign=name))
        assert echoed == (name == "search-extremal")


def test_report_row_memo_matches_direct_report(monkeypatch):
    calls = []
    real = harness.bound_report
    monkeypatch.setattr(harness, "bound_report", lambda *a, **k: calls.append(1) or real(*a, **k))
    rows = 0
    for p, r, step in [(2, 1, 1), (3, 1, 1), (2, 2, 7)]:
        flags = []
        # the same process and field under both constant sets: a memo not
        # keyed on the constants would serve the first set's small/rich
        ctx = make_field(p, r)
        for consts in ({}, dict(alpha=1.0, beta=1.5, c1=2)):
            config = CampaignConfig(p=p, r=r, campaign="exhaustive-subsets", **consts)
            table = all_subset_stabilizer_orders(ctx)
            seen = []
            for mask in range(0, len(table), step):
                E = PointSet(ctx.q, mask)
                consts = harness._constants(config)
                key = report_key(ctx, E, table[mask])
                entry = harness._report_entry(ctx, key, consts, "csv")
                index, row, nviol = expand((mask, E.text(), entry))
                want, want_nviol = direct_report_row(ctx, mask, E, table[mask], config)
                assert index == mask
                assert list(row.items()) == list(want.items())
                assert nviol == want_nviol
                assert entry.text == csv_lines([[_fmt(v) for v in list(want.values())[2:]]])
                # the same process renders the other format under its own key
                json_entry = harness._report_entry(ctx, key, consts, "json")
                assert json_entry.cells == entry.cells
                assert json_entry.text == json_row_members(want)
                seen.append((row["small"], row["rich"], row["confirmed"]))
                rows += 1
            flags.append(seen)
        assert flags[0] != flags[1]
    # bound_report runs once per distinct key, not once per row
    assert 0 < len(calls) * 20 < rows


def test_mask_loop_rows_match_direct_report():
    # the q <= 4 loop reads its key, its descriptor and containment off
    # per-field tables; the rows it yields must equal rows built straight
    # from a PointSet and bound_report, under both constant sets
    for p, r, step in [(2, 1, 1), (3, 1, 1), (2, 2, 7)]:
        ctx = make_field(p, r)
        table = all_subset_stabilizer_orders(ctx)
        for consts in ({}, dict(alpha=1.0, beta=1.5, c1=2)):
            config = CampaignConfig(p=p, r=r, campaign="exhaustive-subsets", **consts)
            masks = range(0, len(table), step)
            items = list(harness._mask_items(ctx, config, masks))
            assert [item[0] for item in items] == list(masks)
            for item in items:
                index, row, nviol = expand(item)
                E = PointSet(ctx.q, index)
                want, want_nviol = direct_report_row(ctx, index, E, table[index], config)
                assert list(row.items()) == list(want.items())
                assert nviol == want_nviol
                assert item[2].text == csv_lines([[_fmt(v) for v in list(want.values())[2:]]])
    ctx = make_field(2, 2)
    config = CampaignConfig(p=2, r=2, campaign="exhaustive-subsets")
    for mask, descriptor, _ in harness._mask_items(ctx, config, range(1 << 16)):
        assert descriptor == PointSet(4, mask).text()


@pytest.mark.parametrize("p,r,size", [(2, 1, 11), (3, 1, 58), (2, 2, 237)])
def test_lined_masks_match_contained_in_line(p, r, size):
    # two routes to "E lies on one line": the table enumerates the lines
    # and their submasks, contained_in_line tests one set's two lowest
    # points' line
    ctx = make_field(p, r)
    lined = harness._lined_masks(ctx)
    assert len(lined) == size
    for mask in range(1 << (ctx.q * ctx.q)):
        assert (mask in lined) == stabmod.contained_in_line(ctx, mask), mask


def test_gf4_sweep_builds_point_sets_only_for_spot_checks(tmp_path, monkeypatch):
    # structural, untimed: 65,536 rows share 188 reports; the loop reads
    # every report key off its packed line counts, so it builds a PointSet
    # only for a spot-checked mask and never calls line_counts
    calls = dict.fromkeys(["bound_report", "stabilizer_brute", "line_counts"], 0)

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    counted(harness, "bound_report")
    counted(harness, "stabilizer_brute")
    counted(stabmod, "line_counts")
    built = []

    class CountedPointSet(PointSet):
        __slots__ = ()

        def __init__(self, q, bits=0):
            built.append(bits)
            super().__init__(q, bits)

    monkeypatch.setattr(harness, "PointSet", CountedPointSet)
    make_field.cache_clear()
    res = run_campaign(cfg(tmp_path, p=2, r=2, campaign="exhaustive-subsets", workers=1))
    assert res.summary["rows"] == 65536
    assert calls["bound_report"] == 188
    assert calls["stabilizer_brute"] == 656  # every index divisible by 100
    assert calls["line_counts"] == 0
    assert built == list(range(0, 1 << 16, 100))


def test_benchmark_child_sequence_builds_its_field_once(tmp_path, monkeypatch):
    # the benchmark's campaign process builds the field before it starts
    # timing the run, then calls run_campaign; the run must reuse that field
    built = []
    real_init = FieldCtx.__init__
    monkeypatch.setattr(
        FieldCtx, "__init__", lambda self, *a: built.append(a[:2]) or real_init(self, *a))
    make_field.cache_clear()
    harness.make_field(7, 1)
    run_campaign(cfg(tmp_path, p=7, r=1, campaign="lineset-exhaustive", budget=20, workers=1))
    assert built == [(7, 1)]


def test_family_verify_gf4(tmp_path):
    res = run_campaign(cfg(tmp_path, p=2, r=2, campaign="family-verify"))
    assert res.summary["rows"] == 10
    assert res.summary["violations"] == 0
    by = {row["descriptor"]: row for row in read_rows(res.out)}
    sub = by["family:subfield-plane:sub-r=1"]
    assert sub["stab_order"] == 6
    assert sub["ratio_full"] == 0.75
    assert sub["expected_order"] == 6 and sub["expected_match"] is True
    assert all(row["complement_match"] is True for row in read_rows(res.out))
    line = by["family:line-origin"]
    assert line["stab_order"] == 12 and line["expected_order"] == 12
    affine = by["family:line-affine"]
    assert affine["stab_order"] == 4 and affine["expected_order"] == 4
    # every expected order in the battery is a closed form and must match
    assert all(row["expected_match"] in (True, None) for row in read_rows(res.out))
    echo, header, rows = read_csv(res.out)
    assert echo.startswith("# slab-v1 campaign=family-verify")
    assert header == CAMPAIGNS["family-verify"].columns
    assert len(rows) == 10


def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        run_campaign(CampaignConfig(p=2, r=2, campaign="family-verify", out=str(path)))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("kw", [
    dict(campaign="exhaustive-subsets", p=3, r=1),
    dict(campaign="two-line-exhaustive", p=3, r=1),
    dict(campaign="lineset-exhaustive", p=5, r=1, budget=40),
    dict(campaign="prime-bound-exhaustive", p=3, r=1),
    dict(campaign="incidence-report", p=3, r=1, budget=100),
    dict(campaign="triple-audit", p=3, r=1, budget=70),
    # past the table sweep's q, rows are sampled and the pool engages
    dict(campaign="exhaustive-subsets", p=5, r=1, allow_sampled=True, budget=130, seed=3),
], ids=lambda kw: kw["campaign"] + ("-sampled" if kw.get("allow_sampled") else ""))
def test_workers_do_not_change_bytes(tmp_path, monkeypatch, kw):
    # chunk small enough that two workers actually engage (the q <= 4
    # sweeps stay in the parent; their bytes must still match)
    monkeypatch.setattr(harness, "CHUNK", 64)
    a = tmp_path / "serial.csv"
    b = tmp_path / "pooled.csv"
    serial = run_campaign(CampaignConfig(workers=1, out=str(a), **kw))
    pooled = run_campaign(CampaignConfig(workers=2, out=str(b), **kw))
    assert serial.summary["total_indices"] > 64
    assert a.read_bytes() == b.read_bytes()
    assert read_rows(serial.out) == read_rows(pooled.out)
    # the rendered cells are the kept rows' values, formatted
    _, header, body = read_csv(a)
    assert body == [[_fmt(row.get(c)) for c in header] for row in read_rows(serial.out)]
    # JSON rows are rendered in the workers too
    ja = tmp_path / "serial.json"
    jb = tmp_path / "pooled.json"
    run_campaign(CampaignConfig(workers=1, out=str(ja), fmt="json", **kw))
    run_campaign(CampaignConfig(workers=2, out=str(jb), fmt="json", **kw))
    assert ja.read_bytes() == jb.read_bytes()


# One small configuration per campaign, each (but family-verify) with
# more than 64 indices, so CHUNK = 64 engages the pool at two workers.
EVERY_CAMPAIGN = [
    dict(campaign="exhaustive-subsets", p=3, r=1),
    dict(campaign="two-line-exhaustive", p=3, r=1),
    dict(campaign="lineset-exhaustive", p=5, r=1, budget=40, seed=4),
    dict(campaign="family-verify", p=2, r=2),
    dict(campaign="prime-bound-exhaustive", p=3, r=1),
    dict(campaign="incidence-report", p=3, r=1, budget=100, seed=2),
    dict(campaign="triple-audit", p=3, r=1, budget=70),
    dict(campaign="search-extremal", p=3, r=1, budget=100),
    dict(campaign="search-extremal", p=5, r=1, budget=70, strategy="random"),
]
# a family row's descriptor echoes the user's --set, and int() reads the
# Arabic-Indic digit one; JSON escapes it, CSV writes it as it is
NON_ASCII_SET = dict(campaign="family-verify", p=3, r=1, set_spec="family:line-affine:x=١")
NO_ROWS = [
    dict(campaign="search-extremal", p=3, r=1, budget=0),
    dict(campaign="exhaustive-subsets", p=5, r=1, allow_sampled=True, budget=0),
]


def campaign_id(kw):
    return "-".join(str(v) for v in kw.values())


def producer_items(config):
    """The (index, descriptor, entry) items the campaign writes, taken
    straight from its producer (and ranked, for search), with no writer
    or reader in between."""
    spec = CAMPAIGNS[config.campaign]
    total = spec.total(config, make_field(config.p, config.r))
    items = list(spec.produce(config, 0, total))
    return items if spec.rank is None else spec.rank(items)


def producer_rows(config):
    return [expand(item)[1] for item in producer_items(config)]


def fold(items):
    acc = harness._Acc()
    for _, descriptor, entry in items:
        acc.fold(descriptor, entry)
    return acc.to_dict()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kw", EVERY_CAMPAIGN, ids=campaign_id)
def test_decoded_rows_equal_producer_rows(tmp_path, monkeypatch, kw, fmt, workers):
    monkeypatch.setattr(harness, "CHUNK", 64)
    config = CampaignConfig(workers=workers, fmt=fmt, out=str(tmp_path / f"x.{fmt}"), **kw)
    res = run_campaign(config)
    items = producer_items(config)
    assert items, "every configuration here writes rows"
    assert read_rows(res.out) == [expand(item)[1] for item in items]
    # the merged chunk summaries equal one sequential fold
    assert {k: res.summary[k] for k in harness._Acc().to_dict()} == fold(items)
    if fmt == "csv":
        _, header, body = read_csv(res.out)
        assert len(body) == len(read_rows(res.out))
        for row, cells in zip(read_rows(res.out), body):
            assert [_fmt(row[c]) for c in header] == cells


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "kw", EVERY_CAMPAIGN + [dict(campaign="exhaustive-subsets", p=2, r=1), NON_ASCII_SET],
    ids=campaign_id,
)
def test_csv_bytes_match_csv_writer(tmp_path, monkeypatch, kw, workers):
    # GF(2) writes the empty descriptor "points:" and one-point ones, which
    # csv.writer leaves unquoted and quotes; a needless quote would decode
    # to the same rows, so the bytes are compared here
    monkeypatch.setattr(harness, "CHUNK", 64)
    out = tmp_path / "x.csv"
    config = CampaignConfig(workers=workers, out=str(out), **kw)
    run_campaign(config)
    cols = CAMPAIGNS[config.campaign].columns
    rows = [[_fmt(row.get(c)) for c in cols] for row in producer_rows(config)]
    assert out.read_text() == _echo(config) + "\n" + csv_lines([cols] + rows)


PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


@pytest.mark.parametrize("kw", [
    dict(campaign="exhaustive-subsets", p=2, r=2, workers=2),
    dict(campaign="two-line-exhaustive", p=5, r=1, fmt="json", workers=1),
    dict(campaign="search-extremal", p=7, r=1, strategy="orbit-union", budget=100, seed=0,
         workers=1),
    dict(campaign="lineset-exhaustive", p=7, r=1, budget=200, seed=0, workers=1),
], ids=lambda kw: kw["campaign"])
def test_output_matches_pinned_digest(tmp_path, kw):
    # the benchmark's pins, keyed on every config field it sets but
    # workers and out
    key = " ".join(f"{k}={kw[k]}" for k in sorted(kw) if k != "workers")
    pin = json.loads(PINNED.read_text())[key]
    out = tmp_path / f"x.{kw.get('fmt', 'csv')}"
    res = run_campaign(CampaignConfig(out=str(out), **kw))
    data = out.read_bytes()
    got = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    got.update(rows=res.summary["rows"], violations=res.summary["violations"])
    assert got == pin


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kw", EVERY_CAMPAIGN + NO_ROWS + [NON_ASCII_SET], ids=campaign_id)
def test_json_bytes_match_json_dump(tmp_path, monkeypatch, kw, workers):
    monkeypatch.setattr(harness, "CHUNK", 64)
    out = tmp_path / "x.json"
    config = CampaignConfig(workers=workers, fmt="json", out=str(out), **kw)
    res = run_campaign(config)
    run_only = ("workers", "out", "fmt", "resume", "allow_sampled")
    doc = {
        "schema": "slab-v1",
        "campaign": config.campaign,
        "config": {k: v for k, v in config._asdict().items() if v is not None and k not in run_only},
        "rows": producer_rows(config),
        "summary": {k: v for k, v in res.summary.items() if k not in ("campaign", "total_indices")},
    }
    assert out.read_text() == json.dumps(doc, indent=1) + "\n"
    assert os.listdir(tmp_path) == ["x.json"]


@pytest.mark.parametrize("existing", [True, False])
def test_json_output_is_atomic(tmp_path, monkeypatch, existing):
    monkeypatch.setattr(harness, "CHUNK", 64)
    out = tmp_path / "x.json"
    if existing:
        out.write_text("an earlier run\n")
    crash_campaign(monkeypatch, CampaignConfig(p=3, r=1, campaign="exhaustive-subsets",
                                               fmt="json", out=str(out)), at=192)
    assert os.listdir(tmp_path) == (["x.json"] if existing else [])
    if existing:
        assert out.read_text() == "an earlier run\n"


def test_acc_merge_matches_sequential_fold():
    # (lines_meeting, ratio_nonzero, confirmed, violations) per row
    shapes = [
        (1, 9.0, None, 0),  # meets one line: never the maximum
        (3, None, True, 1),  # no ratio
        (2, 0.5, False, 0),
        (2, 0.75, True, 2),
        (4, 0.75, None, 0),  # ties the maximum so far: the first keeps it
        (0, 3.0, True, 0),
        (2, 0.75, False, 1),
        (2, 0.8, True, 0),
    ]
    items = [
        (i, f"set{i}", harness._entry(
            {"lines_meeting": m, "ratio_nonzero": r, "confirmed": c}, v, "csv"))
        for i, (m, r, c, v) in enumerate(shapes)
    ]
    for n in range(len(items) + 1):
        prefix = items[:n]
        want = fold(prefix)
        # every split of the prefix into chunks, resumed after any of them
        for k in range(n):
            for cuts in itertools.combinations(range(1, n), k):
                bounds = [0, *cuts, n]
                for resumed in range(len(bounds) - 1):
                    saved = json.loads(json.dumps(fold(prefix[:bounds[resumed]])))
                    acc = harness._Acc.from_dict(saved)
                    for lo, hi in zip(bounds[resumed:], bounds[resumed + 1:]):
                        part = harness._Acc()
                        for _, descriptor, entry in prefix[lo:hi]:
                            part.fold(descriptor, entry)
                        acc.merge(part)
                    assert acc.to_dict() == want, (cuts, resumed)
    assert fold(items[:7])["argmax"] == "set3" and fold(items)["argmax"] == "set7"
    assert fold(items[:2])["max_ratio"] is None


def record_pools(monkeypatch) -> list:
    """Replace ProcessPoolExecutor with a stand-in that records the
    max_workers of each pool asked for and maps in this process."""
    import concurrent.futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return asked


def test_env_var_sets_workers(tmp_path, monkeypatch):
    asked = record_pools(monkeypatch)
    monkeypatch.setattr(harness, "CHUNK", 64)
    kw = dict(p=3, r=1, campaign="incidence-report", budget=100, seed=2)  # 2 chunks
    a = tmp_path / "env.csv"
    b = tmp_path / "flag.csv"
    monkeypatch.setenv("SL2LAB_WORKERS", "2")
    run_campaign(CampaignConfig(out=str(a), **kw))
    monkeypatch.delenv("SL2LAB_WORKERS")
    run_campaign(CampaignConfig(workers=2, out=str(b), **kw))
    assert len(asked) == 2 and asked[0] == asked[1]  # the variable started the flag's pool
    assert a.read_bytes() == b.read_bytes()


def test_pool_asks_for_no_more_processes_than_chunks(tmp_path, monkeypatch):
    # a fork pool starts every worker it is given on the first submit, so
    # the count is capped; a stand-in records it and starts no process
    asked = record_pools(monkeypatch)
    monkeypatch.setattr(harness, "CHUNK", 64)
    kw = dict(p=3, r=1, campaign="incidence-report", budget=512)  # 8 chunks
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    run_campaign(CampaignConfig(workers=1, out=str(serial), **kw))
    assert asked == []
    run_campaign(CampaignConfig(workers=1000, out=str(pooled), **kw))
    assert len(asked) == 1 and 1 <= asked[0] <= 8
    assert pooled.read_bytes() == serial.read_bytes()


def count_calls(monkeypatch, owner, *names) -> dict:
    """Wrap owner's functions of these names to count their calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(owner, name)

        def call(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)
    return calls


@pytest.mark.parametrize("kw,pools", [
    (dict(campaign="exhaustive-subsets", p=2, r=2), False),
    (dict(campaign="prime-bound-exhaustive", p=3, r=1), False),
    (dict(campaign="prime-bound-exhaustive", p=2, r=2), False),
    (dict(campaign="incidence-report", p=3, r=1, budget=100), True),
], ids=lambda v: campaign_id(v) if isinstance(v, dict) else None)
def test_table_sweeps_start_no_pool(tmp_path, monkeypatch, kw, pools):
    # q <= 4 sweep rows are table lookups: at two workers the run stays
    # in the parent, makes the serial run's calls and writes its bytes;
    # a campaign whose rows are not table lookups still pools
    asked = record_pools(monkeypatch)
    calls = count_calls(monkeypatch, harness, "bound_report", "stabilizer_brute")
    monkeypatch.setattr(harness, "CHUNK", 64)
    runs = []
    for workers in (1, 2):
        make_field.cache_clear()
        out = tmp_path / f"w{workers}.csv"
        res = run_campaign(CampaignConfig(workers=workers, out=str(out), **kw))
        runs.append((out.read_bytes(), dict(calls)))
        calls.update(dict.fromkeys(calls, 0))
    assert res.summary["total_indices"] > 64
    assert len(asked) == pools
    assert runs[0] == runs[1]
    if kw == dict(campaign="exhaustive-subsets", p=2, r=2):
        # 65,536 rows share 188 reports; every index divisible by 100
        assert runs[1][1] == {"bound_report": 188, "stabilizer_brute": 656}


def test_resume_reproduces_uninterrupted_run(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "CHUNK", 64)
    full = tmp_path / "full.csv"
    run_campaign(CampaignConfig(p=3, r=1, campaign="exhaustive-subsets", out=str(full)))

    part = tmp_path / "part.csv"
    crash_campaign(monkeypatch, CampaignConfig(p=3, r=1, campaign="exhaustive-subsets",
                                               out=str(part)), at=192)
    assert os.path.exists(str(part) + ".ckpt")
    res = run_campaign(CampaignConfig(p=3, r=1, campaign="exhaustive-subsets",
                                      out=str(part), resume=True))
    assert part.read_bytes() == full.read_bytes()
    assert not os.path.exists(str(part) + ".ckpt")
    assert res.summary["rows"] == 512


def test_resume_accepts_checkpoint_with_no_ratio_yet(tmp_path, monkeypatch):
    # incidence rows never set max_ratio, so their checkpoints hold None
    monkeypatch.setattr(harness, "CHUNK", 16)
    kw = dict(p=3, r=1, campaign="incidence-report", budget=60)
    full = tmp_path / "full.csv"
    run_campaign(CampaignConfig(out=str(full), **kw))
    part = tmp_path / "part.csv"
    crash_campaign(monkeypatch, CampaignConfig(out=str(part), **kw), at=32)
    assert json.loads((tmp_path / "part.csv.ckpt").read_text())["acc"]["max_ratio"] is None
    run_campaign(CampaignConfig(out=str(part), resume=True, **kw))
    assert part.read_bytes() == full.read_bytes()


KILL_AT_CHUNK = """
import os, signal, sys
import sl2lab.harness as harness

harness.CHUNK = 1024
real = harness._run_range


def run_range(config, start, stop):
    if start >= 3072:
        os.kill(os.getpid(), signal.SIGKILL)  # no with-block or finally runs
    return real(config, start, stop)


harness._run_range = run_range
sys.exit(harness.main(["exhaustive", "--p", "2", "--r", "2", "--workers", "1",
                       "--out", sys.argv[1]]))
"""


def test_resume_after_sigkill_reproduces_uninterrupted_run(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "CHUNK", 1024)
    monkeypatch.delenv("SL2LAB_WORKERS", raising=False)
    full = tmp_path / "full.csv"
    run_campaign(CampaignConfig(p=2, r=2, campaign="exhaustive-subsets", out=str(full)))

    part = tmp_path / "part.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", KILL_AT_CHUNK, str(part)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == -signal.SIGKILL, done.stderr
    state = json.loads((tmp_path / "part.csv.ckpt").read_text())
    assert state["next_start"] == 3072
    assert 0 < state["offset"] <= part.stat().st_size < full.stat().st_size

    assert main(["exhaustive", "--p", "2", "--r", "2", "--out", str(part), "--resume"]) == 0
    assert part.read_bytes() == full.read_bytes()
    assert not os.path.exists(str(part) + ".ckpt")


def test_resume_rejects_config_change(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "CHUNK", 64)
    out = tmp_path / "x.csv"
    crash_campaign(monkeypatch, CampaignConfig(p=3, r=1, campaign="exhaustive-subsets",
                                               out=str(out)), at=128)
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(p=3, r=1, campaign="exhaustive-subsets",
                                    seed=9, out=str(out), resume=True))


@pytest.mark.parametrize("damage", ["missing", "short"])
def test_resume_refuses_checkpoint_beyond_output(tmp_path, monkeypatch, capsys, damage):
    monkeypatch.setattr(harness, "CHUNK", 64)
    out = tmp_path / "x.csv"
    crash_campaign(monkeypatch, CampaignConfig(p=3, r=1, campaign="exhaustive-subsets",
                                               out=str(out)), at=128)
    ckpt = tmp_path / "x.csv.ckpt"
    if damage == "missing":
        out.unlink()
    else:
        state = json.loads(ckpt.read_text())
        state["offset"] = out.stat().st_size + 100_000
        ckpt.write_text(json.dumps(state))
    before = out.read_bytes() if out.exists() else None
    code = main(["exhaustive", "--p", "3", "--resume", "--out", str(out)])
    assert code == 2
    assert "error: cannot resume" in capsys.readouterr().err
    assert (out.read_bytes() if out.exists() else None) == before


@pytest.mark.parametrize("damage", ["flipped", "unhashed"])
def test_resume_refuses_changed_prefix(tmp_path, monkeypatch, capsys, damage):
    monkeypatch.setattr(harness, "CHUNK", 64)
    out = tmp_path / "x.csv"
    crash_campaign(monkeypatch, CampaignConfig(p=3, r=1, campaign="exhaustive-subsets",
                                               out=str(out)), at=192)
    ckpt = tmp_path / "x.csv.ckpt"
    state = json.loads(ckpt.read_text())
    if damage == "flipped":
        data = bytearray(out.read_bytes())
        data[state["offset"] // 2] ^= 1  # one byte inside the checkpointed prefix
        out.write_bytes(bytes(data))
    else:
        del state["sha256"]
        ckpt.write_text(json.dumps(state))
    before = out.read_bytes()
    code = main(["exhaustive", "--p", "3", "--resume", "--out", str(out)])
    assert code == 2
    assert "error: cannot resume" in capsys.readouterr().err
    assert out.read_bytes() == before


CHECKPOINT_DAMAGE = {
    "empty": lambda state: {},
    "list": lambda state: [1, 2],
    "offset": lambda state: {**state, "offset": "abc"},
    "float_start": lambda state: {**state, "next_start": float(state["next_start"])},
    # a negative start re-emitted rows from the table's end (exit 1); one
    # past the total ended the run early with exit 0
    "negative_start": lambda state: {**state, "next_start": -64},
    "start_past_total": lambda state: {**state, "next_start": 513},
    "str_rows": lambda state: {**state, "acc": {**state["acc"], "rows": str(state["acc"]["rows"])}},
    "str_max_ratio": lambda state: {**state, "acc": {**state["acc"], "max_ratio": "1.5"}},
    # an older summary layout: the resumed summary would miss rows' counts
    "old_acc": lambda state: {
        **state, "acc": {k: v for k, v in state["acc"].items() if k != "confirmed_ok"}},
    # well formed but edited: the seal covers the checkpoint's own fields,
    # so an earlier start no longer writes rows 128-191 twice with exit 0
    "edited_start": lambda state: {**state, "next_start": 128},
    "edited_rows": lambda state: {**state, "acc": {**state["acc"], "rows": 0}},
}


@pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
def test_resume_refuses_malformed_checkpoint(tmp_path, monkeypatch, capsys, damage):
    # exit 1 means a violated bound; a checkpoint of the wrong shape exits
    # 2 before the output file is touched
    monkeypatch.setattr(harness, "CHUNK", 64)
    out = tmp_path / "x.csv"
    crash_campaign(monkeypatch, CampaignConfig(p=3, r=1, campaign="exhaustive-subsets",
                                               out=str(out)), at=192)
    ckpt = tmp_path / "x.csv.ckpt"
    ckpt.write_text(json.dumps(CHECKPOINT_DAMAGE[damage](json.loads(ckpt.read_text()))))
    before = out.read_bytes()
    code = main(["exhaustive", "--p", "3", "--resume", "--out", str(out)])
    assert code == 2
    assert "error: cannot resume" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_checkpoint_removed_after_clean_run(tmp_path):
    res = run_campaign(cfg(tmp_path, p=2, r=1, campaign="exhaustive-subsets"))
    assert not os.path.exists(res.out + ".ckpt")


def record_checkpoints(monkeypatch) -> list:
    """Record the next_start of every checkpoint run_campaign writes."""
    real = harness._write_ckpt
    starts = []

    def write(path, echo, next_start, *rest):
        starts.append(next_start)
        return real(path, echo, next_start, *rest)

    monkeypatch.setattr(harness, "_write_ckpt", write)
    return starts


@pytest.mark.parametrize("kw", [
    dict(campaign="exhaustive-subsets", p=3, r=1),
    dict(campaign="incidence-report", p=3, r=1, budget=5),
], ids=campaign_id)
def test_one_chunk_run_writes_no_checkpoint(tmp_path, monkeypatch, kw):
    # a checkpoint after the last chunk could only say "done"
    starts = record_checkpoints(monkeypatch)
    res = run_campaign(cfg(tmp_path, workers=1, **kw))
    assert 0 < res.summary["total_indices"] <= harness.CHUNK
    assert starts == []


def test_checkpoint_follows_every_chunk_but_the_last(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "CHUNK", 64)
    starts = record_checkpoints(monkeypatch)
    run_campaign(cfg(tmp_path, p=3, r=1, campaign="exhaustive-subsets", workers=1))
    assert starts == list(range(64, 512, 64))


def test_resume_after_a_crash_in_the_last_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "CHUNK", 64)
    kw = dict(p=3, r=1, campaign="exhaustive-subsets", workers=1)
    full = tmp_path / "full.csv"
    run_campaign(CampaignConfig(out=str(full), **kw))
    part = tmp_path / "part.csv"
    crash_campaign(monkeypatch, CampaignConfig(out=str(part), **kw), at=448)
    state = json.loads((tmp_path / "part.csv.ckpt").read_text())
    assert state["next_start"] == 448 and state["offset"] == part.stat().st_size
    res = run_campaign(CampaignConfig(out=str(part), resume=True, **kw))
    assert part.read_bytes() == full.read_bytes()
    assert res.summary["rows"] == 512
    assert sorted(os.listdir(tmp_path)) == ["full.csv", "part.csv"]


@pytest.mark.parametrize("kw", EVERY_CAMPAIGN + NO_ROWS, ids=campaign_id)
def test_json_bytes_do_not_depend_on_chunk_or_workers(tmp_path, monkeypatch, kw):
    # a JSON row is written as it is rendered, in the parent or, pooled,
    # from the worker's list of the chunk's pieces
    runs = set()
    for chunk in (1, 64, 4096):
        monkeypatch.setattr(harness, "CHUNK", chunk)
        for workers in (1, 2):
            out = tmp_path / f"c{chunk}-w{workers}.json"
            run_campaign(CampaignConfig(workers=workers, fmt="json", out=str(out), **kw))
            runs.add(out.read_bytes())
    assert len(runs) == 1


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    res = run_campaign(CampaignConfig(p=2, r=1, campaign="exhaustive-subsets"))
    assert res.out == "exhaustive-subsets-p2-r1.csv"
    assert os.path.exists(res.out)


def test_exhaustive_gf2_summary_matches_table(tmp_path):
    ctx = make_field(2, 1)
    res = run_campaign(cfg(tmp_path, p=2, r=1, campaign="exhaustive-subsets"))
    assert res.summary["rows"] == 16
    table = all_subset_stabilizer_orders(ctx)
    best = None
    for bits in range(16):
        E = PointSet(2, bits)
        if lines_meeting(ctx, E) >= 2 and E.nonzero_size:
            ratio = _f6(table[bits] / E.nonzero_size**1.5)
            if best is None or ratio > best:
                best = ratio
    assert res.summary["max_ratio"] == best
    # the recorded argmax row achieves the recorded maximum
    arg = next(r for r in read_rows(res.out) if r["descriptor"] == res.summary["argmax"])
    assert arg["ratio_nonzero"] == best


def test_two_line_campaign_gf3(tmp_path):
    res = run_campaign(cfg(tmp_path, p=3, r=1, campaign="two-line-exhaustive"))
    # C(4,2) line pairs x (2^2-1)^2 nonempty masks x with/without origin
    assert res.summary["rows"] == 6 * 9 * 2 == res.summary["total_indices"]
    assert res.summary["violations"] == 0
    descriptors = {row["descriptor"] for row in read_rows(res.out)}
    assert len(descriptors) == 108  # distinct sets: the pair is recoverable
    for row in read_rows(res.out):
        assert row["lines_meeting"] == 2
        assert row["two_lines_applicable"] is True
        assert row["two_lines_violated"] is False
        assert row["stab_order"] <= row["size_nonzero"]


def test_two_line_order_reuse_across_odd_chunks(tmp_path, monkeypatch):
    # the producer reads |R(E)| from a per-(sub1, sub2) memo; with
    # CHUNK = 63 every other chunk starts on the odd half of an index
    # pair, and a resume restarts at an odd index, in a process whose
    # memo may be empty or full
    kw = dict(campaign="two-line-exhaustive", p=2, r=2)
    full = tmp_path / "full.csv"
    res = run_campaign(CampaignConfig(workers=1, out=str(full), **kw))
    assert res.summary["total_indices"] == 10 * 7 * 7 * 2
    ctx = make_field(2, 2)
    for row in read_rows(res.out):
        pts = [parse_point(t) for t in row["descriptor"][len("points:"):].split(";")]
        E = PointSet.from_points(ctx.q, pts)
        assert E.bits & 1 == row["index"] % 2
        assert row["stab_order"] == len(stabilizer_brute(ctx, E)), row["index"]

    monkeypatch.setattr(harness, "CHUNK", 63)
    for workers in (1, 2):
        out = tmp_path / f"chunked{workers}.csv"
        run_campaign(CampaignConfig(workers=workers, out=str(out), **kw))
        assert out.read_bytes() == full.read_bytes()

    part = tmp_path / "part.csv"
    crash_campaign(monkeypatch, CampaignConfig(workers=1, out=str(part), **kw), at=189)
    assert json.loads((tmp_path / "part.csv.ckpt").read_text())["next_start"] == 189
    run_campaign(CampaignConfig(workers=1, out=str(part), resume=True, **kw))
    assert part.read_bytes() == full.read_bytes()


def two_line_rows(p, r, indices):
    """(row, E) for the given two-line-exhaustive indices, straight from
    the producer, E rebuilt from the row's descriptor."""
    config = CampaignConfig(campaign="two-line-exhaustive", p=p, r=r)
    ctx = make_field(p, r)
    for index in indices:
        for item in harness._gen_two_line(config, index, index + 1):
            _, row, _ = expand(item)
            yield row, gen_family(ctx, parse_set_spec(row["descriptor"]))


@pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (5, 1)])
def test_two_line_axis_pair_order_matches_brute(p, r):
    # every (pair, sub1, sub2): the memo holds the order of the axis-pair
    # set, which GL2 conjugacy makes the order of the row's own set
    ctx = make_field(p, r)
    total = CAMPAIGNS["two-line-exhaustive"].total(None, ctx)
    for row, E in two_line_rows(p, r, range(0, total, 2)):  # 2k + 1 adds the origin
        assert row["stab_order"] == len(stabilizer_brute(ctx, E)), row["index"]


def test_two_line_axis_pair_order_matches_brute_q7():
    # q = 7 is past the campaign's cap; the producer itself still runs
    ctx = make_field(7, 1)
    total = CAMPAIGNS["two-line-exhaustive"].total(None, ctx)
    for row, E in two_line_rows(7, 1, DetRng(77).sample(total, 300)):
        assert row["stab_order"] == len(stabilizer_brute(ctx, E)), row["index"]


def test_lineset_campaign_gf5(tmp_path):
    res = run_campaign(cfg(tmp_path, p=5, r=1, campaign="lineset-exhaustive",
                           budget=10))
    assert res.summary["rows"] == 20 + 15 + 10  # C(6,3) + C(6,4) + random 5-sets
    assert res.summary["violations"] == 0
    for row in read_rows(res.out):
        m = row["lines_meeting"]
        assert m in (3, 4, 5)
        assert row["stab_order"] <= 2 * m**3 * (m - 1) ** 2


def test_prime_bound_campaign_gf3(tmp_path):
    ctx = make_field(3, 1)
    res = run_campaign(cfg(tmp_path, p=3, r=1, campaign="prime-bound-exhaustive"))
    want = sum(
        1 for bits in range(1 << 9)
        if 0 < (bits & ~1).bit_count() < 8
        and lines_meeting(ctx, PointSet(3, bits)) >= 2
    )
    assert res.summary["rows"] == want
    assert res.summary["violations"] == 0
    table = all_subset_stabilizer_orders(ctx)
    for row in read_rows(res.out):
        assert row["prime_power_applicable"] is True
        assert row["prime_power_violated"] is False
        # r = 1 so the bound is just |E|
        assert row["stab_order"] <= row["size"]


@pytest.mark.parametrize("p,r", [(3, 1), (2, 2)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_prime_bound_rows_are_the_filtered_sweep_rows(tmp_path, p, r, fmt):
    # prime-bound keeps the sweep's rows by their entries' cells; the rows
    # it writes must be the exhaustive-subsets rows whose mask passes the
    # predicate written out on the line masks: E - 0 is neither empty nor
    # the whole punctured plane and meets at least two origin lines
    ctx = make_field(p, r)
    masks = line_nonzero_masks(ctx)
    full_nz = ctx.q * ctx.q - 1

    def kept(mask):
        nz = mask & ~1
        return 0 < nz.bit_count() < full_nz and sum(1 for lm in masks if nz & lm) >= 2

    runs = {}
    for campaign in ("exhaustive-subsets", "prime-bound-exhaustive"):
        out = tmp_path / f"{campaign}.{fmt}"
        run_campaign(CampaignConfig(p=p, r=r, campaign=campaign, fmt=fmt, out=str(out)))
        if fmt == "json":
            runs[campaign] = json.loads(out.read_text())["rows"]
        else:
            runs[campaign] = out.read_text().splitlines()[2:]  # after echo and header
    if fmt == "json":
        want = [row for row in runs["exhaustive-subsets"] if kept(row["index"])]
    else:
        want = [ln for ln in runs["exhaustive-subsets"] if kept(int(ln.split(",", 1)[0]))]
    assert len(want) == sum(map(kept, range(1 << (ctx.q * ctx.q))))
    assert runs["prime-bound-exhaustive"] == want


def test_incidence_campaign_gf3(tmp_path):
    res = run_campaign(cfg(tmp_path, p=3, r=1, campaign="incidence-report",
                           budget=30))
    assert res.summary["rows"] == 30
    for row in read_rows(res.out):
        assert row["points"] >= 1 and row["lines"] >= 1
        assert 0 <= row["incidences"] <= row["points"] * row["lines"]
        assert row["plane_max"] >= 1
        assert row["plane_cap_applicable"] is True
        assert row["balanced_deviation_observed"] is not None


def test_audit_campaign_subfield_gf9(tmp_path):
    res = run_campaign(cfg(tmp_path, p=3, r=2, campaign="triple-audit",
                           set_spec="family:subfield-plane:sub-r=1"))
    assert res.summary["rows"] == 1
    row = read_rows(res.out)[0]
    assert row["audit_ok"] is True
    assert row["multiplicity"] == 2 and row["class_count"] == 4
    assert row["plane_max"] == 4 and row["plane_cap"] == 8
    assert row["stab_order"] == 24
    assert row["audit_error"] == ""


def test_audit_campaign_random_gf5(tmp_path):
    res = run_campaign(cfg(tmp_path, p=5, r=1, campaign="triple-audit", budget=8))
    assert res.summary["rows"] == 8
    assert all(row["audit_ok"] is True for row in read_rows(res.out))
    assert res.summary["violations"] == 0


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (13, 1), (2, 4), (5, 2), (3, 3), (2, 5), (2, 6)])
def test_line_codes_are_multiples_of_the_direction(p, r):
    # two-line-exhaustive and random_uniform_class_set read a line's k-th
    # code as t * u, for t the k-th nonzero element and u its direction
    ctx = make_field(p, r)
    q = ctx.q
    for codes, (u, v) in zip(harness._line_codes(ctx), proj_lines(ctx), strict=True):
        assert list(codes) == [ctx.mul(t, u) * q + ctx.mul(t, v) for t in range(1, q)]


def test_random_uniform_class_set_shapes():
    ctx = make_field(7, 1)
    for trial in range(12):
        E, m0, m1 = random_uniform_class_set(ctx, nth_seed(42, trial))
        assert 2 <= m0 <= 8 and 1 <= m1 <= 6
        assert E.nonzero_size == m0 * m1
        assert not E.bits & 1


def test_search_random_gf5(tmp_path):
    res = run_campaign(cfg(tmp_path, p=5, r=1, campaign="search-extremal",
                           strategy="random", budget=40))
    rows = read_rows(res.out)
    assert rows, "random search over GF(5) finds candidates"
    ratios = [row["ratio_nonzero"] for row in rows]
    assert ratios == sorted(ratios, reverse=True)
    descriptors = [row["descriptor"] for row in rows]
    assert len(descriptors) == len(set(descriptors))
    assert all(row["lines_meeting"] >= 2 for row in rows)
    assert all(row["strategy"] == "random" for row in rows)


def test_search_orbit_union_reaches_subfield_plane(tmp_path):
    # with this seed the sampled generators produce the embedded copy of
    # the two-element-field group within the first hundred candidates
    rows = read_rows(run_campaign(CampaignConfig(
        p=2, r=2, campaign="search-extremal", strategy="orbit-union",
        budget=100, seed=30, out=str(tmp_path / "s.csv"))).out)
    by = {row["descriptor"]: row for row in rows}
    hit = by["points:(0,0);(0,1);(1,0);(1,1)"]
    assert hit["stab_order"] == 6
    assert hit["ratio_full"] == 0.75
    assert hit["contains_subgroup"] is True
    # found via an order-3 cyclic subgroup whose orbit is the nonzero part
    assert hit["subgroup_order"] == 3
    bare = by["points:(0,1);(1,0);(1,1)"]
    assert bare["ratio_nonzero"] == _f6(6 / 3**1.5)


def test_search_rows_contain_subgroup_always(tmp_path):
    res = run_campaign(cfg(tmp_path, p=3, r=1, campaign="search-extremal",
                           strategy="orbit-union", budget=60))
    assert res.summary["violations"] == 0
    assert all(row["contains_subgroup"] is True for row in read_rows(res.out))
    assert all(row["subgroup_order"] >= 1 for row in read_rows(res.out))


def test_undercounting_order_route_is_flagged(tmp_path, monkeypatch):
    # an order route that undercounts R(E) breaks |H| dividing |R(E)|, so
    # every orbit-union row with |H| > 1 must flag orbit_union_containment
    monkeypatch.setattr(harness, "stabilizer_order", lambda ctx, E: 1)
    argv = ["search", "--p", "5", "--budget", "20", "--workers", "1",
            "--out", str(tmp_path / "s.csv")]
    # the brute spot check sees index 0's rows first and aborts (exit 2)
    assert main(argv) == 2
    # without it, the containment check alone fails the run (exit 1)
    monkeypatch.setattr(harness, "MAX_Q_BRUTE_SPOT", 0)
    assert main(argv) == 1
    res = run_campaign(cfg(tmp_path, p=5, r=1, campaign="search-extremal", budget=20,
                           workers=1))
    assert any(row["subgroup_order"] > 1 for row in read_rows(res.out))
    for row in read_rows(res.out):
        flagged = "orbit_union_containment" in row["violations"].split(";")
        assert flagged == (row["subgroup_order"] > 1)
        assert row["contains_subgroup"] is not flagged


@pytest.mark.parametrize("kw", [
    dict(campaign="two-line-exhaustive", p=2, r=1, fmt="json"),
    dict(campaign="search-extremal", p=3, r=1, budget=10),
    dict(campaign="incidence-report", p=3, r=1, budget=5),
])
def test_runs_without_checkpoints_skip_the_digest(tmp_path, monkeypatch, kw):
    # only checkpoints read the output digest, so JSON and ranked runs
    # never compute it, nor does a CSV run of one chunk, which writes
    # no checkpoint
    def no_digest():
        raise AssertionError("digest computed")

    monkeypatch.setattr(hashlib, "sha256", no_digest)
    out = str(tmp_path / f"out.{kw.get('fmt', 'csv')}")
    assert run_campaign(CampaignConfig(out=out, workers=1, **kw)).summary["rows"] > 0


def test_json_output(tmp_path):
    out = tmp_path / "fam.json"
    run_campaign(CampaignConfig(p=2, r=2, campaign="family-verify", out=str(out), fmt="json"))
    doc = json.loads(out.read_text())
    assert doc["schema"] == "slab-v1"
    assert doc["campaign"] == "family-verify"
    assert doc["config"]["p"] == 2 and doc["config"]["r"] == 2
    assert len(doc["rows"]) == 10 == doc["summary"]["rows"]
    # the same rows as a CSV run of the same config writes
    csv_out = tmp_path / "fam.csv"
    run_campaign(CampaignConfig(p=2, r=2, campaign="family-verify", out=str(csv_out)))
    assert doc["rows"] == read_rows(csv_out)


@pytest.mark.parametrize("bad", [
    dict(p=5, r=1, campaign="exhaustive-subsets"),
    dict(p=7, r=1, campaign="exhaustive-subsets", allow_sampled=True),
    dict(p=5, r=1, campaign="prime-bound-exhaustive"),
    dict(p=3, r=1, campaign="exhaustive-subsets", fmt="json", resume=True),
    dict(p=3, r=1, campaign="no-such-campaign"),
    dict(p=3, r=1, campaign="exhaustive-subsets", budget=-1),
    dict(p=11, r=1, campaign="lineset-exhaustive"),
    dict(p=11, r=1, campaign="triple-audit"),
    dict(p=7, r=1, campaign="two-line-exhaustive"),
    dict(p=67, r=1, campaign="family-verify"),
    dict(p=11, r=1, campaign="incidence-report"),
    dict(p=11, r=1, campaign="search-extremal"),
    dict(p=3, r=1, campaign="incidence-report", budget=5, workers=0),
    dict(p=3, r=1, campaign="search-extremal", strategy="bogus", budget=5),
])
def test_config_validation(tmp_path, bad):
    with pytest.raises(ValueError):
        run_campaign(cfg(tmp_path, **bad))


def test_exhaustive_gf5_requires_sampling_flag(tmp_path):
    res = run_campaign(cfg(tmp_path, p=5, r=1, campaign="exhaustive-subsets",
                           allow_sampled=True, budget=50))
    assert res.summary["rows"] == 50


@pytest.mark.parametrize("fault", ["lost-coset", "foreign-element"])
def test_complement_mismatch_is_reported(tmp_path, monkeypatch, fault):
    # a fault on the side stabilizer_order did not use must surface in the
    # row: a lost coset halves that side's order, and a generator that
    # does not keep E keeps the order but fails the filter
    real = stabmod._transport_route
    ctx = make_field(5, 1)
    spec = "family:line-origin"
    E = gen_family(ctx, parse_set_spec(spec))
    other = stabmod._sides(ctx, E)[1]
    foreign = next(m for m in sl2_materialize(ctx) if apply_to_set(ctx, m, E) != E)

    def faulty(ctx, bits):
        order, gens = real(ctx, bits)
        if bits == other:
            if fault == "lost-coset":
                order //= 2
            else:
                gens = [*gens, foreign]
        return order, gens

    monkeypatch.setattr(stabmod, "_transport_route", faulty)
    res = run_campaign(cfg(tmp_path, p=5, r=1, campaign="family-verify",
                           set_spec=spec, workers=1))
    row = read_rows(res.out)[0]
    assert row["stab_order"] == 20 and row["expected_match"] is True
    assert row["complement_match"] is False
    assert row["violations"].split(";") == ["complement_mismatch"]
    assert res.summary["violations"] == 1


def one_more(got):
    return got + 1


@pytest.mark.parametrize("name,fault,argv,message", [
    # the line-set stabilizer one element short of the point-set order
    ("line_set_stabilizer", lambda got: got - {IDENTITY},
     ["exhaustive", "--campaign", "lineset-exhaustive", "--p", "5", "--budget", "3"],
     "line-set stabilizer mismatch at index 0"),
    # the brute incidence loop one off the fast count
    ("count_incidences_brute", one_more, ["incidence", "--p", "3", "--budget", "5"],
     "incidence spot check failed at 0"),
    # a random search row's order one off the brute filter's
    ("stabilizer_order", one_more,
     ["search", "--p", "5", "--strategy", "random", "--budget", "3"],
     "search row 0: fast"),
], ids=["lineset", "incidence", "search-random"])
def test_route_disagreement_exits_2(tmp_path, monkeypatch, capsys, name, fault, argv, message):
    # each campaign's second route must stop the run when the first
    # disagrees with it, and the fresh run leaves no file behind
    real = getattr(harness, name)
    monkeypatch.setattr(harness, name, lambda *args: fault(real(*args)))
    assert main([*argv, "--workers", "1", "--out", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_expected_order_mismatch_is_reported(tmp_path, monkeypatch, capsys):
    # a closed-form order one off the transport route's flags the row
    # (exit 1: a check failed, not a crash)
    real = harness.expected_order
    monkeypatch.setattr(harness, "expected_order", lambda *args: one_more(real(*args)))
    out = tmp_path / "f.csv"
    argv = ["family", "--p", "5", "--set", "family:line-origin", "--workers", "1",
            "--out", str(out)]
    assert main(argv) == 1
    assert "violations=1" in capsys.readouterr().out
    _, header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert len(rows) == 1
    assert (row["stab_order"], row["expected_order"]) == ("20", "21")
    assert (row["expected_match"], row["complement_match"]) == ("false", "true")
    assert row["violations"] == "expected_mismatch"


def test_audit_flags_accepted_element_outside_s(tmp_path, monkeypatch):
    # S is a group, so the audit checks "R(E) inside S" on the elements
    # the transport route accepted; one outside S must fail the audit.
    # For this set S = R(E), so any matrix moving E lies outside S.
    real = stabmod._transport_route
    ctx = make_field(3, 2)
    E = gen_family(ctx, parse_set_spec("family:subfield-plane:sub-r=1"))
    foreign = next(m for m in sl2_materialize(ctx) if apply_to_set(ctx, m, E) != E)

    def faulty(ctx, bits):
        order, gens = real(ctx, bits)
        return order, [*gens, foreign]

    audit = stabmod.triple_count_audit(ctx, E, 2)
    assert audit.preserver_count == audit.stab_order == 24
    monkeypatch.setattr(stabmod, "_transport_route", faulty)
    with pytest.raises(AssertionError, match="symmetries must permute the class sets"):
        stabmod.triple_count_audit(ctx, E, 2)
    res = run_campaign(cfg(tmp_path, p=3, r=2, campaign="triple-audit",
                           set_spec="family:subfield-plane:sub-r=1", workers=1))
    row = read_rows(res.out)[0]
    assert row["audit_ok"] is False
    assert row["audit_error"] == "symmetries must permute the class sets"
    assert res.summary["violations"] == 1


def test_cli_family_gf64(tmp_path):
    # GF(8)^2 inside GF(64)^2 is the sharp witness: |R| = 8^3 - 8 = 504
    # against |E|^{3/2} = 512, with no element set built for any row
    out = tmp_path / "fam.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "sl2lab.harness", "family", "--p", "2", "--r", "6",
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    _, header, rows = read_csv(str(out))
    assert len(rows) == 16
    by = {row[1]: dict(zip(header, row)) for row in rows}
    sub = by["family:subfield-plane:sub-r=3"]
    assert sub["stab_order"] == "504"
    assert sub["ratio_full"] == "0.984375"
    assert sub["complement_match"] == "true"
    assert sub["expected_match"] == "true"


@pytest.mark.parametrize("spec,order", [("family:full", 15813000),
                                        ("family:line-origin", 62750)])
def test_cli_stab_large_field(spec, order):
    # whole-group sets get an order-only answer, so q = 251 returns quickly
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "sl2lab.harness", "stab", "--p", "251", "--set", spec],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert f" stab_order={order}\n" in done.stdout


def test_cli_field(capsys):
    assert main(["field", "--p", "3", "--r", "2", "--selftest"]) == 0
    out = capsys.readouterr().out
    assert "GF(9) = GF(3^2) modulus_digits=101 primitive=4" in out
    assert "selftest ok" in out


def test_cli_field_sampled_selftest(capsys):
    # past q = 64 the axioms run on seeded random triples
    assert main(["field", "--p", "2", "--r", "7", "--selftest"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("GF(128) = GF(2^7)")
    assert "selftest ok" in out


def test_cli_stab(capsys):
    code = main(["stab", "--p", "2", "--r", "2",
                 "--set", "family:subfield-plane:sub-r=1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "stab_order=6" in out
    assert "ratio_full=0.75" in out
    assert "violations=" in out


STAB_GOLDEN = {
    "--p 2 --r 2 --set family:subfield-plane:sub-r=1": """\
descriptor=family:subfield-plane:sub-r=1
q=4 size=4 size_nonzero=3 lines_meeting=3 stab_order=6
ratio_full=0.75 ratio_nonzero=1.1547 contained_line=false all_classes_small=false
bound two_lines: applicable=false rhs=3 ratio=2 violated=
bound line_set: applicable=true rhs=216 ratio=0.0277778 violated=false
bound prime_power: applicable=true rhs=8 ratio=0.75 violated=false
bound whole_plane: applicable=true rhs=16 ratio=0.375 violated=
bound three_halves: applicable=true rhs=8 ratio=0.75 violated=
violations=
""",
    "--p 5 --set points:(0,1);(0,2);(1,0)": """\
descriptor=points:(0,1);(0,2);(1,0)
q=5 size=3 size_nonzero=3 lines_meeting=2 stab_order=1
ratio_full=0.19245 ratio_nonzero=0.19245 contained_line=false all_classes_small=true
bound two_lines: applicable=true rhs=3 ratio=0.333333 violated=false
bound line_set: applicable=false rhs=16 ratio=0.0625 violated=
bound prime_power: applicable=true rhs=3 ratio=0.333333 violated=false
bound whole_plane: applicable=true rhs=25 ratio=0.04 violated=
bound three_halves: applicable=true rhs=5.19615 ratio=0.19245 violated=
violations=
""",
    "--p 3 --r 2 --set family:line-origin --c1 10 --alpha 1 --c2 2 --beta 1.5": """\
descriptor=family:line-origin
q=9 size=9 size_nonzero=8 lines_meeting=1 stab_order=72
ratio_full=2.66667 ratio_nonzero=3.18198 contained_line=true all_classes_small=false
bound two_lines: applicable=false rhs=8 ratio=9 violated=
bound line_set: applicable=false rhs=0 ratio= violated=
bound prime_power: applicable=false rhs=27 ratio=2.66667 violated=
bound whole_plane: applicable=true rhs=81 ratio=0.888889 violated=
bound three_halves: applicable=false rhs=27 ratio=2.66667 violated=
violations=
""",
    "--p 3 --set family:empty": """\
descriptor=family:empty
q=3 size=0 size_nonzero=0 lines_meeting=0 stab_order=24
ratio_full= ratio_nonzero= contained_line=true all_classes_small=false
bound two_lines: applicable=false rhs=0 ratio= violated=
bound line_set: applicable=false rhs=0 ratio= violated=
bound prime_power: applicable=false rhs=0 ratio= violated=
bound whole_plane: applicable=false rhs=9 ratio=2.66667 violated=
bound three_halves: applicable=false rhs=0 ratio= violated=
violations=
""",
    "--p 7 --set family:random:n=10,seed=42": """\
descriptor=family:random:n=10,seed=42
q=7 size=10 size_nonzero=9 lines_meeting=4 stab_order=1
ratio_full=0.0316228 ratio_nonzero=0.037037 contained_line=false all_classes_small=true
bound two_lines: applicable=false rhs=9 ratio=0.111111 violated=
bound line_set: applicable=true rhs=1152 ratio=0.000868056 violated=false
bound prime_power: applicable=true rhs=10 ratio=0.1 violated=false
bound whole_plane: applicable=true rhs=49 ratio=0.0204082 violated=
bound three_halves: applicable=true rhs=31.6228 ratio=0.0316228 violated=
violations=
""",
    "--p 2 --r 3 --set family:complement:of=family:axis-subgroup:c=7": """\
descriptor=family:complement:of=family:axis-subgroup:c=7
q=8 size=63 size_nonzero=62 lines_meeting=9 stab_order=8
ratio_full=0.0159985 ratio_nonzero=0.0163871 contained_line=false all_classes_small=false
bound two_lines: applicable=false rhs=62 ratio=0.129032 violated=
bound line_set: applicable=true rhs=93312 ratio=8.57339e-05 violated=false
bound prime_power: applicable=true rhs=252 ratio=0.031746 violated=false
bound whole_plane: applicable=true rhs=64 ratio=0.125 violated=
bound three_halves: applicable=true rhs=500.047 ratio=0.0159985 violated=
violations=
""",
}


@pytest.mark.parametrize("args", list(STAB_GOLDEN))
def test_cli_stab_golden_output(args, capsys):
    # the whole report, byte for byte: both lines of head cells, every
    # bound line, empty cells for None, and 6-digit floats
    assert main(["stab", *args.split()]) == 0
    assert capsys.readouterr().out == STAB_GOLDEN[args]


@pytest.mark.parametrize("flag", [
    ["--budget", "-5"],
    ["--seed", "1"],
    ["--workers", "0"],
    ["--out", "x.json"],
    ["--format", "json"],
    ["--resume"],
], ids=lambda flag: flag[0])
def test_cli_stab_rejects_campaign_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stab", "--p", "5", "--set", "family:origin", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_stab_takes_no_incidence_constant(capsys):
    # c scales only the incidence and audit reports, which stab does not
    # print; flags are spelled in full, so --c is not a prefix of --c1
    with pytest.raises(SystemExit) as exc:
        main(["stab", "--p", "5", "--set", "family:origin", "--c", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --c 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv,prefix", [
    (["stab", "--p", "5", "--set", "family:origin"], "--b 2"),
    (["incidence", "--p", "3", "--out", "x.csv"], "--bud 3"),
    (["exhaustive", "--p", "2", "--out", "x.csv"], "--camp prime-bound-exhaustive"),
    (["field", "--p", "3"], "--self"),
], ids=lambda v: v[0] if isinstance(v, list) else v.split()[0])
def test_cli_rejects_flag_prefixes(argv, prefix, tmp_path, monkeypatch, capsys):
    # a prefix used to stand for the one flag it began (--b for --beta,
    # --bud for --budget), so a typo could set another value silently
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, *prefix.split()])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_family_campaign(tmp_path, capsys):
    out = tmp_path / "fam.csv"
    code = main(["family", "--p", "2", "--r", "2", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "campaign=family-verify rows=10 violations=0" in printed
    assert f"wrote {out}" in printed
    assert out.exists()


def test_cli_bad_config_exits_2(tmp_path, capsys):
    code = main(["exhaustive", "--p", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["field", "--p", "3", "--r", "100000000"],
    ["field", "--p", "1000000000000000003"],
    ["incidence", "--p", "1000000000000000003", "--budget", "5", "--out", "x.csv"],
    ["exhaustive", "--p", "3", "--r", "100000000", "--out", "x.csv"],
], ids=["field-r", "field-p", "incidence-p", "exhaustive-r"])
def test_cli_huge_field_exits_2(tmp_path, argv):
    # each of these used to hang in make_field before its q <= 256 cap
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "sl2lab.harness", *argv],
        capture_output=True, text=True, env=env, timeout=10, cwd=tmp_path,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error:") and "exceeds the supported maximum" in done.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["audit", "--p", "7", "--m1", "3", "--budget", "3"],
    ["audit", "--p", "7", "--set", "family:line-origin", "--m1", "0"],
], ids=["m1-without-set", "m1-zero"])
def test_cli_audit_m1_misuse_exits_2(tmp_path, capsys, argv):
    # the random audit picks its own multiplicity per row, and m1 = 0
    # names no class, so either would echo an m1 the rows do not audit
    out = tmp_path / "a.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_audit_without_the_class_leaves_no_output(tmp_path, capsys):
    # the producer raises in the first chunk, after the echo line and the
    # header are written; a fresh run with no checkpoint removes its file
    out = tmp_path / "a.csv"
    argv = ["audit", "--p", "7", "--set", "family:line-origin", "--m1", "3", "--out", str(out)]
    assert main(argv) == 2
    assert "no line meets E - 0 in exactly 3 points" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_audit_of_a_set_without_nonzero_points_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert main(["audit", "--p", "7", "--set", "family:origin", "--out", str(out)]) == 2
    assert "error: set has no nonzero points to audit" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["family", "audit", "stab"])
def test_cli_rejects_a_line_break_in_the_set(command, tmp_path, capsys):
    # int() reads "\n2" as 2, so the descriptor used to build a set, and
    # the campaign's echo comment then ran over two lines
    argv = [command, "--p", "3", "--set", "points:(0,1);(1,\n2)"]
    if command != "stab":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: descriptor holds a non-printable character" in captured.err
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("descriptor,message", [
    ("family:random:n=x,seed=1", "parameter n='x' is not an integer"),
    ("family:orbit-union:gens=1,orbits=1", "bad matrix literal '1'"),
    ("family:orbit-union:gens=[1,1;0],orbits=1", "bad matrix literal '[1,1;0]'"),
    ("points:(1,2", "bad point literal '(1,2'"),
    ("family:orbit-union:gens=[1,1;1,1],orbits=1", "(1, 1, 1, 1) is not in SL2"),
    ("family:line-origin:dir=x", "parameter dir='x' is not an integer"),
    ("family:orbit-union:gens=[1,1;0,1],orbits=a", "parameter orbits='a' is not an integer"),
], ids=["int-param", "matrix-no-brackets", "matrix-short-row", "point-unclosed",
        "matrix-not-sl2", "dir-not-int", "orbit-not-int"])
@pytest.mark.parametrize("command", ["stab", "family"])
def test_cli_refuses_a_bad_descriptor_value(command, descriptor, message, tmp_path, capsys):
    argv = [command, "--p", "5", "--set", descriptor]
    if command != "stab":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("name", ["c", "c1", "c2", "alpha", "beta"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_run_campaign_refuses_a_non_finite_constant(tmp_path, name, value):
    # JSON has no literal for them, and NaN fails every comparison
    config = cfg(tmp_path, p=3, r=1, campaign="incidence-report", budget=5, workers=1,
                 fmt="json", **{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, not {value}$"):
        run_campaign(config)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,message", [
    (["family", "--p", "5", "--c1", "inf", "--format", "json"], "c1 must be a finite number, not inf"),
    (["incidence", "--p", "3", "--budget", "5", "--c", "nan"], "c must be a finite number, not nan"),
    (["stab", "--p", "5", "--set", "family:origin", "--alpha", "nan"],
     "alpha must be a finite number, not nan"),
], ids=["campaign-json", "campaign-csv", "stab"])
def test_cli_refuses_a_non_finite_constant(argv, message, tmp_path, capsys):
    if argv[0] != "stab":
        argv = [*argv, "--workers", "1", "--out", str(tmp_path / "x.out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


def test_cli_refuses_a_bad_worker_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SL2LAB_WORKERS", "abc")
    argv = ["family", "--p", "5", "--set", "family:origin", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: SL2LAB_WORKERS='abc' is not an integer\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


NESTED = "family:complement:of="


@pytest.mark.parametrize("command", ["stab", "family"])
def test_cli_refuses_a_deeply_nested_complement(command, tmp_path, capsys):
    # 500 levels used to end in RecursionError, a traceback and exit 1
    argv = [command, "--p", "5", "--set", NESTED * 500 + "family:origin"]
    if command != "stab":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: descriptor nests complement 500 deep; at most {MAX_NESTING} allowed\n"
    )
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["stab", "family"])
def test_cli_runs_a_complement_nested_to_the_cap(command, tmp_path, capsys):
    # an even number of complements of the origin is the origin again,
    # whose R is all of SL2(5); one level more is refused
    assert MAX_NESTING % 2 == 0
    out = tmp_path / "x.csv"
    for levels, code in [(MAX_NESTING, 0), (MAX_NESTING + 1, 2)]:
        argv = [command, "--p", "5", "--set", NESTED * levels + "family:origin"]
        if command != "stab":
            argv += ["--out", str(out)]
        assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: descriptor nests complement {MAX_NESTING + 1} deep; "
        f"at most {MAX_NESTING} allowed\n"
    )
    if command == "stab":
        assert " stab_order=120\n" in captured.out
    else:
        assert read_rows(out)[0]["stab_order"] == 120


@pytest.mark.parametrize("optimize", [["-O"], ["-OO"], []], ids=["-O", "-OO", "PYTHONOPTIMIZE"])
def test_an_optimized_interpreter_is_refused(optimize, tmp_path):
    # -O strips assert statements, the audit's identities among them; a
    # patched count_incidences used to pass every audit row with exit 0
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    if not optimize:
        env["PYTHONOPTIMIZE"] = "1"
    out = tmp_path / "a.csv"
    done = subprocess.run(
        [sys.executable, *optimize, "-m", "sl2lab.harness", "audit", "--p", "7",
         "--budget", "3", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: python -O (or PYTHONOPTIMIZE) strips")
    assert done.stdout == ""
    # run_campaign refuses on its own, for callers that skip main
    call = ("from sl2lab.harness import CampaignConfig, run_campaign\n"
            "run_campaign(CampaignConfig(p=7, r=1, campaign='triple-audit', budget=3, "
            f"out={str(out)!r}))")
    done = subprocess.run([sys.executable, *optimize, "-c", call],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert "ValueError: python -O (or PYTHONOPTIMIZE) strips" in done.stderr
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["stab", "--p", "5", "--set", "points:(1,0);(0,1)"],
    ["family", "--p", "5", "--set", "points:(1,0);(0,1)", "--workers", "1"],
], ids=["stab", "family"])
def test_cli_violated_bound_exits_1(argv, tmp_path, monkeypatch, capsys):
    # an order past the two-line bound (|R(E)| <= |E - 0|) is a proved
    # bound violated: the violations cell names it and the exit code is 1.
    # Over a prime field the prime-power bound's rhs is |E| = 2 as well
    real = harness.report_key
    monkeypatch.setattr(harness, "report_key", lambda ctx, E, order: real(ctx, E, 100 * order))
    out = tmp_path / "f.csv"
    if argv[0] == "family":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 1
    text = capsys.readouterr().out
    if argv[0] == "stab":
        assert "bound two_lines: applicable=true rhs=2 ratio=" in text
        violations = text.splitlines()[-1].removeprefix("violations=")
    else:
        assert "rows=1 violations=2 " in text
        _, header, rows = read_csv(out)
        assert len(rows) == 1
        violations = dict(zip(header, rows[0]))["violations"]
    assert violations == "two_lines;prime_power"


def test_unknown_format_is_refused_before_any_file(tmp_path):
    # the CLI's --format choices hide this path; run_campaign checks too
    with pytest.raises(ValueError, match="format must be csv or json"):
        run_campaign(cfg(tmp_path, p=3, r=1, campaign="exhaustive-subsets", fmt="xml"))
    assert os.listdir(tmp_path) == []


def test_failure_after_a_checkpoint_leaves_a_resumable_pair(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "CHUNK", 64)
    kw = dict(p=3, r=1, campaign="exhaustive-subsets", workers=1)
    full = tmp_path / "full.csv"
    run_campaign(CampaignConfig(out=str(full), **kw))
    spec = CAMPAIGNS["exhaustive-subsets"]

    def failing_from(at):
        def produce(config, start, stop):
            if start >= at:
                raise ValueError("injected failure")
            return spec.produce(config, start, stop)

        return spec._replace(produce=produce)

    part = tmp_path / "part.csv"
    monkeypatch.setitem(CAMPAIGNS, "exhaustive-subsets", failing_from(64))
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(out=str(part), **kw))
    state = json.loads((tmp_path / "part.csv.ckpt").read_text())
    assert state["next_start"] == 64 and state["offset"] == part.stat().st_size
    # a resumed run that fails keeps its output too, even before it checkpoints
    monkeypatch.setitem(CAMPAIGNS, "exhaustive-subsets", failing_from(64))
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(out=str(part), resume=True, **kw))
    assert part.stat().st_size == state["offset"]
    monkeypatch.setitem(CAMPAIGNS, "exhaustive-subsets", spec)
    run_campaign(CampaignConfig(out=str(part), resume=True, **kw))
    assert part.read_bytes() == full.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["full.csv", "part.csv"]


@pytest.mark.parametrize("argv", [
    ["family", "--p", "5"],
    ["search", "--p", "5", "--strategy", "random", "--budget", "12"],
], ids=["family-verify", "search-extremal"])
def test_failed_resume_without_a_checkpoint_leaves_no_file(argv, tmp_path, monkeypatch, capsys):
    # --resume with no checkpoint starts afresh, so a failure leaves only
    # an echo line and a header; no checkpoint backs them and they go
    real = harness.stabilizer_order
    calls = []

    def failing(ctx, E):
        calls.append(E)
        if len(calls) > 5:
            raise ValueError("injected failure")
        return real(ctx, E)

    monkeypatch.setattr(harness, "stabilizer_order", failing)
    out = tmp_path / "x.csv"
    assert main([*argv, "--workers", "1", "--resume", "--out", str(out)]) == 2
    assert "injected failure" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    code = main(["family", "--p", "2", "--r", "2",
                 "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_search(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(["search", "--p", "3", "--strategy", "random",
                 "--budget", "25", "--out", str(out)])
    assert code == 0
    assert "campaign=search-extremal" in capsys.readouterr().out
    echo, header, rows = read_csv(str(out))
    assert "strategy=random" in echo
    assert header == CAMPAIGNS["search-extremal"].columns


def test_campaign_result_type(tmp_path):
    res = run_campaign(cfg(tmp_path, p=2, r=1, campaign="exhaustive-subsets"))
    assert isinstance(res, CampaignResult)
    assert res.summary["campaign"] == "exhaustive-subsets"
    assert res.summary["total_indices"] == 16
    assert isinstance(res.summary["violations"], int)
