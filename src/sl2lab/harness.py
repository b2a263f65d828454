"""Campaign driver and command-line interface.

A campaign turns one configuration into a result file plus a one-line
summary.  The output contract, which the test suite enforces byte for
byte, is:

  * CSV files start with a single comment line echoing the schema tag
    and every configuration field that can influence row content
    (worker count and output options are deliberately not echoed).
  * Rows are produced in enumeration-index order; work is partitioned
    by index ranges, so the bytes written do not depend on the worker
    count.  Random campaigns derive one child seed per index, never a
    shared stream.
  * Integers are written exactly; every float cell of a row is rounded
    to six significant digits (_f6) when the row's entry is built, so
    CSV and JSON agree.
  * Exhaustive campaigns checkpoint progress to <out>.ckpt after every
    chunk but the last (so a run of one chunk writes none), sealed by
    the sha256 of every byte written so far followed by the
    checkpoint's own fields; rerunning with --resume checks that
    seal over the kept prefix and the checkpoint, appends the remaining
    rows, and the concatenated file is identical to an uninterrupted
    run (CSV only).  JSON is written to <out>.tmp and
    renamed to <out> only when the run succeeds.  A failed run removes
    its output file unless a checkpoint backs it for --resume; so does
    a --resume run that found no checkpoint and started afresh.
  * Exit status: 0 clean, 1 when any proved bound is violated (that
    means an implementation bug, so it fails loudly), 2 on bad
    configuration, a file that cannot be read or written, a checkpoint
    that does not fit its output file, an internal cross-check failure,
    or an interpreter run with -O (or PYTHONOPTIMIZE), which strips the
    assert statements those cross-checks are.

Each campaign is one row of CAMPAIGNS: its row producer, columns, row
total, q limits (one of them the q up to which it never pools) and CLI
subcommand.  The report modules name their own columns:
stabilizer.bound_report and incidence3d.incidence_bound_report
return their cells as dicts in column order, and
stabilizer.TripleCountAudit holds its cells as fields in that order.  A
header is REPORT_COLUMNS, INCIDENCE_COLUMNS or AUDIT_COLUMNS with the
row's own cells (index, descriptor, a campaign's checks) around them,
and a row copies the report's cells in order; nothing here lists a
report's columns again.

Every producer yields its rows as (index, descriptor, entry), with a
string tag ("12+o") as a search row's index and None as an incidence
row's descriptor.  The entry (_entry) holds the rounded cells after
them, their text in the run's format alone, the violation count and the
values the summary folds; a row is written as its index, its descriptor
and that text.  _render yields a chunk's text, one CSV text for the
chunk or one JSON text per row, and folds each row into the chunk's
partial summary as it goes; no row is kept.  A serial run writes each
piece as it is rendered, and a pool worker lists its chunk's pieces
before it returns them, since a generator does not pickle.  The parent
merges the summaries in range order and checkpoints.  search-extremal's
rows are held in the parent until they can be ranked.  A pool has no more
processes than chunks or CPUs, whatever --workers asks for, and the
q <= 4 sweeps never pool: their rows are table lookups, cheaper than a
pool's start-up and pickling, so a campaign's serial_max_q keeps them in
the parent.

Stabilizer-report entries are memoized on the field context, under the
Constants value and the format, per stabilizer.report_key, the one thing
bound_report reads; family-verify and search-extremal extend an entry
with their own cells and failed checks (_extend).  family-verify reads
each set and its closed-form order from families (gen_family,
expected_order), so no family is named here.  The q <= 4 sweeps run
on int masks and per-field tables, with a second memo on the raw key
(|R(E)|, origin bit, packed line counts, whether E lies on a line)
packed into one int, containment read off the set of collinear masks; a
miss there reads the report key off the packed counts, so a PointSet is
built only for a spot check.

One percent of rows (every index divisible by 100, fields up to q = 9)
get their symmetry order recomputed by the brute-force oracle; a
mismatch aborts the run.  SL2LAB_WORKERS sets the default worker count.

A campaign process loads only what its run uses.  hashlib, which loads
OpenSSL, is imported by a run that will checkpoint and by _read_ckpt;
concurrent.futures by a run that pools; argparse by the CLI's parser.
The record types are NamedTuples, so dataclasses, and the inspect it
imports, are never loaded.  csv stays a module global, which the
benchmark's tracer replaces.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import sys
from collections.abc import Callable
from contextlib import ExitStack
from typing import NamedTuple

from .families import default_battery, expected_order, gen_family, parse_set_spec
from .gf import FieldCtx, make_field, selftest
from .incidence3d import (
    INCIDENCE_COLUMNS,
    all_lines,
    build_instance,
    count_incidences_brute,
    decode_point,
    incidence_bound_report,
    line_tables,
)
from .plane import (
    PointSet,
    _text_chunk,
    affine_line_mask,
    apply_to_set,
    line_nonzero_masks,
    proj_lines,
    sl2_order,
    sl2_unrank,
)
from .rng import DetRng, nth_seed
from .stabilizer import (
    AUDIT_COLUMNS,
    BOUNDS,
    REPORT_COLUMNS,
    Constants,
    all_subset_stabilizer_orders,
    bound_report,
    complement_agrees,
    line_partition,
    line_set_stabilizer,
    report_key,
    stabilizer_brute,
    stabilizer_order,
    subgroup_orbits,
    triple_count_audit,
)

SCHEMA = "slab-v1"

STRATEGIES = ("orbit-union", "random")  # search-extremal candidate generators

CHUNK = 4096
SPOT_EVERY = 100  # brute-oracle recheck on every index divisible by this
MAX_Q_BRUTE_SPOT = 9


class CampaignConfig(NamedTuple):
    p: int
    r: int
    campaign: str
    set_spec: str | None = None
    m1: int | None = None
    strategy: str = "orbit-union"
    c: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    alpha: float = 0.5
    beta: float = 0.75
    budget: int = 1000
    seed: int = 0
    workers: int | None = None
    out: str | None = None
    fmt: str = "csv"
    resume: bool = False
    allow_sampled: bool = False


class CampaignResult(NamedTuple):
    summary: dict
    out: str


def _f6(x):
    """Six significant digits, applied once when the row is built."""
    return None if x is None else float(f"{float(x):.6g}")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


# Each report module names its own columns (REPORT_COLUMNS, AUDIT_COLUMNS,
# INCIDENCE_COLUMNS); a campaign's header puts its row's other cells
# around them.
_STAB_COLUMNS = ["index", "descriptor", *REPORT_COLUMNS]


# ---------------------------------------------------------------------------
# Per-process state lives on the field context.  make_field keeps the
# last field this process built, for run_campaign, the producers and the
# pool workers: a forked worker inherits it, a spawned one builds it on
# first use.  Campaign tables sit in its memo beside the geometry tables.


def _spot(ctx: FieldCtx, E: PointSet, stab_order: int, index: int) -> None:
    if index % SPOT_EVERY == 0 and ctx.q <= MAX_Q_BRUTE_SPOT:
        got = len(stabilizer_brute(ctx, E))
        if got != stab_order:
            raise AssertionError(
                f"spot check failed at index {index}: brute {got} != {stab_order}"
            )


def _constants(config) -> Constants:  # a CampaignConfig or the stab args
    return Constants(config.c1, config.c2, config.alpha, config.beta)


def _require_finite(config, names) -> None:
    """Refuse a NaN or infinite constant: JSON has no literal for it,
    and every comparison with NaN is false."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, not {value}")


class _Entry(NamedTuple):
    """A row's cells after index/descriptor and what the writer and the
    summary read of them."""

    cells: dict  # in column order, every float rounded by _f6
    nviol: int  # the number of failed checks
    text: str  # the cells' CSV line or JSON members, in the run's format
    ratio_nonzero: float | None  # this and the next two are summary folds
    lines_meeting: int
    confirmed: bool | None


def _entry(cells: dict, nviol: int, fmt: str) -> _Entry:
    """The entry of a row with these cells, rendered for fmt alone: as
    csv.writer writes them, or as json.dump(indent=1) lays out a row."""
    cells = {k: _f6(v) if isinstance(v, float) else v for k, v in cells.items()}
    if fmt == "csv":
        text = _csv_text([[_fmt(v) for v in cells.values()]])
    else:
        text = _json_members(cells, _ROW_PAD)
    get = cells.get
    return _Entry(
        cells, nviol, text, get("ratio_nonzero"), get("lines_meeting", 0), get("confirmed")
    )


def _report_entry(ctx, key: tuple, constants: Constants, fmt: str) -> _Entry:
    """The entry of bound_report's cells for a set with this report_key;
    bound_report runs once per key (and constants and format)."""
    memo = ctx.memo(("tails", constants, fmt), dict)
    entry = memo.get(key)
    if entry is None:
        cells = bound_report(ctx, key, constants)
        # the cells are rendered in dict order, under the header's names
        assert tuple(cells) == REPORT_COLUMNS, "bound_report cells out of column order"
        bad = cells["violations"]
        entry = memo[key] = _entry(cells, bad.count(";") + 1 if bad else 0, fmt)
    return entry


def _extend(entry: _Entry, extra: dict, failed: list, fmt: str) -> _Entry:
    """A report entry with a campaign's own cells after the report's and
    the names of its failed checks added to the violations cell."""
    cells = entry.cells
    bad = ";".join(filter(None, [cells["violations"], *failed]))
    return _entry({**cells, "violations": bad, **extra}, entry.nviol + len(failed), fmt)


# ---------------------------------------------------------------------------
# Row producers, one per campaign.  Each yields (index, descriptor, entry)
# for each index in [start, stop), purely from (config, index).


def _line_count_bytes(ctx) -> tuple:
    """Two tables, for the low and the high byte of a q <= 4 mask: the
    nonzero line counts of that byte's points, one 4-bit field per
    origin line in pencil order.  A line has q - 1 <= 3 nonzero points,
    so the two lookups add without a carry between fields."""
    masks = line_nonzero_masks(ctx)
    return tuple(
        [
            sum((v << shift & lm).bit_count() << 4 * i for i, lm in enumerate(masks))
            for v in range(256)
        ]
        for shift in (0, 8)
    )


def _descriptor_bytes(ctx) -> tuple:
    """(low, high_after, high_alone): PointSet.text() of a q <= 4 mask is
    low[mask & 255] + (high_after if mask & 255 else high_alone)[mask >> 8]."""
    low, high = _text_chunk(ctx.q, 0), _text_chunk(ctx.q, 1)
    return (
        ["points:" + t for t in low],
        [";" + t if t else "" for t in high],
        high,
    )


def _lined_masks(ctx) -> frozenset:
    """Every mask of a q <= 4 plane whose points lie on one line: the
    submasks of the q^2 + q affine lines, which hold every mask of at
    most two points."""
    pairs = itertools.combinations(range(ctx.q * ctx.q), 2)
    lined = {0}
    for line in {affine_line_mask(ctx, a, b) for a, b in pairs}:
        sub = line
        while sub:
            lined.add(sub)
            sub = (sub - 1) & line
    return frozenset(lined)


def _mask_items(ctx, config, masks):
    """The report items of the masks of a q <= 4 plane, in order.

    The loop works on the int mask and per-field tables: the order comes
    from the subset table, the packed line counts from _line_count_bytes,
    containment from _lined_masks and the descriptor from
    _descriptor_bytes.  A second memo maps the raw key (order, origin
    bit, packed counts, contained), packed into one int, to its entry;
    on a miss the report key is read off the packed counts, so a
    PointSet is built only for the spot check.
    """
    q = ctx.q
    counts = ctx.memo("counts", all_subset_stabilizer_orders, ctx)
    low_counts, high_counts = ctx.memo("line_count_bytes", _line_count_bytes, ctx)
    low_text, high_after, high_alone = ctx.memo("descriptor_bytes", _descriptor_bytes, ctx)
    lined = ctx.memo("lined_masks", _lined_masks, ctx)
    width = 4 * (q + 1)  # one 4-bit field per origin line
    constants = _constants(config)
    raw = ctx.memo(("mask_tails", constants, config.fmt), dict)
    for mask in masks:
        order = counts[mask]
        lo, hi = mask & 255, mask >> 8
        packed = low_counts[lo] + high_counts[hi]
        raw_key = ((order << 1 | mask & 1) << width | packed) << 1 | (mask in lined)
        entry = raw.get(raw_key)
        if entry is None:
            mults = tuple(sorted(filter(None, (packed >> s & 15 for s in range(0, width, 4)))))
            key = (order, mask.bit_count(), mults, bool(raw_key & 1))
            entry = raw[raw_key] = _report_entry(ctx, key, constants, config.fmt)
        if mask % SPOT_EVERY == 0:
            _spot(ctx, PointSet(q, mask), order, mask)
        yield mask, low_text[lo] + (high_after if lo else high_alone)[hi], entry


def _gen_exhaustive(config, start, stop):
    ctx = make_field(config.p, config.r)
    if ctx.q <= 4:
        return _mask_items(ctx, config, range(start, stop))
    return _sampled_items(ctx, config, start, stop)


def _sampled_items(ctx, config, start, stop):
    q = ctx.q
    sample = ctx.memo(
        ("sample", config.seed, config.budget),
        lambda: DetRng(config.seed).sample(1 << (q * q), config.budget),
    )
    constants = _constants(config)
    for i in range(start, stop):
        E = PointSet(q, sample[i])
        order = stabilizer_order(ctx, E)
        _spot(ctx, E, order, i)
        yield i, E.text(), _report_entry(ctx, report_key(ctx, E, order), constants, config.fmt)


def _two_line_space(ctx):
    q = ctx.q
    pairs = list(itertools.combinations(range(q + 1), 2))
    per_line = 1 << (q - 1)
    return pairs, per_line - 1


def _line_codes(ctx):
    """Each origin line's nonzero codes, in pencil order.  A line's codes
    ascend, so for its canonical direction u (first nonzero coordinate
    1) the k-th is t * u with t the k-th nonzero element."""
    return [PointSet(ctx.q, b).nonzero_codes for b in line_nonzero_masks(ctx)]


def _gen_two_line(config, start, stop):
    ctx = make_field(config.p, config.r)
    q = ctx.q
    pairs, m = _two_line_space(ctx)
    codes = ctx.memo("line_codes", _line_codes, ctx)
    # |R(E)| depends on (sub1, sub2) alone.  The k-th code of a line is
    # t * u with t the k-th nonzero element (_line_codes), so some h in
    # GL2 with h(t * u_i) = (t, 0) and h(t * u_j) = (0, t) carries E
    # onto the set with the same sub-indices on the axis pair (0, q).
    # SL2 is normal in GL2, so R(hE) = h R(E) h^-1 and the orders agree;
    # the origin bit is ignored by R(E).  The memo holds the axis-pair
    # order per (sub1, sub2), and _spot still checks the row's own E by
    # brute force.
    orders = ctx.memo("two_line_orders", dict)
    constants = _constants(config)

    def pick(line, sub):
        bits = 0
        for k, code in enumerate(codes[line]):
            if (sub + 1) >> k & 1:
                bits |= 1 << code
        return bits

    for index in range(start, stop):
        rest, origin_bit = divmod(index, 2)
        rest, sub2 = divmod(rest, m)
        pair_idx, sub1 = divmod(rest, m)
        i, j = pairs[pair_idx]
        E = PointSet(q, origin_bit | pick(i, sub1) | pick(j, sub2))
        order = orders.get((sub1, sub2))
        if order is None:
            axes = PointSet(q, pick(0, sub1) | pick(q, sub2))
            order = orders[sub1, sub2] = stabilizer_order(ctx, axes)
        _spot(ctx, E, order, index)
        yield index, E.text(), _report_entry(ctx, report_key(ctx, E, order), constants, config.fmt)


def _lineset_list(ctx, config):
    q = ctx.q
    sets = [tuple(c) for c in itertools.combinations(range(q + 1), 3)]
    sets += [tuple(c) for c in itertools.combinations(range(q + 1), 4)]
    if q + 1 >= 5:
        for i in range(config.budget):
            rng = DetRng(nth_seed(config.seed, i))
            sets.append(tuple(sorted(rng.sample(q + 1, 5))))
    return sets


def _linesets(ctx, config):
    return ctx.memo(("linesets", config.seed, config.budget), _lineset_list, ctx, config)


def _gen_lineset(config, start, stop):
    ctx = make_field(config.p, config.r)
    q = ctx.q
    sets = _linesets(ctx, config)
    masks = line_nonzero_masks(ctx)
    lines = proj_lines(ctx)
    constants = _constants(config)
    for index in range(start, stop):
        picked = sets[index]
        bits = 1  # unions of full origin lines include the origin
        for i in picked:
            bits |= masks[i]
        E = PointSet(q, bits)
        order = stabilizer_order(ctx, E)
        # dual route: the point-set symmetries of a union of origin
        # lines are exactly the permutations of those directions
        direct = line_set_stabilizer(ctx, [lines[i] for i in picked])
        if len(direct) != order:
            raise AssertionError(
                f"line-set stabilizer mismatch at index {index}: {len(direct)} != {order}"
            )
        yield index, E.text(), _report_entry(ctx, report_key(ctx, E, order), constants, config.fmt)


def _gen_prime_bound(config, start, stop):
    ctx = make_field(config.p, config.r)
    full_nz = ctx.q * ctx.q - 1
    for item in _mask_items(ctx, config, range(start, stop)):
        entry = item[2]
        if entry.lines_meeting >= 2 and entry.cells["size_nonzero"] < full_nz:
            yield item


def _family_specs(ctx, config):
    if config.set_spec:
        return [parse_set_spec(config.set_spec)]
    return default_battery(ctx)


def _battery(ctx, config):
    return ctx.memo(("battery", config.set_spec), _family_specs, ctx, config)


def _gen_family(config, start, stop):
    ctx = make_field(config.p, config.r)
    specs = _battery(ctx, config)
    constants = _constants(config)
    for index in range(start, stop):
        spec = specs[index]
        E = gen_family(ctx, spec)
        order = stabilizer_order(ctx, E)
        _spot(ctx, E, order, index)
        comp_match = complement_agrees(ctx, E, order)
        expected = expected_order(ctx, spec)
        exp_match = None if expected is None else order == expected
        failed = ["complement_mismatch"] if not comp_match else []
        if exp_match is False:
            failed.append("expected_mismatch")
        extra = dict(complement_match=comp_match, expected_order=expected, expected_match=exp_match)
        entry = _report_entry(ctx, report_key(ctx, E, order), constants, config.fmt)
        yield index, spec.text(), _extend(entry, extra, failed, config.fmt)


def _gen_incidence(config, start, stop):
    ctx = make_field(config.p, config.r)
    q = ctx.q
    tables = ctx.memo("line_tables", lambda: line_tables(ctx, all_lines(ctx)))
    pool = tables.pool
    cap = 2 * q * q
    for index in range(start, stop):
        rng = DetRng(nth_seed(config.seed, index))
        npts = 1 + rng.below(min(cap, q**3))
        nlns = 1 + rng.below(min(cap, len(pool)))
        codes = rng.sample(q**3, npts)
        positions = rng.sample(len(pool), nlns)
        counts = build_instance(ctx, tables, codes, positions)  # |P|, |L|, I(P, L), plane max
        if index % SPOT_EVERY == 0:
            points = [decode_point(q, c) for c in codes]
            brute = count_incidences_brute(ctx, points, [pool[i] for i in positions])
            if brute != counts[2]:
                raise AssertionError(
                    f"incidence spot check failed at {index}: {brute} != {counts[2]}"
                )
        yield index, None, _entry(incidence_bound_report(ctx, counts, c=config.c), 0, config.fmt)


def random_uniform_class_set(ctx: FieldCtx, seed: int):
    """A random set whose nonzero part is m1 points on each of m0 lines.

    Every nonzero point lies on exactly one origin line, so choosing m1
    points on each of m0 distinct lines makes the multiplicity-m1 class
    exactly those m0 lines.  Returns (set, m0, m1).
    """
    q = ctx.q
    rng = DetRng(seed)
    m0 = 2 + rng.below(q)
    m1 = 1 + rng.below(q - 1)
    lines = ctx.memo("line_codes", _line_codes, ctx)
    codes = []
    for li in rng.sample(q + 1, m0):
        line = lines[li]
        codes += [line[j] for j in rng.sample(q - 1, m1)]
    return PointSet.from_codes(q, codes), m0, m1


def _pick_multiplicity(ctx, E):
    classes = line_partition(ctx, E.without_origin())
    if not classes:
        raise ValueError("set has no nonzero points to audit")
    return min(classes, key=lambda k: (-len(classes[k]), k))


def _gen_audit(config, start, stop):
    ctx = make_field(config.p, config.r)
    if config.set_spec:
        E = gen_family(ctx, parse_set_spec(config.set_spec))
        m1 = config.m1 if config.m1 is not None else _pick_multiplicity(ctx, E)
    for index in range(start, stop):
        if not config.set_spec:
            E, _, m1 = random_uniform_class_set(ctx, nth_seed(config.seed, index))
        try:
            aud = triple_count_audit(ctx, E, m1, c=config.c)
        except AssertionError as err:
            # a failed audit keeps the column order, with only m1 known
            cells = {**dict.fromkeys(AUDIT_COLUMNS), "multiplicity": m1}
            cells.update(audit_ok=False, audit_error=str(err))
        else:
            cells = dict(zip(AUDIT_COLUMNS, aud))  # the audit's fields up to its normalizer
            cells.update(audit_ok=True, audit_error="")
        yield index, E.text(), _entry(cells, 0 if cells["audit_ok"] else 1, config.fmt)


def _gen_search(config, start, stop):
    ctx = make_field(config.p, config.r)
    q = ctx.q
    order = sl2_order(q)
    constants = _constants(config)
    for index in range(start, stop):
        rng = DetRng(nth_seed(config.seed, index))
        if config.strategy == "random":
            n = 1 + rng.below(q * q - 1)
            E = PointSet.from_codes(q, rng.sample(q * q, n))
            fast = stabilizer_order(ctx, E)
            brute = len(stabilizer_brute(ctx, E))  # every random row gets the oracle
            if fast != brute:
                raise AssertionError(f"search row {index}: fast {fast} != brute {brute}")
            entry = _report_entry(ctx, report_key(ctx, E, fast), constants, config.fmt)
            extra = dict(strategy="random", subgroup_order=None, contains_subgroup=None)
            yield f"{index}", E.text(), _extend(entry, extra, [], config.fmt)
            continue
        ngens = 1 + rng.below(2)
        gens = [sl2_unrank(ctx, rng.below(order)) for _ in range(ngens)]
        h_order, orbits = subgroup_orbits(ctx, gens)
        others = [o for o in orbits if not (0 in o and o.size == 1)]
        mask = 1 + rng.below((1 << min(len(others), 12)) - 1)
        union = PointSet.from_codes(q, ())
        for k, orb in enumerate(others[:12]):
            if (mask >> k) & 1:
                union = union.union(orb)
        for tag, E in ((f"{index}", union), (f"{index}+o", union.with_origin())):
            stab_order = stabilizer_order(ctx, E)
            _spot(ctx, E, stab_order, index)
            # H lies in R(E) when its generators keep E, and then |H|
            # divides |R(E)|; a route that undercounts R(E) fails that
            kept = all(apply_to_set(ctx, g, E) == E for g in gens)
            contains = kept and stab_order % h_order == 0
            entry = _report_entry(ctx, report_key(ctx, E, stab_order), constants, config.fmt)
            extra = dict(strategy="orbit-union", subgroup_order=h_order, contains_subgroup=contains)
            failed = [] if contains else ["orbit_union_containment"]
            yield tag, E.text(), _extend(entry, extra, failed, config.fmt)


def _rank_search_rows(collected: list) -> list:
    """Dedup by point set, keep candidates meeting two or more lines,
    order by falling symmetry ratio (first appearance breaks ties)."""
    seen = set()
    kept = []
    for pos, item in enumerate(collected):
        _, descriptor, entry = item
        if descriptor in seen:
            continue
        seen.add(descriptor)
        if entry.lines_meeting >= 2 and entry.ratio_nonzero is not None:
            kept.append((-entry.ratio_nonzero, pos, item))
    kept.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in kept]


class Campaign(NamedTuple):
    """One campaign: everything that sets it apart from the others."""

    command: str  # CLI subcommand that runs it
    produce: Callable  # (config, start, stop) -> producer items
    columns: list
    total: Callable  # (config, ctx) -> number of indices to enumerate
    max_q: int
    sampled_max_q: int = 0  # larger q this far runs sampled with allow_sampled
    # rows up to this q are table lookups, cheaper than a pool's start-up
    # and pickling: such a run stays in the parent whatever --workers says
    serial_max_q: int = 0
    rank: Callable | None = None  # items are held, then ranked, before writing


def _two_line_total(config, ctx):
    pairs, m = _two_line_space(ctx)
    return len(pairs) * m * m * 2


def _budget_total(config, ctx):
    return config.budget


CAMPAIGNS = {
    "exhaustive-subsets": Campaign(
        command="exhaustive",
        produce=_gen_exhaustive,
        columns=_STAB_COLUMNS,
        total=lambda config, ctx: (1 << (ctx.q * ctx.q)) if ctx.q <= 4 else config.budget,
        max_q=4,
        sampled_max_q=5,
        serial_max_q=4,
    ),
    "two-line-exhaustive": Campaign(
        command="exhaustive",
        produce=_gen_two_line,
        columns=_STAB_COLUMNS,
        total=_two_line_total,
        max_q=5,  # q = 7 would be 222,264 rows
    ),
    "lineset-exhaustive": Campaign(
        command="exhaustive",
        produce=_gen_lineset,
        columns=_STAB_COLUMNS,
        total=lambda config, ctx: len(_linesets(ctx, config)),
        max_q=9,
    ),
    "family-verify": Campaign(
        command="family",
        produce=_gen_family,
        columns=[*_STAB_COLUMNS, "complement_match", "expected_order", "expected_match"],
        total=lambda config, ctx: len(_battery(ctx, config)),
        max_q=64,
    ),
    "prime-bound-exhaustive": Campaign(
        command="exhaustive",
        produce=_gen_prime_bound,
        columns=_STAB_COLUMNS,
        total=lambda config, ctx: 1 << (ctx.q * ctx.q),
        max_q=4,
        serial_max_q=4,
    ),
    "incidence-report": Campaign(
        command="incidence",
        produce=_gen_incidence,
        columns=["index", *INCIDENCE_COLUMNS],
        total=_budget_total,
        max_q=9,
    ),
    "triple-audit": Campaign(
        command="audit",
        produce=_gen_audit,
        columns=["index", "descriptor", *AUDIT_COLUMNS, "audit_ok", "audit_error"],
        total=lambda config, ctx: 1 if config.set_spec else config.budget,
        max_q=9,
    ),
    "search-extremal": Campaign(
        command="search",
        produce=_gen_search,
        columns=[*_STAB_COLUMNS, "strategy", "subgroup_order", "contains_subgroup"],
        total=_budget_total,
        max_q=9,
        rank=_rank_search_rows,
    ),
}


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


_ROW_PAD = "   "  # a row's members sit at depth 3 of the JSON document


_json_str = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it


def _json_members(d: dict, pad: str) -> str:
    """The members of a flat dict of scalars, as json.dump(indent=1)
    lays them out at the nesting depth len(pad)."""
    return ",\n".join(f"{pad}{json.dumps(k)}: {json.dumps(v)}" for k, v in d.items())


def _json_object(d: dict, depth: int) -> str:
    return "{\n" + _json_members(d, " " * (depth + 1)) + "\n" + " " * depth + "}"


def _render(config: CampaignConfig, items, part: _Acc):
    """The text of rows, yielded as pieces to write in order: one CSV
    text for the chunk or one JSON text per row (each starts with its
    line break; the writer puts a comma between rows).  Each row is
    folded into the partial summary part as its piece is rendered, so
    part is whole once the last piece has been taken.  A row is its
    index, its descriptor and its entry's text.  A descriptor has built
    its set, so it holds commas but no quote or line break (a family's
    values are integers, "inf" or descriptors): csv.writer quotes it
    exactly when it holds a comma.  JSON escapes it, and a search tag,
    as json.dump does."""
    fold = part.fold
    if config.fmt == "json":
        for index, descriptor, entry in items:
            fold(descriptor, entry)
            head = index if index.__class__ is int else _json_str(index)
            if descriptor is not None:
                head = f'{head},\n{_ROW_PAD}"descriptor": {_json_str(descriptor)}'
            yield f'\n  {{\n{_ROW_PAD}"index": {head},\n{entry.text}\n  }}'
        return
    buf = io.StringIO()
    write = buf.write
    for index, descriptor, entry in items:
        fold(descriptor, entry)
        if descriptor is None:
            write(f"{index},{entry.text}")
        elif "," in descriptor:
            write(f'{index},"{descriptor}",{entry.text}')
        else:
            write(f"{index},{descriptor},{entry.text}")
    yield buf.getvalue()


def _run_range(config: CampaignConfig, start: int, stop: int) -> tuple:
    """(summary of the rows of [start, stop), their pieces).

    The pieces are rendered as they are taken, and the summary is whole
    once they all have been; the producer is consumed once and no row is
    kept.  A ranked campaign instead returns (None, its items), which
    the parent holds until it can rank them."""
    spec = CAMPAIGNS[config.campaign]
    items = spec.produce(config, start, stop)
    if spec.rank is not None:
        return None, list(items)
    part = _Acc()
    return part, _render(config, items, part)


def _run_listed(config: CampaignConfig, start: int, stop: int) -> tuple:
    """_run_range in a pool worker: a generator does not pickle, so the
    chunk's pieces are rendered into a list before they return."""
    part, pieces = _run_range(config, start, stop)
    return part, list(pieces)


def _ranked(config: CampaignConfig, batches) -> tuple:
    """A ranked campaign's whole output as one (summary, pieces) batch,
    from the (None, items) batches of all its chunks."""
    items = [item for _, chunk in batches for item in chunk]
    part = _Acc()
    return part, _render(config, CAMPAIGNS[config.campaign].rank(items), part)


# ---------------------------------------------------------------------------
# Guards and the drive loop


def _validate(config: CampaignConfig, ctx: FieldCtx) -> None:
    name = config.campaign
    if name not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {name!r}; choose from {', '.join(CAMPAIGNS)}")
    if config.fmt not in ("csv", "json"):
        raise ValueError("format must be csv or json")
    if config.strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {', '.join(STRATEGIES)}")
    if config.budget < 0:
        raise ValueError("budget must be >= 0")
    if config.workers < 1:
        raise ValueError("workers must be >= 1")
    _require_finite(config, ("c",) + Constants._fields)
    if config.resume and config.fmt != "csv":
        raise ValueError("resume is only supported for csv output")
    if config.m1 is not None:
        if name != "triple-audit" or not config.set_spec:
            raise ValueError("m1 applies only to an audit of one --set")
        if config.m1 < 1:
            raise ValueError("m1 must be >= 1")
    spec = CAMPAIGNS[name]
    if ctx.q > (max(spec.max_q, spec.sampled_max_q) if config.allow_sampled else spec.max_q):
        hint = ""
        if spec.sampled_max_q:
            hint = f"; q <= {spec.sampled_max_q} runs sampled with --allow-sampled"
        raise ValueError(f"{name} needs q <= {spec.max_q}{hint}")


def _echo(config: CampaignConfig) -> str:
    parts = [
        f"# {SCHEMA}",
        f"campaign={config.campaign}",
        f"p={config.p}",
        f"r={config.r}",
        f"seed={config.seed}",
        f"budget={config.budget}",
        f"c={_fmt(config.c)}",
        f"c1={_fmt(config.c1)}",
        f"c2={_fmt(config.c2)}",
        f"alpha={_fmt(config.alpha)}",
        f"beta={_fmt(config.beta)}",
    ]
    if "strategy" in CAMPAIGNS[config.campaign].columns:
        parts.append(f"strategy={config.strategy}")
    if config.m1 is not None:
        parts.append(f"m1={config.m1}")
    if config.set_spec:
        parts.append(f"set={config.set_spec}")
    return " ".join(parts)


class _Acc:
    """Summary accumulators, checkpointable as a plain dict."""

    def __init__(self):
        self.rows = 0
        self.violations = 0
        self.max_ratio = None
        self.argmax = ""
        self.confirmed_checked = 0
        self.confirmed_ok = 0

    def fold(self, descriptor, entry: _Entry) -> None:
        """Fold in one row, given by its descriptor and its entry."""
        self.rows += 1
        self.violations += entry.nviol
        ratio = entry.ratio_nonzero
        if (
            ratio is not None
            and entry.lines_meeting >= 2
            and (self.max_ratio is None or ratio > self.max_ratio)
        ):
            self.max_ratio = ratio
            self.argmax = descriptor
        confirmed = entry.confirmed
        if confirmed is not None:
            self.confirmed_checked += 1
            self.confirmed_ok += bool(confirmed)

    def merge(self, part: "_Acc") -> None:
        """Fold in the summary of the rows that follow this one's."""
        self.rows += part.rows
        self.violations += part.violations
        if part.max_ratio is not None and (
            self.max_ratio is None or part.max_ratio > self.max_ratio
        ):
            self.max_ratio = part.max_ratio
            self.argmax = part.argmax
        self.confirmed_checked += part.confirmed_checked
        self.confirmed_ok += part.confirmed_ok

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "_Acc":
        acc = cls()
        acc.__dict__.update(d)
        return acc


def _default_out(config: CampaignConfig) -> str:
    return f"{config.campaign}-p{config.p}-r{config.r}.{config.fmt}"


def _seal(digest, state: dict) -> str:
    """The checkpoint's sha256: digest (the output's first offset bytes)
    continued by the checkpoint's own fields, so an edit to either shows."""
    seal = digest.copy()
    seal.update(json.dumps(state, sort_keys=True).encode())
    return seal.hexdigest()


def _write_ckpt(path: str, echo: str, next_start: int, offset: int, digest, acc: _Acc) -> None:
    """digest is the sha256 of the output's first offset bytes."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        state = {"echo": echo, "next_start": next_start, "offset": offset, "acc": acc.to_dict()}
        json.dump({**state, "sha256": _seal(digest, state)}, fh)
    os.replace(tmp, path)


def _read_ckpt(path: str, out: str, echo: str, total: int) -> tuple:
    """(state, digest): the checkpoint at path and the sha256 of the
    first offset bytes of out.  The checkpoint is refused unless it has
    _write_ckpt's layout, value types included, a next_start in
    [0, total] and this run's echo, and its seal matches out's prefix
    and its own fields."""
    with open(path) as fh:
        state = json.load(fh)
    layout = {"echo": str, "next_start": int, "offset": int, "sha256": str, "acc": dict}
    acc = {k: type(v) for k, v in vars(_Acc()).items()}  # max_ratio is None until a row counts
    if not (
        isinstance(state, dict)
        and {k: type(v) for k, v in state.items()} == layout
        and {k: type(v) for k, v in state["acc"].items()} in (acc, {**acc, "max_ratio": float})
        and 0 <= state["next_start"] <= total
    ):
        raise ValueError(f"cannot resume: {path} does not fit this version and run")
    if state["echo"] != echo:
        raise ValueError("checkpoint does not match this configuration")
    if not os.path.isfile(out):
        raise ValueError(f"cannot resume: {out} is missing")
    if os.path.getsize(out) < state["offset"]:
        raise ValueError(f"cannot resume: {out} is shorter than its checkpoint offset")
    import hashlib  # loads OpenSSL: only a run that checkpoints imports it

    digest = hashlib.sha256()
    with open(out, "rb") as raw:
        digest.update(raw.read(state["offset"]))
    if state.pop("sha256") != _seal(digest, state):
        raise ValueError(f"cannot resume: {out} or its checkpoint changed after it was written")
    return state, digest


def _emit(fh, digest, text: str) -> None:
    data = text.encode()
    fh.write(data)
    if digest is not None:
        digest.update(data)


# CampaignConfig fields that steer a run but cannot change a row
_RUN_FIELDS = ("workers", "out", "fmt", "resume", "allow_sampled")


def _head(config: CampaignConfig, echo: str) -> str:
    """Everything an output file holds before its first row."""
    if config.fmt == "csv":
        return echo + "\n" + _csv_text([CAMPAIGNS[config.campaign].columns])
    echoed = {k: v for k, v in config._asdict().items() if v is not None and k not in _RUN_FIELDS}
    named = _json_members({"schema": SCHEMA, "campaign": config.campaign}, " ")
    return f'{{\n{named},\n "config": {_json_object(echoed, 1)},\n "rows": ['


def _json_close(acc: _Acc) -> str:
    """The end of a JSON output file: the rows list closed, then the summary."""
    rows_end = "\n ]" if acc.rows else "]"
    return f'{rows_end},\n "summary": {_json_object(acc.to_dict(), 1)}\n}}\n'


def _require_asserts() -> None:
    """Refuse to run unchecked: the cross-checks and the audit's
    identities are assert statements, which python -O strips."""
    if not __debug__:
        raise ValueError(
            "python -O (or PYTHONOPTIMIZE) strips the assert statements "
            "that check every run; run without -O"
        )


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run one campaign: write the result file, return its summary."""
    _require_asserts()
    ctx = make_field(config.p, config.r)
    if config.workers is None:
        raw = os.environ.get("SL2LAB_WORKERS", "1")
        try:
            config = config._replace(workers=int(raw))
        except ValueError:
            raise ValueError(f"SL2LAB_WORKERS={raw!r} is not an integer") from None
    _validate(config, ctx)
    spec = CAMPAIGNS[config.campaign]
    out = config.out or _default_out(config)
    total = spec.total(config, ctx)
    echo = _echo(config)
    ckpt_path = out + ".ckpt"
    # only unranked CSV runs can resume; JSON goes to a temporary file
    # renamed into place once the run has finished
    resumable = config.fmt == "csv" and spec.rank is None
    path = out if config.fmt == "csv" else out + ".tmp"
    joiner = "," if config.fmt == "json" else ""  # written between two pieces

    start = 0
    acc = _Acc()
    digest = None  # the sha256 of every byte written so far, which only checkpoints read
    mode = "wb"
    if config.resume and resumable and os.path.exists(ckpt_path):
        state, digest = _read_ckpt(ckpt_path, out, echo, total)
        start = state["next_start"]
        acc = _Acc.from_dict(state["acc"])
        # drop any rows written after the last completed chunk
        with open(out, "r+b") as raw:
            raw.truncate(state["offset"])
        mode = "ab"

    starts = range(start, total, CHUNK)
    stops = [min(s + CHUNK, total) for s in starts]
    # a checkpoint follows every chunk but the last: after the last it
    # could only say "done", and the run removes it at once.  So a run of
    # one chunk computes no digest and never loads hashlib (OpenSSL).
    checkpoints = resumable and len(starts) > 1
    if not checkpoints:
        digest = None
    elif digest is None:
        import hashlib

        digest = hashlib.sha256()
    # a failed run removes the file it opened unless a checkpoint backs
    # it: the one a resumed run started from, or one this run wrote
    remove = False
    try:
        with ExitStack() as stack:
            fh = stack.enter_context(open(path, mode))
            remove = mode == "wb"
            if mode == "wb":
                _emit(fh, digest, _head(config, echo))
            run, chunk = map, _run_range
            if config.workers > 1 and total - start > CHUNK and ctx.q > spec.serial_max_q:
                # imported here to keep concurrent.futures and multiprocessing off start-up
                from concurrent.futures import ProcessPoolExecutor

                # a fork pool starts all its workers at once: no more than
                # there are chunks or CPUs
                workers = min(config.workers, len(starts), os.cpu_count() or 1)
                run = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
                chunk = _run_listed
            batches = run(chunk, itertools.repeat(config), starts, stops)
            if spec.rank is not None:
                batches = [_ranked(config, batches)]
            sep = ""
            for stop, (part, pieces) in zip(stops, batches):
                for piece in pieces:  # written as each is rendered
                    _emit(fh, digest, sep + piece)
                    sep = joiner
                acc.merge(part)
                if checkpoints and stop < total:
                    fh.flush()
                    _write_ckpt(ckpt_path, echo, stop, fh.tell(), digest, acc)
                    remove = False
            if config.fmt == "json":
                _emit(fh, digest, _json_close(acc))
        if path != out:
            os.replace(path, out)
    except BaseException:
        if remove:
            os.remove(path)
        raise
    if os.path.exists(ckpt_path):
        os.remove(ckpt_path)

    summary = acc.to_dict()
    summary["campaign"] = config.campaign
    summary["total_indices"] = total
    return CampaignResult(summary=summary, out=out)


# ---------------------------------------------------------------------------
# CLI


def _add_field_and_constants(sub) -> None:
    sub.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    sub.add_argument("--r", type=int, default=1, help="extension degree, q = p^r")
    sub.add_argument("--c1", type=float, default=1.0)
    sub.add_argument("--c2", type=float, default=1.0)
    sub.add_argument("--alpha", type=float, default=0.5)
    sub.add_argument("--beta", type=float, default=0.75)


def _campaign_parser(subs, command: str, help: str):
    """The subcommand that runs the table's campaigns for `command`; when
    there are several, --campaign picks one and the first is the default."""
    names = [name for name, spec in CAMPAIGNS.items() if spec.command == command]
    sub = subs.add_parser(command, help=help, allow_abbrev=False)
    _add_field_and_constants(sub)
    sub.add_argument("--c", type=float, default=1.0, help="incidence constant")
    sub.add_argument("--budget", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    sub.add_argument("--resume", action="store_true")
    if len(names) > 1:
        sub.add_argument("--campaign", default=names[0], choices=names)
    sub.set_defaults(run=_cmd_campaign, campaign=names[0])
    return sub


def _build_parser():
    # imported here, as the pool's concurrent.futures is, so a campaign
    # run through run_campaign never loads it
    import argparse

    # flags are spelled in full; subparsers do not inherit allow_abbrev
    parser = argparse.ArgumentParser(
        prog="sl2lab",
        description="symmetry-set campaigns over SL2(F_q) acting on the plane",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    f = subs.add_parser("field", help="build a field and run its self-test", allow_abbrev=False)
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--r", type=int, default=1)
    f.add_argument("--selftest", action="store_true", help="exhaustive axiom check")
    f.set_defaults(run=_cmd_field)

    s = subs.add_parser(
        "stab", help="symmetry set and bound report for one set", allow_abbrev=False
    )
    _add_field_and_constants(s)
    s.add_argument("--set", dest="set_spec", required=True)
    s.set_defaults(run=_cmd_stab)

    fam = _campaign_parser(subs, "family", "family-verify campaign")
    fam.add_argument("--set", dest="set_spec", default=None)

    ex = _campaign_parser(subs, "exhaustive", "exhaustive sweeps")
    ex.add_argument("--allow-sampled", action="store_true")

    _campaign_parser(subs, "incidence", "random incidence instances and bounds")

    aud = _campaign_parser(subs, "audit", "triple-count audit campaign")
    aud.add_argument("--set", dest="set_spec", default=None)
    aud.add_argument("--m1", type=int, default=None)

    se = _campaign_parser(subs, "search", "extremal-ratio search")
    se.add_argument("--strategy", choices=STRATEGIES, default="orbit-union")
    return parser


def _cmd_field(args) -> int:
    ctx = make_field(args.p, args.r)
    mod = "".join(str(d) for d in reversed(ctx.modulus))
    print(f"GF({ctx.q}) = GF({ctx.p}^{ctx.r}) modulus_digits={mod} primitive={ctx.primitive}")
    if args.selftest:
        selftest(ctx)
        print("selftest ok")
    return 0


def _cmd_stab(args) -> int:
    _require_finite(args, Constants._fields)
    ctx = make_field(args.p, args.r)
    E = gen_family(ctx, parse_set_spec(args.set_spec))
    rep = bound_report(ctx, report_key(ctx, E, stabilizer_order(ctx, E)), _constants(args))
    cell = {k: _fmt(v) for k, v in rep.items()}
    print(f"descriptor={args.set_spec}")
    # the set's first eight cells, four to a line, then one line per bound
    print(f"q={ctx.q} " + " ".join(f"{k}={cell[k]}" for k in REPORT_COLUMNS[:4]))
    print(" ".join(f"{k}={cell[k]}" for k in REPORT_COLUMNS[4:8]))
    for name in BOUNDS:
        parts = ("applicable", "rhs", "ratio", "violated")
        print(f"bound {name}: " + " ".join(f"{x}={cell[f'{name}_{x}']}" for x in parts))
    print(f"violations={cell['violations']}")
    return 1 if cell["violations"] else 0


def _campaign_from_args(args) -> CampaignConfig:
    # a field without a flag on this subcommand keeps its default
    return CampaignConfig(
        **{name: getattr(args, name) for name in CampaignConfig._fields if hasattr(args, name)}
    )


def _cmd_campaign(args) -> int:
    result = run_campaign(_campaign_from_args(args))
    s = result.summary
    line = f"campaign={s['campaign']} rows={s['rows']} violations={s['violations']}"
    if s["max_ratio"] is not None:
        line += f" max_ratio_nonzero={_fmt(s['max_ratio'])} argmax={s['argmax']}"
    if s["confirmed_checked"]:
        line += f" confirmed={s['confirmed_ok']}/{s['confirmed_checked']}"
    print(line)
    print(f"wrote {result.out}")
    return 1 if s["violations"] else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _require_asserts()
        return args.run(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AssertionError as err:
        print(f"internal check failed: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
