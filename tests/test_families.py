"""Set-descriptor grammar and family generators."""

import re
import shlex
from pathlib import Path

import pytest

from sl2lab.families import (
    FAMILIES,
    FamilySpec,
    default_battery,
    expected_order,
    gen_family,
    parse_set_spec,
)
from sl2lab.gf import make_field
from sl2lab.harness import main
from sl2lab.plane import PointSet, points_on_line
from sl2lab.stabilizer import stabilizer_order, subgroup_orbits

README = Path(__file__).resolve().parents[1] / "README.md"

CANONICAL = [
    "family:empty",
    "family:full-minus-origin",
    "family:line-origin",
    "family:line-origin:dir=2",
    "family:line-affine:x=3",
    "family:axis-subgroup:c=2",
    "family:subfield-plane:sub-r=1",
    "family:random:n=10,seed=42",
    "family:orbit-union:gens=[1,1;0,1]|[1,0;1,1],orbits=1|2",
    "family:complement:of=family:line-origin:dir=0",
    "family:complement:of=family:random:n=3,seed=7",
    "points:(1,0);(0,1)",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_text_roundtrip(text):
    spec = parse_set_spec(text)
    assert spec.text() == text
    assert parse_set_spec(spec.text()) == spec


def test_parse_shapes():
    spec = parse_set_spec("family:orbit-union:gens=[1,1;0,1]|[1,0;1,1],orbits=1|2")
    assert spec.name == "orbit-union"
    assert spec.get("gens") == "[1,1;0,1]|[1,0;1,1]"
    assert spec.get("orbits") == "1|2"
    assert spec.get("missing") is None
    assert spec.get("missing", "d") == "d"
    nested = parse_set_spec("family:complement:of=family:random:n=3,seed=7")
    # everything after of= belongs to the inner descriptor, commas included
    assert nested.params == (("of", "family:random:n=3,seed=7"),)
    pts = parse_set_spec("points:(1,0);(0,1)")
    assert pts.name == "explicit"
    assert pts.get("pts") == "(1,0);(0,1)"


@pytest.mark.parametrize("bad", [
    "family:nonsense", "nofamily:empty", "", "family:",
    "family:random:n10", "family:explicit",
    "points:(0,1);(1,\n2)", "family:origin\n", "points:(0,1);(1,\t2)",
    "family:random:n=3,seed=1,", "family:random:,n=3,seed=1", "family:random:n=3,,seed=1",
    "family:complement:of=",
])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_set_spec(bad)


def test_trailing_comma_refused_by_cli(tmp_path, capsys):
    out = tmp_path / "fam.csv"
    argv = ["family", "--p", "5", "--set", "family:random:n=3,seed=1,", "--out", str(out)]
    assert main(argv) == 2
    assert "malformed parameter ''" in capsys.readouterr().err
    assert not out.exists()


def test_family_names_complete():
    assert set(FAMILIES) == {
        "empty", "origin", "full", "full-minus-origin", "line-origin",
        "line-affine", "complement", "axis-subgroup", "subfield-plane",
        "orbit-union", "random", "explicit",
    }


@pytest.mark.parametrize("bad", [
    "family:line-origin:dirr=3",
    "family:line-affine:dir=2",
    "family:random:n=3,seed=1,bogus=9",
])
def test_unknown_parameters_rejected(bad, capsys):
    with pytest.raises(ValueError, match="takes no parameter"):
        parse_set_spec(bad)
    assert main(["stab", "--p", "5", "--set", bad]) == 2
    assert "takes no parameter" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    "family:random:n=3,n=20,seed=1",
    "family:line-origin:dir=1,dir=2",
])
def test_repeated_parameters_rejected(bad, capsys):
    with pytest.raises(ValueError, match="repeated"):
        parse_set_spec(bad)
    assert main(["stab", "--p", "5", "--set", bad]) == 2
    assert "repeated" in capsys.readouterr().err


def test_readme_descriptors_build():
    # every descriptor the README shows parses and builds over GF(9);
    # "\|" is a pipe escaped inside a markdown table
    text = README.read_text().replace("\\|", "|")
    found = re.findall(r"(?:family|points):[^\s`'\"]+", text)
    assert len(found) >= 12
    ctx = make_field(3, 2)
    failed = []
    for literal in found:
        try:
            gen_family(ctx, parse_set_spec(literal))
        except ValueError as err:
            failed.append(f"{literal}: {err}")
    assert not failed


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # every sl2lab line of the README's CLI block runs cleanly
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("sl2lab ")]
    assert len(commands) >= 13
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SL2LAB_WORKERS", raising=False)
    failed = [" ".join(argv) for argv in commands if main(argv) != 0]
    assert not failed


def test_degenerate_families(fields):
    ctx = fields[5]
    assert len(gen_family(ctx, parse_set_spec("family:empty"))) == 0
    origin = gen_family(ctx, parse_set_spec("family:origin"))
    assert origin.bits == 1
    full = gen_family(ctx, parse_set_spec("family:full"))
    assert len(full) == 25
    fmo = gen_family(ctx, parse_set_spec("family:full-minus-origin"))
    assert fmo == full.without_origin()


@pytest.mark.parametrize("q", [3, 5, 9])
def test_line_families(fields, q):
    ctx = fields[q]
    yaxis = gen_family(ctx, parse_set_spec("family:line-origin"))
    assert yaxis == PointSet.from_points(q, points_on_line(ctx, (0, 1)))
    for t in range(q):
        ln = gen_family(ctx, parse_set_spec(f"family:line-origin:dir={t}"))
        assert ln == PointSet.from_points(q, points_on_line(ctx, (1, t)))
    aff = gen_family(ctx, parse_set_spec("family:line-affine"))
    assert aff == PointSet.from_points(q, [(1, y) for y in range(q)])
    assert 0 not in aff
    aff0 = gen_family(ctx, parse_set_spec("family:line-affine:x=0"))
    assert aff0 == yaxis  # x = 0 degenerates to the y-axis


def test_complement_family(fields):
    ctx = fields[4]
    inner = gen_family(ctx, parse_set_spec("family:line-origin"))
    comp = gen_family(ctx, parse_set_spec("family:complement:of=family:line-origin"))
    assert comp == inner.complement()
    double = gen_family(
        ctx,
        parse_set_spec("family:complement:of=family:complement:of=family:line-origin"),
    )
    assert double == inner


def test_axis_subgroup_family(fields):
    ctx = fields[7]
    E = gen_family(ctx, parse_set_spec("family:axis-subgroup:c=2"))
    assert not E.bits & 1 and [divmod(c, 7) for c in E.nonzero_codes] == [(0, 1), (0, 2), (0, 4)]
    E3 = gen_family(ctx, parse_set_spec("family:axis-subgroup:c=3"))
    assert not E3.bits & 1 and [divmod(c, 7) for c in E3.nonzero_codes] == [(0, 1), (0, 6)]


def test_subfield_plane_family(fields):
    ctx = fields[9]
    E = gen_family(ctx, parse_set_spec("family:subfield-plane:sub-r=1"))
    assert E.bits & 1
    assert {divmod(c, 9) for c in E.nonzero_codes} == {
        (x, y) for x in (0, 1, 2) for y in (0, 1, 2)} - {(0, 0)}
    ctx16 = fields[16]
    E2 = gen_family(ctx16, parse_set_spec("family:subfield-plane:sub-r=2"))
    assert E2.bits & 1
    assert {divmod(c, 16) for c in E2.nonzero_codes} == {
        (x, y) for x in (0, 1, 6, 7) for y in (0, 1, 6, 7)} - {(0, 0)}


def test_orbit_union_family(fields):
    ctx = fields[5]
    # one shear: origin + 4 fixed axis points + 4 five-cycles = 9 orbits
    _, orbits = subgroup_orbits(ctx, [(1, 1, 0, 1)])
    assert len(orbits) == 9
    spec = parse_set_spec("family:orbit-union:gens=[1,1;0,1],orbits=1|5")
    assert gen_family(ctx, spec) == orbits[1].union(orbits[5])
    # the two standard shears generate everything: one nonzero orbit
    _, big = subgroup_orbits(ctx, [(1, 1, 0, 1), (1, 0, 1, 1)])
    assert [len(o) for o in big] == [1, 24]
    whole = gen_family(ctx, parse_set_spec(
        "family:orbit-union:gens=[1,1;0,1]|[1,0;1,1],orbits=1"))
    assert whole == PointSet.full(5).without_origin()


def test_random_family(fields):
    ctx = fields[7]
    spec = parse_set_spec("family:random:n=10,seed=42")
    E = gen_family(ctx, spec)
    assert len(E) == 10
    assert E == gen_family(ctx, spec)  # deterministic
    other = gen_family(ctx, parse_set_spec("family:random:n=10,seed=43"))
    assert E != other


def test_explicit_family(fields):
    ctx = fields[4]
    E = gen_family(ctx, parse_set_spec("points:(1,0);(0,1);(1,1)"))
    assert not E.bits & 1 and [divmod(c, 4) for c in E.nonzero_codes] == [(0, 1), (1, 0), (1, 1)]
    # PointSet.text() round-trips through the grammar
    assert gen_family(ctx, parse_set_spec(E.text())) == E
    empty = gen_family(ctx, parse_set_spec("points:"))
    assert len(empty) == 0


@pytest.mark.parametrize("bad", [
    "family:axis-subgroup:c=4",          # 4 does not divide q - 1 = 6
    "family:subfield-plane:sub-r=2",     # 2 does not divide r = 1
    "family:random:n=100,seed=0",        # n exceeds q^2
    "family:line-origin:dir=9",
    "family:line-affine:x=7",
    "points:(9,0)",
    "family:complement",
    "family:orbit-union:gens=[1,1;0,1]",
    "family:orbit-union:gens=[1,1;0,1],orbits=99",
    "family:axis-subgroup",
    "family:unknown-thing",
])
def test_generation_errors(fields, bad):
    ctx = fields[7]
    with pytest.raises(ValueError):
        gen_family(ctx, parse_set_spec(bad))


def test_default_battery_gf4(fields):
    ctx = fields[4]
    specs = default_battery(ctx)
    texts = [s.text() for s in specs]
    assert texts == [
        "family:empty",
        "family:origin",
        "family:full",
        "family:full-minus-origin",
        "family:line-origin",
        "family:line-origin:dir=0",
        "family:line-affine",
        "family:complement:of=family:line-origin",
        "family:axis-subgroup:c=3",
        "family:subfield-plane:sub-r=1",
    ]
    for spec in specs:
        gen_family(ctx, spec)  # all generate cleanly


@pytest.mark.parametrize("q", [2, 3, 5, 7, 8, 9, 13, 16])
def test_default_battery_generates_everywhere(fields, q):
    ctx = fields[q]
    for spec in default_battery(ctx):
        E = gen_family(ctx, spec)
        assert E == gen_family(ctx, parse_set_spec(spec.text()))


FIELDS_TO_27 = [
    pytest.param(p, r, id=f"q{p**r}")
    for p, r in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (2, 4),
                 (5, 2), (3, 3)]
]


@pytest.mark.parametrize("p, r", FIELDS_TO_27)
def test_expected_order_matches_stabilizer(p, r):
    # the closed forms against the transport route, over the default
    # battery, both line-affine kinds and nested complements
    ctx = make_field(p, r)
    texts = [
        "family:line-affine:x=0",
        "family:complement:of=family:line-affine:x=0",
        "family:complement:of=family:complement:of=family:line-affine",
        "family:complement:of=family:complement:of=family:full-minus-origin",
    ]
    if ctx.q > 2:
        texts.append("family:line-affine:x=2")
    specs = default_battery(ctx) + [parse_set_spec(t) for t in texts]
    for spec in specs:
        expected = expected_order(ctx, spec)
        assert expected is not None, spec.text()
        assert expected == stabilizer_order(ctx, gen_family(ctx, spec)), spec.text()


@pytest.mark.parametrize("text", [
    "family:random:n=10,seed=42",
    "family:orbit-union:gens=[1,1;0,1],orbits=1|5",
    "points:(1,0);(0,1)",
    "family:complement:of=family:random:n=3,seed=7",
])
def test_expected_order_none_without_closed_form(fields, text):
    assert expected_order(fields[5], parse_set_spec(text)) is None
