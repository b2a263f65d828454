"""Named point-set families and the text grammar that names them.

Every set the campaigns care about can be written down as a short
descriptor string, parsed back, and regenerated bit-for-bit:

    family:<name>[:<key>=<value>,...]     a named family
    points:(x,y);(x,y);...                an explicit point list

Examples: ``family:line-origin``, ``family:axis-subgroup:c=2``,
``family:subfield-plane:sub-r=1``, ``family:random:n=10,seed=42``,
``family:orbit-union:gens=[1,1;0,1]|[1,0;1,1],orbits=1|2``,
``family:complement:of=family:origin``, ``points:(1,0);(0,1)``.

Parameters split on commas outside ``[...]`` matrix brackets, and a body
that starts ``of=`` is complement's one parameter: the nested descriptor,
commas and all, nested at most MAX_NESTING deep.

FAMILIES is the one table of the named families: each one's parameter
keys, its builder and the closed-form |R(E)| of the set it builds, where
there is one.  gen_family and expected_order read it, so family-verify
can check the transport route against it without naming a family.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import NamedTuple

from .gf import FieldCtx, multiplicative_subgroup, subfield_elements
from .plane import PointSet, parse_mat, parse_point, sl2_order
from .rng import DetRng
from .stabilizer import subgroup_orbits


class Family(NamedTuple):
    keys: tuple  # the parameter keys it accepts
    build: Callable  # (ctx, spec) -> the PointSet it names
    order: Callable | None  # (ctx, spec) -> closed-form |R(E)|, or None


def _whole(ctx, spec):
    return sl2_order(ctx.q)


def _line_origin(ctx, spec):
    # dir=<t> is the line {(x, t*x)}, dir=inf the y-axis (the default, so
    # it contrasts with line-affine's default {x = 1}: same size q,
    # stabilizer order q**2 - q versus q)
    q = ctx.q
    if spec.get("dir", "inf") == "inf":
        return PointSet.from_codes(q, range(q))
    t = _int_param(spec, "dir")
    if not 0 <= t < q:
        raise ValueError(f"dir={t} outside field of size {q}")
    return PointSet.from_codes(q, [x * q + ctx.mul(t, x) for x in range(q)])


def _line_affine(ctx, spec):
    q, x = ctx.q, _int_param(spec, "x", 1)
    if not 0 <= x < q:
        raise ValueError(f"x={x} outside field of size {q}")
    return PointSet.from_codes(q, [x * q + y for y in range(q)])


def _complement(ctx, spec):
    if spec.get("of") is None:
        raise ValueError("complement needs of=<descriptor>")
    return gen_family(ctx, parse_set_spec(spec.get("of"))).complement()


def _axis_subgroup(ctx, spec):
    # multiplicative_subgroup validates c | q - 1
    return PointSet.from_codes(ctx.q, multiplicative_subgroup(ctx, _int_param(spec, "c")))


def _subfield_plane(ctx, spec):
    q = ctx.q
    elems = sorted(subfield_elements(ctx, _int_param(spec, "sub-r")))  # validates sub-r | r
    return PointSet.from_codes(q, [x * q + y for x in elems for y in elems])


def _subfield_order(ctx, spec):
    # R(E) is SL2 of the subfield GF(p^sub-r)
    sub_q = ctx.p ** _int_param(spec, "sub-r")
    return sub_q**3 - sub_q


def _orbit_union(ctx, spec):
    raw_gens, raw_orbits = spec.get("gens"), spec.get("orbits")
    if raw_gens is None or raw_orbits is None:
        raise ValueError("orbit-union needs gens=<mat>|<mat>... and orbits=<i>|<j>...")
    gens = [parse_mat(part) for part in raw_gens.split("|")]
    picks = sorted({_as_int("orbits", part) for part in raw_orbits.split("|")})
    _, orbits = subgroup_orbits(ctx, gens)
    if picks and not 0 <= picks[-1] < len(orbits):
        raise ValueError(f"orbit index {picks[-1]} out of range ({len(orbits)} orbits)")
    return PointSet(ctx.q, sum(orbits[i].bits for i in picks))  # orbits are disjoint


def _random(ctx, spec):
    q = ctx.q
    n, seed = _int_param(spec, "n"), _int_param(spec, "seed")
    if not 0 <= n <= q * q:
        raise ValueError(f"n={n} exceeds plane size {q * q}")
    return PointSet.from_codes(q, DetRng(seed).sample(q * q, n))


def _explicit(ctx, spec):
    q = ctx.q
    pts = [parse_point(part) for part in spec.get("pts", "").split(";") if part]
    for x, y in pts:
        if not (0 <= x < q and 0 <= y < q):
            raise ValueError(f"point ({x},{y}) outside plane of size {q}")
    return PointSet.from_points(q, pts)


# Every family; "explicit" is only written as points:...
FAMILIES = {
    "empty": Family((), lambda ctx, spec: PointSet.from_codes(ctx.q, ()), _whole),
    "origin": Family((), lambda ctx, spec: PointSet.from_codes(ctx.q, (0,)), _whole),
    "full": Family((), lambda ctx, spec: PointSet.full(ctx.q), _whole),
    "full-minus-origin": Family(
        (), lambda ctx, spec: PointSet.full(ctx.q).without_origin(), _whole
    ),
    "line-origin": Family(("dir",), _line_origin, lambda ctx, spec: ctx.q * ctx.q - ctx.q),
    # x = 0 is the y-axis, an origin line
    "line-affine": Family(
        ("x",),
        _line_affine,
        lambda ctx, spec: ctx.q if _int_param(spec, "x", 1) else ctx.q * ctx.q - ctx.q,
    ),
    # R(E) is R of E's complement
    "complement": Family(
        ("of",),
        _complement,
        lambda ctx, spec: expected_order(ctx, parse_set_spec(spec.get("of"))),
    ),
    "axis-subgroup": Family(
        ("c",), _axis_subgroup, lambda ctx, spec: ctx.q * (ctx.q - 1) // _int_param(spec, "c")
    ),
    "subfield-plane": Family(("sub-r",), _subfield_plane, _subfield_order),
    "orbit-union": Family(("gens", "orbits"), _orbit_union, None),
    "random": Family(("n", "seed"), _random, None),
    "explicit": Family(("pts",), _explicit, None),
}


class FamilySpec(NamedTuple):
    """A parsed descriptor: family name plus its parameter mapping.

    params values are kept as strings exactly as written; gen_family
    interprets and validates them against the field, so a FamilySpec is
    field-independent and printable back to its canonical text.
    """

    name: str
    params: tuple = ()

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def text(self) -> str:
        if self.name == "explicit":
            return "points:" + self.get("pts", "")
        if not self.params:
            return f"family:{self.name}"
        body = ",".join(f"{k}={v}" for k, v in self.params)
        return f"family:{self.name}:{body}"


_COMMA = re.compile(r",(?![^\[\]]*\])")  # a comma outside [...]

# The most complement levels one descriptor may nest.  Each level is a
# few stack frames in every reader (gen_family, expected_order), so an
# unbounded nesting would end in RecursionError, not a refusal.
MAX_NESTING = 32
_NESTED = "family:complement:of="


def parse_set_spec(text: str) -> FamilySpec:
    """Parse a descriptor string into a FamilySpec.

    Raises ValueError on a non-printable character (a descriptor is
    echoed on one line of every output file), complements nested more
    than MAX_NESTING deep, unknown family names, malformed key=value
    parts, keys the family does not take or repeated keys, or text
    matching neither grammar production.
    """
    if not text.isprintable():
        raise ValueError(f"descriptor holds a non-printable character ({text!r})")
    text = inner = text.strip()
    depth = 0
    while inner.startswith(_NESTED):  # each level as its own parse will read it
        depth += 1
        inner = inner[len(_NESTED):].strip()
    if depth > MAX_NESTING:
        raise ValueError(f"descriptor nests complement {depth} deep; at most {MAX_NESTING} allowed")
    if text.startswith("points:"):
        return FamilySpec("explicit", (("pts", text[len("points:"):]),))
    if not text.startswith("family:"):
        raise ValueError(f"descriptor must start with family: or points: ({text!r})")
    body = text[len("family:"):]
    head, _, rest = body.partition(":")
    if head not in FAMILIES or head == "explicit":
        raise ValueError(f"unknown family {head!r}")
    params = []
    if rest:
        for part in [rest] if rest.startswith("of=") else _COMMA.split(rest):
            key, eq, value = part.partition("=")
            if not eq or not key or not value:
                raise ValueError(f"malformed parameter {part!r} in {text!r}")
            if key not in FAMILIES[head].keys:
                raise ValueError(f"family {head!r} takes no parameter {key!r}")
            if any(key == k for k, _ in params):
                raise ValueError(f"parameter {key!r} repeated in {text!r}")
            params.append((key, value))
    return FamilySpec(head, tuple(params))


def _as_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"parameter {key}={raw!r} is not an integer") from None


def _int_param(spec: FamilySpec, key: str, default: int | None = None) -> int:
    raw = spec.get(key)
    if raw is None:
        if default is None:
            raise ValueError(f"family {spec.name!r} needs parameter {key!r}")
        return default
    return _as_int(key, raw)


def gen_family(ctx: FieldCtx, spec: FamilySpec) -> PointSet:
    """Build the named set over ctx.  Deterministic per (spec, field)."""
    return FAMILIES[spec.name].build(ctx, spec)


def expected_order(ctx: FieldCtx, spec: FamilySpec) -> int | None:
    """The closed-form |R(E)| of gen_family(ctx, spec), or None where the
    family has none.  Reads parameters gen_family has already checked."""
    order = FAMILIES[spec.name].order
    return None if order is None else order(ctx, spec)


def default_battery(ctx: FieldCtx) -> list:
    """The family descriptors a family-verify campaign runs by default.

    Covers every named family that exists over ctx: the degenerate
    four, both line kinds, a complement, every proper axis-subgroup
    index, and every proper subfield plane.
    """
    specs = [
        "family:empty",
        "family:origin",
        "family:full",
        "family:full-minus-origin",
        "family:line-origin",
        "family:line-origin:dir=0",
        "family:line-affine",
        "family:complement:of=family:line-origin",
    ]
    q = ctx.q
    for c in range(2, q):
        if (q - 1) % c == 0:
            specs.append(f"family:axis-subgroup:c={c}")
    for r_sub in range(1, ctx.r):
        if ctx.r % r_sub == 0:
            specs.append(f"family:subfield-plane:sub-r={r_sub}")
    return [parse_set_spec(s) for s in specs]
