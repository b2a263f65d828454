"""The plane F_q^2 and the natural SL2(F_q) action on it.

Conventions used throughout the package:

  * points are (x, y) tuples of field codes; the packed code of a point
    is x*q + y, and subsets of the plane are PointSet bitsets over
    packed codes;
  * matrices are (a, b, c, d) tuples read row-major, acting on column
    vectors: (a b; c d)(x, y) = (a x + b y, c x + d y);
  * the q + 1 directions through the origin are canonical tuples
    (1, t) for t in F_q followed by (0, 1), so the y-axis sorts last.

act() defines the action on points: it maps a packed code to the packed
code of its image by reading the field's add/mul rows directly, and
mat_apply, point_permutation and apply_to_set go through it.  The one
other place the formula is computed is the point-filter kernel,
stabilizer._maps_into, which reads the mul rows of a, b, c, d once per
matrix and images a whole point list inline; the tests hold the two
together.  mat_mul indexes the same rows.

sl2_elements() streams the group in a pinned order (the a = 0 sweep
first, then lexicographic (a, b, c) with d solved from the determinant),
and sl2_unrank(i) is its i-th element, so sampled group elements do not
depend on how work is partitioned.

The group, the canonical directions and their point bitsets are kept by
ctx.memo.  affine_line_mask builds a line afresh on every call; its two
callers memoize what they build: stabilizer.contained_in_line the lines
it meets, and harness._lined_masks the submasks of every line of a
q <= 4 plane.
"""

from __future__ import annotations

from .gf import FieldCtx

IDENTITY = (1, 0, 0, 1)

# sl2_materialize refuses a larger group, which is every q > 215.
MATERIALIZE_LIMIT = 10**7


def act(ctx: FieldCtx, m, code: int) -> int:
    """Packed code of m(x, y), where code = x*q + y packs the point."""
    add, mul = ctx.add_rows, ctx.mul_rows
    a, b, c, d = m
    x, y = divmod(code, ctx.q)
    return add[mul[a][x]][mul[b][y]] * ctx.q + add[mul[c][x]][mul[d][y]]


def mat_apply(ctx: FieldCtx, m, pt):
    q = ctx.q
    return divmod(act(ctx, m, pt[0] * q + pt[1]), q)


def mat_mul(ctx: FieldCtx, m, n):
    add, mul = ctx.add_rows, ctx.mul_rows
    a, b, c, d = m
    a, b, c, d = mul[a], mul[b], mul[c], mul[d]  # the rows of m's entries
    e, f, g, h = n
    return (add[a[e]][b[g]], add[a[f]][b[h]], add[c[e]][d[g]], add[c[f]][d[h]])


def mat_det(ctx: FieldCtx, m):
    a, b, c, d = m
    return ctx.sub(ctx.mul(a, d), ctx.mul(b, c))


def mat_inv(ctx: FieldCtx, m):
    """Inverse of a determinant-1 matrix: (d, -b; -c, a)."""
    a, b, c, d = m
    neg = ctx.neg
    return (d, neg(b), neg(c), a)


def _frame(ctx: FieldCtx, code: int):
    """A member of SL2 carrying e1 = (1, 0) to the nonzero point code:
    its first column is the point."""
    x, y = divmod(code, ctx.q)
    if x:
        return (x, 0, y, ctx.inv(x))
    return (0, ctx.neg(ctx.inv(y)), y, 0)


def is_sl2(ctx: FieldCtx, m) -> bool:
    return all(0 <= e < ctx.q for e in m) and mat_det(ctx, m) == 1


def parse_mat(text: str):
    """Parse "[a,b;c,d]" with integer codes."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad matrix literal {text!r}")
    rows = body[1:-1].split(";")
    if len(rows) != 2:
        raise ValueError(f"bad matrix literal {text!r}")
    out = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != 2:
            raise ValueError(f"bad matrix literal {text!r}")
        out.extend(int(c) for c in cells)
    return tuple(out)


def parse_point(text: str):
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"bad point literal {text!r}")
    cells = body[1:-1].split(",")
    if len(cells) != 2:
        raise ValueError(f"bad point literal {text!r}")
    return (int(cells[0]), int(cells[1]))


# ---------------------------------------------------------------------------
# SL2 enumeration


def sl2_order(q: int) -> int:
    return q**3 - q


def _sl2_decode(ctx: FieldCtx, i: int):
    """Matrix i of the pinned enumeration, for 0 <= i < q^3 - q (unchecked)."""
    q = ctx.q
    head = q * (q - 1)
    if i < head:
        b_idx, d = divmod(i, q)
        b = b_idx + 1
        return (0, b, ctx.neg(ctx.inv(b)), d)
    a_idx, rem = divmod(i - head, q * q)
    a = a_idx + 1
    b, c = divmod(rem, q)
    return (a, b, c, ctx.mul(ctx.add(1, ctx.mul(b, c)), ctx.inv(a)))


def sl2_unrank(ctx: FieldCtx, i: int):
    """The i-th matrix of the pinned SL2 enumeration.

    Index 0 .. q(q-1)-1: the a = 0 block, b ascending from 1 with
    c = -1/b forced, d sweeping F_q.  After that: a ascending from 1,
    then (b, c) lexicographic with d = (1 + b c) / a.
    """
    if i < 0 or i >= sl2_order(ctx.q):
        raise IndexError(f"SL2 index {i} out of range")
    return _sl2_decode(ctx, i)


def sl2_elements(ctx: FieldCtx):
    """Stream SL2(F_q) in the pinned order."""
    for i in range(sl2_order(ctx.q)):
        yield _sl2_decode(ctx, i)


def sl2_materialize(ctx: FieldCtx):
    """The whole group as a memoized tuple (guarded by MATERIALIZE_LIMIT)."""
    n = sl2_order(ctx.q)
    if n > MATERIALIZE_LIMIT:
        raise ValueError(f"|SL2| = {n} exceeds the materialization guard")
    return ctx.memo("sl2", lambda: tuple(sl2_elements(ctx)))


def point_permutation(ctx: FieldCtx, m) -> list:
    """Image of every packed point code under m, as a list."""
    return [act(ctx, m, code) for code in range(ctx.q * ctx.q)]


# ---------------------------------------------------------------------------
# Directions through the origin ("projective lines" of the pencil at 0)


def proj_lines(ctx: FieldCtx):
    """Canonical direction tuples: (1, 0), (1, 1), ..., (1, q-1), (0, 1)."""
    return ctx.memo("lines", _directions, ctx.q)


def _directions(q: int) -> tuple:
    return tuple((1, t) for t in range(q)) + ((0, 1),)


def line_index(ctx: FieldCtx, line) -> int:
    """Position of a canonical direction in proj_lines order."""
    if line[0] == 1 and 0 <= line[1] < ctx.q:
        return line[1]
    if line == (0, 1):
        return ctx.q
    raise ValueError(f"{line} is not a canonical direction")


def line_of_point(ctx: FieldCtx, pt):
    """The canonical direction of the origin line through pt != 0."""
    x, y = pt
    if x == 0 and y == 0:
        raise ValueError("the origin lies on every line of the pencil")
    if x != 0:
        return (1, ctx.div(y, x))
    return (0, 1)


def points_on_line(ctx: FieldCtx, line):
    """All q points of the origin line with the given direction."""
    dx, dy = line
    mul = ctx.mul
    return [(mul(t, dx), mul(t, dy)) for t in range(ctx.q)]


def line_nonzero_masks(ctx: FieldCtx):
    """For each canonical direction, the bitset of its q - 1 nonzero points."""
    return ctx.memo("line_masks", _line_masks, ctx)


def _line_masks(ctx: FieldCtx) -> tuple:
    return tuple(
        PointSet.from_points(ctx.q, points_on_line(ctx, line)).bits & ~1
        for line in proj_lines(ctx)
    )


def affine_line_mask(ctx: FieldCtx, a: int, b: int) -> int:
    """Bitset of the affine line through the distinct packed points a, b:
    y = s x + c when their x coordinates differ, else x = x0."""
    q = ctx.q
    x0, y0 = divmod(a, q)
    x1, y1 = divmod(b, q)
    sub, mul = ctx.sub, ctx.mul
    dx = sub(x1, x0)
    if not dx:
        codes = [x0 * q + y for y in range(q)]
    else:
        s = ctx.div(sub(y1, y0), dx)
        c = sub(y0, mul(s, x0))
        codes = [x * q + ctx.add(mul(s, x), c) for x in range(q)]
    return sum(1 << code for code in codes)


def line_apply(ctx: FieldCtx, m, line):
    """Image direction of an origin line under m, canonicalized."""
    return line_of_point(ctx, mat_apply(ctx, m, line))


def normalize_two_lines(ctx: FieldCtx, l1, l2):
    """A determinant-1 matrix sending l1 to the x-axis and l2 to the y-axis.

    Built from the canonical direction vectors u, v of the two lines:
    take the adjugate of the column matrix [u v] and scale its first row
    by 1/det to land in SL2.  The choice is deterministic, and mapping
    (x-axis, y-axis) to itself gives the identity.
    """
    if l1 == l2:
        raise ValueError("need two distinct lines")
    ux, uy = l1
    vx, vy = l2
    det = ctx.sub(ctx.mul(ux, vy), ctx.mul(uy, vx))
    idet = ctx.inv(det)
    return (ctx.mul(vy, idet), ctx.neg(ctx.mul(vx, idet)), ctx.neg(uy), ux)


# ---------------------------------------------------------------------------
# Point sets


# (q, byte position j) -> for each byte value v, the ";"-joined "(x,y)"
# literals of the codes 8j + k with bit k of v set; built on first use
_TEXT_CHUNKS: dict = {}


def _text_chunk(q: int, pos: int) -> tuple:
    names = [f"({c // q},{c % q})" for c in range(8 * pos, min(8 * pos + 8, q * q))]
    chunk = [""] * 256
    for v in range(1, 1 << len(names)):
        low = v & -v
        rest = chunk[v ^ low]
        name = names[low.bit_length() - 1]
        chunk[v] = name + ";" + rest if rest else name
    _TEXT_CHUNKS[q, pos] = tuple(chunk)
    return _TEXT_CHUNKS[q, pos]


class PointSet:
    """An immutable subset of F_q^2 stored as a bitset over packed codes."""

    __slots__ = ("q", "bits", "size", "_nonzero_codes")

    def __init__(self, q: int, bits: int = 0):
        if bits < 0 or bits >> (q * q):
            raise ValueError("bitset has bits outside the plane")
        self.q = q
        self.bits = bits
        self.size = bits.bit_count()
        self._nonzero_codes = None

    @classmethod
    def from_points(cls, q: int, pts) -> "PointSet":
        bits = 0
        for x, y in pts:
            if not (0 <= x < q and 0 <= y < q):
                raise ValueError(f"point ({x}, {y}) outside the plane")
            bits |= 1 << (x * q + y)
        return cls(q, bits)

    @classmethod
    def from_codes(cls, q: int, codes) -> "PointSet":
        bits = 0
        for c in codes:
            if not 0 <= c < q * q:
                raise ValueError(f"packed code {c} outside the plane")
            bits |= 1 << c
        return cls(q, bits)

    @classmethod
    def full(cls, q: int) -> "PointSet":
        return cls(q, (1 << (q * q)) - 1)

    def __contains__(self, code: int) -> bool:
        return (self.bits >> code) & 1 == 1

    def __len__(self):
        return self.size

    def __eq__(self, other):
        return isinstance(other, PointSet) and (self.q, self.bits) == (other.q, other.bits)

    def __hash__(self):
        return hash((self.q, self.bits))

    @property
    def nonzero_codes(self) -> tuple:
        """Packed codes of the nonorigin members, ascending (cached)."""
        if self._nonzero_codes is None:
            bits = self.bits & ~1  # the origin packs to code 0
            out = []
            while bits:
                low = bits & -bits
                out.append(low.bit_length() - 1)
                bits ^= low
            self._nonzero_codes = tuple(out)
        return self._nonzero_codes

    @property
    def nonzero_size(self) -> int:
        return (self.bits & ~1).bit_count()

    def complement(self) -> "PointSet":
        mask = (1 << (self.q * self.q)) - 1
        return PointSet(self.q, self.bits ^ mask)

    def with_origin(self) -> "PointSet":
        return PointSet(self.q, self.bits | 1)

    def without_origin(self) -> "PointSet":
        return PointSet(self.q, self.bits & ~1)

    def union(self, other: "PointSet") -> "PointSet":
        assert self.q == other.q
        return PointSet(self.q, self.bits | other.bits)

    def __repr__(self):
        return f"PointSet(q={self.q}, size={self.size})"

    def text(self) -> str:
        """Canonical literal: "points:(x,y);(x,y);..." in code order."""
        q = self.q
        parts = []
        for pos, byte in enumerate(self.bits.to_bytes((q * q + 7) // 8, "little")):
            if byte:
                chunk = _TEXT_CHUNKS.get((q, pos)) or _text_chunk(q, pos)
                parts.append(chunk[byte])
        return "points:" + ";".join(parts)


def apply_to_set(ctx: FieldCtx, m, ps: PointSet) -> PointSet:
    """The image point set m(E)."""
    bits = ps.bits & 1  # origin maps to origin
    for code in ps.nonzero_codes:
        bits |= 1 << act(ctx, m, code)
    return PointSet(ctx.q, bits)
