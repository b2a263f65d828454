"""Exact arithmetic in GF(p^r) for small prime powers.

Field elements are plain integer codes in [0, q), q = p^r: the element
c_0 + c_1*t + ... + c_{r-1}*t^{r-1}  (mod m(t)) has code
c_0 + c_1*p + ... + c_{r-1}*p^{r-1}.  The modulus m(t) is chosen
deterministically: the monic irreducible polynomial of degree r over F_p
whose integer code (leading term included) is smallest, found by trial
division of each candidate in code order.  Rebuilding a field therefore
yields identical tables on every platform, which the campaign layer
relies on for byte-identical output.

    ctx = make_field(3, 2)        # GF(9), modulus t^2 + 1
    ctx.mul(4, 7); ctx.inv(5); ctx.pow(2, -3)

Arithmetic is installed on the context as precomputed tables of q rows
of q: x + y is add_rows[x][y] and x * y is mul_rows[x][y].  The
ctx.add/ctx.mul closures read them one operation per call; hot loops
index the rows themselves and skip the call.  make_field rejects fields
larger than q = 256; no campaign goes past q = 64.

The context owns all per-field state: the geometry and campaign tables
other modules derive from (p, r) are built on first use through
ctx.memo.  make_field keeps the last field it built, so a process that
works on one field builds it once and holds one context for it.
Contexts compare and hash by identity.
"""

from __future__ import annotations

import functools
import itertools

from .rng import DetRng


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; fine for n <= 2^16."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomials over F_p as digit lists (index = degree).  Only used while
# constructing a field; all later arithmetic runs on integer codes.

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _prem(a, m, p):
    # remainder of a modulo monic m
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _trim(a)


def _is_irreducible(m, p, r):
    """Trial division: monic m of degree r has no monic factor of degree
    1 .. r // 2 over F_p."""
    return all(
        _prem(m, _digits(c, p, k) + [1], p)
        for k in range(1, r // 2 + 1)
        for c in range(p**k)
    )


def _digits(code, p, n):
    out = []
    for _ in range(n):
        code, d = divmod(code, p)
        out.append(d)
    return out


def _encode(digits, p):
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


# ---------------------------------------------------------------------------


class FieldCtx:
    """Arithmetic context for GF(p^r); construct via make_field().

    Attributes set once in __init__ and treated as read-only:

      p, r, q          -- characteristic, degree, order
      modulus          -- modulus digit tuple, degree 0 first, length r+1
      modulus_code     -- its integer code (leading term included)
      primitive        -- smallest code generating the multiplicative group
      add_rows, mul_rows -- q tuples of q codes each;
                          x + y is add_rows[x][y] and x * y is mul_rows[x][y]
      neg_table        -- length-q tuple; -x is neg_table[x]
      add, sub, neg, mul, inv, div, pow -- operations on integer codes

    The operations are closures over precomputed tables, so they do not
    pickle; a pool worker inherits its parent's context under fork or
    rebuilds it from (p, r), which is cheap and deterministic.

    Everything else derived from the field is kept by memo(), the only
    reader and writer of the private _cache dict.
    """

    def __init__(self, p: int, r: int, modulus_digits):
        q = p**r
        self.p = p
        self.r = r
        self.q = q
        self.modulus = tuple(modulus_digits)
        self.modulus_code = _encode(modulus_digits, p)
        self._cache: dict = {}  # memo's tables: geometry and campaigns

        def raw_mul(x, y, _m=self.modulus, _p=p, _r=r):
            a = _digits(x, _p, _r)
            b = _digits(y, _p, _r)
            return _encode(_prem(_pmul(a, b, _p), _m, _p), _p)

        def raw_pow(x, e):
            acc, base = 1, x
            while e:
                if e & 1:
                    acc = raw_mul(acc, base)
                base = raw_mul(base, base)
                e >>= 1
            return acc

        # Primitive element: smallest code whose multiplicative order is
        # q - 1, certified against the prime factorization of q - 1.
        divisors = prime_factors(q - 1)
        primitive = None
        for g in range(1, q):
            if all(raw_pow(g, (q - 1) // f) != 1 for f in divisors):
                primitive = g
                break
        assert primitive is not None
        self.primitive = primitive

        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = raw_mul(exp[i - 1], primitive)
        log = [0] * q  # log[0] unused
        for i, v in enumerate(exp):
            log[v] = i
        assert len(set(exp)) == q - 1, "primitive element order defect"

        neg = [_encode([(p - d) % p for d in _digits(c, p, r)], p) for c in range(q)]

        qm1 = q - 1

        if p == 2:
            add_rows = [[x ^ y for y in range(q)] for x in range(q)]
        elif r == 1:
            add_rows = [[(x + y) % p for y in range(p)] for x in range(p)]
        else:
            digs = [_digits(c, p, r) for c in range(q)]
            add_rows = [
                [_encode([(a + b) % p for a, b in zip(digs[x], digs[y])], p) for y in range(q)]
                for x in range(q)
            ]
        mul_rows = [[0] * q]
        for x in range(1, q):
            lx = log[x]
            mul_rows.append([0] + [exp[(lx + log[y]) % qm1] for y in range(1, q)])
        inv_tab = [0] * q
        for x in range(1, q):
            inv_tab[x] = exp[(qm1 - log[x]) % qm1]
        add_rows = self.add_rows = tuple(map(tuple, add_rows))
        mul_rows = self.mul_rows = tuple(map(tuple, mul_rows))
        neg = self.neg_table = tuple(neg)
        self.add = lambda x, y, _t=add_rows: _t[x][y]
        self.mul = lambda x, y, _t=mul_rows: _t[x][y]
        self.sub = lambda x, y, _t=add_rows, _n=neg: _t[x][_n[y]]

        def inv(x, _t=inv_tab):
            if x == 0:
                raise ZeroDivisionError("inverse of 0")
            return _t[x]

        self.inv = inv

        self.neg = lambda x, _n=neg: _n[x]

        def div(x, y):
            return self.mul(x, self.inv(y))

        self.div = div

        def powf(x, e, _e=exp, _l=log, _m=qm1):
            if x == 0:
                if e > 0:
                    return 0
                if e == 0:
                    return 1
                raise ZeroDivisionError("0 to a negative power")
            return _e[(_l[x] * e) % _m]

        self.pow = powf

    def memo(self, key, build, *args):
        """The table kept under key, built by build(*args) on first use.
        build is named at the call, not at import, so a wrapped builder
        (a tracer, a test double) runs; per-row callers pass a function
        and its arguments, since a lambda costs a closure per call."""
        try:
            return self._cache[key]
        except KeyError:
            pass
        value = self._cache[key] = build(*args)
        return value

    def __repr__(self):
        return f"FieldCtx(q={self.q}, p={self.p}, r={self.r}, modulus_code={self.modulus_code})"


@functools.lru_cache(maxsize=1)
def make_field(p: int, r: int) -> FieldCtx:
    """Build GF(p^r) with the smallest-code monic irreducible modulus.
    The last field built is kept: the driver, its producers and forked
    pool workers share one context and its memo."""
    # the size caps come before is_prime's trial division and before
    # p**r, either of which runs unbounded on a huge p or r
    if p > 256:
        raise ValueError(f"p = {p} exceeds the supported maximum q = 256")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if r < 1:
        raise ValueError(f"degree r = {r} must be >= 1")
    if r > 8 or p**r > 256:
        raise ValueError(f"q = {p}^{r} exceeds the supported maximum 256")
    for k in itertools.count():
        digits = _digits(k, p, r) + [1]
        if _is_irreducible(digits, p, r):
            return FieldCtx(p, r, digits)
    raise AssertionError("unreachable: irreducibles exist in every degree")


# ---------------------------------------------------------------------------
# Element subsets


def subfield_elements(ctx: FieldCtx, r_sub: int) -> frozenset:
    """The copy of GF(p^r_sub) inside ctx: fixed points of x -> x^(p^r_sub)."""
    if r_sub < 1 or ctx.r % r_sub != 0:
        raise ValueError(f"subfield degree {r_sub} does not divide {ctx.r}")
    s = ctx.p**r_sub
    members = frozenset(x for x in range(ctx.q) if ctx.pow(x, s) == x)
    assert len(members) == s
    # closed under + and *, so a subfield: a finite domain is a field
    for x in members:
        for y in members:
            assert ctx.add(x, y) in members and ctx.mul(x, y) in members
    return members


def multiplicative_subgroup(ctx: FieldCtx, c: int) -> frozenset:
    """The index-c subgroup of the multiplicative group, size (q-1)/c."""
    qm1 = ctx.q - 1
    if c < 1 or qm1 % c != 0:
        raise ValueError(f"index {c} does not divide q - 1 = {qm1}")
    g = ctx.primitive
    members = frozenset(ctx.pow(g, c * k) for k in range(qm1 // c))
    assert members == frozenset(x for x in range(1, ctx.q) if ctx.pow(x, qm1 // c) == 1)
    # closed under products, so a subgroup of the finite group
    for x in members:
        for y in members:
            assert ctx.mul(x, y) in members
    return members


def selftest(ctx: FieldCtx, rng_seed: int = 0) -> None:
    """Exhaustive inverse check plus field-axiom checks.

    Axioms run over all (x, y, z) triples for q <= 64 and over 10^5
    seeded random triples beyond that.
    """
    q, add, mul, inv, neg = ctx.q, ctx.add, ctx.mul, ctx.inv, ctx.neg
    for x in range(1, q):
        assert mul(x, inv(x)) == 1, f"inverse defect at {x}"
        assert add(x, neg(x)) == 0
    assert all(add(x, 0) == x and mul(x, 1) == x for x in range(q))

    if q <= 64:
        triples = itertools.product(range(q), repeat=3)
    else:
        rng = DetRng(rng_seed)
        triples = ((rng.below(q), rng.below(q), rng.below(q)) for _ in range(100_000))
    for x, y, z in triples:
        assert add(x, y) == add(y, x)
        assert mul(x, y) == mul(y, x)
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
