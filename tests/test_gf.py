"""Field arithmetic against frozen tables, classical identities, and axioms."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2lab import gf
from sl2lab.gf import (
    is_prime,
    make_field,
    multiplicative_subgroup,
    prime_factors,
    selftest,
    subfield_elements,
)

# Smallest-code monic irreducible modulus per field, as (low..high) digit
# tuples; these pin the element encoding for every frozen value elsewhere.
FROZEN_MODULI = {
    (2, 1): (0, 1),
    (3, 1): (0, 1),
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (5, 1): (0, 1),
    (7, 1): (0, 1),
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (5, 2): (2, 0, 1),        # x^2 + 2
}

FROZEN_PRIMITIVE = {
    (2, 1): 1, (3, 1): 2, (2, 2): 2, (5, 1): 2, (7, 1): 3,
    (2, 3): 2, (3, 2): 4, (11, 1): 2, (13, 1): 2, (2, 4): 2, (5, 2): 6,
}


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(97) == [97]


@pytest.mark.parametrize("p,r", sorted(FROZEN_MODULI))
def test_modulus_frozen(p, r):
    ctx = make_field(p, r)
    assert ctx.modulus == FROZEN_MODULI[(p, r)]
    assert ctx.q == p**r


def _monic(p, k):
    """Every monic degree-k polynomial over F_p, digits degree 0 first."""
    return [(*low, 1) for low in itertools.product(range(p), repeat=k)]


def _times(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def test_modulus_is_smallest_code_irreducible_for_every_field():
    # the oracle multiplies out every reducible polynomial instead of
    # dividing candidates, so it shares no step with make_field's search
    fields = [(p, r) for p in range(2, 257) if is_prime(p) for r in range(1, 9) if p**r <= 256]
    assert len(fields) == 70
    for p, r in fields:
        reducible = {
            _times(a, b, p)
            for k in range(1, r // 2 + 1)
            for a in _monic(p, k)
            for b in _monic(p, r - k)
        }
        # all candidates are monic of one degree, so the smallest integer
        # code is the smallest digit tuple read from the top degree down
        want = min((m for m in _monic(p, r) if m not in reducible), key=lambda m: m[::-1])
        assert make_field(p, r).modulus == want, (p, r)


@pytest.mark.parametrize("p,r", sorted(FROZEN_PRIMITIVE))
def test_primitive_frozen(p, r):
    ctx = make_field(p, r)
    assert ctx.primitive == FROZEN_PRIMITIVE[(p, r)]


def test_gf4_tables(fields):
    # Classical GF(4) tables with 2 = x, 3 = x + 1 under modulus x^2+x+1.
    ctx = fields[4]
    assert [[ctx.mul(a, b) for b in range(4)] for a in range(4)] == [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ]
    assert [[ctx.add(a, b) for b in range(4)] for a in range(4)] == [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]


def test_gf9_inverses(fields):
    assert [fields[9].inv(a) for a in range(1, 9)] == [1, 2, 6, 5, 4, 3, 8, 7]


def test_prime_field_is_mod_arithmetic(fields):
    ctx = fields[13]
    for a in range(13):
        for b in range(13):
            assert ctx.add(a, b) == (a + b) % 13
            assert ctx.mul(a, b) == (a * b) % 13


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25])
def test_selftest_clean(fields, q):
    selftest(fields[q])


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25])
def test_field_axioms_exhaustive_small(fields, q):
    ctx = fields[q]
    elems = range(q)
    for a in elems:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.inv(a) == ctx.pow(a, q - 2)
    for a in elems:
        for b in elems:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))


@given(st.tuples(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24)))
@settings(max_examples=200)
def test_distributivity_gf25(triple):
    ctx = make_field(5, 2)
    a, b, c = triple
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25])
def test_frobenius_is_additive(fields, q):
    # x -> x^p fixes exactly the prime subfield and respects addition.
    ctx = fields[q]
    frob = lambda x: ctx.pow(x, ctx.p)
    for a in range(q):
        for b in range(q):
            assert frob(ctx.add(a, b)) == ctx.add(frob(a), frob(b))
    fixed = {x for x in range(q) if frob(x) == x}
    assert fixed == set(subfield_elements(ctx, 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25])
def test_primitive_has_full_order(fields, q):
    ctx = fields[q]
    g = ctx.primitive
    powers = {ctx.pow(g, k) for k in range(q - 1)}
    assert len(powers) == q - 1
    assert ctx.pow(g, q - 1) == 1


def test_subfield_frozen_members(fields):
    assert sorted(subfield_elements(fields[9], 1)) == [0, 1, 2]
    assert sorted(subfield_elements(fields[16], 1)) == [0, 1]
    assert sorted(subfield_elements(fields[16], 2)) == [0, 1, 6, 7]


@pytest.mark.parametrize("q,r_sub", [(4, 1), (8, 1), (9, 1), (16, 1), (16, 2), (25, 1)])
def test_subfield_size_and_closure(fields, q, r_sub):
    ctx = fields[q]
    sub = subfield_elements(ctx, r_sub)
    assert len(sub) == ctx.p**r_sub
    assert isinstance(sub, frozenset) and {0, 1} <= sub
    for x in sub:
        assert x == 0 or ctx.inv(x) in sub
        for y in sub:
            assert ctx.add(x, y) in sub and ctx.mul(x, y) in sub


def test_subfield_rejects_bad_degree(fields):
    with pytest.raises(ValueError):
        subfield_elements(fields[16], 3)
    with pytest.raises(ValueError):
        subfield_elements(fields[9], 0)


def test_mult_subgroup_frozen(fields):
    assert sorted(multiplicative_subgroup(fields[13], 3)) == [1, 5, 8, 12]
    assert sorted(multiplicative_subgroup(fields[7], 2)) == [1, 2, 4]
    assert sorted(multiplicative_subgroup(fields[7], 3)) == [1, 6]


@pytest.mark.parametrize("q,c", [(7, 1), (7, 2), (7, 3), (7, 6), (13, 2), (13, 3),
                                 (13, 4), (13, 6), (9, 2), (9, 4), (16, 3), (16, 5)])
def test_mult_subgroup_size(fields, q, c):
    ctx = fields[q]
    sub = multiplicative_subgroup(ctx, c)
    assert len(sub) == (q - 1) // c
    assert isinstance(sub, frozenset) and 1 in sub and 0 not in sub
    for x in sub:
        assert ctx.inv(x) in sub
        for y in sub:
            assert ctx.mul(x, y) in sub


def test_mult_subgroup_rejects_nondivisor(fields):
    with pytest.raises(ValueError):
        multiplicative_subgroup(fields[7], 4)


def test_make_field_guards():
    for composite in (4, 255):
        with pytest.raises(ValueError, match="is not prime"):
            make_field(composite, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 20)  # beyond q = 256
    with pytest.raises(ValueError):
        make_field(257, 1)


@pytest.mark.parametrize("p,r", [(3, 100_000_000), (1_000_000_000_000_000_003, 1)])
def test_make_field_rejects_huge_fields_at_once(p, r):
    # trial division of p, or p**r, would run far past the timeout; the
    # subprocess keeps a regression from hanging the suite
    code = f"from sl2lab.gf import make_field\nmake_field({p}, {r})\n"
    env = dict(os.environ, PYTHONPATH=str(Path(gf.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=10)
    assert done.returncode == 1
    assert "ValueError" in done.stderr and "exceeds the supported maximum" in done.stderr


def test_field_cache_identity():
    assert make_field(3, 2) is make_field(3, 2)
