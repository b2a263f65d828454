"""Deterministic RNG: reference vectors, skip-ahead seeds, sampling laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2lab.rng import DetRng, nth_seed

MASK = (1 << 64) - 1


def _reference_splitmix64(seed, count):
    # Independent transcription of the published splitmix64 update, kept
    # separate from the library so the two can disagree.
    x = seed & MASK
    out = []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_published_vector():
    # First outputs for seed 1234567, as listed with the reference C source.
    r = DetRng(1234567)
    assert [r.next64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_seed_zero_vector():
    r = DetRng(0)
    assert [r.next64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


@given(st.integers(min_value=0, max_value=MASK))
@settings(max_examples=50)
def test_matches_reference(seed):
    r = DetRng(seed)
    assert [r.next64() for _ in range(8)] == _reference_splitmix64(seed, 8)


def test_nth_seed_is_stream_element():
    # Skip-ahead must agree with walking the stream, so per-index child
    # seeds are identical no matter which worker computes them.
    r = DetRng(99)
    stream = [r.next64() for _ in range(20)]
    assert [nth_seed(99, i) for i in range(20)] == stream


@given(st.integers(min_value=0, max_value=MASK), st.integers(min_value=1, max_value=10**9))
@settings(max_examples=100)
def test_below_in_range(seed, n):
    r = DetRng(seed)
    for _ in range(4):
        assert 0 <= r.below(n) < n


def test_below_unbiased_small():
    # Rejection sampling: each residue appears, none wildly off for n=3.
    r = DetRng(7)
    counts = [0, 0, 0]
    for _ in range(3000):
        counts[r.below(3)] += 1
    assert min(counts) > 800


@given(st.integers(min_value=0, max_value=MASK))
@settings(max_examples=50)
def test_sample_is_k_distinct(seed):
    r = DetRng(seed)
    got = r.sample(50, 12)
    assert len(got) == 12
    assert len(set(got)) == 12
    assert all(0 <= x < 50 for x in got)


def test_sample_determinism():
    assert DetRng(5).sample(1000, 40) == DetRng(5).sample(1000, 40)
    assert DetRng(5).sample(1000, 40) != DetRng(6).sample(1000, 40)


def test_sample_full_range_is_permutation():
    got = DetRng(3).sample(17, 17)
    assert sorted(got) == list(range(17))


def test_bits():
    r = DetRng(11)
    for k in (1, 7, 32, 63, 64, 81, 128):
        v = r.bits(k)
        assert 0 <= v < (1 << k)


def test_below_rejects_beyond_word():
    # beyond 2**64 the rejection loop could never terminate
    with pytest.raises(ValueError):
        DetRng(0).below(1 << 81)
    assert 0 <= DetRng(0).below(1 << 64) < (1 << 64)


def below_loop_sample(rng, n, k):
    """sample() as one below() call per draw: the formula sample() inlines."""
    swapped = {}
    out = []
    for i in range(k):
        j = i + rng.below(n - i)
        out.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    return out


def stream_steps(before, after):
    """How many next64 steps carry the state from before to after."""
    return ((after - before) * pow(0x9E3779B97F4A7C15, -1, 1 << 64)) & MASK


@pytest.mark.parametrize("n,ks", [
    (1, (0, 1)),
    (7, (0, 1, 3, 7)),
    (2**63 + 1, (0, 1, 40)),  # the first draw rejects about half its raw values
    (2**63 + 64, (0, 1, 40)),  # and here each of the 40 draws does
    (2**64, (0, 1, 40)),
])
@pytest.mark.parametrize("seed", [0, 5, MASK])
def test_sample_matches_below_loop(n, ks, seed):
    for k in ks:
        fast, slow = DetRng(seed), DetRng(seed)
        assert fast.sample(n, k) == below_loop_sample(slow, n, k)
        assert fast._state == slow._state
        assert fast.next64() == slow.next64()
    if n == 2**63 + 64:
        rng = DetRng(seed)
        rng.sample(n, 40)
        assert stream_steps(seed, rng._state) > 50  # rejections did happen


def test_sample_rejects_beyond_word():
    with pytest.raises(ValueError):
        DetRng(0).sample(2**64 + 1, 1)
    assert DetRng(0).sample(2**64 + 1, 0) == []
