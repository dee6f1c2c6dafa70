"""Tests for rng.py: the splitmix64 stream, its bulk fill, randrange and shuffle, and
uniform initialization, against a scalar splitmix64 written independently of the library."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlab.rng import SeededRng, init_uniform


def splitmix64_oracle(seed, i):
    """Scalar reference for the RNG, written independently of the library."""
    mask = (1 << 64) - 1
    z = (seed + i * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestSeededRng:
    def test_matches_scalar_oracle(self):
        """Stream values equal the reference mix for several seeds."""
        for seed in (0, 1, 42, 2**63):
            rng = SeededRng(seed)
            for i in range(1, 6):
                assert rng.next_u64() == splitmix64_oracle(seed, i)

    def test_frozen_stream_seed_zero(self):
        """First outputs for seed 0 are the published splitmix64 vectors."""
        rng = SeededRng(0)
        assert rng.next_u64() == 16294208416658607535
        assert rng.next_u64() == 7960286522194355700
        assert rng.next_u64() == 487617019471545679

    def test_frozen_uniform(self):
        assert abs(SeededRng(42).fill(1)[0] - 0.7415648787718233) < 1e-15

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededRng(1).fill(4), SeededRng(2).fill(4))

    def test_fill_matches_scalar_walk(self):
        """Vectorized fill gives the top 53 bits of each scalar oracle output."""
        want = [(splitmix64_oracle(123, i) >> 11) * 2.0**-53 for i in range(1, 101)]
        assert np.array_equal(SeededRng(123).fill(100), np.array(want))

    def test_fill_then_scalar_continues_stream(self):
        a = SeededRng(9)
        a.fill(5)
        assert a.next_u64() == splitmix64_oracle(9, 6)
        assert a.fill(1)[0] == (splitmix64_oracle(9, 7) >> 11) * 2.0**-53

    def test_uniform_range_and_mean(self):
        """Monte-Carlo sanity: mean of many uniforms is near one half."""
        u = SeededRng(2024).fill(20000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.01

    def test_shuffle_is_permutation_and_deterministic(self):
        items = list(range(30))
        a, b = list(items), list(items)
        SeededRng(5).shuffle(a)
        SeededRng(5).shuffle(b)
        assert a == b
        assert sorted(a) == items
        assert a != items

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1000])
    @pytest.mark.parametrize("seed, drawn_before", [(0, 0), (5, 0), (2**64 - 1, 3), (77, 1001)])
    def test_shuffle_matches_scalar_fisher_yates(self, n, seed, drawn_before):
        """Same order and same stream position as one randrange per swap."""

        def scalar_shuffle(rng, items):
            for i in range(len(items) - 1, 0, -1):
                j = rng.randrange(i + 1)
                items[i], items[j] = items[j], items[i]

        got_rng, want_rng = SeededRng(seed), SeededRng(seed)
        got_rng.fill(drawn_before)
        want_rng.fill(drawn_before)
        got, want = list(range(n)), list(range(n))
        got_rng.shuffle(got)
        scalar_shuffle(want_rng, want)
        assert got == want
        assert got_rng.next_u64() == want_rng.next_u64()

    def test_randrange_bounds(self):
        rng = SeededRng(3)
        draws = [rng.randrange(7) for _ in range(200)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    @given(st.integers(0, 2**64 - 1), st.integers(0, 50), st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_fill_prefix_property(self, seed, skip, n):
        """fill(n) after k scalar draws equals outputs k+1 .. k+n."""
        rng = SeededRng(seed)
        for _ in range(skip):
            rng.next_u64()
        got = rng.fill(n)
        want = [
            (splitmix64_oracle(seed, i) >> 11) * 2.0**-53
            for i in range(skip + 1, skip + n + 1)
        ]
        assert np.array_equal(got, np.array(want))


class TestInitUniform:
    def test_range(self):
        t = init_uniform(20, 20, SeededRng(1), 0.25)
        assert np.all(np.abs(t) <= 0.25)

    def test_scale_zero_gives_zeros(self):
        t = init_uniform(2, 3, SeededRng(8), 0.0)
        assert np.array_equal(t, np.zeros((2, 3)))

    def test_mean_near_zero(self):
        t = init_uniform(100, 100, SeededRng(17), 1.0)
        assert abs(t.mean()) < 0.02

    def test_consumes_stream_in_order(self):
        """Entries are laid out row-major from consecutive draws."""
        expect = [0.5 * (2.0 * u - 1.0) for u in SeededRng(4).fill(6).tolist()]
        t = init_uniform(2, 3, SeededRng(4), 0.5)
        assert np.array_equal(t.reshape(-1), expect)

    def test_row_and_col_helpers(self):
        """A row and a column draw read the same stream values."""
        r = init_uniform(1, 6, SeededRng(4), 0.5)
        c = init_uniform(6, 1, SeededRng(4), 0.5)
        assert r.shape == (1, 6) and c.shape == (6, 1)
        assert np.array_equal(r[0], c[:, 0])
