"""Tests for the 802.11 block interleaver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.phy import interleaver as I

#: (n_cbps, n_bpsc) for the four 802.11 modulations.
BLOCK_SHAPES = [(48, 1), (96, 2), (192, 4), (288, 6)]


class TestPermutation:
    @pytest.mark.parametrize("n_cbps,n_bpsc", BLOCK_SHAPES)
    def test_is_a_permutation(self, n_cbps, n_bpsc):
        perm = I._permutation_cached(n_cbps, n_bpsc)
        assert sorted(perm.tolist()) == list(range(n_cbps))

    def test_known_bpsk_values(self):
        # For BPSK (s=1) the second permutation is the identity, so
        # out position of bit k is (N/16)(k mod 16) + floor(k/16).
        perm = I._permutation_cached(48, 1)
        assert perm[0] == 0
        assert perm[1] == 3
        assert perm[16] == 1
        assert perm[47] == 47

    def test_adjacent_bits_separated(self):
        # The point of the interleaver: adjacent coded bits never map to
        # adjacent output positions.
        for n_cbps, n_bpsc in BLOCK_SHAPES:
            perm = I._permutation_cached(n_cbps, n_bpsc)
            gaps = np.abs(np.diff(perm))
            assert gaps.min() >= 2

    def test_bad_block_size(self):
        with pytest.raises(EncodingError):
            I._permutation_cached(50, 1)

    def test_bad_bpsc(self):
        with pytest.raises(EncodingError):
            I._permutation_cached(48, 5)


class TestRoundtrip:
    @pytest.mark.parametrize("n_cbps,n_bpsc", BLOCK_SHAPES)
    def test_single_block(self, n_cbps, n_bpsc):
        rng = np.random.default_rng(n_cbps)
        bits = rng.integers(0, 2, n_cbps).astype(np.uint8)
        assert np.array_equal(
            I.deinterleave(I.interleave(bits, n_cbps, n_bpsc), n_cbps, n_bpsc),
            bits,
        )

    @given(st.integers(1, 5), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_multi_block(self, n_blocks, shape_idx):
        n_cbps, n_bpsc = BLOCK_SHAPES[shape_idx]
        rng = np.random.default_rng(n_blocks * 7 + shape_idx)
        bits = rng.integers(0, 2, n_blocks * n_cbps).astype(np.uint8)
        out = I.deinterleave(I.interleave(bits, n_cbps, n_bpsc), n_cbps, n_bpsc)
        assert np.array_equal(out, bits)

    def test_blocks_are_independent(self):
        n_cbps, n_bpsc = 96, 2
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, n_cbps).astype(np.uint8)
        b = rng.integers(0, 2, n_cbps).astype(np.uint8)
        joined = I.interleave(np.concatenate([a, b]), n_cbps, n_bpsc)
        assert np.array_equal(joined[:n_cbps], I.interleave(a, n_cbps, n_bpsc))
        assert np.array_equal(joined[n_cbps:], I.interleave(b, n_cbps, n_bpsc))

    def test_partial_block_rejected(self):
        with pytest.raises(EncodingError):
            I.interleave(np.zeros(47, np.uint8), 48, 1)
        with pytest.raises(EncodingError):
            I.deinterleave(np.zeros(47, np.uint8), 48, 1)
