"""Tests for the 802.11 scrambler."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.phy import scrambler as S


class TestSequence:
    def test_period_is_127(self):
        seq = S.scrambler_sequence(127 * 3)
        assert np.array_equal(seq[:127], seq[127:254])
        assert np.array_equal(seq[:127], seq[254:])

    def test_known_prefix_for_all_ones_seed(self):
        # IEEE 802.11-2016 §17.3.5.5: seed 1111111 generates the sequence
        # starting 0000 1110 1111 0010 ...
        seq = S.scrambler_sequence(16, seed=0b1111111)
        assert seq.tolist() == [0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0]

    def test_balanced(self):
        # A maximal-length 7-bit LFSR sequence has 64 ones and 63 zeros.
        seq = S.scrambler_sequence(127)
        assert int(seq.sum()) == 64

    def test_zero_length(self):
        assert S.scrambler_sequence(0).size == 0

    def test_negative_length_rejected(self):
        with pytest.raises(EncodingError):
            S.scrambler_sequence(-1)

    @pytest.mark.parametrize("seed", [0, 128, 200])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(EncodingError):
            S.scrambler_sequence(8, seed=seed)

    def test_all_seeds_give_shifted_sequences(self):
        # Every non-zero seed yields the same m-sequence, phase-shifted.
        base = S.scrambler_sequence(254, seed=1)
        for seed in range(2, 128):
            other = S.scrambler_sequence(127, seed=seed)
            joined = np.concatenate([base, base])
            found = any(np.array_equal(joined[k : k + 127], other) for k in range(127))
            assert found, f"seed {seed} not a phase shift"


class TestScramble:
    @given(
        st.lists(st.integers(0, 1), max_size=300),
        st.integers(1, 127),
    )
    def test_involution(self, bits, seed):
        bits = np.array(bits, dtype=np.uint8)
        once = S.scramble(bits, seed)
        twice = S.descramble(once, seed)
        assert np.array_equal(twice, bits)

    def test_different_seeds_differ(self):
        zeros = np.zeros(64, dtype=np.uint8)
        a = S.scramble(zeros, seed=1)
        b = S.scramble(zeros, seed=2)
        assert not np.array_equal(a, b)

    def test_scrambling_zeros_yields_sequence(self):
        zeros = np.zeros(50, dtype=np.uint8)
        assert np.array_equal(S.scramble(zeros, 7), S.scrambler_sequence(50, 7))
