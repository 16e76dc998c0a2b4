"""Golden equivalence: vectorised encoder/decoder vs the reference loops.

The vectorised fast paths must be *bit-identical* to the straightforward
per-step implementations they replaced (the ``*_reference`` oracles in
``tests/oracles/kernels.py``). These
tests pin that contract over random messages, every supported code rate,
channel noise, puncturing erasures, and terminated trellises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import convolutional as C
from repro.phy import interleaver as I
from tests.oracles.kernels import conv_encode_reference, viterbi_decode_reference

RATES = sorted(C.PUNCTURE_PATTERNS)  # ["1/2", "2/3", "3/4"]


def _rng(seed):
    return np.random.default_rng(seed)


class TestEncoderEquivalence:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_random_messages(self, bits):
        np.testing.assert_array_equal(C.conv_encode(bits), conv_encode_reference(bits))

    def test_many_lengths(self):
        rng = _rng(0)
        for n in range(1, 129):
            bits = rng.integers(0, 2, size=n)
            np.testing.assert_array_equal(
                C.conv_encode(bits), conv_encode_reference(bits)
            )

    def test_empty_input(self):
        np.testing.assert_array_equal(C.conv_encode([]), conv_encode_reference([]))


class TestPunctureMasks:
    @pytest.mark.parametrize("rate", RATES)
    def test_mask_follows_pattern(self, rate):
        pat_a, pat_b = C.PUNCTURE_PATTERNS[rate]
        period = len(pat_a)
        half_len = 3 * period + 1  # a non-multiple exercises the tiling tail
        mask = C._keep_mask(rate, half_len)
        for i in range(half_len):
            assert mask[2 * i] == bool(pat_a[i % period])
            assert mask[2 * i + 1] == bool(pat_b[i % period])

    def test_mask_is_cached_and_frozen(self):
        a = C._keep_mask("3/4", 18)
        assert a is C._keep_mask("3/4", 18)
        with pytest.raises(ValueError):
            a[0] = False

    @pytest.mark.parametrize("rate", RATES)
    def test_puncture_depuncture_roundtrip(self, rate):
        rng = _rng(1)
        pat_a, _ = C.PUNCTURE_PATTERNS[rate]
        coded = rng.integers(0, 2, size=2 * len(pat_a) * 5).astype(np.uint8)
        thin = C.puncture(coded, rate)
        full, mask = C.depuncture(thin, rate)
        assert full.size == coded.size and mask.size == coded.size
        np.testing.assert_array_equal(full[mask], coded[mask])
        assert not full[~mask].any()


class TestViterbiEquivalence:
    @pytest.mark.parametrize("terminated", [False, True])
    def test_clean_streams(self, terminated):
        rng = _rng(2)
        for n in (1, 7, 24, 96):
            msg = rng.integers(0, 2, size=n)
            if terminated:
                msg = np.concatenate([msg, np.zeros(6, dtype=np.int64)])
            coded = C.conv_encode(msg)
            np.testing.assert_array_equal(
                C.viterbi_decode(coded, terminated=terminated),
                viterbi_decode_reference(coded, terminated=terminated),
            )

    @pytest.mark.parametrize("flips", [1, 4, 12])
    @pytest.mark.parametrize("terminated", [False, True])
    def test_noisy_streams(self, flips, terminated):
        rng = _rng(3)
        for trial in range(5):
            msg = rng.integers(0, 2, size=60)
            coded = C.conv_encode(np.concatenate([msg, np.zeros(6, dtype=np.int64)]))
            noisy = coded.copy()
            idx = rng.choice(coded.size, size=flips, replace=False)
            noisy[idx] ^= 1
            np.testing.assert_array_equal(
                C.viterbi_decode(noisy, terminated=terminated),
                viterbi_decode_reference(noisy, terminated=terminated),
            )

    def test_random_garbage_streams(self):
        # Pure noise maximises metric ties — the sharpest test of the
        # tie-breaking equivalence between argmin and stable argsort.
        rng = _rng(4)
        for trial in range(10):
            junk = rng.integers(0, 2, size=2 * rng.integers(1, 80))
            np.testing.assert_array_equal(
                C.viterbi_decode(junk), viterbi_decode_reference(junk)
            )

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("terminated", [False, True])
    def test_punctured_rates(self, rate, terminated):
        rng = _rng(5)
        pat_a, _ = C.PUNCTURE_PATTERNS[rate]
        for trial in range(4):
            # Message length stays a pattern-period multiple and leaves
            # room for the 6 tail bits in the terminated variant.
            n = len(pat_a) * int(rng.integers(7, 16))
            msg = rng.integers(0, 2, size=n - (6 if terminated else 0))
            if terminated:
                msg = np.concatenate([msg, np.zeros(6, dtype=np.int64)])
            thin = C.encode_with_rate(msg, rate)
            if trial:
                noisy = thin.copy()
                noisy[rng.choice(thin.size, size=2, replace=False)] ^= 1
                thin = noisy
            full, mask = C.depuncture(thin, rate)
            np.testing.assert_array_equal(
                C.viterbi_decode(full, known_mask=mask, terminated=terminated),
                viterbi_decode_reference(
                    full, known_mask=mask, terminated=terminated
                ),
            )

    @pytest.mark.parametrize("rate", RATES)
    def test_decode_with_rate_corrects_noise(self, rate):
        rng = _rng(6)
        pat_a, _ = C.PUNCTURE_PATTERNS[rate]
        msg = np.concatenate(
            [rng.integers(0, 2, size=len(pat_a) * 10 - 6), np.zeros(6, dtype=np.int64)]
        )
        thin = C.encode_with_rate(msg, rate)
        noisy = thin.copy()
        noisy[3] ^= 1
        np.testing.assert_array_equal(
            C.decode_with_rate(noisy, rate, terminated=True), msg
        )


class TestInterleaverCache:
    def test_permutation_cache_shares_and_protects(self):
        a = I._permutation_cached(48, 1)
        assert a is I._permutation_cached(48, 1)
        with pytest.raises(ValueError):
            a[0] = 0

    @pytest.mark.parametrize("n_cbps,n_bpsc", [(48, 1), (96, 2), (192, 4), (288, 6)])
    def test_blockwise_roundtrip_multi_symbol(self, n_cbps, n_bpsc):
        rng = _rng(7)
        bits = rng.integers(0, 2, size=n_cbps * 3).astype(np.uint8)
        inter = I.interleave(bits, n_cbps, n_bpsc)
        np.testing.assert_array_equal(I.deinterleave(inter, n_cbps, n_bpsc), bits)
        # Vectorised multi-block path == one block at a time.
        perm = I._permutation_cached(n_cbps, n_bpsc)
        for k in range(3):
            block = bits[k * n_cbps : (k + 1) * n_cbps]
            manual = np.empty_like(block)
            manual[perm] = block
            np.testing.assert_array_equal(inter[k * n_cbps : (k + 1) * n_cbps], manual)
