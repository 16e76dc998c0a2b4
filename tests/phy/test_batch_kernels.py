"""Vectorised PHY kernels are bit-identical to their retained references.

PR 5 turned four hot loops into tensor ops — DSSS despreading (±1 GEMM
against ``CHIP_TABLE_PM``), batched O-QPSK modulation/demodulation, the
symbol-aligned preamble search, and the STF sliding correlation. Each
shipped implementation's original loop is a ``*_reference`` oracle in
``tests/oracles/kernels.py``; these property tests pin them equal over
random inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError, EncodingError
from repro.phy import preamble as P
from repro.phy import sync as S
from repro.phy import zigbee as Z
from repro.rng import make_rng
from tests.oracles.kernels import (
    despread_reference,
    find_preamble_reference,
    locate_preamble_reference,
)

# ---------------------------------------------------------------------------
# despread: one ±1 GEMM vs the broadcast Hamming scan
# ---------------------------------------------------------------------------

chip_blocks = st.integers(0, 2**31 - 1).map(
    lambda seed: (
        lambda r: r.integers(
            0, 2, 32 * int(r.integers(1, 12)), dtype=np.uint8
        )
    )(np.random.default_rng(seed))
)


class TestDespreadGemm:
    @given(chips=chip_blocks)
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_reference(self, chips):
        sym_gemm, err_gemm = Z.despread(chips)
        sym_ref, err_ref = despread_reference(chips)
        assert np.array_equal(sym_gemm, sym_ref)
        assert np.array_equal(err_gemm, err_ref)
        assert sym_gemm.dtype == sym_ref.dtype
        assert err_gemm.dtype == err_ref.dtype

    def test_clean_roundtrip(self):
        symbols = np.arange(16, dtype=np.uint8)
        decoded, errors = Z.despread(Z.spread(symbols))
        assert np.array_equal(decoded, symbols)
        assert not errors.any()

    def test_tie_break_pinned_to_lowest_symbol(self):
        # Flip chips until two table rows are equidistant: argmin must
        # pick the lowest symbol index, exactly like the reference.
        chips = Z.CHIP_TABLE[3].copy()
        for flips in range(1, 17):
            trial = chips.copy()
            trial[:flips] ^= 1
            assert np.array_equal(
                Z.despread(trial)[0], despread_reference(trial)[0]
            )

    def test_rejects_partial_symbols(self):
        with pytest.raises(DecodingError):
            Z.despread(np.zeros(33, dtype=np.uint8))


# ---------------------------------------------------------------------------
# batched O-QPSK: (N, samples) paths vs the serial per-row pipeline
# ---------------------------------------------------------------------------


class TestBatchedOqpsk:
    @pytest.mark.parametrize("spc", [1, 4, 10])
    def test_modulate_rows_match_serial(self, spc):
        r = make_rng(5)
        chips = r.integers(0, 2, (6, 64), dtype=np.uint8)
        batch = Z.oqpsk_modulate_batch(chips, spc)
        for i in range(chips.shape[0]):
            assert np.array_equal(batch[i], Z.oqpsk_modulate(chips[i], spc))

    @pytest.mark.parametrize("spc", [1, 4, 10])
    def test_demodulate_rows_match_serial(self, spc):
        r = make_rng(6)
        chips = r.integers(0, 2, (5, 64), dtype=np.uint8)
        wf = Z.oqpsk_modulate_batch(chips, spc)
        noisy = wf + 0.3 * (
            r.standard_normal(wf.shape) + 1j * r.standard_normal(wf.shape)
        )
        batch = Z.oqpsk_demodulate_batch(noisy, spc)
        for i in range(chips.shape[0]):
            assert np.array_equal(batch[i], Z.oqpsk_demodulate(noisy[i], spc))

    def test_batch_roundtrip(self):
        r = make_rng(7)
        chips = r.integers(0, 2, (4, 96), dtype=np.uint8)
        out = Z.oqpsk_demodulate_batch(Z.oqpsk_modulate_batch(chips, 10), 10)
        assert np.array_equal(out[:, : chips.shape[1]], chips)

    def test_validation(self):
        with pytest.raises(EncodingError):
            Z.oqpsk_modulate_batch(np.zeros(8, dtype=np.uint8), 10)  # 1-D
        with pytest.raises(EncodingError):
            Z.oqpsk_modulate_batch(np.zeros((2, 3), dtype=np.uint8), 10)
        with pytest.raises(EncodingError):
            Z.oqpsk_modulate_batch(np.full((2, 4), 2, dtype=np.uint8), 10)


# ---------------------------------------------------------------------------
# symbol-aligned preamble search: windowed compare vs per-offset scan
# ---------------------------------------------------------------------------


def _chip_stream(seed, *, plant_preamble):
    r = np.random.default_rng(seed)
    n = int(r.integers(100, 400))
    arr = r.integers(0, 2, n, dtype=np.uint8)
    if plant_preamble:
        offset = int(r.integers(0, max(n - 4 * 32, 1)))
        run = np.tile(Z.CHIP_TABLE[0], 4)
        end = min(offset + run.size, n)
        arr[offset:end] = run[: end - offset]
        # Sprinkle a few chip errors inside the tolerance budget.
        flips = r.integers(0, n, size=3)
        arr[flips] ^= 1
    return arr


class TestFindPreamble:
    @given(seed=st.integers(0, 2**31 - 1), plant=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_reference(self, seed, plant):
        arr = _chip_stream(seed, plant_preamble=plant)
        assert S.find_preamble(arr) == find_preamble_reference(arr)

    @given(
        seed=st.integers(0, 2**31 - 1),
        start=st.integers(0, 64),
        tolerance=st.integers(0, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_start_and_tolerance_respected(self, seed, start, tolerance):
        arr = _chip_stream(seed, plant_preamble=True)
        assert S.find_preamble(
            arr, start=start, tolerance=tolerance
        ) == find_preamble_reference(arr, start=start, tolerance=tolerance)

    def test_short_stream(self):
        arr = np.zeros(4 * 32 - 1, dtype=np.uint8)
        assert S.find_preamble(arr) is None
        assert find_preamble_reference(arr) is None

    def test_exact_preamble_found_at_zero(self):
        arr = np.tile(Z.CHIP_TABLE[0], 8)
        assert S.find_preamble(arr) == 0


# ---------------------------------------------------------------------------
# Wi-Fi STF sliding correlation: np.correlate vs the per-window vdot
# ---------------------------------------------------------------------------


class TestLocatePreamble:
    @given(
        seed=st.integers(0, 2**31 - 1),
        pad=st.integers(0, 300),
        scale=st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_reference(self, seed, pad, scale):
        r = np.random.default_rng(seed)
        stf = P.short_training_field()
        noise = 0.05 * (
            r.standard_normal(pad + 4 * stf.size)
            + 1j * r.standard_normal(pad + 4 * stf.size)
        )
        wf = noise.copy()
        wf[pad : pad + stf.size] += scale * stf
        assert P.locate_preamble(wf) == locate_preamble_reference(wf)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pure_noise_agrees(self, seed):
        r = np.random.default_rng(seed)
        wf = r.standard_normal(600) + 1j * r.standard_normal(600)
        try:
            got = P.locate_preamble(wf)
        except DecodingError:
            with pytest.raises(DecodingError):
                locate_preamble_reference(wf)
        else:
            assert got == locate_preamble_reference(wf)

    def test_capture_too_short(self):
        with pytest.raises(DecodingError):
            P.locate_preamble(np.zeros(3, dtype=np.complex128))
