"""Tests for ZigBee frame synchronisation over chip streams."""

import numpy as np

from repro.phy import sync as S
from repro.phy import zigbee
from tests.oracles.rx import encode_frame, receive_stream, synchronise


def frame_chips(payload: bytes) -> np.ndarray:
    return zigbee.ZigBeePhy().chips_for(encode_frame(payload))


def random_chips(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    chips = rng.integers(0, 2, n).astype(np.uint8)
    # Scrub accidental zero-symbol runs so noise never syncs.
    window = zigbee.CHIPS_PER_SYMBOL
    for k in range(0, n - window, window):
        if np.count_nonzero(
            chips[k : k + window] != zigbee.CHIP_TABLE[0]
        ) <= S.SEARCH_CHIP_TOLERANCE:
            chips[k] ^= 1
            chips[k + 2] ^= 1
    return chips


class TestFindPreamble:
    def test_finds_aligned_preamble(self):
        chips = frame_chips(b"hello")
        assert S.find_preamble(chips) == 0

    def test_finds_offset_preamble(self):
        noise = random_chips(57, seed=0)
        chips = np.concatenate([noise, frame_chips(b"x")])
        assert S.find_preamble(chips) == 57

    def test_no_preamble_in_noise(self):
        assert S.find_preamble(random_chips(600, seed=1)) is None

    def test_tolerates_chip_errors(self):
        chips = frame_chips(b"robust").copy()
        rng = np.random.default_rng(2)
        # 3 flips per 32-chip window, below the tolerance of 8.
        for w in range(8):
            idx = rng.choice(32, 3, replace=False) + 32 * w
            chips[idx] ^= 1
        assert S.find_preamble(chips) == 0


class TestSynchronise:
    def test_full_frame_decoded(self):
        res = synchronise(frame_chips(b"payload data"))
        assert res.error is None
        assert res.frame is not None
        assert res.frame.payload == b"payload data"
        assert res.sync_chip_index == 0

    def test_frame_after_noise(self):
        chips = np.concatenate(
            [random_chips(133, seed=3), frame_chips(b"late frame")]
        )
        res = synchronise(chips)
        assert res.frame is not None
        assert res.frame.payload == b"late frame"
        assert res.sync_chip_index == 133

    def test_noise_only(self):
        res = synchronise(random_chips(500, seed=4))
        assert res.frame is None
        assert res.error == "no preamble found"
        assert res.busy_symbols == 0

    def test_preamble_only_burns_receiver_time(self):
        # Paper §II-A-2: "if a ZigBee packet only has the preamble ...
        # nothing can be decoded [but] the hardware resource is occupied".
        preamble_only = zigbee.spread([0] * 8)
        res = synchronise(preamble_only)
        assert res.frame is None
        assert res.busy_symbols >= 8
        assert "SFD" in res.error or "ended" in res.error

    def test_missing_sfd(self):
        # Preamble followed by a wrong delimiter.
        chips = zigbee.spread(
            list(zigbee.bytes_to_symbols(b"\x00\x00\x00\x00\x55\x05\xaa\xbb"))
        )
        res = synchronise(chips)
        assert res.frame is None
        assert "SFD mismatch" in res.error

    def test_truncated_psdu_keeps_radio_busy(self):
        chips = frame_chips(b"truncated payload here")
        res = synchronise(chips[: chips.size // 2])
        assert res.frame is None
        assert res.error == "stream ended inside the PSDU"
        assert res.busy_symbols > 8

    def test_invalid_phr(self):
        # preamble + SFD + PHR of 1 (< FCS size).
        ppdu = b"\x00\x00\x00\x00\x7a\x01"
        chips = zigbee.spread(list(zigbee.bytes_to_symbols(ppdu)))
        res = synchronise(chips)
        assert res.frame is None
        assert "invalid length" in res.error

    def test_corrupted_crc(self):
        ppdu = bytearray(encode_frame(b"crc test"))
        ppdu[-1] ^= 0xFF
        chips = zigbee.spread(list(zigbee.bytes_to_symbols(bytes(ppdu))))
        res = synchronise(chips)
        assert res.frame is None
        assert "check sequence" in res.error

    def test_busy_symbols_cover_whole_frame(self):
        payload = b"0123456789"
        res = synchronise(frame_chips(payload))
        # preamble(8) + SFD(2) + PHR(2) + PSDU symbols.
        assert res.busy_symbols == 8 + 2 + 2 + 2 * (len(payload) + 2)


class TestReceiveStream:
    def test_waveform_to_frame(self):
        wf = zigbee.ZigBeePhy().transmit(encode_frame(b"over the air"))
        res = receive_stream(wf)
        assert res.frame is not None
        assert res.frame.payload == b"over the air"

    def test_waveform_with_noise(self):
        rng = np.random.default_rng(5)
        wf = zigbee.ZigBeePhy().transmit(encode_frame(b"noisy link"))
        noisy = wf + 0.15 * (
            rng.standard_normal(wf.size) + 1j * rng.standard_normal(wf.size)
        )
        res = receive_stream(noisy)
        assert res.frame is not None
        assert res.frame.payload == b"noisy link"

    def test_emulated_waveform_captures_receiver_without_frame(self):
        # The EmuBee stealth attack, end to end at waveform level: the
        # receiver syncs on the forged preamble, decodes, and gets nothing.
        from repro.phy.emulation import WaveformEmulator

        emulator = WaveformEmulator()
        burst = bytes(4) + b"\x13\x37\x00\x42"  # preamble + garbage (no SFD)
        result = emulator.emulate_bytes(burst)
        res = receive_stream(result.emulated)
        assert res.frame is None
        assert res.sync_chip_index >= 0  # it DID sync...
        assert res.busy_symbols >= 4  # ...and burned receiver time
