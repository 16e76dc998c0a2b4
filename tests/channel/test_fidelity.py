"""Channel-fidelity tiers: resolution, calibration, caching, adjudication.

Pins the three guarantees of the fidelity subsystem: the ``analytic``
default stays bit-identical to the plain link budget, the ``hybrid``
correction table matches waveform Monte-Carlo truth within the gated
tolerance on the calibration grid, and the ``waveform`` tier's seeded
trial cache makes results independent of lookup order while counting its
traffic into the metrics registry.
"""

import math

import numpy as np
import pytest

from repro.channel.fidelity import (
    CALIBRATION_TOLERANCE,
    CHANNEL_TIERS,
    OFFSET_BIN_MHZ,
    CalibrationTable,
    HybridLinkBudget,
    JamAdjudicator,
    WaveformLinkBudget,
    calibrate,
    clear_trial_cache,
    load_default_calibration,
    make_channel,
    monotone_fit,
    offset_bin_index,
    raw_jam_to_signal_db,
    resolve_channel_tier,
    trial_cache_stats,
)
from repro.channel.link import (
    Interferer,
    JammerSignalType,
    LinkBudget,
    LinkTable,
    chip_flip_probability,
)
from repro.channel.trials import run_chip_flip_trials
from repro.core.mdp import MDPConfig
from repro.errors import ChannelError, ConfigurationError
from repro.obs.metrics import METRICS
from repro.rng import derive
from tests.oracles.mdp import channel_mdp_config

EMUBEE = JammerSignalType.EMUBEE
ZIGBEE = JammerSignalType.ZIGBEE


class TestTierResolution:
    def test_default_is_analytic(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHANNEL", raising=False)
        assert resolve_channel_tier() == "analytic"

    def test_empty_and_whitespace_count_as_unset(self, monkeypatch):
        for raw in ("", "  ", "\t"):
            monkeypatch.setenv("REPRO_CHANNEL", raw)
            assert resolve_channel_tier() == "analytic"

    def test_env_and_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHANNEL", " Hybrid ")
        assert resolve_channel_tier() == "hybrid"
        # Explicit argument beats the environment.
        assert resolve_channel_tier("waveform") == "waveform"

    def test_invalid_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHANNEL", raising=False)
        with pytest.raises(ConfigurationError):
            resolve_channel_tier("exact")

    def test_all_tiers_resolve(self):
        for tier in CHANNEL_TIERS:
            assert resolve_channel_tier(tier) == tier


class TestMarginTransforms:
    def test_zigbee_margin_is_raw(self):
        assert raw_jam_to_signal_db(ZIGBEE, -3.0) == -3.0

    def test_emubee_inverts_fraction_and_loss(self):
        b = LinkBudget()
        raw = raw_jam_to_signal_db(EMUBEE, 0.0, budget=b)
        # Effective = raw + 10log10(inband) − loss, so pushing the raw
        # value back through the budget must recover the margin.
        eff = (
            raw
            + 10.0 * math.log10(b.emubee_inband_fraction)
            - b.emulation_loss_db
        )
        assert eff == pytest.approx(0.0)

    def test_wifi_has_no_correlated_margin(self):
        with pytest.raises(ChannelError):
            raw_jam_to_signal_db(JammerSignalType.WIFI, 0.0)

    def test_offset_bins(self):
        assert offset_bin_index(0.0) == 0
        assert offset_bin_index(OFFSET_BIN_MHZ) == 1
        assert offset_bin_index(-1.1) == -2


class TestMonotoneFit:
    def test_already_monotone_unchanged(self):
        vals = [0.0, 0.1, 0.1, 0.4]
        assert monotone_fit(vals) == vals

    def test_violations_pooled(self):
        assert monotone_fit([0.3, 0.1]) == [0.2, 0.2]
        fitted = monotone_fit([0.0, 0.25, 0.2, 0.5])
        assert fitted == [0.0, 0.225, 0.225, 0.5]

    def test_result_is_non_decreasing(self):
        fitted = monotone_fit([0.5, 0.1, 0.3, 0.2, 0.45, 0.0])
        assert all(b >= a for a, b in zip(fitted, fitted[1:]))


CAL_KW = dict(margins_db=(-6.0, 0.0, 6.0), trials=6, seed=3)


class TestCalibration:
    def test_deterministic_and_round_trips(self, tmp_path):
        table = calibrate(**CAL_KW)
        again = calibrate(**CAL_KW)
        assert table.to_payload() == again.to_payload()
        path = table.save(tmp_path / "cal.json")
        loaded = CalibrationTable.load(path)
        assert loaded.to_payload() == table.to_payload()

    def test_entries_cover_correlated_signals(self):
        table = calibrate(**CAL_KW)
        assert set(table.entries) == {("zigbee", 0), ("emubee", 0)}
        for entry in table.entries.values():
            corrected = entry["corrected"]
            assert all(0.0 <= v <= 0.5 for v in corrected)
            assert all(b >= a for a, b in zip(corrected, corrected[1:]))

    def test_payload_validation(self):
        payload = calibrate(**CAL_KW).to_payload()
        bad_format = {**payload, "format": "policy-bundle"}
        with pytest.raises(ConfigurationError):
            CalibrationTable.from_payload(bad_format, source="t")
        bad_version = {**payload, "version": 99}
        with pytest.raises(ConfigurationError):
            CalibrationTable.from_payload(bad_version, source="t")
        broken = {**payload, "entries": [{"signal": "zigbee"}]}
        with pytest.raises(ConfigurationError):
            CalibrationTable.from_payload(broken, source="t")

    def test_constructor_validation(self):
        ok = dict(seed=0, trials=4, payload_bytes=8)
        entry = {"measured": [0.0, 0.1], "corrected": [0.0, 0.1]}
        with pytest.raises(ConfigurationError):
            CalibrationTable(margins_db=(0.0,), entries={("zigbee", 0): entry}, **ok)
        with pytest.raises(ConfigurationError):
            CalibrationTable(
                margins_db=(0.0, 0.0), entries={("zigbee", 0): entry}, **ok
            )
        with pytest.raises(ConfigurationError):
            CalibrationTable(margins_db=(0.0, 1.0), entries={}, **ok)
        non_monotone = {"measured": [0.0, 0.1], "corrected": [0.2, 0.1]}
        with pytest.raises(ConfigurationError):
            CalibrationTable(
                margins_db=(0.0, 1.0), entries={("zigbee", 0): non_monotone}, **ok
            )

    def test_missing_artifact(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CalibrationTable.load(tmp_path / "nope.json")

    def test_env_override_selects_artifact(self, tmp_path, monkeypatch):
        custom = calibrate(**CAL_KW)
        path = custom.save(tmp_path / "cal.json")
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        assert load_default_calibration().to_payload() == custom.to_payload()


class TestHybridBudget:
    def test_interpolates_the_corrected_curve(self):
        margins = (-6.0, 0.0, 6.0)
        entry = {"measured": [0.0, 0.2, 0.4], "corrected": [0.0, 0.2, 0.4]}
        table = CalibrationTable(
            margins_db=margins,
            entries={("emubee", 0): entry},
            seed=0,
            trials=4,
            payload_bytes=8,
        )
        budget = HybridLinkBudget(calibration=table)
        itf = Interferer(power_dbm=0.0, signal_type=EMUBEE)
        # On a grid point, between points, and clamped outside the grid.
        assert budget.correlated_chip_flip(0.0, itf) == pytest.approx(0.2)
        assert budget.correlated_chip_flip(3.0, itf) == pytest.approx(0.3)
        assert budget.correlated_chip_flip(-40.0, itf) == 0.0
        assert budget.correlated_chip_flip(40.0, itf) == pytest.approx(0.4)

    def test_uncalibrated_signal_falls_back_to_analytic(self):
        table = CalibrationTable(
            margins_db=(-6.0, 6.0),
            entries={("emubee", 0): {"measured": [0.0, 0.4], "corrected": [0.0, 0.4]}},
            seed=0,
            trials=4,
            payload_bytes=8,
        )
        budget = HybridLinkBudget(calibration=table)
        itf = Interferer(power_dbm=0.0, signal_type=ZIGBEE)
        assert budget.correlated_chip_flip(-2.0, itf) == chip_flip_probability(-2.0)

    def test_nearest_offset_bin_fallback(self):
        entries = {
            ("emubee", 0): {"measured": [0.0, 0.2], "corrected": [0.0, 0.2]},
            ("emubee", 4): {"measured": [0.0, 0.4], "corrected": [0.0, 0.4]},
        }
        table = CalibrationTable(
            margins_db=(-6.0, 6.0), entries=entries, seed=0, trials=4, payload_bytes=8
        )
        near = table.chip_flip(EMUBEE, 6.0, offset_mhz=0.4)
        far = table.chip_flip(EMUBEE, 6.0, offset_mhz=1.8)
        assert near == pytest.approx(0.2)
        assert far == pytest.approx(0.4)


class TestHybridMatchesWaveformTruth:
    """The acceptance gate: hybrid ≈ waveform ground truth on the grid."""

    def test_committed_artifact_within_tolerance(self):
        table = load_default_calibration()
        assert table.max_fit_residual <= CALIBRATION_TOLERANCE
        # And the interpolant reproduces the corrected values exactly on
        # the grid, so hybrid lookups inherit that tolerance.
        for (name, obin), entry in table.entries.items():
            sig = JammerSignalType(name)
            for margin, corrected, measured in zip(
                table.margins_db, entry["corrected"], entry["measured"]
            ):
                got = table.chip_flip(
                    sig, margin, offset_mhz=obin * OFFSET_BIN_MHZ
                )
                assert got == pytest.approx(corrected)
                assert abs(got - measured) <= CALIBRATION_TOLERANCE

    def test_committed_grid_point_reproduces_bit_exactly(self):
        # Re-run the waveform trials for one committed grid point with the
        # artifact's stored parameters; the stored measurement must match
        # to the last bit (the calibration stream depends only on the key).
        table = load_default_calibration()
        entry = table.entries[("zigbee", 0)]
        idx = table.margins_db.index(0.0)
        margin = table.margins_db[idx]
        q = run_chip_flip_trials(
            ZIGBEE,
            raw_jam_to_signal_db(ZIGBEE, margin),
            trials=table.trials,
            payload_bytes=table.payload_bytes,
            noise_to_signal_db=table.noise_to_signal_db,
            offset_hz=0.0,
            rng=derive(table.seed, f"calibrate/zigbee/0/{margin}"),
        )
        assert min(max(float(q), 0.0), 0.5) == entry["measured"][idx]


class TestWaveformTrialCache:
    def test_cached_and_deterministic(self):
        clear_trial_cache()
        budget = WaveformLinkBudget(seed=0, trials=4, margin_bin_db=1.0)
        itf = Interferer(power_dbm=0.0, signal_type=EMUBEE)
        before = trial_cache_stats()
        first = budget.correlated_chip_flip(2.2, itf)
        mid = trial_cache_stats()
        assert mid["misses"] == before["misses"] + 1
        # Same margin bin (floor(2.7) == floor(2.2) at 1 dB bins) → hit,
        # and the exact same float comes back.
        assert budget.correlated_chip_flip(2.7, itf) == first
        after = trial_cache_stats()
        assert after["hits"] == mid["hits"] + 1
        assert after["misses"] == mid["misses"]
        # A fresh budget with the same seed reproduces the value even
        # after the cache is dropped.
        clear_trial_cache()
        again = WaveformLinkBudget(seed=0, trials=4, margin_bin_db=1.0)
        assert again.correlated_chip_flip(2.2, itf) == first

    def test_seed_and_trials_partition_the_cache(self):
        clear_trial_cache()
        itf = Interferer(power_dbm=0.0, signal_type=EMUBEE)
        a = WaveformLinkBudget(seed=0, trials=4, margin_bin_db=1.0)
        b = WaveformLinkBudget(seed=1, trials=4, margin_bin_db=1.0)
        c = WaveformLinkBudget(seed=0, trials=8, margin_bin_db=1.0)
        a.correlated_chip_flip(2.2, itf)
        b.correlated_chip_flip(2.2, itf)
        c.correlated_chip_flip(2.2, itf)
        assert trial_cache_stats()["size"] == 3

    def test_metrics_registry_counters(self):
        clear_trial_cache()
        hits0 = METRICS.counter("channel.cache_hits").value
        misses0 = METRICS.counter("channel.cache_misses").value
        budget = WaveformLinkBudget(seed=0, trials=4, margin_bin_db=1.0)
        itf = Interferer(power_dbm=0.0, signal_type=ZIGBEE)
        budget.correlated_chip_flip(-1.2, itf)
        budget.correlated_chip_flip(-1.2, itf)
        assert METRICS.counter("channel.cache_misses").value == misses0 + 1
        assert METRICS.counter("channel.cache_hits").value == hits0 + 1
        rate = METRICS.gauge("channel.cache_hit_rate").value
        assert 0.0 <= rate <= 1.0


class TestMakeChannel:
    def test_analytic_is_the_plain_table(self):
        base = LinkBudget()
        table = make_channel("analytic", budget=base)
        assert type(table) is LinkTable
        assert table.budget is base

    def test_tier_dispatch(self):
        hybrid = make_channel("hybrid", calibration=calibrate(**CAL_KW))
        assert isinstance(hybrid.budget, HybridLinkBudget)
        waveform = make_channel("waveform", seed=5, trials=4)
        assert isinstance(waveform.budget, WaveformLinkBudget)
        assert waveform.budget.seed == 5

    def test_base_parameters_carry_over(self):
        base = LinkBudget(emulation_loss_db=3.5)
        table = make_channel("hybrid", budget=base, calibration=calibrate(**CAL_KW))
        assert table.budget.emulation_loss_db == 3.5

    def test_link_table_layers_on_waveform(self):
        clear_trial_cache()
        table = make_channel("waveform", seed=0, trials=4, margin_bin_db=1.0)
        itf = (Interferer(power_dbm=-50.0, signal_type=EMUBEE),)
        first = table.packet_error_rate(-60.0, 60, itf)
        trial_misses = trial_cache_stats()["misses"]
        # The exact-key LRU absorbs the repeat before the trial cache.
        assert table.packet_error_rate(-60.0, 60, itf) == first
        assert trial_cache_stats()["misses"] == trial_misses
        assert table.hits >= 1


def _cfg(tx, jam, mode="max"):
    return MDPConfig(
        tx_power_levels=tuple(float(p) for p in tx),
        jammer_power_levels=tuple(float(p) for p in jam),
        jammer_mode=mode,
    )


class TestJamAdjudicator:
    def test_analytic_threshold_without_randomness(self):
        adj = JamAdjudicator("analytic")
        assert adj.analytic
        # No uniform, no rng: the threshold rule needs neither.
        assert adj.defeats(10.0, 10.0)
        assert not adj.defeats(9.0, 10.0)
        assert adj.survival_probability(10.0, 10.0) == 1.0
        assert adj.survival_probability(9.0, 10.0) == 0.0

    def test_analytic_matches_mdp_config(self):
        adj = JamAdjudicator("analytic")
        for mode in ("max", "random"):
            cfg = _cfg((6, 9, 12, 15), (8, 11, 14), mode)
            for i in range(len(cfg.tx_power_levels)):
                assert channel_mdp_config(cfg, adj).jam_success_probability(i) == (
                    cfg.jam_success_probability(i)
                )

    def test_hybrid_survival_is_monotone_and_memoised(self):
        adj = JamAdjudicator("hybrid", calibration=calibrate(**CAL_KW))
        jam = 10.0
        probs = [adj.survival_probability(tx, jam) for tx in (4.0, 8.0, 12.0, 16.0)]
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert adj.survival_probability(8.0, jam) == probs[1]  # cached float

    def test_hybrid_defeats_needs_randomness(self):
        adj = JamAdjudicator("hybrid", calibration=calibrate(**CAL_KW))
        with pytest.raises(ChannelError):
            adj.defeats(10.0, 10.0)
        # The uniform decides: survival in (0, 1) flips with the draw.
        s = adj.survival_probability(11.4, 10.0)
        assert 0.0 < s < 1.0
        assert adj.defeats(11.4, 10.0, uniform=s * 0.5)
        assert not adj.defeats(11.4, 10.0, uniform=min(s * 1.5, 0.999))

    def test_survival_array_matches_scalar(self):
        # Against a fresh adjudicator's scalar per element, for every
        # non-analytic tier: paired, broadcast, 2-D and empty inputs.
        calibration = calibrate(**CAL_KW)
        tiers = {
            "hybrid": lambda: JamAdjudicator("hybrid", calibration=calibration),
            "waveform": lambda: JamAdjudicator("waveform", seed=2, trials=4),
        }
        levels = [6.0, 11.4, 15.0]
        cases = [
            (levels, [10.0, 10.0, 10.0]),
            (11.4, [8.0, 10.0, 12.0]),
            (levels, 10.0),
            (11.4, 10.0),
            ([[6.0, 11.4, 15.0], [15.0, 6.0, 11.4]], [8.0, 10.0, 12.0]),
            ([[6.0], [11.4]], [[8.0, 10.0, 12.0]]),
            ([], []),
            (np.empty((0, 3)), [8.0, 10.0, 12.0]),
        ]
        for make in tiers.values():
            adj, ref = make(), make()
            for tx, jam in cases:
                arr = adj.survival_array(tx, jam)
                want = np.broadcast_shapes(np.shape(tx), np.shape(jam))
                assert arr.shape == want and arr.dtype == np.float64
                pairs = zip(*(a.ravel() for a in np.broadcast_arrays(tx, jam)))
                for (t, j), got in zip(pairs, arr.ravel()):
                    assert got == ref.survival_probability(t, j)

    def test_survival_array_evaluates_each_distinct_pair_once(self, monkeypatch):
        # Continuous powers: ~2,000 distinct pairs, each present twice. A
        # cross product of the distinct tx and jam values would be 4e6.
        adj = JamAdjudicator("hybrid", calibration=calibrate(**CAL_KW))
        rng = np.random.default_rng(7)
        tx = np.tile(rng.uniform(0.0, 20.0, 2000), 2)
        jam = np.tile(rng.uniform(0.0, 20.0, 2000), 2)
        ref = JamAdjudicator("hybrid", calibration=calibrate(**CAL_KW))
        want = [ref.survival_probability(t, j) for t, j in zip(tx, jam)]
        calls = []
        scalar = adj.survival_probability

        def counting(t, j):
            calls.append((t, j))
            return scalar(t, j)

        monkeypatch.setattr(adj, "survival_probability", counting)
        got = adj.survival_array(tx, jam)
        assert len(calls) == len(set(calls)) == 2000
        assert got.tolist() == want

    @pytest.mark.parametrize("tier", ["analytic", "hybrid", "waveform"])
    def test_nan_power_raises_channel_error(self, tier):
        adj = JamAdjudicator(tier, calibration=calibrate(**CAL_KW), trials=4)
        bad = (("tx_power", math.nan, 10.0), ("jam_power", 10.0, math.nan))
        for name, tx, jam in bad:
            with pytest.raises(ChannelError, match=f"{name} is NaN"):
                adj.survival_probability(tx, jam)
            with pytest.raises(ChannelError, match=f"{name} is NaN"):
                adj.survival_array([11.4, tx], [10.0, jam])
        # Finite pairs still evaluate on the same adjudicator.
        assert 0.0 <= adj.survival_probability(11.4, 10.0) <= 1.0

    def test_hybrid_jam_success_probability_modes(self):
        adj = JamAdjudicator(
            "hybrid", calibration=calibrate(**CAL_KW), packet_octets=4
        )
        cfg_max = _cfg((11.0, 11.4, 12.0), (8.0, 10.0), "max")
        p = channel_mdp_config(cfg_max, adj).jam_success_probability(1)
        assert p == pytest.approx(1.0 - adj.survival_probability(11.4, 10.0))
        cfg_rand = _cfg((11.0, 11.4, 12.0), (8.0, 10.0), "random")
        expected = (
            (1.0 - adj.survival_probability(11.4, 8.0))
            + (1.0 - adj.survival_probability(11.4, 10.0))
        ) / 2.0
        p = channel_mdp_config(cfg_rand, adj).jam_success_probability(1)
        assert p == pytest.approx(expected)

    def test_waveform_tier_deterministic(self):
        clear_trial_cache()
        a = JamAdjudicator("waveform", seed=2, trials=4)
        pa = a.survival_probability(11.4, 10.0)
        clear_trial_cache()
        b = JamAdjudicator("waveform", seed=2, trials=4)
        assert b.survival_probability(11.4, 10.0) == pa
