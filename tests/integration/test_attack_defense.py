"""End-to-end integration: the full attack and defence pipelines together."""

import numpy as np
import pytest

from repro.channel.link import JammerSignalType
from repro.channel.waveform import jam_trial
from repro.core.dqn import DQNConfig, EpsilonSchedule
from repro.core.mdp import MDPConfig
from repro.core.trainer import TrainerConfig, train_dqn
from repro.errors import DecodingError
from repro.nn.serialize import load_policy_bundle, save_parameters
from repro.phy import zigbee
from repro.phy.emulation import WaveformEmulator
from repro.phy.packet import decode_frame
from repro.sim.field import (
    DQNPolicyAdapter,
    FieldConfig,
    FieldExperiment,
    StatePolicyAdapter,
)
from repro.sim.scenario import field_jammer_config, paper_defaults
from repro.core.baselines import NoDefensePolicy
from tests.oracles.rx import encode_frame


class TestAttackPipeline:
    """Wi-Fi radio -> forged ZigBee chips -> victim radio, end to end."""

    def test_emulated_frame_reaches_victim_decoder(self):
        # Forge an entire (format-violating) ZigBee PPDU via the Wi-Fi PHY
        # and verify the victim's chip correlator recovers it byte-exact —
        # DSSS fixes the emulation chip errors, which is why the attack
        # works at all.
        emulator = WaveformEmulator()
        burst = bytes([0, 0, 0, 0, 0x55, 0xAA, 0x10])  # preamble + junk
        result = emulator.emulate_bytes(burst)
        rx_chips = zigbee.oqpsk_demodulate(result.emulated)
        usable = rx_chips.size - rx_chips.size % zigbee.CHIPS_PER_SYMBOL
        symbols, _ = zigbee.despread(rx_chips[:usable])
        decoded = zigbee.symbols_to_bytes(symbols[: len(burst) * 2])
        assert decoded == burst
        # ... and the frame parser rejects it (stealth: busy, no frame).
        with pytest.raises(DecodingError):
            decode_frame(decoded)

    def test_legitimate_frame_survives_weak_jamming_only(self):
        payload = b"sensor reading 42"
        ppdu = encode_frame(payload)
        weak = jam_trial(
            ppdu, signal_type=JammerSignalType.EMUBEE,
            jam_to_signal_db=-20.0, rng=0,
        )
        assert weak.packet_delivered
        assert decode_frame(weak.decoded).payload == payload
        strong = jam_trial(
            ppdu, signal_type=JammerSignalType.EMUBEE,
            jam_to_signal_db=12.0, rng=1,
        )
        assert not strong.packet_delivered

    def test_hop_escapes_waveform_level_jamming(self):
        # The defence in miniature: same frame, jammer present on the old
        # channel but not the new one.
        ppdu = encode_frame(b"hop to safety")
        jammed = jam_trial(
            ppdu, signal_type=JammerSignalType.ZIGBEE,
            jam_to_signal_db=12.0, rng=2,
        )
        clear = jam_trial(
            ppdu, signal_type=JammerSignalType.ZIGBEE,
            jam_to_signal_db=-60.0, rng=3,  # jammer far off-channel
        )
        assert not jammed.packet_delivered
        assert clear.packet_delivered


class TestDefencePipeline:
    """Train -> serialise -> deploy on the field simulator."""

    @pytest.fixture(scope="class")
    def trained(self):
        dqn = DQNConfig(
            observation_size=15,
            num_actions=160,
            hidden_sizes=(24, 24),
            batch_size=16,
            warmup_transitions=64,
            replay_capacity=4000,
            epsilon=EpsilonSchedule(1.0, 0.05, 6000),
        )
        return train_dqn(
            MDPConfig(jammer_mode="max"),
            trainer=TrainerConfig(episodes=35, steps_per_episode=300),
            dqn=dqn,
            seed=11,
        )

    def test_artifact_roundtrip_preserves_policy(self, trained, tmp_path):
        # The paper's deployment step: ship the parameter matrices to the
        # hub and load them there.
        from repro.core.dqn import DQNAgent

        path = tmp_path / "policy.npz"
        save_parameters(trained.agent.network(), path)
        fresh = DQNAgent(trained.agent.config, seed=999)
        load_policy_bundle([path]).load_into(0, fresh.online)
        obs = np.linspace(0, 1, 15)
        assert fresh.act(obs, greedy=True) == trained.agent.act(obs, greedy=True)

    def test_dqn_beats_no_defense_in_field(self, trained):
        defaults = paper_defaults()
        cfg = FieldConfig(mdp=defaults.mdp, jammer=field_jammer_config(defaults))
        dqn_run = FieldExperiment(
            cfg,
            DQNPolicyAdapter(trained.agent, defaults.mdp, seed=1),
            seed=2,
        ).run_experiment(120)
        undefended = FieldExperiment(
            cfg,
            StatePolicyAdapter(NoDefensePolicy(), defaults.mdp, seed=3),
            seed=2,
        ).run_experiment(120)
        assert dqn_run.metrics.success_rate > undefended.metrics.success_rate + 0.3
        assert dqn_run.goodput_pkts_per_slot > undefended.goodput_pkts_per_slot * 2

    def test_training_reward_reflects_field_quality(self, trained):
        # Sanity linking the two halves: the trained agent's final training
        # rewards must beat its earliest ones (it learned *something*
        # transferable to the field run above).
        assert trained.reward_history[-5:].mean() > trained.reward_history[:5].mean()
