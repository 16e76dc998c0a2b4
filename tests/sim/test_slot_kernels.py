"""Bit-identity oracles for two per-slot kernels of the field grid.

``_InterferenceEngine.factors`` visits only co-channel edges, and
``TimingModel.negotiation_time_from_uniforms`` evaluates the recovery
quantile only where it is applied. Each is checked against the
straightforward all-entries formula it replaces, kept here as the
reference, with ``np.array_equal``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.timing import (
    OFF_CHANNEL_RECOVERY_CV,
    TimingModel,
    gamma_from_uniform,
)
from repro.sim.scenario import paper_defaults
from repro.sim.shard import InterferenceModel, _InterferenceEngine

MDP = paper_defaults().mdp


def _engine(num_networks: int, side_m: float, seed: int = 0) -> _InterferenceEngine:
    rng = np.random.default_rng(seed)
    positions = rng.random((num_networks, 2)) * side_m
    # Sorted, gapped global indices, as a shard with a halo has them.
    global_indices = tuple(np.sort(rng.choice(4 * num_networks, num_networks, False)))
    return _InterferenceEngine(
        InterferenceModel(channel="hybrid"), MDP, positions, global_indices
    )


def _all_edge_factors(engine, channels, powers) -> np.ndarray:
    """Every directed edge multiplied in, 1.0 where not co-channel."""
    out = np.ones(engine.num_local)
    co = channels[engine.src] == channels[engine.vic]
    per = engine.per[engine.bins, powers[engine.src], powers[engine.vic]]
    np.multiply.at(out, engine.vic, np.where(co, 1.0 - per, 1.0))
    return out


def _powers(rng, n: int) -> np.ndarray:
    return rng.integers(0, len(MDP.tx_power_levels), n)


class TestInterferenceFactors:
    def test_random_channels_and_powers(self):
        engine = _engine(512, 100.0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            channels = rng.integers(0, MDP.num_channels, 512)
            powers = _powers(rng, 512)
            want = _all_edge_factors(engine, channels, powers)
            assert (want < 1.0).any()
            assert np.array_equal(engine.factors(channels, powers), want)

    def test_all_networks_on_one_channel(self):
        engine = _engine(512, 100.0, seed=2)
        rng = np.random.default_rng(3)
        channels = np.full(512, 7)
        powers = _powers(rng, 512)
        assert np.array_equal(
            engine.factors(channels, powers),
            _all_edge_factors(engine, channels, powers),
        )

    def test_no_co_channel_pair(self):
        # A sparse field, greedily coloured so no edge joins one channel.
        engine = _engine(512, 400.0, seed=4)
        channels = np.full(512, -1)
        for v in range(512):
            taken = set(channels[engine.src[engine.vic == v]].tolist())
            channels[v] = min(set(range(MDP.num_channels)) - taken)
        assert len(engine.src)
        assert not (channels[engine.src] == channels[engine.vic]).any()
        powers = _powers(np.random.default_rng(5), 512)
        got = engine.factors(channels, powers)
        assert np.array_equal(got, _all_edge_factors(engine, channels, powers))
        assert np.array_equal(got, np.ones(512))

    def test_no_edges(self):
        engine = _engine(1, 100.0)
        assert np.array_equal(
            engine.factors(np.zeros(1, np.intp), np.zeros(1, np.intp)), np.ones(1)
        )


def _all_node_negotiation(timing, num_nodes, uniforms, include_recovery):
    """The recovery quantile evaluated for every node, then masked."""
    n = int(num_nodes)
    u = np.asarray(uniforms, dtype=np.float64)
    dqn = gamma_from_uniform(u[..., 0], timing.dqn_inference_mean_s, timing.jitter_cv)
    polling = gamma_from_uniform(
        u[..., 1 : 1 + n], timing.polling_per_node_mean_s, timing.jitter_cv
    ).sum(axis=-1)
    off = u[..., 1 + n : 1 + 2 * n] < timing.off_channel_probability
    recovery = (
        gamma_from_uniform(
            u[..., 1 + 2 * n :],
            timing.off_channel_recovery_mean_s,
            OFF_CHANNEL_RECOVERY_CV,
        )
        * off
    ).sum(axis=-1)
    return dqn + polling + np.where(include_recovery, recovery, 0.0)


ROWS = 64


def _include_cases(rng):
    return {
        "true": True,
        "false": False,
        "per_row": rng.random(ROWS) < 0.5,
    }


class TestNegotiationFromUniforms:
    @pytest.mark.parametrize("num_nodes", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("include", ["true", "false", "per_row"])
    def test_matches_all_node_formula_2d(self, num_nodes, include):
        # A high off-channel probability so most rows apply some recovery.
        timing = TimingModel(off_channel_probability=0.4)
        rng = np.random.default_rng(num_nodes)
        count = timing.negotiation_uniform_count(num_nodes)
        uniforms = rng.random((ROWS, count))
        include_recovery = _include_cases(rng)[include]
        got = timing.negotiation_time_from_uniforms(
            num_nodes, uniforms, include_recovery=include_recovery
        )
        want = _all_node_negotiation(timing, num_nodes, uniforms, include_recovery)
        assert got.shape == want.shape == (ROWS,)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("num_nodes", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("include", ["true", "false", "per_row"])
    def test_matches_all_node_formula_1d(self, num_nodes, include):
        timing = TimingModel(off_channel_probability=0.4)
        rng = np.random.default_rng(10 + num_nodes)
        count = timing.negotiation_uniform_count(num_nodes)
        include_recovery = _include_cases(rng)[include]
        for _ in range(20):
            uniforms = rng.random(count)
            got = timing.negotiation_time_from_uniforms(
                num_nodes, uniforms, include_recovery=include_recovery
            )
            want = _all_node_negotiation(timing, num_nodes, uniforms, include_recovery)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
