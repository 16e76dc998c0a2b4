"""Bit-identity oracles for two per-slot kernels of the field grid.

``_InterferenceEngine.factors`` visits only co-channel pairs, and
``TimingModel.negotiation_time_from_uniforms`` evaluates the recovery
quantile only where it is applied. Each is checked against the
straightforward all-entries formula it replaces with ``np.array_equal``:
the interference one is :func:`tests.oracles.kernels.all_edge_factors`,
which builds its directed edges from the positions alone; the
negotiation one is kept here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.timing import (
    OFF_CHANNEL_RECOVERY_CV,
    TimingModel,
    gamma_from_uniform,
)
from repro.sim.scenario import paper_defaults
from repro.sim.shard import InterferenceModel, _InterferenceEngine
from tests.oracles.kernels import all_edge_factors, directed_edges

MDP = paper_defaults().mdp
MODEL = InterferenceModel(channel="hybrid")


class _Case:
    """An engine and the oracle's directed edges of the same field."""

    def __init__(self, positions: np.ndarray, global_indices: tuple[int, ...]):
        self.engine = _InterferenceEngine(MODEL, MDP, positions, global_indices)
        self.edges = directed_edges(
            MODEL.radius_m, MODEL.distance_bin_m, positions, global_indices
        )

    def check(self, channels: np.ndarray, powers: np.ndarray) -> np.ndarray:
        """The engine's factors, asserted equal to the all-edge oracle's."""
        got = self.engine.factors(channels, powers)
        want = all_edge_factors(self.engine.per, self.edges, channels, powers)
        assert np.array_equal(got, want)
        return got


def _case(num_networks: int, side_m: float, seed: int = 0) -> _Case:
    rng = np.random.default_rng(seed)
    positions = rng.random((num_networks, 2)) * side_m
    # Sorted, gapped global indices, as a shard with a halo has them.
    global_indices = tuple(
        int(g) for g in np.sort(rng.choice(4 * num_networks, num_networks, False))
    )
    return _Case(positions, global_indices)


def _powers(rng, n: int) -> np.ndarray:
    return rng.integers(0, len(MDP.tx_power_levels), n)


class TestInterferenceFactors:
    def test_random_channels_and_powers(self):
        case = _case(512, 100.0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            channels = rng.integers(0, MDP.num_channels, 512)
            got = case.check(channels, _powers(rng, 512))
            assert (got < 1.0).any()

    def test_all_networks_on_one_channel(self):
        case = _case(512, 100.0, seed=2)
        rng = np.random.default_rng(3)
        case.check(np.full(512, 7), _powers(rng, 512))

    def test_no_co_channel_pair(self):
        # A sparse field, greedily coloured so no edge joins one channel.
        case = _case(512, 400.0, seed=4)
        vic, src, _ = case.edges
        channels = np.full(512, -1)
        for v in range(512):
            taken = set(channels[src[vic == v]].tolist())
            channels[v] = min(set(range(MDP.num_channels)) - taken)
        assert len(src)
        assert not (channels[src] == channels[vic]).any()
        got = case.check(channels, _powers(np.random.default_rng(5), 512))
        assert np.array_equal(got, np.ones(512))

    def test_no_edges(self):
        engine = _case(1, 100.0).engine
        assert np.array_equal(
            engine.factors(np.zeros(1, np.intp), np.zeros(1, np.intp)), np.ones(1)
        )

    def test_victim_with_co_channel_neighbours_on_both_sides(self):
        # Network 2 has in-range co-channel neighbours below (0, 1) and
        # above (3, 4) its index, in four distance bins whose PERs at
        # these powers are fractional; network 5 is out of range.
        positions = np.array(
            [[24.2, 20.0], [15.3, 20.0], [20.0, 20.0], [20.0, 25.2], [20.0, 13.3]]
            + [[80.0, 80.0]]
        )
        powers = np.array([3, 4, 0, 5, 8, 0])
        case = _Case(positions, (3, 8, 9, 20, 21, 40))
        vic, src, bins = case.edges
        into_2 = vic == 2
        assert src[into_2].tolist() == [0, 1, 3, 4]
        assert bins[into_2].tolist() == [8, 9, 10, 13]
        got = case.check(np.full(6, 4), powers)
        want = 1.0
        for s, b in zip(src[into_2], bins[into_2]):
            want *= 1.0 - case.engine.per[b, powers[s], 0]
        assert 0.0 < got[2] == want < 1.0
        assert got[5] == 1.0

    def test_coincident_positions_use_bin_zero(self):
        positions = np.array([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0], [5.2, 5.1]])
        case = _Case(positions, (0, 1, 2, 3))
        _, _, bins = case.edges
        assert len(bins) == 12 and (bins == 0).all()
        rng = np.random.default_rng(7)
        for channels in ([0, 0, 0, 0], [0, 1, 0, 1], [2, 2, 3, 2]):
            case.check(np.array(channels), _powers(rng, 4))

    def test_two_networks(self):
        # 5 m apart: distance bin 10, read in both directions.
        case = _Case(np.array([[0.0, 0.0], [3.0, 4.0]]), (0, 1))
        per = case.engine.per[10]
        levels = len(MDP.tx_power_levels)
        for p0 in range(levels):
            for p1 in range(levels):
                powers = np.array([p0, p1])
                got = case.check(np.array([5, 5]), powers)
                assert got.tolist() == [1.0 - per[p1, p0], 1.0 - per[p0, p1]]
                assert np.array_equal(case.check(np.array([5, 6]), powers), np.ones(2))

    @settings(max_examples=60, deadline=None)
    @given(
        num_networks=st.integers(1, 300),
        side_m=st.floats(5.0, 200.0),
        num_channels=st.sampled_from([1, 2, 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_fields(self, num_networks, side_m, num_channels, seed):
        case = _case(num_networks, side_m, seed)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            channels = rng.integers(0, num_channels, num_networks)
            case.check(channels, _powers(rng, num_networks))


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
