"""Property-based oracle for the stacked DQN training kernels.

``repro.core.vecenv`` trains N seeds as one set of stacked tensor ops:
flat parameter, gradient and Adam buffers, an in-place forward, a sparse
TD error and a scratch workspace reused across steps and re-sliced when
finished seeds are compacted out. Its contract is bit-identity with the
serial chain in ``tests/oracles/training.py``, so these tests draw
network shapes, batch sizes, DQN variants and target-sync rules and
compare every number the two produce: parameters, target parameters, Adam
``m``/``v``/``t``, losses and histories.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dqn import DQNAgent, DQNConfig, EpsilonSchedule
from repro.core.mdp import MDPConfig
from repro.core.trainer import TrainerConfig
from repro.core.vecenv import (
    _StackedMLP,
    _batched_train_step,
    _dense_relu_chain,
    train_dqn_batch,
)
from repro.nn.layers import ReLU
from repro.rng import derive
from tests.oracles.training import SerialDQNAgent, train_dqn


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_agents_identical(batched: DQNAgent, serial: DQNAgent) -> None:
    """Online and target weights plus Adam m/v/t, bit for bit."""
    for net in ("online", "target"):
        for pa, pb in zip(
            getattr(batched, net).parameters, getattr(serial, net).parameters
        ):
            assert_same_bits(pa, pb)
    adam_b, adam_s = batched.adam, serial.adam
    assert adam_b.t == adam_s.t
    assert (adam_b.m is None) == (adam_s.m is None)
    if adam_s.m is not None:
        for ma, mb in zip(adam_b.m, adam_s.m):
            assert_same_bits(ma, mb)
        for va, vb in zip(adam_b.v, adam_s.v):
            assert_same_bits(va, vb)
    assert batched.train_steps == serial.train_steps


hidden_layers = st.lists(st.integers(1, 64), min_size=1, max_size=3).map(tuple)
# A soft-update tau, or None for hard syncs every target_sync_interval steps.
target_rule = st.one_of(st.none(), st.floats(0.01, 1.0))


def dqn_config(obs, actions, hidden, batch, double, tau, interval):
    return DQNConfig(
        observation_size=obs,
        num_actions=actions,
        hidden_sizes=hidden,
        batch_size=batch,
        warmup_transitions=batch,
        replay_capacity=256,
        target_sync_interval=interval,
        double_dqn=double,
        soft_update_tau=tau,
        epsilon=EpsilonSchedule(1.0, 0.1, 200),
    )


def filled_agents(cfg, seeds, agent_type=DQNAgent):
    """Fresh agents whose replay buffers hold the same random transitions."""
    agents = []
    for s in seeds:
        agent = agent_type(cfg, seed=derive(s, "train-agent"))
        rng = np.random.default_rng(s)
        agent.replay.push_many(
            rng.standard_normal((96, cfg.observation_size)),
            rng.integers(0, cfg.num_actions, size=96),
            rng.standard_normal(96),
            rng.standard_normal((96, cfg.observation_size)),
        )
        agents.append(agent)
    return agents


class TestTrainStepOracle:
    @given(
        n=st.integers(2, 5),
        obs=st.integers(1, 9),
        actions=st.integers(2, 12),
        hidden=hidden_layers,
        batch=st.integers(1, 24),
        double=st.booleans(),
        tau=target_rule,
        interval=st.integers(1, 3),
        steps=st.integers(2, 5),
        drop=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_steps_and_compaction_match_serial_train_on(
        self, n, obs, actions, hidden, batch, double, tau, interval, steps, drop
    ):
        cfg = dqn_config(obs, actions, hidden, batch, double, tau, interval)
        seeds = list(range(n))
        serial = filled_agents(cfg, seeds, SerialDQNAgent)
        batched = filled_agents(cfg, seeds)
        stack = _StackedMLP(batched)
        # Drop some seeds after one step, as train_dqn_batch does when they
        # reach the reward goal, so later steps run on a re-sliced workspace.
        compact_after = drop.draw(st.integers(0, steps - 1), label="compact_after")
        finished = drop.draw(
            st.sets(st.integers(0, n - 1), max_size=n - 1), label="finished"
        )
        live = list(range(n))
        for step in range(steps):
            losses = _batched_train_step(stack, [batched[i] for i in live])
            expected = [
                serial[i].train_on(serial[i].replay.sample(batch)) for i in live
            ]
            assert_same_bits(losses, expected)
            if step == compact_after and finished:
                gone = [p for p, i in enumerate(live) if i in finished]
                for pos in gone:
                    stack.write_back(pos, batched[live[pos]])
                keep = [p for p in range(len(live)) if p not in gone]
                stack.compact(keep)
                live = [live[p] for p in keep]
        for pos, i in enumerate(live):
            stack.write_back(pos, batched[i])
        for b, s in zip(batched, serial):
            assert_agents_identical(b, s)


class TestTrainDQNBatchOracle:
    @given(
        n=st.integers(2, 5),
        hidden=hidden_layers,
        batch=st.integers(1, 16),
        double=st.booleans(),
        tau=target_rule,
        interval=st.integers(1, 8),
        stop_rank=st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_batch_equals_serial_runs_with_staggered_stops(
        self, n, hidden, batch, double, tau, interval, stop_rank
    ):
        seeds = [7 * i + 3 for i in range(n)]
        mdp = MDPConfig()
        dqn = dqn_config(15, 160, hidden, batch, double, tau, interval)
        steps = 24
        # A goal met by the best (rank + 1) first episodes: those seeds stop
        # after episode one, the rest train on, some stopping later, so the
        # stack is compacted mid-training. The first episode's rewards do
        # not depend on the goal.
        once = TrainerConfig(episodes=1, steps_per_episode=steps)
        first = [train_dqn(mdp, trainer=once, dqn=dqn, seed=s) for s in seeds]
        goals = sorted(r.reward_history[0] for r in first)
        rank = stop_rank.draw(st.integers(0, n - 2), label="stop_rank")
        trainer = TrainerConfig(
            episodes=4,
            steps_per_episode=steps,
            reward_goal=goals[-1 - rank],
            goal_window=1,
        )
        results = train_dqn_batch(mdp, seeds=seeds, trainer=trainer, dqn=dqn)
        for seed, got in zip(seeds, results):
            want = train_dqn(mdp, trainer=trainer, dqn=dqn, seed=seed)
            for field in ("episodes", "steps", "converged"):
                assert getattr(got, field) == getattr(want, field)
            assert_same_bits(got.reward_history, want.reward_history)
            assert_same_bits(got.loss_history, want.loss_history)
            assert_agents_identical(got.agent, want.agent)


#: Inputs the ReLU rule must treat exactly like np.where(x > 0, x, 0.0).
SPECIAL = np.array(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, np.inf, -np.inf, 1.0, -1.0]
)


def relu_sites():
    """The ReLU step of the serial layer and of the stacked chain that
    training (which caches masks for backward) and inference share."""
    relu = ("relu",)
    return {
        "layer": lambda x: ReLU().forward(x.reshape(-1, x.shape[-1])),
        "stacked": lambda x: _dense_relu_chain(x.copy(), relu, [], [], ([], [])),
        "policy": lambda x: _dense_relu_chain(
            x.reshape(-1, 1, x.shape[-1]).copy(), relu, [], []
        ),
    }


class TestReLURule:
    @pytest.mark.parametrize("site", ["layer", "stacked", "policy"])
    @pytest.mark.parametrize("size", [1, 3, 8, 33])
    def test_matches_where_rule_bitwise(self, site, size):
        relu = relu_sites()[site]
        rng = np.random.default_rng(size)
        for fill in SPECIAL:
            x = np.full((2, 3, size), fill)
            assert_same_bits(relu(x).reshape(x.shape), np.where(x > 0, x, 0.0))
        x = rng.standard_normal((2, 3, size))
        flat = x.reshape(-1)
        flat[::3] = rng.choice(SPECIAL, size=flat[::3].size)
        assert_same_bits(relu(x).reshape(x.shape), np.where(x > 0, x, 0.0))

    @pytest.mark.parametrize("site", ["layer", "stacked", "policy"])
    def test_nan_propagates(self, site):
        x = np.full((2, 3, 33), -1.0)
        x[:, :, ::4] = np.nan
        out = relu_sites()[site](x).reshape(x.shape)
        assert np.isnan(out[:, :, ::4]).all()
        assert_same_bits(out[:, :, 1::4], np.zeros_like(out[:, :, 1::4]))
