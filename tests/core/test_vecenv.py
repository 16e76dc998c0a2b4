"""Equivalence tests for lock-step batched multi-seed DQN training.

The contract under test is hard bit-identity: ``train_dqn_batch`` over N
seeds, N = 1 included, must produce exactly what N runs of the serial
chain in ``tests/oracles/training.py`` produce — reward/loss histories,
final online and target weights, Adam state, agent rng state, replay
contents and even the downstream replay-sampling rng position.
"""

import numpy as np
import pytest

from repro import knobs
from repro.core.dqn import DQNAgent, DQNConfig, EpsilonSchedule
from repro.core.envs import SweepJammingEnv
from repro.core.mdp import MDPConfig
from repro.core.replay import ReplayBuffer
from repro.core.trainer import TrainerConfig, train_dqn_multi_seed
from repro.core.vecenv import (
    VectorEnv,
    clear_policy_stack_cache,
    get_policy_stack,
    greedy_policy_actions,
    resolve_env_batch,
    train_dqn_batch,
)
from repro.errors import ConfigurationError, TrainingError
from repro.exec import FaultPolicy
from repro.rng import derive
from tests.oracles import training


def tiny_dqn(env_obs=15, env_actions=160, **kw):
    defaults = dict(
        observation_size=env_obs,
        num_actions=env_actions,
        hidden_sizes=(24, 24),
        batch_size=16,
        warmup_transitions=64,
        replay_capacity=4000,
        epsilon=EpsilonSchedule(1.0, 0.1, 2000),
    )
    defaults.update(kw)
    return DQNConfig(**defaults)


TINY = TrainerConfig(episodes=2, steps_per_episode=40)


def assert_run_identical(batched, serial):
    """Bit-identity of one batched seed's result against its serial twin."""
    assert batched.episodes == serial.episodes
    assert batched.steps == serial.steps
    assert batched.converged == serial.converged
    np.testing.assert_array_equal(batched.reward_history, serial.reward_history)
    np.testing.assert_array_equal(batched.loss_history, serial.loss_history)
    for pa, pb in zip(
        batched.agent.network().parameters, serial.agent.network().parameters
    ):
        np.testing.assert_array_equal(pa, pb)
    probe = np.linspace(-1.0, 1.0, batched.agent.config.observation_size)
    np.testing.assert_array_equal(
        batched.agent.target.predict(probe), serial.agent.target.predict(probe)
    )
    adam_b, adam_s = batched.agent.adam, serial.agent.adam
    assert adam_b.t == adam_s.t
    assert (adam_b.m is None) == (adam_s.m is None)
    for ma, mb in zip(adam_b.m or (), adam_s.m or ()):
        np.testing.assert_array_equal(ma, mb)
    for va, vb in zip(adam_b.v or (), adam_s.v or ()):
        np.testing.assert_array_equal(va, vb)
    assert batched.agent.train_steps == serial.agent.train_steps
    assert batched.agent.env_steps == serial.agent.env_steps
    assert (
        batched.agent._rng.bit_generator.state
        == serial.agent._rng.bit_generator.state
    )
    assert len(batched.agent.replay) == len(serial.agent.replay)
    # The replay rng streams are also in the same position afterwards.
    cfg = batched.agent.config
    a = batched.agent.replay.sample(cfg.batch_size)
    b = serial.agent.replay.sample(cfg.batch_size)
    np.testing.assert_array_equal(a.actions, b.actions)
    np.testing.assert_array_equal(a.observations, b.observations)


class TestResolveEnvBatch:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENV_BATCH", raising=False)
        assert resolve_env_batch() == knobs.KNOBS["REPRO_ENV_BATCH"].default

    def test_env_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENV_BATCH", "3")
        assert resolve_env_batch() == 3

    @pytest.mark.parametrize("word", ["off", "none", " OFF "])
    def test_disable_words(self, word):
        assert resolve_env_batch(word) == 1

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENV_BATCH", "3")
        assert resolve_env_batch(5) == 5

    @pytest.mark.parametrize("bad", ["soon", "1.5"])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_env_batch(bad)

    @pytest.mark.parametrize("bad", [0, -2, "0"])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_env_batch(bad)


class TestVectorEnv:
    def test_lockstep_matches_serial_trajectories(self):
        seeds = (0, 1, 2)
        vec = VectorEnv.from_seeds(MDPConfig(), seeds, history_length=5)
        solo = [
            SweepJammingEnv(MDPConfig(), history_length=5, seed=derive(s, "train-env"))
            for s in seeds
        ]
        obs = vec.reset()
        solo_obs = [env.reset() for env in solo]
        np.testing.assert_array_equal(obs, np.stack(solo_obs))
        rng = np.random.default_rng(0)
        for _ in range(30):
            actions = rng.integers(0, vec.num_actions, size=len(seeds))
            obs, rewards, infos = vec.step(actions)
            for i, env in enumerate(solo):
                o, r, info = env.step_index(int(actions[i]))
                np.testing.assert_array_equal(obs[i], o)
                assert rewards[i] == r
                assert infos[i] == info

    def test_empty_rejected(self):
        with pytest.raises(TrainingError):
            VectorEnv([])

    def test_geometry_mismatch_rejected(self):
        a = SweepJammingEnv(MDPConfig(), history_length=5, seed=0)
        b = SweepJammingEnv(MDPConfig(), history_length=7, seed=0)
        with pytest.raises(TrainingError, match="share geometry"):
            VectorEnv([a, b])

    def test_wrong_action_count_rejected(self):
        vec = VectorEnv.from_seeds(MDPConfig(), (0, 1), history_length=5)
        vec.reset()
        with pytest.raises(TrainingError, match="expected 2 actions"):
            vec.step(np.zeros(3, dtype=np.int64))

    def test_select_keeps_wrapped_envs(self):
        vec = VectorEnv.from_seeds(MDPConfig(), (0, 1, 2), history_length=5)
        sub = vec.select([0, 2])
        assert sub.num_envs == 2
        assert sub.envs[0] is vec.envs[0]
        assert sub.envs[1] is vec.envs[2]


class TestPushMany:
    @staticmethod
    def _fill(buf, rows):
        for i in rows:
            buf.push(np.full(3, float(i)), i, -float(i), np.full(3, i + 0.5))

    @staticmethod
    def _assert_buffers_equal(a, b):
        assert len(a) == len(b)
        assert a._cursor == b._cursor
        np.testing.assert_array_equal(a._obs, b._obs)
        np.testing.assert_array_equal(a._actions, b._actions)
        np.testing.assert_array_equal(a._rewards, b._rewards)
        np.testing.assert_array_equal(a._next_obs, b._next_obs)

    @pytest.mark.parametrize("preload,count", [(0, 3), (2, 5), (6, 4), (0, 8), (3, 20)])
    def test_matches_sequential_push(self, preload, count):
        # capacity 8: the cases cover no-wrap, wraparound, and n > capacity.
        seq = ReplayBuffer(8, 3, seed=0)
        bulk = ReplayBuffer(8, 3, seed=0)
        self._fill(seq, range(preload))
        self._fill(bulk, range(preload))
        rows = range(100, 100 + count)
        self._fill(seq, rows)
        bulk.push_many(
            np.stack([np.full(3, float(i)) for i in rows]),
            np.array(list(rows)),
            np.array([-float(i) for i in rows]),
            np.stack([np.full(3, i + 0.5) for i in rows]),
        )
        self._assert_buffers_equal(seq, bulk)
        # Same rng, same contents => identical future samples.
        a = seq.sample(4, allow_undersized=True)
        b = bulk.sample(4, allow_undersized=True)
        np.testing.assert_array_equal(a.actions, b.actions)

    def test_empty_push_is_noop(self):
        buf = ReplayBuffer(4, 3, seed=0)
        buf.push_many(np.empty((0, 3)), np.empty(0), np.empty(0), np.empty((0, 3)))
        assert len(buf) == 0 and buf._cursor == 0

    def test_row_count_mismatch_rejected(self):
        buf = ReplayBuffer(4, 3)
        with pytest.raises(TrainingError, match="disagree"):
            buf.push_many(np.zeros((2, 3)), np.zeros(3), np.zeros(2), np.zeros((2, 3)))

    def test_observation_shape_mismatch_rejected(self):
        buf = ReplayBuffer(4, 3)
        with pytest.raises(TrainingError, match="do not match"):
            buf.push_many(np.zeros((2, 4)), np.zeros(2), np.zeros(2), np.zeros((2, 4)))


class TestSampleGuard:
    def test_undersized_sample_rejected(self):
        buf = ReplayBuffer(16, 2, seed=0)
        for i in range(4):
            buf.push(np.zeros(2), i, 0.0, np.zeros(2))
        with pytest.raises(TrainingError, match="allow_undersized"):
            buf.sample(8)
        assert buf.sample(8, allow_undersized=True).size == 8

    def test_warmup_keeps_agent_clear_of_guard(self):
        # DQNConfig enforces warmup >= batch, so an agent that only trains
        # after warm-up can never request more rows than it stored.
        agent = training.SerialDQNAgent(
            tiny_dqn(
                env_obs=4,
                env_actions=3,
                hidden_sizes=(8,),
                batch_size=8,
                warmup_transitions=8,
                replay_capacity=32,
            ),
            seed=0,
        )
        obs = np.zeros(4)
        for i in range(12):
            agent.observe(obs, i % 3, -1.0, obs)  # must never raise
        assert agent.train_steps > 0


class TestBatchedEquivalence:
    """Each case runs a multi-seed group and a single seed (N = 1)."""

    def _check(self, seeds, trainer=TINY, dqn=None):
        batched = train_dqn_batch(MDPConfig(), seeds=seeds, trainer=trainer, dqn=dqn)
        serial = [
            training.train_dqn(MDPConfig(), trainer=trainer, dqn=dqn, seed=s)
            for s in seeds
        ]
        for b, s in zip(batched, serial):
            assert_run_identical(b, s)
        return serial

    def test_plain_matches_serial(self):
        for seeds in ((0, 1, 2), (1,)):
            self._check(seeds, dqn=tiny_dqn())

    def test_double_dqn_matches_serial(self):
        for seeds in ((3, 4), (3,)):
            self._check(seeds, dqn=tiny_dqn(double_dqn=True))

    def test_soft_target_update_matches_serial(self):
        for seeds in ((5, 6), (6,)):
            self._check(seeds, dqn=tiny_dqn(soft_update_tau=0.05))

    def test_staggered_early_stop_matches_serial(self):
        # Seeds 0-4 hit the goal after 8/5/2/2/3 episodes (seed 0 never
        # converges), so the stacked tensors compact repeatedly mid-run.
        seeds = (0, 1, 2, 3, 4)
        dqn = tiny_dqn()
        trainer = TrainerConfig(
            episodes=8, steps_per_episode=40, reward_goal=-81.0, goal_window=2
        )
        serial = self._check(seeds, trainer=trainer, dqn=dqn)
        episodes = [r.episodes for r in serial]
        assert len(set(episodes)) > 2  # the stagger actually happened
        assert not serial[0].converged and serial[2].converged
        # Alone, seed 4 meets the goal after training has started.
        (alone,) = self._check((4,), trainer=trainer, dqn=dqn)
        assert alone.converged and alone.agent.train_steps > 0

    @pytest.mark.parametrize("seeds", [(0, 1), (1,)])
    def test_warmup_never_reached_matches_serial(self, seeds):
        # 80 steps against a warm-up of 100: no seed trains, and every
        # transition still lands in its replay buffer. With the goal, seed
        # 1 stops after its first episode (-84.6) and seed 0 after its
        # second, so a group compacts before warm-up could end.
        dqn = tiny_dqn(warmup_transitions=100)
        goal = TrainerConfig(
            episodes=2, steps_per_episode=40, reward_goal=-90.0, goal_window=1
        )
        for trainer in (TINY, goal):
            runs = self._check(seeds, trainer=trainer, dqn=dqn)
            for run in runs:
                assert run.agent.train_steps == 0
                assert len(run.agent.replay) == run.steps
        assert runs[-1].episodes == 1

    def test_empty_seeds_rejected(self):
        with pytest.raises(TrainingError):
            train_dqn_batch(MDPConfig(), seeds=(), trainer=TINY)

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(TrainingError, match="geometry"):
            train_dqn_batch(
                MDPConfig(),
                seeds=(0, 1),
                trainer=TINY,
                dqn=tiny_dqn(env_obs=7),
            )


class TestMultiSeedComposition:
    def test_env_batch_matches_serial_path(self):
        seeds = (0, 1, 2)
        serial = [training.train_dqn(MDPConfig(), trainer=TINY, seed=s) for s in seeds]
        for env_batch in (1, 2):
            multi = train_dqn_multi_seed(
                MDPConfig(), seeds=seeds, trainer=TINY, workers=1, env_batch=env_batch
            )
            assert multi.seeds == seeds
            for run, ref in zip(multi.results, serial):
                np.testing.assert_array_equal(run.reward_history, ref.reward_history)
                for pa, pb in zip(
                    run.agent.network().parameters, ref.agent.network().parameters
                ):
                    np.testing.assert_array_equal(pa, pb)

    def test_fault_takes_out_whole_group(self):
        # fault_seed=2 at rate 0.5 fails exactly task index 0. With
        # env_batch=2 that task carries seeds (0, 1), so both are lost and
        # the second group (seeds 2, 3) survives untouched.
        multi = train_dqn_multi_seed(
            MDPConfig(),
            seeds=(0, 1, 2, 3),
            trainer=TINY,
            workers=1,
            env_batch=2,
            policy=FaultPolicy(
                on_error="skip", max_retries=0, fault_rate=0.5, fault_seed=2
            ),
        )
        assert multi.seeds == (2, 3)
        assert len(multi.failures) == 1
        assert multi.failures[0].index == 0
        serial = training.train_dqn(MDPConfig(), trainer=TINY, seed=2)
        np.testing.assert_array_equal(
            multi.results[0].reward_history, serial.reward_history
        )


def _greedy(agents, obs, entries=None):
    """``greedy_policy_actions`` over the cached stack of ``agents``."""
    stack = get_policy_stack([a.online for a in agents])
    return greedy_policy_actions(stack, obs, entries)


class TestPolicyStackCache:
    """The cached stacked-inference handle behind greedy_policy_actions."""

    def _agents(self, n=5, seed0=0):
        cfg = tiny_dqn()
        return [DQNAgent(cfg, seed=seed0 + i) for i in range(n)]

    def _obs(self, agents, seed=0):
        rng = np.random.default_rng(seed)
        return rng.random((len(agents), agents[0].config.observation_size))

    def test_greedy_actions_bit_identical_to_serial(self):
        agents = self._agents()
        obs = self._obs(agents)
        batched = _greedy(agents, obs)
        serial = np.array([a.act(o, greedy=True) for a, o in zip(agents, obs)])
        np.testing.assert_array_equal(batched, serial)

    def test_shared_agent_bit_identical_to_serial(self):
        agent = self._agents(1)[0]
        agents = [agent] * 7
        obs = self._obs(agents)
        batched = _greedy(agents, obs)
        serial = np.array([agent.act(o, greedy=True) for o in obs])
        np.testing.assert_array_equal(batched, serial)

    def test_entries_score_a_subset_bit_identical_to_serial(self):
        pool = self._agents(3)
        agents = [pool[i % 3] for i in range(40)]
        obs = self._obs(agents, seed=4)
        rows = np.array([39, 2, 17, 17, 5])
        batched = _greedy(agents, obs[rows], rows)
        serial = np.array([agents[i].act(obs[i], greedy=True) for i in rows])
        np.testing.assert_array_equal(batched, serial)
        with pytest.raises(TrainingError, match="shape"):
            _greedy(agents, obs, rows)

    @pytest.mark.parametrize("distinct", [3, 40])
    def test_round_robin_fleet_bit_identical_to_serial(self, distinct):
        # 3 agents over 60 rows score as groups, 40 over 60 row by row.
        pool = self._agents(distinct)
        agents = [pool[i % distinct] for i in range(60)]
        obs = self._obs(agents, seed=distinct)
        batched = _greedy(agents, obs)
        serial = np.array([a.act(o, greedy=True) for a, o in zip(agents, obs)])
        np.testing.assert_array_equal(batched, serial)

    @pytest.mark.parametrize("group_min_rows", [1, 10**6])
    def test_both_kernels_bit_identical_to_serial(self, monkeypatch, group_min_rows):
        from repro.core import vecenv

        monkeypatch.setattr(vecenv, "GROUP_MIN_ROWS", group_min_rows)
        clear_policy_stack_cache()
        pool = self._agents(4)
        agents = [pool[(i * 7) % 4] for i in range(30)]
        # A fresh observation set per case, so no kernel can pass on a
        # buffer left over from the previous one.
        obs = self._obs(agents, seed=3 + (group_min_rows > 1))
        batched = _greedy(agents, obs)
        serial = np.array([a.act(o, greedy=True) for a, o in zip(agents, obs)])
        np.testing.assert_array_equal(batched, serial)
        q = get_policy_stack([a.online for a in agents]).forward(obs)
        want = np.stack([a.online.predict(o) for a, o in zip(agents, obs)])
        np.testing.assert_array_equal(q, want)

    def test_one_slice_per_distinct_network(self):
        pool = self._agents(3)
        agents = [pool[i % 3] for i in range(60)]
        stack = get_policy_stack([a.online for a in agents])
        assert stack.weights[0].shape[0] == 3
        assert stack.biases[-1].shape[0] == 3
        np.testing.assert_array_equal(stack.index, np.arange(60) % 3)

    @pytest.mark.parametrize("distinct", [3, 40])
    def test_set_weights_on_shared_agent_updates_every_row(self, distinct):
        pool = self._agents(distinct)
        agents = [pool[i % distinct] for i in range(60)]
        obs = self._obs(agents, seed=8)
        stack = get_policy_stack([a.online for a in agents])
        _greedy(agents, obs)  # settle the cached stack
        donor = DQNAgent(pool[0].config, seed=99)
        pool[1].online.set_weights(donor.online.get_weights())
        assert stack.refresh() == 1
        assert stack.refresh() == 0
        batched = stack.greedy_actions(obs)
        serial = np.array([a.act(o, greedy=True) for a, o in zip(agents, obs)])
        np.testing.assert_array_equal(batched, serial)

    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("policies", [3, 40])
    def test_store_decide_batch_matches_serial(self, batch, policies):
        from repro.serve import PolicyStore

        store = PolicyStore([a.online for a in self._agents(policies)])
        rng = np.random.default_rng(batch * policies)
        obs = rng.random((batch, store.observation_size))
        chosen = rng.integers(0, policies, size=batch)
        batched = store.decide_batch(chosen, obs)
        serial = np.array([store.decide_serial(int(p), o) for p, o in zip(chosen, obs)])
        np.testing.assert_array_equal(batched, serial)

    def test_repeat_calls_reuse_the_cached_stack(self):
        clear_policy_stack_cache()
        agents = self._agents()
        networks = [a.online for a in agents]
        first = get_policy_stack(networks)
        again = get_policy_stack(networks)
        assert again is first

    def test_distinct_fleets_get_distinct_stacks(self):
        clear_policy_stack_cache()
        a = self._agents(3, seed0=0)
        b = self._agents(3, seed0=10)
        stack_a = get_policy_stack([x.online for x in a])
        stack_b = get_policy_stack([x.online for x in b])
        assert stack_a is not stack_b
        assert get_policy_stack([x.online for x in a]) is stack_a

    def test_set_weights_invalidates_cached_slice(self):
        agents = self._agents()
        obs = self._obs(agents)
        _greedy(agents, obs)  # populate the cache
        donor = DQNAgent(agents[0].config, seed=99)
        agents[2].online.set_weights(donor.online.get_weights())
        batched = _greedy(agents, obs)
        serial = np.array([a.act(o, greedy=True) for a, o in zip(agents, obs)])
        np.testing.assert_array_equal(batched, serial)

    def test_train_step_invalidates_cached_slice(self):
        from tests.oracles.training import Adam, HuberLoss, mlp

        clear_policy_stack_cache()
        nets = [mlp(4, (8,), 3, seed=i) for i in range(3)]
        stack = get_policy_stack(nets)
        x = np.linspace(-1.0, 1.0, 4)
        before = stack.greedy_actions(np.tile(x, (3, 1)))
        opt = Adam(learning_rate=0.5)
        for _ in range(5):
            nets[1].train_step(
                x[None, :], np.array([[5.0, -5.0, 0.0]]), HuberLoss(), opt
            )
        after = get_policy_stack(nets).greedy_actions(np.tile(x, (3, 1)))
        expected = np.array([int(np.argmax(net.predict(x))) for net in nets])
        np.testing.assert_array_equal(after, expected)
        del before

    def test_unflatten_parameters_invalidates(self):
        from repro.nn.network import mlp
        from repro.nn.serialize import flatten_parameters, unflatten_parameters

        nets = [mlp(4, (8,), 3, seed=i) for i in range(2)]
        stack = get_policy_stack(nets)
        x = np.tile(np.linspace(0.0, 1.0, 4), (2, 1))
        stack.greedy_actions(x)
        unflatten_parameters(nets[0], flatten_parameters(mlp(4, (8,), 3, seed=7)))
        after = get_policy_stack(nets).greedy_actions(x)
        expected = np.array(
            [int(np.argmax(net.predict(row))) for net, row in zip(nets, x)]
        )
        np.testing.assert_array_equal(after, expected)

    def test_mark_mutated_refreshes_in_place_edits(self):
        from repro.nn.network import mlp

        nets = [mlp(4, (8,), 3, seed=i) for i in range(2)]
        stack = get_policy_stack(nets)
        x = np.tile(np.linspace(0.0, 1.0, 4), (2, 1))
        stack.greedy_actions(x)
        nets[1].layers[-1].bias[...] = np.array([100.0, 0.0, -100.0])
        nets[1].mark_mutated()
        after = stack.greedy_actions(x)
        assert after[1] == 0

    def test_cache_eviction_respects_limit(self):
        from repro.core.vecenv import POLICY_STACK_CACHE_LIMIT, _POLICY_STACK_CACHE
        from repro.nn.network import mlp

        clear_policy_stack_cache()
        fleets = [
            [mlp(3, (4,), 2, seed=i * 10 + j) for j in range(2)]
            for i in range(POLICY_STACK_CACHE_LIMIT + 3)
        ]
        for fleet in fleets:
            get_policy_stack(fleet)
        assert len(_POLICY_STACK_CACHE) <= POLICY_STACK_CACHE_LIMIT

    def test_geometry_mismatch_still_raises(self):
        agents = self._agents(2)
        other = DQNAgent(tiny_dqn(env_actions=10), seed=5)
        with pytest.raises(TrainingError, match="share geometry"):
            _greedy(
                [agents[0], other],
                np.zeros((2, agents[0].config.observation_size)),
            )

    def test_chain_rejects_unsupported_layers(self):
        from repro.core.vecenv import PolicyStack
        from repro.nn.layers import Dense, ReLU
        from repro.nn.network import Network

        with pytest.raises(TrainingError, match="Dense first layer"):
            PolicyStack([Network([ReLU(), Dense(3, 2, seed=0)])])
        with pytest.raises(TrainingError, match="Dense/ReLU only"):
            PolicyStack([Network([Dense(3, 2, seed=0), object()])])
