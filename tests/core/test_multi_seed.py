"""Tests for multi-seed DQN training on the execution layer."""

import numpy as np
import pytest

from repro.core.mdp import MDPConfig
from repro.core.trainer import TrainerConfig, train_dqn_multi_seed
from repro.errors import TrainingError
from repro.exec import FaultPolicy, TaskFailure
from tests.oracles.training import train_dqn

TINY = TrainerConfig(episodes=2, steps_per_episode=40)


class TestMultiSeed:
    def test_one_result_per_seed(self):
        multi = train_dqn_multi_seed(
            MDPConfig(), seeds=(0, 1, 2), trainer=TINY, workers=1
        )
        assert multi.seeds == (0, 1, 2)
        assert len(multi.results) == 3
        for res in multi.results:
            assert res.episodes == 2
            assert res.steps == 80

    def test_matches_single_seed_runs(self):
        multi = train_dqn_multi_seed(MDPConfig(), seeds=(5,), trainer=TINY, workers=1)
        solo = train_dqn(MDPConfig(), trainer=TINY, seed=5)
        np.testing.assert_array_equal(
            multi.results[0].reward_history, solo.reward_history
        )

    def test_worker_count_invariance(self):
        serial = train_dqn_multi_seed(
            MDPConfig(), seeds=(0, 1), trainer=TINY, workers=1
        )
        pooled = train_dqn_multi_seed(
            MDPConfig(), seeds=(0, 1), trainer=TINY, workers=2
        )
        for a, b in zip(serial.results, pooled.results):
            np.testing.assert_array_equal(a.reward_history, b.reward_history)
            for pa, pb in zip(a.agent.network().parameters, b.agent.network().parameters):
                np.testing.assert_array_equal(pa, pb)

    def test_aggregates(self):
        multi = train_dqn_multi_seed(
            MDPConfig(), seeds=(0, 1, 2), trainer=TINY, workers=1
        )
        rewards = multi.final_rewards
        assert rewards.shape == (3,)
        assert multi.mean_final_reward == pytest.approx(float(rewards.mean()))
        assert multi.best().reward_history[-1] == pytest.approx(float(rewards.max()))

    def test_empty_seeds_rejected(self):
        with pytest.raises(TrainingError):
            train_dqn_multi_seed(MDPConfig(), seeds=(), trainer=TINY)


class TestMultiSeedFaults:
    def test_retried_seeds_are_bit_identical(self):
        clean = train_dqn_multi_seed(
            MDPConfig(), seeds=(0, 1), trainer=TINY, workers=1
        )
        faulty = train_dqn_multi_seed(
            MDPConfig(),
            seeds=(0, 1),
            trainer=TINY,
            workers=1,
            env_batch=1,
            policy=FaultPolicy(
                on_error="retry",
                max_retries=6,
                backoff_s=0.0,
                fault_rate=0.4,
                fault_seed=7,
            ),
        )
        assert faulty.seeds == clean.seeds
        assert faulty.failures == ()
        for a, b in zip(faulty.results, clean.results):
            np.testing.assert_array_equal(a.reward_history, b.reward_history)

    def test_skip_salvages_surviving_seeds(self):
        # fault_seed=2 at rate 0.5 fails exactly task index 0 (seed 0).
        # env_batch=1 pins per-seed task granularity: under batching a
        # crash takes out its whole seed group (covered in test_vecenv).
        multi = train_dqn_multi_seed(
            MDPConfig(),
            seeds=(0, 1, 2),
            trainer=TINY,
            workers=1,
            env_batch=1,
            policy=FaultPolicy(
                on_error="skip", max_retries=0, fault_rate=0.5, fault_seed=2
            ),
        )
        assert multi.seeds == (1, 2)
        assert len(multi.failures) == 1
        failure = multi.failures[0]
        assert isinstance(failure, TaskFailure)
        assert failure.index == 0
        assert failure.error_type == "InjectedFault"
        # The survivors are untouched by the neighbour's crash.
        solo = train_dqn(MDPConfig(), trainer=TINY, seed=1)
        np.testing.assert_array_equal(
            multi.results[0].reward_history, solo.reward_history
        )

    def test_all_seeds_failing_raises(self):
        with pytest.raises(TrainingError, match="all 2 training seeds failed"):
            train_dqn_multi_seed(
                MDPConfig(),
                seeds=(0, 1),
                trainer=TINY,
                workers=1,
                policy=FaultPolicy(
                    on_error="skip", max_retries=0, fault_rate=1.0
                ),
            )
