"""The paper's primary contribution: the hybrid FH + PC anti-jamming scheme.

* :mod:`repro.core.mdp` — the competition MDP (states, actions, rewards,
  transition kernel, Eqs. 3–14).
* :mod:`repro.core.solver` — exact solvers and the structural results of
  §III-B (monotone Q profiles, threshold policies).
* :mod:`repro.core.envs` — the mechanistic slotted environment.
* :mod:`repro.core.dqn` / :mod:`repro.core.trainer` — the DQN of §III-C and
  its training loop.
* :mod:`repro.core.baselines` — Passive FH and Random FH (Fig. 11(a)).
* :mod:`repro.core.metrics` — the Table-I metrics.
"""

from repro.core.baselines import NoDefensePolicy, PassiveFHPolicy, RandomFHPolicy
from repro.core.dqn import DQNAgent, DQNConfig, EpsilonSchedule
from repro.core.envs import StepInfo, SweepJammingEnv
from repro.core.mdp import TJ, J, Action, AntiJammingMDP, JammerMode, MDPConfig
from repro.core.metrics import MetricSummary, SlotLog, evaluate_policy
from repro.core.policy import TabularPolicy, ThresholdPolicy, policy_from_solution_map
from repro.core.replay import Batch, ReplayBuffer
from repro.core.selfplay import (
    SelfPlayConfig,
    SelfPlayEnv,
    SelfPlayResult,
    train_selfplay,
)
from repro.core.solver import (
    Solution,
    hop_q_profile,
    is_threshold_policy,
    stay_q_profile,
    value_iteration,
)
from repro.core.trainer import (
    MultiSeedResult,
    TrainerConfig,
    TrainingResult,
    evaluate_dqn,
    train_dqn,
    train_dqn_multi_seed,
)
from repro.core.vecenv import VectorEnv, resolve_env_batch, train_dqn_batch

__all__ = [
    "NoDefensePolicy",
    "PassiveFHPolicy",
    "RandomFHPolicy",
    "DQNAgent",
    "DQNConfig",
    "EpsilonSchedule",
    "StepInfo",
    "SweepJammingEnv",
    "TJ",
    "J",
    "Action",
    "AntiJammingMDP",
    "JammerMode",
    "MDPConfig",
    "MetricSummary",
    "SlotLog",
    "evaluate_policy",
    "TabularPolicy",
    "ThresholdPolicy",
    "policy_from_solution_map",
    "Batch",
    "ReplayBuffer",
    "SelfPlayConfig",
    "SelfPlayEnv",
    "SelfPlayResult",
    "train_selfplay",
    "Solution",
    "hop_q_profile",
    "is_threshold_policy",
    "stay_q_profile",
    "value_iteration",
    "MultiSeedResult",
    "TrainerConfig",
    "TrainingResult",
    "evaluate_dqn",
    "train_dqn",
    "train_dqn_multi_seed",
    "VectorEnv",
    "resolve_env_batch",
    "train_dqn_batch",
]
