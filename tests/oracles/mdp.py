"""Exact-kernel oracles for the MDP solver and the mechanistic env.

* :class:`AnalyticJammingEnv` samples next states *exactly* from the MDP
  kernel of Eqs. (6)–(14). :class:`~repro.core.envs.SweepJammingEnv`'s
  empirical transition frequencies are held to it, and model-free
  Q-learning trains on it.
* :func:`policy_iteration` and :func:`bellman_residual` check
  :func:`~repro.core.solver.value_iteration`'s policy and fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.channel.fidelity import JamAdjudicator
from repro.core.envs import StepInfo
from repro.core.mdp import TJ, J, Action, AntiJammingMDP, MDPConfig, State
from repro.core.solver import Solution, _q_from_values
from repro.errors import SolverError
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True, eq=False)
class _ChannelMDPConfig(MDPConfig):
    """MDP config whose jam-success law comes from a channel-tier adjudicator.

    Built by :func:`channel_mdp_config`: :class:`AnalyticJammingEnv`
    wraps its config when a non-analytic ``REPRO_CHANNEL`` tier is
    selected, and the fidelity tests hold the law to each tier. Every
    other field (and the kernel built on top of it) is a verbatim copy of
    the wrapped config.
    """

    adjudicator: JamAdjudicator | None = None

    def jam_success_probability(self, power_index: int) -> float:
        """The jam-success law under the adjudicator's tier.

        The analytic tier reproduces :class:`MDPConfig`'s strict
        threshold semantics exactly; the others contest the calibrated
        packet survival against the strongest (``"max"``) or every
        (``"random"``) jammer power level.
        """
        adj = self.adjudicator
        if adj is None:
            return super().jam_success_probability(power_index)
        p = float(self.tx_power_levels[power_index])
        levels = [float(x) for x in self.jammer_power_levels]
        if adj.analytic:
            if self.jammer_mode == "max":
                return 1.0 if levels[-1] > p else 0.0
            return sum(1 for pj in levels if pj > p) / len(levels)
        if self.jammer_mode == "max":
            return 1.0 - adj.survival_probability(p, levels[-1])
        return sum(1.0 - adj.survival_probability(p, pj) for pj in levels) / len(
            levels
        )


def channel_mdp_config(
    base: MDPConfig, adjudicator: JamAdjudicator
) -> _ChannelMDPConfig:
    """``base`` with its jam-success law taken from ``adjudicator``."""
    return _ChannelMDPConfig(
        **{f.name: getattr(base, f.name) for f in fields(MDPConfig)},
        adjudicator=adjudicator,
    )


class AnalyticJammingEnv:
    """Samples the competition directly from the paper's transition kernel.

    ``channel`` (default ``REPRO_CHANNEL``) selects the fidelity tier of
    the jam-success law: the analytic default keeps the exact threshold
    kernel, while ``hybrid``/``waveform`` replace
    :meth:`MDPConfig.jam_success_probability` with the tier's calibrated
    packet-survival contest via :class:`_ChannelMDPConfig`.
    """

    def __init__(
        self,
        mdp: AntiJammingMDP | MDPConfig | None = None,
        *,
        seed: SeedLike = None,
        channel: str | None = None,
    ) -> None:
        if isinstance(mdp, MDPConfig):
            mdp = AntiJammingMDP(mdp)
        self.mdp = mdp or AntiJammingMDP()
        self._adjudicator = JamAdjudicator(channel)
        if not self._adjudicator.analytic:
            self.mdp = AntiJammingMDP(
                channel_mdp_config(self.mdp.config, self._adjudicator)
            )
        self._rng = make_rng(seed)
        self.state: State = 1

    def reset(self, *, seed: SeedLike = None) -> State:
        if seed is not None:
            self._rng = make_rng(seed)
        self.state = 1
        return self.state

    def step(self, action: Action) -> tuple[State, float, StepInfo]:
        """Advance one slot; returns (next_state, reward, info)."""
        mdp = self.mdp
        dist = mdp.transitions(self.state, action)
        states = list(dist)
        probs = np.array([dist[x] for x in states])
        next_state = states[int(self._rng.choice(len(states), p=probs))]
        reward = mdp.reward(self.state, action, next_state)

        jam_attempted = next_state in (TJ, J)
        avoided = False
        if action.hop and next_state not in (TJ, J):
            # Coupled counterfactual: would staying have been attacked?
            if self.state in (TJ, J):
                avoided = True  # the camping jammer kept attacking that channel
            else:
                s = mdp.config.sweep_cycle
                n = int(self.state)
                avoided = bool(self._rng.random() < 1.0 / (s - n))
        info = StepInfo(
            state=next_state,
            success=next_state != J,
            hopped=action.hop,
            power_index=action.power_index,
            power_raised=action.power_index > 0,
            jam_attempted=jam_attempted,
            jam_defeated=next_state == TJ,
            avoided_jam=avoided,
            reward=reward,
        )
        self.state = next_state
        return next_state, reward, info


def policy_iteration(mdp: AntiJammingMDP, *, max_iter: int = 1_000) -> Solution:
    """Solve the MDP by Howard policy iteration (exact policy evaluation)."""
    P = mdp.kernel_matrix()
    R = mdp.reward_matrix()
    n, gamma = mdp.num_states, mdp.config.discount
    policy = np.zeros(n, dtype=np.int64)
    for it in range(1, max_iter + 1):
        # Policy evaluation: solve (I - gamma * P_pi) V = R_pi.
        P_pi = P[np.arange(n), policy]
        R_pi = R[np.arange(n), policy]
        V = np.linalg.solve(np.eye(n) - gamma * P_pi, R_pi)
        Q = _q_from_values(mdp, V, P, R)
        new_policy = Q.argmax(axis=1)
        if np.array_equal(new_policy, policy):
            residual = float(np.max(np.abs(Q.max(axis=1) - V)))
            return Solution(
                mdp=mdp,
                values=V,
                q_values=Q,
                policy_indices=policy,
                iterations=it,
                residual=residual,
            )
        policy = new_policy
    raise SolverError(f"policy iteration did not converge in {max_iter} sweeps")


def bellman_residual(solution: Solution) -> float:
    """Sup-norm Bellman residual of a solution — 0 at the true fixed point."""
    mdp = solution.mdp
    Q = _q_from_values(mdp, solution.values, mdp.kernel_matrix(), mdp.reward_matrix())
    return float(np.max(np.abs(Q.max(axis=1) - solution.values)))
