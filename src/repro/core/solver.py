"""Exact MDP solver: value iteration and the structural results of §III-B.

Theorem III.1 of the paper (via Banach's fixed-point theorem) guarantees the
Bellman operator is a γ-contraction with a unique fixed point V*, so value
iteration converges geometrically; :func:`value_iteration` also reports the
final residual so callers can verify the contraction numerically. The
structural results of §III-B — Q(n,(s,p)) decreasing in n (Lemma III.2),
Q(n,(h,p)) increasing (Lemma III.3), and the threshold policy they imply
(Theorem III.4) — are exposed as checkable predicates. Policy iteration
and the Bellman residual that check this solver live with the test oracles
(``tests/oracles/mdp.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mdp import Action, AntiJammingMDP, State
from repro.errors import SolverError


@dataclass(frozen=True)
class Solution:
    """Solved MDP: optimal values, Q-function and greedy policy."""

    mdp: AntiJammingMDP
    values: np.ndarray  # (num_states,)
    q_values: np.ndarray  # (num_states, num_actions)
    policy_indices: np.ndarray  # (num_states,) action index per state
    iterations: int
    residual: float

    def value(self, state: State) -> float:
        return float(self.values[self.mdp.state_index(state)])

    def q_value(self, state: State, action: Action) -> float:
        return float(
            self.q_values[self.mdp.state_index(state), self.mdp.action_index(action)]
        )

    def action(self, state: State) -> Action:
        return self.mdp.actions[int(self.policy_indices[self.mdp.state_index(state)])]

    def policy_map(self) -> dict[State, Action]:
        return {x: self.action(x) for x in self.mdp.states}

    def hop_threshold(self) -> int:
        """The n* of Theorem III.4: smallest streak at which the policy hops.

        Returns ``sweep_cycle`` when the policy never hops from any streak
        state (the "stay everywhere" extreme the theorem allows).
        """
        for n in self.mdp.streak_states:
            if self.action(n).hop:
                return n
        return self.mdp.config.sweep_cycle


def _q_from_values(
    mdp: AntiJammingMDP, values: np.ndarray, P: np.ndarray, R: np.ndarray
) -> np.ndarray:
    return R + mdp.config.discount * (P @ values)


def value_iteration(
    mdp: AntiJammingMDP,
    *,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> Solution:
    """Solve the MDP by value iteration to sup-norm residual ``tol``."""
    if tol <= 0:
        raise SolverError("tolerance must be positive")
    P = mdp.kernel_matrix()
    R = mdp.reward_matrix()
    V = np.zeros(mdp.num_states)
    residual = np.inf
    for it in range(1, max_iter + 1):
        Q = _q_from_values(mdp, V, P, R)
        V_new = Q.max(axis=1)
        residual = float(np.max(np.abs(V_new - V)))
        V = V_new
        if residual < tol:
            break
    else:
        raise SolverError(
            f"value iteration did not reach tol={tol} in {max_iter} "
            f"iterations (residual {residual:.3e})"
        )
    Q = _q_from_values(mdp, V, P, R)
    return Solution(
        mdp=mdp,
        values=V,
        q_values=Q,
        policy_indices=Q.argmax(axis=1),
        iterations=it,
        residual=residual,
    )


def stay_q_profile(solution: Solution, power_index: int) -> list[float]:
    """Q*(n, (stay, p_i)) across streak states — Lemma III.2 says decreasing."""
    mdp = solution.mdp
    a = Action(hop=False, power_index=power_index)
    return [solution.q_value(n, a) for n in mdp.streak_states]


def hop_q_profile(solution: Solution, power_index: int) -> list[float]:
    """Q*(n, (hop, p_i)) across streak states — Lemma III.3 says increasing."""
    mdp = solution.mdp
    a = Action(hop=True, power_index=power_index)
    return [solution.q_value(n, a) for n in mdp.streak_states]


def is_threshold_policy(solution: Solution, *, tol: float = 1e-7) -> bool:
    """Theorem III.4: hop decisions over streak states form a threshold.

    True when a strict preference for hopping at some streak n is never
    followed by a strict preference for staying at a larger streak. States
    where the best hop and best stay Q-values tie within ``tol`` are
    compatible with either choice (the degenerate L_J = L_H = 0 case makes
    every state such a tie).
    """
    mdp = solution.mdp
    hop_pref: list[int] = []  # +1 strictly hop, -1 strictly stay, 0 tie
    for n in mdp.streak_states:
        best_hop = max(
            solution.q_value(n, a) for a in mdp.actions if a.hop
        )
        best_stay = max(
            solution.q_value(n, a) for a in mdp.actions if not a.hop
        )
        if best_hop > best_stay + tol:
            hop_pref.append(1)
        elif best_stay > best_hop + tol:
            hop_pref.append(-1)
        else:
            hop_pref.append(0)
    seen_hop = False
    for pref in hop_pref:
        if pref == 1:
            seen_hop = True
        elif pref == -1 and seen_hop:
            return False
    return True


__all__ = [
    "Solution",
    "value_iteration",
    "stay_q_profile",
    "hop_q_profile",
    "is_threshold_policy",
]
