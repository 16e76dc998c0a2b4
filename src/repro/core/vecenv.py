"""Lock-step DQN training: N seeded competitions, one set of tensor ops.

:func:`train_dqn_batch` is the package's one DQN training loop, and
:func:`repro.core.trainer.train_dqn` is its one-seed call. It runs N
*independent* seeded competitions in lock-step, so N seeds pay one
forward/backward pass of stacked shape (N, 64, ...) instead of N passes
of batch size 64:

* :class:`VectorEnv` holds N :class:`~repro.core.envs.SweepJammingEnv`
  instances, each with its own rng stream, and steps them together.
* :func:`train_dqn_batch` builds N real :class:`~repro.core.dqn.DQNAgent`
  objects (their rng streams, replay buffers, and counters are the source
  of truth) but mirrors their network parameters and Adam state into
  ``(N, ...)`` stacked tensors, so the ε-greedy ``act`` and the TD update
  run as single 3-D ``matmul`` chains across all seeds.

Each seed's run is bit-identical to training that seed alone, at any N:
stacked ``matmul``/reductions apply the same IEEE operations per slice as
their 2-D counterparts, every per-seed rng stream consumes draws in
exactly the one-seed order (streams are independent, so interleaving
across seeds is irrelevant), and the per-seed training schedules are
structurally aligned (replay buffers grow one transition per slot for
every seed, so warm-up, train, and target-sync steps coincide). Seeds that
hit ``reward_goal`` early exit at episode boundaries: their slices are
compacted out of the stacked tensors and their final weights written
back. The reference is the one-network-at-a-time chain (layer backward,
Huber gradient, ``Adam.step``) in ``tests/oracles/training.py``; the
equivalence suites pin per-seed rewards, losses, final weights, Adam
moments and rng states against it, N = 1 included.

The train step allocates little beyond the ``matmul`` outputs.
:class:`_StackedMLP` keeps online and target parameters, gradients and
Adam moments each in one flat ``(N, P)`` buffer (Adam and the target
syncs are whole-buffer ufuncs), plus a workspace of scratch buffers that
every step reuses and ``compact`` re-slices. Training and
:class:`PolicyStack` inference share one Dense/ReLU chain, which adds
bias and applies ReLU in place on the fresh ``matmul`` output. Aliasing
rule: an activation cached for ``backward`` never shares a buffer that
anything writes before ``backward`` reads it. The TD error is sparse: the
reference error ``prediction - target`` has ``target`` a copy of
``prediction`` but at the taken action, so every other entry is
``p - p = +0.0`` for finite ``p``, whose Huber value and gradient are
``+0.0`` too.

The in-process batch width composes with the
:class:`~repro.exec.ParallelRunner` process pool (processes × batch) via
``train_dqn_multi_seed(env_batch=...)`` or ``REPRO_ENV_BATCH``, which only
decide how seeds split into pool tasks.
"""

from __future__ import annotations

import numpy as np

from repro import knobs
from repro.core.dqn import HUBER_DELTA, AdamState, DQNAgent, DQNConfig
from repro.core.envs import StepInfo, SweepJammingEnv
from repro.core.mdp import MDPConfig
from repro.errors import TrainingError
from repro.nn.layers import Dense, ReLU
from repro.obs import telemetry as obs_telemetry
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.rng import derive


def resolve_env_batch(value: int | str | None = None) -> int:
    """Resolve the seed-batch width from an override or ``REPRO_ENV_BATCH``.

    The width is the most seeds ``train_dqn_multi_seed`` puts in one pool
    task, trained there lock-step; ``1``, ``off`` or ``none`` make one task
    per seed. Every width trains through :func:`train_dqn_batch` and gives
    the same per-seed results.
    """
    return knobs.get("REPRO_ENV_BATCH", value)


class VectorEnv:
    """N independent seeded environments stepped in lock-step.

    Each wrapped environment keeps its own rng stream, so stepping them
    together produces exactly the trajectories of stepping each alone.
    """

    def __init__(self, envs: list[SweepJammingEnv]) -> None:
        if not envs:
            raise TrainingError("a VectorEnv needs at least one environment")
        first = envs[0]
        for env in envs[1:]:
            if (
                env.observation_size != first.observation_size
                or env.num_actions != first.num_actions
            ):
                raise TrainingError(
                    "all environments in a VectorEnv must share geometry"
                )
        self.envs = list(envs)

    @classmethod
    def from_seeds(
        cls,
        config: MDPConfig | None,
        seeds,
        *,
        history_length: int,
        stream: str = "train-env",
    ) -> "VectorEnv":
        """One env per seed, on the seed's ``stream`` (``train-env`` for training)."""
        return cls(
            [
                SweepJammingEnv(
                    config or MDPConfig(),
                    history_length=history_length,
                    seed=derive(int(s), stream),
                )
                for s in seeds
            ]
        )

    @property
    def num_envs(self) -> int:
        return len(self.envs)

    @property
    def observation_size(self) -> int:
        return self.envs[0].observation_size

    @property
    def num_actions(self) -> int:
        return self.envs[0].num_actions

    def reset(self) -> np.ndarray:
        """Reset every environment; returns stacked observations (N, obs)."""
        return np.stack([env.reset() for env in self.envs])

    def step(
        self, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[StepInfo]]:
        """Advance every environment one slot.

        Returns stacked next observations ``(N, obs)``, rewards ``(N,)``,
        and the per-env :class:`StepInfo` records.
        """
        actions = np.asarray(actions).reshape(-1)
        if actions.size != self.num_envs:
            raise TrainingError(
                f"expected {self.num_envs} actions, got {actions.size}"
            )
        obs, rewards, infos = [], [], []
        for env, action in zip(self.envs, actions):
            o, r, info = env.step_index(int(action))
            obs.append(o)
            rewards.append(r)
            infos.append(info)
        return np.stack(obs), np.array(rewards), infos

    def select(self, indices) -> "VectorEnv":
        """A VectorEnv over a subset of the wrapped environments."""
        return VectorEnv([self.envs[i] for i in indices])


def _chain_spec(layers) -> tuple[str, ...]:
    """``"dense"``/``"relu"`` per layer of a network the stacked chain runs."""
    spec = []
    for layer in layers:
        if isinstance(layer, Dense):
            spec.append("dense")
        elif isinstance(layer, ReLU):
            spec.append("relu")
        else:
            raise TrainingError(
                f"stacked networks support Dense/ReLU only, got "
                f"{type(layer).__name__}"
            )
    if spec[0] != "dense":
        raise TrainingError("stacked networks need a Dense first layer")
    return tuple(spec)


def _dense_relu_chain(
    x: np.ndarray,
    spec: tuple[str, ...],
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    cache: tuple[list, list] | None = None,
) -> np.ndarray:
    """The stacked Dense/ReLU chain: ``matmul``, then bias and ReLU in place.

    ``biases[k]`` broadcasts against Dense layer k's ``matmul`` output.
    The spec starts with Dense, so ReLU only writes a fresh ``matmul``
    output and ``x`` is never written. ``cache`` is an (inputs, masks)
    pair of lists that receives each Dense input and each ReLU mask for
    :meth:`_StackedMLP.backward`.
    """
    dense = 0
    for kind in spec:
        if kind == "dense":
            if cache is not None:
                cache[0].append(x)
            x = np.matmul(x, weights[dense])
            x += biases[dense]
            dense += 1
        else:
            if cache is not None:
                cache[1].append(x > 0)
            np.maximum(x, 0.0, out=x)
    return x


class _StackedMLP:
    """(N, ...) stacked mirror of N structurally identical online networks.

    Each flat ``(N, P)`` buffer row is laid out like the
    ``network.parameters`` list; ``weights``/``biases`` (and their ``t_``
    and ``grad_`` twins) are per-layer ``(N, in, out)``/``(N, out)`` views.
    """

    def __init__(self, agents: list[DQNAgent]) -> None:
        self.spec = _chain_spec(agents[0].online.layers)
        self._shapes = [p.shape for p in agents[0].online.parameters]
        self.params = np.stack(
            [np.concatenate([p.ravel() for p in a.online.parameters]) for a in agents]
        )
        self.t_params = np.stack(
            [np.concatenate([p.ravel() for p in a.target.parameters]) for a in agents]
        )
        self.grads = np.zeros_like(self.params)
        # Adam moments; written back to an agent's AdamState only once a
        # step has run, so an agent that never trained keeps m = v = None.
        self.adam_m = np.zeros_like(self.params)
        self.adam_v = np.zeros_like(self.params)
        self.adam_t = 0
        # Workspace: Adam and soft-sync scratch, the (N, B, A) TD buffer and
        # the flat offset of each (seed, row)'s Q-values inside it.
        cfg = agents[0].config
        n, batch = len(agents), cfg.batch_size
        self._scratch = (np.empty_like(self.params), np.empty_like(self.params))
        self._td = np.empty((n, batch, cfg.num_actions))
        self._rows = np.arange(n * batch).reshape(n, batch) * cfg.num_actions
        self._cache: tuple[list, list] = ([], [])
        self._bind()

    def _split(self, flat: np.ndarray) -> tuple[list, list]:
        """Per-layer (weights, biases) views of one flat (N, P) buffer."""
        views, start = [], 0
        for shape in self._shapes:
            size = int(np.prod(shape))
            views.append(flat[:, start : start + size].reshape(len(flat), *shape))
            start += size
        return views[0::2], views[1::2]

    def _bind(self) -> None:
        self.weights, self.biases = self._split(self.params)
        self.t_weights, self.t_biases = self._split(self.t_params)
        self.grad_weights, self.grad_biases = self._split(self.grads)
        # (N, 1, out) bias views that broadcast over the batch axis.
        self._bias_rows = [b[:, None, :] for b in self.biases]
        self._t_bias_rows = [b[:, None, :] for b in self.t_biases]

    # -- forward/backward -----------------------------------------------------

    def forward_online(self, x: np.ndarray, *, cache: bool = False) -> np.ndarray:
        """Online-network forward over stacked input (N, B, obs)."""
        if cache:
            for kept in self._cache:
                kept.clear()
        return _dense_relu_chain(
            x, self.spec, self.weights, self._bias_rows, self._cache if cache else None
        )

    def forward_target(self, x: np.ndarray) -> np.ndarray:
        return _dense_relu_chain(x, self.spec, self.t_weights, self._t_bias_rows)

    def backward(self, grad: np.ndarray) -> None:
        """Write the stacked parameter gradients from dL/d(output)."""
        inputs, masks = self._cache
        dense = len(self.weights) - 1
        relu = len(masks) - 1
        for kind in reversed(self.spec):
            if kind == "dense":
                x = inputs[dense]
                np.matmul(x.transpose(0, 2, 1), grad, out=self.grad_weights[dense])
                np.sum(grad, axis=1, out=self.grad_biases[dense])
                if dense == 0:
                    break  # nothing reads the first layer's input gradient
                grad = np.matmul(grad, self.weights[dense].transpose(0, 2, 1))
                dense -= 1
            else:
                np.multiply(grad, masks[relu], out=grad)
                relu -= 1
        # The reference layers add into zeroed gradients: 0.0 + g, which
        # turns -0.0 into +0.0 and leaves every other value as it is.
        self.grads += 0.0

    def adam_step(self, adam: AdamState) -> None:
        """One stacked Adam update with ``adam``'s hyperparameters."""
        self.adam_t += 1
        beta1, beta2, eps = adam.beta1, adam.beta2, adam.epsilon
        lr = adam.learning_rate
        b1t = 1.0 - beta1**self.adam_t
        b2t = 1.0 - beta2**self.adam_t
        g, m, v = self.grads, self.adam_m, self.adam_v
        step, denom = self._scratch
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=step)
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=step)
        v += np.multiply(step, g, out=step)
        # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps), one ufunc at a time.
        np.multiply(np.divide(m, b1t, out=step), lr, out=step)
        np.add(np.sqrt(np.divide(v, b2t, out=denom), out=denom), eps, out=denom)
        self.params -= np.divide(step, denom, out=step)

    # -- target sync ----------------------------------------------------------

    def hard_sync(self) -> None:
        self.t_params[...] = self.params

    def soft_sync(self, tau: float) -> None:
        self.t_params *= 1.0 - tau
        self.t_params += np.multiply(self.params, tau, out=self._scratch[0])

    # -- slice management ------------------------------------------------------

    def compact(self, keep: list[int]) -> None:
        """Drop finished seeds' slices (matmul is per-slice for any N)."""
        self.params = self.params[keep]
        self.t_params = self.t_params[keep]
        self.grads = self.grads[keep]
        self.adam_m = self.adam_m[keep]
        self.adam_v = self.adam_v[keep]
        n = len(keep)
        self._scratch = tuple(s[:n] for s in self._scratch)
        self._td = self._td[:n]
        self._rows = self._rows[:n]
        for kept in self._cache:
            kept.clear()
        self._bind()

    def write_back(self, position: int, agent: DQNAgent) -> None:
        """Copy slice ``position`` into the agent's networks and Adam state."""

        def unflat(flat: np.ndarray) -> list[np.ndarray]:
            weights, biases = self._split(flat[position : position + 1].copy())
            return [p[0] for pair in zip(weights, biases) for p in pair]

        agent.online.set_weights(unflat(self.params))
        agent.target.set_weights(unflat(self.t_params))
        if self.adam_t > 0:
            agent.adam.m = unflat(self.adam_m)
            agent.adam.v = unflat(self.adam_v)
            agent.adam.t = self.adam_t


#: Mean rows per distinct network from which :meth:`PolicyStack.forward`
#: scores each network's rows as one group instead of stacking one weight
#: slice per row. Below it the per-group call overhead outweighs streaming
#: the per-row slices (``kernels.policy_stack.fleet_u*`` in
#: ``benchmarks/bench_kernels.py``).
GROUP_MIN_ROWS = 8


def _row_groups(index: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(slice, rows)`` pairs: the rows each distinct slice scores."""
    return [(k, np.flatnonzero(index == k)) for k in np.unique(index).tolist()]


class PolicyStack:
    """Inference-only stacked mirror of N structurally identical networks.

    Each *distinct* network (by identity) is stacked exactly once, and
    ``index`` maps row i to the slice of its network. Unlike
    :class:`_StackedMLP` this holds no gradients, target copies, or Adam
    state — just the stacked online weights — so it is cheap enough to keep
    alive between calls. Staleness is tracked through each source
    :class:`~repro.nn.network.Network`'s ``version`` counter:
    :meth:`refresh` re-copies only the slices whose network mutated since
    the stack was built.

    :meth:`forward` picks its kernel from the rows per distinct network
    (:data:`GROUP_MIN_ROWS`): a fleet of a few policies over many rows is
    scored one broadcast ``(rows, 1, in) @ (in, out)`` chain per network;
    a fleet of mostly distinct networks by one ``(N, 1, in) @ (N, in, out)``
    chain over per-row slices. Either way each row goes through the same
    IEEE operations as the serial ``network.predict(obs_i)``, so results
    are bit-identical to scoring one network at a time.
    """

    def __init__(self, networks: list) -> None:
        if not networks:
            raise TrainingError("a PolicyStack needs at least one network")
        self.networks = list(networks)
        slices: dict[int, int] = {}
        self.sources: list = []
        for net in self.networks:
            if id(net) not in slices:
                slices[id(net)] = len(self.sources)
                self.sources.append(net)
        self.index = np.array(
            [slices[id(net)] for net in self.networks], dtype=np.intp
        )
        first = self.sources[0]
        self.spec = _chain_spec(first.layers)
        for net in self.sources[1:]:
            if len(net.layers) != len(first.layers) or any(
                isinstance(a, Dense)
                and (not isinstance(b, Dense) or a.weight.shape != b.weight.shape)
                for a, b in zip(first.layers, net.layers)
            ):
                raise TrainingError("all agents must share geometry")
        dense = [li for li, kind in enumerate(self.spec) if kind == "dense"]
        self.weights = [
            np.stack([net.layers[li].weight for net in self.sources]) for li in dense
        ]
        self.biases = [
            np.stack([net.layers[li].bias for net in self.sources]) for li in dense
        ]
        self._versions = [net.version for net in self.sources]
        self._groups: list | None = None
        self._per_row: tuple[list, list] | None = None

    @property
    def observation_size(self) -> int:
        return int(self.weights[0].shape[-2])

    @property
    def num_actions(self) -> int:
        return int(self.weights[-1].shape[-1])

    @property
    def per_row(self) -> bool:
        """Whether :meth:`forward` scores the stack's own rows slice by slice."""
        return self.index.size < GROUP_MIN_ROWS * len(self.sources)

    def refresh(self) -> int:
        """Re-copy slices whose source network mutated; returns the count."""
        stale = 0
        for k, net in enumerate(self.sources):
            if net.version == self._versions[k]:
                continue
            dense = 0
            for li, kind in enumerate(self.spec):
                if kind == "dense":
                    self.weights[dense][k] = net.layers[li].weight
                    self.biases[dense][k] = net.layers[li].bias
                    dense += 1
            self._versions[k] = net.version
            stale += 1
        if stale:
            self._per_row = None
        return stale

    def forward(
        self, obs: np.ndarray, entries: np.ndarray | None = None
    ) -> np.ndarray:
        """Q-values (B, actions) for observations (B, obs).

        Row i is scored by ``networks[entries[i]]``; without ``entries`` the
        B = N observations are scored row by row against ``networks``. Only
        the stack's own rows may take the per-row kernel: its per-row slices
        are copied once and reused, where ``entries`` would need a per-call
        weight gather.
        """
        x = obs[:, None, :]
        if entries is None:
            if self.per_row:
                if self._per_row is None:
                    self._per_row = self._slices_per_row()
                weights, biases = self._per_row
                return _dense_relu_chain(x, self.spec, weights, biases)[:, 0]
            if self._groups is None:
                self._groups = _row_groups(self.index)
            groups = self._groups
        else:
            groups = _row_groups(self.index[entries])
        q = np.empty((x.shape[0], self.num_actions))
        for k, members in groups:
            q[members] = _dense_relu_chain(
                x[members],
                self.spec,
                [w[k] for w in self.weights],
                [b[k] for b in self.biases],
            )[:, 0]
        return q

    def _slices_per_row(self) -> tuple[list, list]:
        """Per-row weights and (rows, 1, out) biases; row i is slice ``index[i]``."""
        if len(self.sources) == self.index.size:
            return self.weights, [b[:, None, :] for b in self.biases]
        return (
            [w[self.index] for w in self.weights],
            [b[self.index][:, None, :] for b in self.biases],
        )

    def greedy_actions(
        self, obs: np.ndarray, entries: np.ndarray | None = None
    ) -> np.ndarray:
        """Greedy action per row; refreshes stale slices first."""
        self.refresh()
        return self.forward(obs, entries).argmax(axis=1)


#: Cached stacks keyed on the identity tuple of their source networks. A
#: cached :class:`PolicyStack` holds strong references to its networks, so
#: an ``id`` in a live key can never be recycled to a different object.
_POLICY_STACK_CACHE: dict[tuple[int, ...], PolicyStack] = {}

#: Distinct network tuples kept stacked at once (FIFO eviction beyond this).
POLICY_STACK_CACHE_LIMIT = 8


def get_policy_stack(networks: list) -> PolicyStack:
    """The cached :class:`PolicyStack` of these networks, refreshed.

    Repeat calls reuse the stacked arrays, re-copying only the slices
    whose parameters mutated since.
    """
    key = tuple(id(net) for net in networks)
    stack = _POLICY_STACK_CACHE.get(key)
    if stack is None or any(
        a is not b for a, b in zip(stack.networks, networks)
    ):
        stack = PolicyStack(networks)
        if key not in _POLICY_STACK_CACHE:
            while len(_POLICY_STACK_CACHE) >= POLICY_STACK_CACHE_LIMIT:
                _POLICY_STACK_CACHE.pop(next(iter(_POLICY_STACK_CACHE)))
        _POLICY_STACK_CACHE[key] = stack
    stack.refresh()
    return stack


def clear_policy_stack_cache() -> None:
    """Drop every cached stack (tests and microbenchmarks)."""
    _POLICY_STACK_CACHE.clear()


def greedy_policy_actions(
    stack: PolicyStack, obs: np.ndarray, entries: np.ndarray | None = None
) -> np.ndarray:
    """Greedy actions from one stacked forward pass over ``stack``.

    Row i of ``obs`` is scored by ``stack.networks[entries[i]]`` (by
    ``stack.networks[i]`` without ``entries``) through the same IEEE
    operations as the serial ``agent.act(obs_i, greedy=True)``; greedy
    selection consumes no rng. Resolve the stack with
    :func:`get_policy_stack`, which refreshes mutated slices, once per
    loop rather than per call.
    """
    obs = np.asarray(obs, dtype=np.float64)
    rows = len(stack.networks) if entries is None else len(entries)
    if obs.shape != (rows, stack.observation_size):
        raise TrainingError(
            f"expected observations of shape "
            f"({rows}, {stack.observation_size}), got {obs.shape}"
        )
    return stack.forward(obs, entries).argmax(axis=1)


def _batched_act(stack: _StackedMLP, agents: list[DQNAgent], obs: np.ndarray) -> np.ndarray:
    """ε-greedy actions for all seeds from one stacked forward pass.

    One (N, 1, obs) @ (N, obs, H) chain replaces N single-row forwards; the
    exploration draws then run per agent on its own rng, in the exact order
    ``DQNAgent.act`` consumes them.
    """
    q = stack.forward_online(obs[:, None, :])
    best = q.argmax(axis=2)[:, 0]
    actions = np.empty(len(agents), dtype=np.int64)
    for i, agent in enumerate(agents):
        if agent._rng.random() >= agent.epsilon:
            actions[i] = best[i]
        else:
            draw = int(agent._rng.integers(agent.config.num_actions - 1))
            actions[i] = draw + (draw >= best[i])
    return actions


def _batched_train_step(
    stack: _StackedMLP, agents: list[DQNAgent]
) -> np.ndarray:
    """One TD(0) update for every seed; returns per-seed Huber losses.

    Applies the reference chain's operations (``train_on`` and
    ``train_step`` in ``tests/oracles/training.py``) on (N, B, ·) tensors;
    per-seed replay sampling stays on each agent's own rng stream.
    """
    cfg = agents[0].config
    batches = [agent.replay.sample(cfg.batch_size) for agent in agents]
    obs = np.stack([b.observations for b in batches])
    actions = np.stack([b.actions for b in batches])
    rewards = np.stack([b.rewards for b in batches])
    next_obs = np.stack([b.next_observations for b in batches])

    # Flat offset of each (seed, row)'s Q-values in an (N, B, A) array.
    rows = stack._rows
    next_q_target = stack.forward_target(next_obs)
    if cfg.double_dqn:
        best_next = stack.forward_online(next_obs).argmax(axis=2)
        bootstrap = next_q_target.reshape(-1)[rows + best_next]
    else:
        bootstrap = next_q_target.max(axis=2)
    targets_for_actions = rewards + cfg.discount * bootstrap

    prediction = stack.forward_online(obs, cache=True)
    taken = rows + actions
    # The reference TD error is prediction - target with target a copy of
    # the prediction, so every entry but the taken action's is p - p = +0.0.
    err = prediction.reshape(-1)[taken] - targets_for_actions
    delta = HUBER_DELTA
    abs_err = np.abs(err)
    quad = np.minimum(abs_err, delta)
    td = stack._td
    flat_td = td.reshape(-1)
    td.fill(0.0)
    flat_td[taken] = 0.5 * quad**2 + delta * (abs_err - quad)
    losses = np.mean(td, axis=(1, 2))
    # Per-slice gradient: divide by the slice's element count (B·A), the
    # ``p.size`` the reference Huber loss sees, not the stacked size. The
    # action mask multiplies the taken entries by 1.0 and the rest are +0.0.
    flat_td[taken] = np.clip(err, -delta, delta) / td[0].size
    stack.backward(td)
    stack.adam_step(agents[0].adam)

    for agent in agents:
        agent.train_steps += 1
    if cfg.soft_update_tau is not None:
        stack.soft_sync(cfg.soft_update_tau)
    elif agents[0].train_steps % cfg.target_sync_interval == 0:
        stack.hard_sync()
    return losses


def train_dqn_batch(
    env_config: MDPConfig | None = None,
    *,
    seeds,
    trainer=None,
    dqn: DQNConfig | None = None,
    history_length: int = 5,
) -> list:
    """Train one DQN per integer seed in lock-step.

    Returns a list of :class:`repro.core.trainer.TrainingResult`, one per
    seed in order. Seed s's result (weights, histories, Adam state, rng and
    replay state) is the same in any group, alone included:
    ``train_dqn(..., seed=s)`` is ``train_dqn_batch(..., seeds=[s])[0]``.
    The run is traced as one ``train/run`` span with a ``seeds`` attribute,
    a ``dqn.episode`` event per seed and episode, and ``dqn`` telemetry
    frames.
    """
    from repro.core.trainer import TrainerConfig, TrainingResult

    seed_list = [int(s) for s in seeds]
    if not seed_list:
        raise TrainingError("need at least one seed")
    trainer = trainer or TrainerConfig()
    env_config = env_config or MDPConfig()
    vec = VectorEnv.from_seeds(env_config, seed_list, history_length=history_length)
    if dqn is None:
        dqn = DQNConfig(
            observation_size=vec.observation_size,
            num_actions=vec.num_actions,
        )
    elif (
        dqn.observation_size != vec.observation_size
        or dqn.num_actions != vec.num_actions
    ):
        raise TrainingError(
            "DQN geometry does not match the environment: expected "
            f"obs={vec.observation_size}, actions={vec.num_actions}"
        )
    agents = [DQNAgent(dqn, seed=derive(s, "train-agent")) for s in seed_list]
    stack = _StackedMLP(agents)

    n = len(seed_list)
    rewards: list[list[float]] = [[] for _ in range(n)]
    losses: list[list[float]] = [[] for _ in range(n)]
    converged = [False] * n
    episodes_run = [0] * n
    steps = [0] * n
    # Seeds still training, as indices into the original order. The stacked
    # tensors and ``vec`` always cover exactly these, in this order.
    active = list(range(n))
    # Warm-up transitions are buffered per agent and written with one
    # push_many when warm-up ends or the seed's run does (no sampling
    # happens during warm-up, so the deferred write is unobservable).
    pending: list[list[tuple]] = [[] for _ in range(n)]
    warmed_up = False

    def flush(i: int) -> None:
        rows = pending[i]
        if rows:
            agents[i].replay.push_many(
                np.stack([r[0] for r in rows]),
                np.array([r[1] for r in rows]),
                np.array([r[2] for r in rows]),
                np.stack([r[3] for r in rows]),
            )
            rows.clear()

    with obs_trace.span(
        "train/run",
        seeds=seed_list,
        episodes=trainer.episodes,
        steps_per_episode=trainer.steps_per_episode,
    ):
        METRICS.set("dqn.env_batch", n)
        telem = obs_telemetry.FlightRecorder(
            "dqn",
            labels={"batch": str(n), "seeds": ",".join(map(str, seed_list))},
        )
        for _ in range(trainer.episodes):
            live = [agents[i] for i in active]
            obs = vec.reset()
            ep_rewards = [0.0] * len(active)
            ep_losses: list[list[float]] = [[] for _ in active]
            for _ in range(trainer.steps_per_episode):
                actions = _batched_act(stack, live, obs)
                next_obs, step_rewards, _ = vec.step(actions)
                scaled = step_rewards * trainer.reward_scale
                if not warmed_up:
                    for pos, i in enumerate(active):
                        pending[i].append(
                            (obs[pos], int(actions[pos]), scaled[pos], next_obs[pos])
                        )
                    # Every replay buffer is empty until this flush, and
                    # DQNConfig keeps the warm-up within its capacity.
                    if len(pending[active[0]]) >= dqn.warmup_transitions:
                        for i in active:
                            flush(i)
                        warmed_up = True
                else:
                    for pos, agent in enumerate(live):
                        agent.replay.push(
                            obs[pos], int(actions[pos]), scaled[pos], next_obs[pos]
                        )
                for agent in live:
                    agent.env_steps += 1
                if warmed_up:
                    step_losses = _batched_train_step(stack, live)
                    for pos in range(len(active)):
                        ep_losses[pos].append(float(step_losses[pos]))
                obs = next_obs
                for pos in range(len(active)):
                    ep_rewards[pos] += float(step_rewards[pos])
                    steps[active[pos]] += 1

            finished = []
            for pos, i in enumerate(active):
                episodes_run[i] += 1
                rewards[i].append(ep_rewards[pos] / trainer.steps_per_episode)
                losses[i].append(
                    float(np.mean(ep_losses[pos])) if ep_losses[pos] else float("nan")
                )
                METRICS.inc("dqn.episodes")
                METRICS.set("dqn.epsilon", live[pos].epsilon)
                if ep_losses[pos]:
                    METRICS.observe("dqn.td_error", losses[i][-1])
                telem.tick(
                    episodes=1.0,
                    reward=rewards[i][-1],
                    loss=losses[i][-1] if ep_losses[pos] else 0.0,
                    epsilon=live[pos].epsilon,
                    env_steps=float(trainer.steps_per_episode),
                )
                obs_trace.event(
                    "dqn.episode",
                    seed=seed_list[i],
                    episode=episodes_run[i] - 1,
                    reward=rewards[i][-1],
                    loss=losses[i][-1],
                    epsilon=live[pos].epsilon,
                    replay=len(live[pos].replay) + len(pending[i]),
                    steps=steps[i],
                )
                if (
                    trainer.reward_goal is not None
                    and len(rewards[i]) >= trainer.goal_window
                ):
                    window = rewards[i][-trainer.goal_window :]
                    if float(np.mean(window)) >= trainer.reward_goal:
                        converged[i] = True
                        finished.append(pos)
            if finished:
                for pos in finished:
                    stack.write_back(pos, agents[active[pos]])
                keep = [p for p in range(len(active)) if p not in finished]
                active = [active[p] for p in keep]
                if not active:
                    break
                stack.compact(keep)
                vec = vec.select(keep)
        telem.flush()

    for pos, i in enumerate(active):
        stack.write_back(pos, agents[i])
    results = []
    for i in range(n):
        flush(i)
        agents[i].sync_target()
        results.append(
            TrainingResult(
                agent=agents[i],
                steps=steps[i],
                episodes=episodes_run[i],
                converged=converged[i],
                reward_history=np.array(rewards[i]),
                loss_history=np.array(losses[i]),
            )
        )
    return results


def _train_batch_task(spec: tuple) -> list:
    """One lock-step group of seeded training runs (pool-dispatchable)."""
    env_config, trainer, dqn, history_length, chunk = spec
    return train_dqn_batch(
        env_config,
        seeds=chunk,
        trainer=trainer,
        dqn=dqn,
        history_length=history_length,
    )


__all__ = [
    "resolve_env_batch",
    "VectorEnv",
    "PolicyStack",
    "POLICY_STACK_CACHE_LIMIT",
    "get_policy_stack",
    "clear_policy_stack_cache",
    "greedy_policy_actions",
    "train_dqn_batch",
]
