"""Policy storage and stacked inference for the decision service.

A :class:`PolicyStore` holds P trained policy networks validated to share
one geometry and answers "which action for this observation?" two ways:

* :meth:`decide_serial` — one ``network.predict`` per request, the
  reference path every batched answer must match bit-for-bit.
* :meth:`decide_batch` — one stacked forward for B requests that may
  reference any mix of the P policies. The per-request policies index the
  same :class:`repro.core.vecenv.PolicyStack` forward the field engine
  uses: the rows sharing a policy are scored together by one broadcast
  ``(rows, 1, in) @ (in, out)`` chain over that policy's 2-D weights, so
  each row applies exactly the 2-D operations of the serial path and no
  weights are gathered or copied per request.

The stack is built once and reused across calls; slices refresh
automatically when a source network's parameters mutate (tracked through
``Network.version``).
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.vecenv import PolicyStack
from repro.errors import ConfigurationError
from repro.nn.network import Network, mlp
from repro.nn.serialize import PolicyBundle, load_policy_bundle


def _bundle_geometry(
    bundle: PolicyBundle,
) -> tuple[int, tuple[int, ...], int]:
    """Infer (input, hiddens, output) MLP sizes from a bundle manifest.

    Artifacts written by :func:`repro.nn.serialize.save_parameters` for
    the paper's MLP carry alternating ``(in, out)`` weight and ``(out,)``
    bias shapes; anything else is not a loadable policy.
    """
    shapes = bundle.shapes
    path = bundle.paths[0]
    if len(shapes) < 4 or len(shapes) % 2 != 0:
        raise ConfigurationError(
            f"{path}: artifact does not describe an MLP policy "
            f"(expected alternating weight/bias shapes, got {list(shapes)})"
        )
    sizes: list[int] = []
    for i in range(0, len(shapes), 2):
        w, b = shapes[i], shapes[i + 1]
        if len(w) != 2 or len(b) != 1 or b[0] != w[1]:
            raise ConfigurationError(
                f"{path}: artifact does not describe an MLP policy "
                f"(layer {i // 2} has weight {w} and bias {b})"
            )
        if sizes and sizes[-1] != w[0]:
            raise ConfigurationError(
                f"{path}: artifact layers do not chain "
                f"(layer {i // 2} expects {w[0]} inputs after {sizes[-1]})"
            )
        if not sizes:
            sizes.append(int(w[0]))
        sizes.append(int(w[1]))
    return sizes[0], tuple(sizes[1:-1]), sizes[-1]


class PolicyStore:
    """P homogeneous policy networks behind one stacked inference handle."""

    def __init__(
        self, networks: list[Network], *, names: list[str] | None = None
    ) -> None:
        if not networks:
            raise ConfigurationError("a PolicyStore needs at least one policy")
        self.names = (
            list(names)
            if names is not None
            else [f"policy[{i}]" for i in range(len(networks))]
        )
        if len(self.names) != len(networks):
            raise ConfigurationError(
                f"{len(networks)} networks but {len(self.names)} names"
            )
        first = networks[0]
        reference = [p.shape for p in first.parameters]
        for name, net in zip(self.names[1:], networks[1:]):
            shapes = [p.shape for p in net.parameters]
            if shapes != reference:
                raise ConfigurationError(
                    f"{name}: policy geometry {shapes} does not match "
                    f"{self.names[0]} geometry {reference}"
                )
        self.networks = list(networks)
        self._stack = PolicyStack(self.networks)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_artifacts(cls, paths: list[str | os.PathLike]) -> "PolicyStore":
        """Load artifacts saved by ``nn.serialize.save_parameters``.

        Geometry is cross-validated by
        :func:`~repro.nn.serialize.load_policy_bundle` before anything is
        stacked, so a mismatched artifact fails fast with its path.
        """
        bundle = load_policy_bundle(paths)
        input_size, hiddens, output_size = _bundle_geometry(bundle)
        networks = []
        for i in range(len(bundle)):
            net = mlp(input_size, hiddens, output_size, seed=0)
            bundle.load_into(i, net)
            networks.append(net)
        return cls(networks, names=list(bundle.paths))

    # -- geometry --------------------------------------------------------------

    @property
    def num_policies(self) -> int:
        return len(self.networks)

    @property
    def observation_size(self) -> int:
        return self._stack.observation_size

    @property
    def num_actions(self) -> int:
        return self._stack.num_actions

    # -- inference -------------------------------------------------------------

    def _check_policy(self, policy: int) -> int:
        policy = int(policy)
        if not 0 <= policy < len(self.networks):
            raise ConfigurationError(
                f"policy index {policy} outside store of {len(self.networks)}"
            )
        return policy

    def decide_serial(self, policy: int, observation: np.ndarray) -> int:
        """Reference path: one greedy action from one 2-D forward."""
        policy = self._check_policy(policy)
        observation = np.asarray(observation, dtype=np.float64).reshape(-1)
        if observation.size != self.observation_size:
            raise ConfigurationError(
                f"expected {self.observation_size} observation features, "
                f"got {observation.size}"
            )
        q = self.networks[policy].predict(observation)
        return int(np.argmax(q))

    def decide_batch(
        self, policies: np.ndarray, observations: np.ndarray
    ) -> np.ndarray:
        """Greedy actions for B requests in one stacked forward pass.

        ``policies[i]`` selects the store entry scoring row i of
        ``observations`` (B, obs). Bit-identical to calling
        :meth:`decide_serial` per row (see
        :meth:`repro.core.vecenv.PolicyStack.forward`).
        """
        policies = np.asarray(policies, dtype=np.intp).reshape(-1)
        observations = np.asarray(observations, dtype=np.float64)
        if observations.ndim != 2 or observations.shape != (
            policies.size,
            self.observation_size,
        ):
            raise ConfigurationError(
                f"expected observations of shape "
                f"({policies.size}, {self.observation_size}), "
                f"got {observations.shape}"
            )
        if policies.size and (
            policies.min() < 0 or policies.max() >= len(self.networks)
        ):
            raise ConfigurationError(
                f"policy indices must lie in [0, {len(self.networks)}), "
                f"got range [{policies.min()}, {policies.max()}]"
            )
        return self._stack.greedy_actions(observations, policies)


__all__ = ["PolicyStore"]
