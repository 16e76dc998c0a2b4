"""Oracles the library is held to, kept out of ``src/``.

Nothing under ``src/`` imports this package; tests do, and so do the
speedup stages of ``benchmarks/bench_kernels.py`` (run from the repository
root as ``python -m pytest``, which puts the root on ``sys.path``).

* :mod:`tests.oracles.mdp` — the analytic-kernel environment and Howard
  policy iteration / Bellman residuals that the exact solver is checked
  against.
* :mod:`tests.oracles.qlearning` — model-free tabular Q-learning, the
  learner that must recover the value-iteration optimum.
* :mod:`tests.oracles.kernels` — the per-step loops each vectorised PHY
  kernel replaced, pinned bit-identical to it.
* :mod:`tests.oracles.rx` — the receive half of the PHY chains (frame
  encoding, chip-stream synchronisation, Wi-Fi/ZigBee demodulation) that
  the transmit paths round-trip through.
* :mod:`tests.oracles.channel` — the waveform-truth chip-flip rate the
  analytic capture model is held to.
* :mod:`tests.oracles.adversary` — a slot-clock jammer factory per
  adversary, for the slot-vs-field parity checks.
* :mod:`tests.oracles.training` — the serial DQN training chain (layer
  backward, Huber loss, Adam, one agent and one update at a time) that
  the lock-step trainer is pinned bit-identical to.
"""
