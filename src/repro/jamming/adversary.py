"""The adversarial jammer suite — harder attackers than the paper's.

The paper's threat model is a proactive sweep/camp jammer. Related work
(reactive jammers with a sense→classify→transmit budget, follower jammers
against FHSS, learning jammers, and deception defences that bait them)
motivates three further adversaries. Each adversary is one decision
core (see :mod:`repro.jamming.jammer`) that either clock can drive:

==============  ===========================  ==================================
adversary       decision core                configured by
==============  ===========================  ==================================
``sweep``       ``SweepCore`` (paper)        ``FieldJammerConfig`` alone
``reactive``    :class:`ReactiveCore`        ``ReactiveJammerConfig``
``follower``    :class:`FollowerCore`        ``FollowerJammerConfig``
``learning``    :class:`LearningCore`        a self-play jammer agent
==============  ===========================  ==================================

That table is ``_CORES``; :func:`core_builder` builds a core from it for
either clock. The field clock (:func:`make_field_jammer`) reads the
adversary and its options from its ``FieldJammerConfig``; on the slot
clock a :class:`~repro.jamming.jammer.SlotJammer` wraps the core a
``SweepJammingEnv`` ``jammer_factory`` builds.

An *ideal* reactive jammer (perfect detection, zero latency, unbounded
duty cycle — the :class:`~repro.jamming.jammer.ReactiveJammerConfig`
defaults) consumes the same rng draws and makes the same decisions as the
proactive jammer, so its episode traces are bit-for-bit identical — the
equivalence the test suite pins. Every non-default knob changes it in a
measurable, documented way.
"""

from __future__ import annotations

import functools
from collections import deque

import numpy as np

from repro.constants import DEFAULT_HISTORY_LENGTH
from repro.errors import ConfigurationError
from repro.jamming.detector import AckEavesdropper, EnergyDetector
from repro.jamming.jammer import (
    FieldJammer,
    FieldJammerConfig,
    FollowerJammerConfig,
    ReactiveJammerConfig,
    SweepCore,
)
from repro.rng import SeedLike, derive, make_rng


class JammerMemory:
    """The learning jammer's observation history — its side of the 3·I story.

    Per slot the jammer records ``(outcome, block, streak)``: whether its
    burst found the victim, which block it jammed (normalised), and how
    long the current contact streak has lasted (normalised by the block
    count). This is information a real jammer can obtain from its own
    energy sensing — it never sees the victim's internal state.
    """

    def __init__(
        self, num_blocks: int, history_length: int = DEFAULT_HISTORY_LENGTH
    ) -> None:
        if num_blocks < 1 or history_length < 1:
            raise ConfigurationError("need at least one block and history slot")
        self.num_blocks = num_blocks
        self.history_length = history_length
        self.reset()

    def reset(self) -> None:
        self._streak = 0
        self._history: list[tuple[float, float, float]] = [
            (0.0, 0.0, 0.0)
        ] * self.history_length

    def update(self, *, hit: bool, block: int) -> None:
        self._streak = self._streak + 1 if hit else 0
        self._history.pop(0)
        self._history.append(
            (
                1.0 if hit else 0.0,
                block / max(self.num_blocks - 1, 1),
                min(self._streak, self.num_blocks) / self.num_blocks,
            )
        )

    def observation(self) -> np.ndarray:
        return np.array(self._history, dtype=np.float64).reshape(-1)

    @property
    def observation_size(self) -> int:
        return 3 * self.history_length


def _check_learning_agent(agent, num_blocks: int, history_length: int) -> None:
    if agent is None:
        raise ConfigurationError(
            "the learning adversary needs a trained jammer agent "
            "(train one with repro.core.selfplay.train_selfplay)"
        )
    if agent.config.observation_size != 3 * history_length:
        raise ConfigurationError(
            f"jammer agent expects {agent.config.observation_size} inputs; "
            f"history length {history_length} provides {3 * history_length}"
        )
    if agent.config.num_actions != num_blocks:
        raise ConfigurationError(
            f"jammer agent has {agent.config.num_actions} outputs; geometry "
            f"has {num_blocks} blocks"
        )


# ---------------------------------------------------------------------------
# Decision cores
# ---------------------------------------------------------------------------


class ReactiveCore(SweepCore):
    """Sense→classify→transmit decisions of a reactive jammer.

    Each decision starts with a sensing pass over one block (the camped
    block, or the next sweep pick). A classified target is attacked; the
    response latency and the duty-cycle budget are the clocks' gate
    (:attr:`response_latency_s`, :attr:`duty_cycle`). Decoy transmissions
    (:class:`~repro.sim.field.DeceptionAdapter`) read as victims unless
    unmasked, baiting the jammer into camping on — and burning duty
    against — an empty block. Configured by
    :class:`~repro.jamming.jammer.ReactiveJammerConfig`.
    """

    def __init__(
        self,
        num_channels: int,
        num_blocks: int,
        rng: np.random.Generator,
        strategy=None,
        *,
        reactive: ReactiveJammerConfig | None = None,
    ) -> None:
        self.reactive = reactive or ReactiveJammerConfig()
        self.response_latency_s = self.reactive.response_latency_s
        self.duty_cycle = self.reactive.duty_cycle
        self._detector = EnergyDetector(self.reactive.sensitivity_dbm)
        super().__init__(num_channels, num_blocks, rng, strategy)

    def reset(self) -> None:
        super().reset()
        self._tip: int | None = None
        self._decoy: int | None = None
        self._camped_decoy = False
        # Lazily created so the ideal configuration consumes no extra
        # draws from the shared stream (bit-for-bit with SweepCore).
        self._sense_rng: np.random.Generator | None = None
        self._eavesdropper: AckEavesdropper | None = None

    def observe_decoy(self, channel: int | None) -> None:
        if channel is not None and not 0 <= channel < self.num_channels:
            raise ConfigurationError(f"decoy channel {channel} out of range")
        self._decoy = channel

    # -- sensing ---------------------------------------------------------------

    def _sense(self) -> np.random.Generator:
        if self._sense_rng is None:
            self._sense_rng = make_rng(int(self.rng.integers(2**63 - 1)))
        return self._sense_rng

    def _detects(self, victim_channel: int, block: tuple[int, ...]) -> bool:
        """Whether the sensing pass classifies the victim inside ``block``."""
        if victim_channel not in block:
            return False
        if not self._detector.detects(self.reactive.victim_rx_dbm):
            return False
        if self.reactive.detection_probability >= 1.0:
            return True
        return self._sense().random() < self.reactive.detection_probability

    def _lured(self, block: tuple[int, ...]) -> bool:
        """Whether a decoy in ``block`` passes for a victim this sense."""
        if self._decoy is None or self._decoy not in block:
            return False
        if self.reactive.decoy_discrimination <= 0.0:
            return True
        return self._sense().random() >= self.reactive.decoy_discrimination

    def _overhears_escape(self, victim_channel: int) -> None:
        """ACK/negotiation sniffing on escape: maybe learn the new block."""
        if self.reactive.eavesdrop_probability <= 0.0:
            return
        if self._eavesdropper is None:
            self._eavesdropper = AckEavesdropper(
                self.reactive.eavesdrop_probability,
                seed=derive(self._sense(), "reactive-eavesdrop"),
            )
        if self._eavesdropper.observe(True) is not None:
            self._tip = self.block_of(victim_channel)

    # -- decisions -------------------------------------------------------------

    def decide(self, victim_channel: int) -> tuple[int, ...] | None:
        if self.camping is not None:
            block = self.blocks[self.camping]
            if self._detects(victim_channel, block) or (
                self._camped_decoy and self._lured(block)
            ):
                return block
            # The camped signal vanished (victim hopped / decoy unmasked):
            # burn this decision noticing, maybe sniff where it went.
            stale = self.camping
            self.camping = None
            self._camped_decoy = False
            self.count("lock_losses")
            self.strategy.notify_lost(stale)
            self._overhears_escape(victim_channel)
            return None
        if self._tip is not None:
            pick, self._tip = self._tip, None
        else:
            pick = self.strategy.next_block()
        block = self.blocks[pick]
        detected = self._detects(victim_channel, block)
        lured = False if detected else self._lured(block)
        if detected or lured:
            self.camping = pick
            self._camped_decoy = lured
            self.count("locks")
            if lured:
                self.count("decoy_baits")
            self.strategy.notify_found(pick)
            return block
        # Sweep-and-jam acquisition transmits on the pick; a sense-only
        # jammer sends nothing until it has classified a target.
        return block if self.reactive.transmit_on_sweep else None


class FollowerCore(SweepCore):
    """Chases the victim's hops with a configurable processing lag.

    Wideband-senses the victim's channel every decision and attacks the
    block it occupied ``lag_slots`` decisions ago — the measurement →
    retune pipeline delay of follower jammers against FHSS. Idles until
    the trail is deep enough (or the victim is inaudible). Configured by
    :class:`~repro.jamming.jammer.FollowerJammerConfig`.
    """

    def __init__(
        self,
        num_channels: int,
        num_blocks: int,
        rng: np.random.Generator,
        strategy=None,
        *,
        follower: FollowerJammerConfig | None = None,
    ) -> None:
        self.follower = follower or FollowerJammerConfig()
        self._detector = EnergyDetector(self.follower.sensitivity_dbm)
        super().__init__(num_channels, num_blocks, rng, strategy)

    def reset(self) -> None:
        super().reset()
        self._trail: deque[int] = deque(maxlen=self.follower.lag_slots + 1)
        self._on_target = False

    def _mark_target(self, on_target: bool) -> None:
        """Count lock/loss transitions of the chase (trail hits victim)."""
        if on_target and not self._on_target:
            self.count("locks")
        elif not on_target and self._on_target:
            self.count("lock_losses")
        self._on_target = on_target

    def decide(self, victim_channel: int) -> tuple[int, ...] | None:
        fc = self.follower
        heard = self._detector.detects(fc.victim_rx_dbm)
        self._trail.append(victim_channel if heard else -1)
        if len(self._trail) <= fc.lag_slots:
            self._mark_target(False)
            return None
        target = self._trail[0]
        if target < 0:
            self._mark_target(False)
            return None
        block = self.blocks[self.block_of(target)]
        self._mark_target(victim_channel in block)
        return block


class LearningCore(SweepCore):
    """Deploys a self-play-trained jammer DQN greedily.

    Per decision it appends the previous burst's outcome to its
    :class:`JammerMemory`, runs one greedy forward pass, and jams the
    chosen block. Greedy action selection consumes no rng, so deployment
    stays deterministic under the jammer seed.
    """

    def __init__(
        self,
        num_channels: int,
        num_blocks: int,
        rng: np.random.Generator,
        strategy=None,
        *,
        agent,
        history_length: int = DEFAULT_HISTORY_LENGTH,
    ) -> None:
        _check_learning_agent(agent, num_blocks, history_length)
        self.agent = agent
        self.memory = JammerMemory(num_blocks, history_length)
        super().__init__(num_channels, num_blocks, rng, strategy)

    def reset(self) -> None:
        super().reset()
        self.memory.reset()

    def decide(self, victim_channel: int) -> tuple[int, ...]:
        action = int(self.agent.act(self.memory.observation(), greedy=True))
        block = self.blocks[action]
        self.memory.update(hit=victim_channel in block, block=action)
        return block


#: Each adversary's decision core and the clock options it takes.
_CORES = {
    "sweep": (SweepCore, ()),
    "reactive": (ReactiveCore, ("reactive",)),
    "follower": (FollowerCore, ("follower",)),
    "learning": (LearningCore, ("agent", "history_length")),
}


def core_builder(adversary: str, **options):
    """``adversary``'s core class bound to its own ``options``.

    A clock passes every option it has; each core keeps the ones it
    takes. Call the result as ``build(num_channels, num_blocks, rng,
    strategy=None)``.
    """
    if adversary not in _CORES:
        raise ConfigurationError(f"unknown adversary {adversary!r}")
    core, keys = _CORES[adversary]
    return functools.partial(core, **{k: options[k] for k in keys if k in options})


def make_field_jammer(
    config: FieldJammerConfig, *, seed: SeedLike = None, strategy=None
) -> FieldJammer:
    """Build one network's time-domain jammer (``config.adversary``'s core)."""
    return FieldJammer(config, seed=seed, strategy=strategy)


__all__ = [
    "JammerMemory",
    "ReactiveCore",
    "FollowerCore",
    "LearningCore",
    "core_builder",
    "make_field_jammer",
]
