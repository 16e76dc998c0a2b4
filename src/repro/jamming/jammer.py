"""The sweep/camp jammer core and the two clocks that drive every core.

Each adversary is one per-decision *core*: given the victim's channel,
``decide`` returns the block the jammer transmits on, or ``None`` for an
idle or re-acquiring decision. The core owns the camping, strategy and
counter state. :class:`SweepCore` is the paper's proactive jammer —
sweep the next unvisited block of ZigBee channels, camp on the victim,
spend a decision re-acquiring a lost victim — and the harder cores of
:mod:`repro.jamming.adversary` subclass it. Two thin clocks drive a core:

* :class:`FieldJammer` runs on its own clock for the field simulator:
  every ``slot_duration_s`` it makes one decision. Fig. 11(b) varies
  this duration against a fixed victim slot to show both faster *and*
  slower jammers degrade the defence differently.
* :class:`SlotJammer` makes one decision per victim slot for
  :class:`~repro.core.envs.SweepJammingEnv`.

The clocks differ in three rules only:

* **Block geometry.** The slot clock splits the channels into the MDP's
  ``sweep_cycle`` blocks, the field clock into ``ceil(C/jam_width)``;
  both are a block count passed to :func:`split_blocks`.
* **Power draws.** The slot clock draws a power level only when the
  attack hits the victim; the field clock on every transmission.
* **Duty/latency gate.** The slot clock works in whole slots: a burst
  counts only if the post-latency transmission covers half the slot,
  and the duty bucket holds one slot, refilled every slot. The field
  clock works in seconds: a burst starts ``response_latency_s`` late
  and costs ``slot_duration_s - latency`` from a bucket refilled lazily
  at each transmission. The two refills round differently, so each
  clock keeps its own arithmetic.

The adversary model is pluggable (:attr:`FieldJammerConfig.adversary`):
beyond the paper's proactive sweep/camp jammer this module carries the
*configs* for the harder adversaries — a reactive jammer with a
sense→classify→transmit budget (:class:`ReactiveJammerConfig`) and a
follower that chases hops with a lag (:class:`FollowerJammerConfig`).

Clock contract
--------------

:meth:`FieldJammer.attack_profile` advances a monotone clock: every call
must start at or after the previous window's end (gaps are fine — the
jammer simply makes its next decision late). Handing it a window that
starts *before* the last advanced time would replay decisions against
stale ``_active_block``/``_next_decision`` state, so it raises
:class:`~repro.errors.ConfigurationError` instead, as it does for a
zero-length window or an out-of-range victim channel.
:meth:`FieldJammer.reset` rewinds the clock to zero along with all attack
state.

:class:`~repro.sim.shard.FieldJammerBank` keeps the same contract for N
jammers at once: one window for all of them, the same three errors. A
bank of more than one paper sweep jammer keeps their attack state in
arrays and builds no jammer objects.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro import knobs
from repro.constants import (
    DEFAULT_JAMMER_POWER_LEVELS,
    NUM_ZIGBEE_CHANNELS,
    ZIGBEE_CHANNELS_PER_WIFI,
)
from repro.core.mdp import JammerMode, MDPConfig
from repro.errors import ConfigurationError
from repro.jamming.strategies import RandomSweep, make_strategy, strategy_options
from repro.rng import SeedLike, make_rng

#: Adversary models :func:`repro.jamming.adversary.core_builder`
#: understands (``sweep``, ``reactive``, ``follower``, ``learning``).
#: ``sweep`` is the paper's proactive jammer.
ADVERSARIES = knobs.KNOBS["REPRO_ADVERSARIES"].choices

#: Tolerance for float jitter when validating the monotone clock.
_CLOCK_EPS = 1e-9


def split_blocks(num_channels: int, num_blocks: int) -> list[tuple[int, ...]]:
    """Split ``num_channels`` into ``num_blocks`` contiguous (near-)equal blocks."""
    return list(_split_blocks(num_channels, num_blocks))


@functools.cache
def _split_blocks(num_channels: int, num_blocks: int) -> tuple[tuple[int, ...], ...]:
    # One split per geometry: every jammer of a fleet asks for the same one.
    bounds = np.linspace(0, num_channels, num_blocks + 1).astype(int)
    blocks = tuple(tuple(range(bounds[i], bounds[i + 1])) for i in range(num_blocks))
    if any(len(b) == 0 for b in blocks):
        raise ConfigurationError(
            f"cannot split {num_channels} channels into "
            f"{num_blocks} non-empty sweep blocks"
        )
    return blocks


def channel_blocks(num_channels: int, jam_width: int) -> list[tuple[int, ...]]:
    """Partition ``num_channels`` into ``ceil(C/m)`` contiguous jam blocks."""
    return split_blocks(num_channels, -(-num_channels // jam_width))


def block_index(blocks: list[tuple[int, ...]], channel: int) -> int:
    """Index of the block containing ``channel``."""
    for i, block in enumerate(blocks):
        if channel in block:
            return i
    raise ConfigurationError(f"channel {channel} is in no block")


def draw_power(
    rng: np.random.Generator, levels: tuple[float, ...], mode: str
) -> float:
    """A jamming power level: the strongest in ``max`` mode, else uniform."""
    if mode == JammerMode.MAX:
        return levels[-1]
    return levels[int(rng.integers(len(levels)))]


@dataclass(frozen=True)
class ReactiveJammerConfig:
    """Sense→classify→transmit budget of a reactive jammer.

    The defaults describe an *ideal* reactive jammer — perfect detection,
    zero turnaround, unbounded duty cycle — which behaves bit-for-bit like
    the paper's proactive sweep/camp jammer (the acquisition sweep still
    transmits, per ``transmit_on_sweep``). Every knob away from the
    defaults weakens or sharpens it:

    * ``sensitivity_dbm`` / ``victim_rx_dbm`` — the energy-detection
      threshold and how loud the victim appears at the jammer. A victim
      below the threshold is never classified, so the jammer never camps.
    * ``detection_probability`` — per-sense chance that an audible victim
      in the sensed block is actually noticed.
    * ``response_latency_s`` — sensing + classification + TX turnaround
      paid at the start of every attacking decision, shaving that much off
      each jamming burst.
    * ``duty_cycle`` — transmit-time budget as a fraction of wall time
      (token bucket, one jammer slot of burst capacity). Exhausted budget
      forces idle decisions — the resource deception defences drain.
    * ``eavesdrop_probability`` — chance of overhearing the FH negotiation
      when the victim escapes (the ACK side-channel), re-acquiring the new
      block without sweeping for it.
    * ``decoy_discrimination`` — per-sense chance of unmasking a decoy
      transmission; below 1.0 the jammer can be baited into camping on
      (and burning duty against) a decoy's block.
    * ``transmit_on_sweep`` — ``True`` is the paper's sweep-and-jam
      acquisition; ``False`` is a classic sense-only reactive jammer that
      transmits nothing until it has classified a target.
    """

    sensitivity_dbm: float = -85.0
    victim_rx_dbm: float = -60.0
    detection_probability: float = 1.0
    response_latency_s: float = 0.0
    duty_cycle: float = 1.0
    eavesdrop_probability: float = 0.0
    decoy_discrimination: float = 0.0
    transmit_on_sweep: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.detection_probability <= 1.0:
            raise ConfigurationError("detection probability must be in [0, 1]")
        if self.response_latency_s < 0.0:
            raise ConfigurationError("response latency cannot be negative")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ConfigurationError("duty cycle must lie in (0, 1]")
        if not 0.0 <= self.eavesdrop_probability <= 1.0:
            raise ConfigurationError("eavesdrop probability must be in [0, 1]")
        if not 0.0 <= self.decoy_discrimination <= 1.0:
            raise ConfigurationError("decoy discrimination must be in [0, 1]")


@dataclass(frozen=True)
class FollowerJammerConfig:
    """A follower jammer chasing the victim's hops with a processing lag.

    Each jammer slot it wideband-senses the victim's current channel (if
    audible above ``sensitivity_dbm``) and attacks the block the victim
    occupied ``lag_slots`` decisions ago. ``lag_slots=0`` is a perfect
    follower; against per-slot FHSS a lag of 1 only connects when the
    victim *stays*.
    """

    lag_slots: int = 1
    sensitivity_dbm: float = -85.0
    victim_rx_dbm: float = -60.0

    def __post_init__(self) -> None:
        if self.lag_slots < 0:
            raise ConfigurationError("follower lag cannot be negative")


@dataclass(frozen=True)
class FieldJammerConfig:
    """Parameters of the time-domain jammer."""

    slot_duration_s: float = 3.0
    num_channels: int = NUM_ZIGBEE_CHANNELS
    jam_width: int = ZIGBEE_CHANNELS_PER_WIFI
    power_levels: tuple[float, ...] = DEFAULT_JAMMER_POWER_LEVELS
    mode: str = JammerMode.MAX
    #: Which adversary's core drives the clock (see :data:`ADVERSARIES`).
    adversary: str = "sweep"
    #: Sweep-order strategy name (see :func:`repro.jamming.strategies.make_strategy`).
    sweep_strategy: str = "random"
    #: Extra strategy options as (name, value) pairs — kept as a tuple so
    #: the config stays frozen/hashable/picklable for shard dispatch.
    strategy_options: tuple[tuple[str, object], ...] = ()
    reactive: ReactiveJammerConfig | None = None
    follower: FollowerJammerConfig | None = None
    #: Trained jammer DQN for ``adversary="learning"`` (self-play output).
    learning_agent: object | None = None

    def __post_init__(self) -> None:
        if self.slot_duration_s <= 0:
            raise ConfigurationError("jammer slot duration must be positive")
        if not 1 <= self.jam_width <= self.num_channels:
            raise ConfigurationError("jam width out of range")
        if not self.power_levels:
            raise ConfigurationError("jammer needs at least one power level")
        if self.mode not in JammerMode.ALL:
            raise ConfigurationError(f"unknown jammer mode {self.mode!r}")
        if self.adversary not in ADVERSARIES:
            raise ConfigurationError(
                f"unknown adversary {self.adversary!r}; expected one of "
                f"{ADVERSARIES}"
            )

    @property
    def num_blocks(self) -> int:
        return -(-self.num_channels // self.jam_width)


@dataclass(frozen=True)
class AttackProfile:
    """What the jammer did to a victim's slot window."""

    jammed_fraction: float  # fraction of the window under attack
    attempted: bool  # any overlap between attack and window
    max_power: float  # strongest jamming level seen in the window

    @property
    def clean(self) -> bool:
        return not self.attempted


class SweepCore:
    """The paper's sweep/camp jammer (§II-C), one decision at a time.

    Sweeps blocks in the strategy's order — the default
    :class:`~repro.jamming.strategies.RandomSweep` is the paper's uniform
    without-replacement search, drawing on ``rng`` — camps on the
    victim's block once found, and spends one decision re-acquiring when
    the victim escapes. ``rng`` is the jammer's stream; the clocks draw
    its power levels from it too.

    The harder adversaries of :mod:`repro.jamming.adversary` subclass it
    and override :meth:`decide`.
    """

    #: The duty/latency gate both clocks apply: the paper's jammer turns
    #: around instantly and may transmit at every decision.
    response_latency_s = 0.0
    duty_cycle = 1.0

    def __init__(
        self,
        num_channels: int,
        num_blocks: int,
        rng: np.random.Generator,
        strategy=None,
    ) -> None:
        self.num_channels = num_channels
        self.blocks: list[tuple[int, ...]] = split_blocks(num_channels, num_blocks)
        self.rng = rng
        self.strategy = strategy or RandomSweep(num_blocks, seed=rng)
        if self.strategy.num_blocks != num_blocks:
            raise ConfigurationError(
                f"strategy expects {self.strategy.num_blocks} blocks; "
                f"geometry has {num_blocks}"
            )
        self._counters: dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        """Restart the search; the counters survive."""
        self.strategy.reset()
        self.camping: int | None = None

    def block_of(self, channel: int) -> int:
        """Index of the jam block containing ``channel``."""
        return block_index(self.blocks, channel)

    # -- instrumentation ---------------------------------------------------------

    def count(self, key: str, amount: float = 1.0) -> None:
        """Bump a local adversary counter (flushed via :meth:`drain_counters`)."""
        self._counters[key] = self._counters.get(key, 0.0) + amount

    def drain_counters(self) -> dict[str, float]:
        """Return and clear the adversary counters accumulated so far."""
        counters = self._counters
        self._counters = {}
        return counters

    # -- decision making --------------------------------------------------------

    def observe_decoy(self, channel: int | None) -> None:
        """Note a decoy transmission heard before the next decision.

        The proactive jammer never senses, so this is a no-op; the
        reactive core can be baited by it. ``None`` clears any prior decoy.
        """

    def decide(self, victim_channel: int) -> tuple[int, ...] | None:
        """The block to transmit on this decision, or ``None`` to idle."""
        if self.camping is not None:
            block = self.blocks[self.camping]
            if victim_channel in block:
                return block
            # Victim escaped: burn this decision re-acquiring; the
            # strategy learns which stale block to exclude from the next
            # sweep.
            stale = self.camping
            self.camping = None
            self.strategy.notify_lost(stale)
            return None
        pick = self.strategy.next_block()
        block = self.blocks[pick]
        if victim_channel in block:
            self.camping = pick
            self.strategy.notify_found(pick)
        return block


class FieldJammer:
    """A jammer core advanced lazily along the time axis.

    One core decision every ``config.slot_duration_s``. The core is
    ``config.adversary``'s (the paper's :class:`SweepCore` by default;
    see :mod:`repro.jamming.adversary`) and the sweep order is pluggable
    (see :mod:`repro.jamming.strategies`). The window/segment accounting
    (including attacks that start mid-decision via ``_active_from``) and
    the field clock's power and duty/latency rules live here.
    """

    def __init__(
        self,
        config: FieldJammerConfig | None = None,
        *,
        seed: SeedLike = None,
        strategy=None,
    ) -> None:
        # Deferred: the adversary module, home of the cores, imports this one.
        from repro.jamming.adversary import core_builder

        self.config = cfg = config or FieldJammerConfig()
        rng = make_rng(seed)
        if strategy is None:
            # The default strategy shares the jammer's rng stream (the
            # paper's jammer interleaves sweep and power draws on one
            # source); seedless strategies just don't get one.
            seeded = "seed" in strategy_options(cfg.sweep_strategy)
            strategy = make_strategy(
                cfg.sweep_strategy,
                cfg.num_blocks,
                seed=rng if seeded else None,
                **dict(cfg.strategy_options),
            )
        build = core_builder(
            cfg.adversary,
            reactive=cfg.reactive,
            follower=cfg.follower,
            agent=cfg.learning_agent,
        )
        self.core = build(cfg.num_channels, cfg.num_blocks, rng, strategy)
        self.reset()

    def reset(self) -> None:
        """Restart the search and rewind the clock to time zero."""
        self.core.reset()
        self._active_block: tuple[int, ...] = ()
        self._active_power: float = 0.0
        self._active_from: float = 0.0
        self._next_decision: float = 0.0
        self._clock: float = 0.0
        # Duty token bucket: one jammer slot of burst capacity, refilled
        # at ``duty_cycle`` seconds of TX per second of wall time.
        self._budget = self.config.slot_duration_s
        self._budget_mark = 0.0

    @property
    def duty_tokens(self) -> float:
        """Remaining transmit budget in seconds (the duty token bucket's level)."""
        return self._budget

    def drain_counters(self) -> dict[str, float]:
        """Return and clear the adversary counters accumulated so far.

        Counters are process-local and survive :meth:`reset` — the field
        engines drain them once per run into the metrics registry under
        ``jam.<key>{adversary=...}`` labels. The sweep jammer counts
        nothing; the other cores record lock/loss transitions and decoy
        baits, and this clock records duty spend/starvation.
        """
        return self.core.drain_counters()

    def observe_decoy(self, channel: int | None) -> None:
        """Note a decoy transmission heard during the coming window."""
        self.core.observe_decoy(channel)

    # -- decision making --------------------------------------------------------

    def _decide(self, t: float, victim_channel: int) -> None:
        """One jammer slot's decision given where the victim currently is."""
        block = self.core.decide(victim_channel)
        if block is None:
            self._idle(t)
        else:
            self._transmit(t, block)

    def _transmit(self, t: float, block: tuple[int, ...]) -> None:
        """Attack ``block`` from ``t`` if the duty-cycle budget allows.

        Every transmission draws its power level. The burst starts after
        the core's response latency; a duty-limited core pays the rest of
        the jammer slot from the bucket, refilled lazily up to ``t``.
        """
        core = self.core
        slot_s = self.config.slot_duration_s
        if core.duty_cycle < 1.0:
            self._budget = min(
                slot_s, self._budget + (t - self._budget_mark) * core.duty_cycle
            )
            self._budget_mark = t
            cost = max(slot_s - core.response_latency_s, 0.0)
            if self._budget + 1e-12 < cost:
                core.count("duty_starved")
                self._idle(t)  # budget exhausted: sit this decision out
                return
            self._budget -= cost
            core.count("duty_spent_s", cost)
        self._active_block = block
        self._active_power = draw_power(
            core.rng, self.config.power_levels, self.config.mode
        )
        self._active_from = t + core.response_latency_s

    def _idle(self, t: float) -> None:
        """Transmit nothing for this decision."""
        self._active_block = ()
        self._active_power = 0.0
        self._active_from = t

    # -- querying ------------------------------------------------------------------

    def attack_profile(
        self, window_start: float, window_end: float, victim_channel: int
    ) -> AttackProfile:
        """Advance the jammer across ``[window_start, window_end)``.

        The victim's channel is constant over the window (one victim slot).
        Returns how much of the window was attacked and at what power.

        Windows must move forward in time: ``window_start`` may not fall
        before the end of the last advanced window (see the module's clock
        contract). Use :meth:`reset` to rewind to time zero.
        """
        if window_end <= window_start:
            raise ConfigurationError("window must have positive length")
        if window_start < self._clock - _CLOCK_EPS:
            raise ConfigurationError(
                f"window starting at {window_start} begins before the jammer "
                f"clock ({self._clock}); attack_profile windows must be "
                "monotone — call reset() to rewind to time zero"
            )
        if not 0 <= victim_channel < self.config.num_channels:
            raise ConfigurationError(f"victim channel {victim_channel} out of range")
        t = window_start
        jammed = 0.0
        attempted = False
        max_power = 0.0
        while t < window_end:
            if t >= self._next_decision:
                self._decide(t, victim_channel)
                self._next_decision = (
                    max(t, self._next_decision) + self.config.slot_duration_s
                )
            seg_end = min(window_end, self._next_decision)
            if victim_channel in self._active_block and self._active_power > 0:
                covered = seg_end - max(t, self._active_from)
                if covered > 0:
                    attempted = True
                    jammed += covered
                    max_power = max(max_power, self._active_power)
            t = seg_end
        self._clock = window_end
        return AttackProfile(
            jammed_fraction=jammed / (window_end - window_start),
            attempted=attempted,
            max_power=max_power,
        )

    @property
    def active_channels(self) -> tuple[int, ...]:
        """Channels under attack as of the last window advanced.

        Empty before the first :meth:`attack_profile` call and while the
        jammer is burning a slot re-acquiring a lost victim (or, for a
        latency-bound reactive jammer, before its turnaround completes).
        """
        attacking = self._active_power > 0 and self._active_from < self._clock
        return self._active_block if attacking else ()

    def is_attacking(self, channel: int) -> bool:
        """Whether ``channel`` sits inside the currently active attack block.

        Reflects the jammer's state as of the last window advanced by
        :meth:`attack_profile` — the query the field engines use to decide
        whether a hop vacated an attacked channel.
        """
        if not 0 <= channel < self.config.num_channels:
            raise ConfigurationError(f"channel {channel} out of range")
        return channel in self.active_channels


class SlotJammer:
    """A jammer core stepped once per victim slot.

    :class:`~repro.core.envs.SweepJammingEnv` calls
    :meth:`observe_and_attack` once per slot, and the core's blocks split
    the MDP's channels into ``sweep_cycle`` blocks. A power level is
    drawn only when the attack hits the victim. A latency-bound core's
    burst counts as a slot attack only when the post-latency transmission
    still covers at least half the slot (the field engine's
    ``jam_state_threshold``, collapsed to the binary slot world;
    ``slot_duration_s`` converts the time-domain latency knob). A
    duty-limited core pays one slot per burst from a bucket of one slot,
    refilled by ``duty_cycle`` at the start of every slot.
    """

    def __init__(
        self, config: MDPConfig, core: SweepCore, *, slot_duration_s: float = 3.0
    ) -> None:
        if slot_duration_s <= 0:
            raise ConfigurationError("slot duration must be positive")
        self.config = config
        self.core = core
        self._effective = core.response_latency_s < 0.5 * slot_duration_s
        self.reset()

    def reset(self) -> None:
        self.core.reset()
        self._budget = 1.0  # slots of burst capacity

    def observe_decoy(self, channel: int | None) -> None:
        """Note a decoy transmission heard before the next slot."""
        self.core.observe_decoy(channel)

    def drain_counters(self) -> dict[str, float]:
        """Return and clear the adversary counters accumulated so far."""
        return self.core.drain_counters()

    def observe_and_attack(
        self, victim_channel: int
    ) -> tuple[bool, float, tuple[int, ...]]:
        """Advance the jammer one slot.

        Returns ``(attacked, jam_power, attacked_channels)`` where
        ``attacked`` says whether the victim's channel was inside the
        attacked block this slot (an empty tuple means the jammer sent
        nothing: it spent the slot re-acquiring, idled, or was gated).
        """
        core = self.core
        if core.duty_cycle < 1.0:
            self._budget = min(1.0, self._budget + core.duty_cycle)
        block = core.decide(victim_channel)
        if block is None or not self._effective:
            return False, 0.0, ()
        if core.duty_cycle < 1.0:
            if self._budget + 1e-12 < 1.0:
                core.count("duty_starved")
                return False, 0.0, ()
            self._budget -= 1.0
            core.count("duty_spent_slots")
        if victim_channel not in block:
            return False, 0.0, block
        cfg = self.config
        power = draw_power(core.rng, cfg.jammer_power_levels, cfg.jammer_mode)
        return True, power, block


__all__ = [
    "ADVERSARIES",
    "split_blocks",
    "channel_blocks",
    "block_index",
    "draw_power",
    "ReactiveJammerConfig",
    "FollowerJammerConfig",
    "FieldJammerConfig",
    "AttackProfile",
    "SweepCore",
    "FieldJammer",
    "SlotJammer",
]
