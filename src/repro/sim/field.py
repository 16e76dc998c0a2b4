"""The field-experiment simulator — paper §IV-D, Figs. 9–11.

Replaces the USRP/CC26X2R1 testbed: a hub runs an anti-jamming policy on
3-second time slots, polls its peripherals with the measured hardware
latencies, and streams data packets for the rest of each slot while a
time-domain cross-technology jammer sweeps and camps on its own cadence.
The output is the paper's headline unit: goodput in packets per time slot.

This module holds the field experiment's configuration, records and policy
adapters. The slot loop itself, and its telemetry window, live in
:mod:`repro.sim.shard`, shared by every field engine:
:class:`FieldExperiment` is a resumable one-network run of it, and
:class:`~repro.sim.shard.FieldGrid` runs it over N networks at once.
``FieldConfig.sampling`` chooses only how a slot negotiates and delivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.fidelity import resolve_channel_tier
from repro.core.dqn import DQNAgent
from repro.core.envs import history_row
from repro.core.mdp import MDPConfig, State
from repro.core.metrics import MetricSummary, SlotLog
from repro.errors import ConfigurationError
from repro.jamming.jammer import FieldJammerConfig, block_index, channel_blocks
from repro.net.timing import TimingModel
from repro.obs import trace as obs_trace
from repro.rng import SeedLike, make_rng
from repro.sim.engine import check_num_slots

#: Valid values of :attr:`FieldConfig.sampling`.
SAMPLING_MODES = ("packet", "aggregate")


class StatePolicyAdapter:
    """Drive the field network with an MDP-style (stay/hop × power) policy.

    ``hop_channels`` restricts hops to a hop set, the way embedded FH
    implementations cycle through a configured channel list. A small hop
    set is what makes a *slow* camping jammer dangerous — the victim keeps
    hopping back into the stale camped channel (paper Fig. 11(b)).
    A grid whose fleet shares one hop set draws the hops itself, on this
    adapter's stream (:class:`~repro.rng.BoundedDraws`).
    """

    def __init__(
        self,
        policy,
        config: MDPConfig,
        *,
        hop_channels: tuple[int, ...] | None = None,
        seed: SeedLike = None,
    ) -> None:
        self.policy = policy
        self.config = config
        self._rng = make_rng(seed)
        if hop_channels is not None:
            if len(set(hop_channels)) < 2:
                raise ConfigurationError(
                    f"hop_channels needs at least two distinct channels, "
                    f"got {tuple(hop_channels)}"
                )
            if any(not 0 <= c < config.num_channels for c in hop_channels):
                raise ConfigurationError("hop set channel out of range")
        self.hop_channels = hop_channels
        pool = hop_channels or tuple(range(config.num_channels))
        self.channel = int(pool[int(self._rng.integers(len(pool)))])

    def hop(self) -> int:
        """Draw the next channel from the hop set (excluding the current one)."""
        pool = self.hop_channels or tuple(range(self.config.num_channels))
        others = [c for c in pool if c != self.channel]
        self.channel = int(others[int(self._rng.integers(len(others)))])
        return self.channel

    def decide(self, last_state: State) -> tuple[int, int]:
        action = self.policy.action(last_state)
        if action.hop:
            self.hop()
        return self.channel, action.power_index

    def observe(self, state: State, channel: int, power_index: int) -> None:
        del state, channel, power_index  # stateless beyond current channel


class DQNPolicyAdapter:
    """Drive the field network with a trained DQN (greedy deployment).

    Maintains the 3·I history the agent was trained on in
    :class:`~repro.core.envs.SweepJammingEnv`, encoded by the same
    :func:`~repro.core.envs.history_row`. A grid keeps its fleet's
    histories itself, as one ring of slot symbols decoded through
    :func:`~repro.core.envs.history_rows`, and only reads this adapter's
    agent and initial history.
    """

    def __init__(
        self, agent: DQNAgent, config: MDPConfig, *, history_length: int = 5,
        seed: SeedLike = None,
    ) -> None:
        if agent.config.observation_size != 3 * history_length:
            raise ConfigurationError(
                f"agent expects {agent.config.observation_size} inputs; "
                f"history length {history_length} provides {3 * history_length}"
            )
        expected_actions = config.num_channels * config.num_power_levels
        if agent.config.num_actions != expected_actions:
            raise ConfigurationError(
                f"agent has {agent.config.num_actions} outputs; scenario "
                f"needs {expected_actions}"
            )
        self.agent = agent
        self.config = config
        self._rng = make_rng(seed)
        self.channel = int(self._rng.integers(config.num_channels))
        self._history: list[tuple[float, float, float]] = [
            history_row(1, self.channel, 0, config)
        ] * history_length

    def observation(self) -> np.ndarray:
        """The flat 3·I history vector the agent acts on."""
        return np.array(self._history, dtype=np.float64).reshape(-1)

    def apply(self, action: int) -> tuple[int, int]:
        """Commit a flat action index, returning (channel, power_index)."""
        channel, power_index = divmod(int(action), self.config.num_power_levels)
        self.channel = int(channel)
        return self.channel, int(power_index)

    def decide(self, last_state: State) -> tuple[int, int]:
        del last_state  # the DQN reads its own history instead
        return self.apply(self.agent.act(self.observation(), greedy=True))

    def observe(self, state: State, channel: int, power_index: int) -> None:
        self._history.pop(0)
        self._history.append(history_row(state, channel, power_index, self.config))


class DeceptionAdapter:
    """Deception defence: decoy transmissions that bait reactive jammers.

    Wraps any base adapter and, after each slot's real decision, emits one
    decoy burst on a channel in a *different* jam block (drawn from its own
    rng stream). A reactive jammer that cannot discriminate the decoy
    (``decoy_discrimination < 1``) camps on — and burns duty-cycle budget
    against — an empty block; the paper's proactive jammer ignores decoys
    entirely, so against it this baseline only pays the decoy airtime.

    * ``decoy_rate`` — probability of emitting a decoy each slot.
    * ``decoy_airtime_s`` — control-plane time the decoy costs the victim,
      added to the slot's negotiation overhead.
    """

    def __init__(
        self,
        base,
        config: MDPConfig,
        *,
        jam_width: int,
        decoy_rate: float = 1.0,
        decoy_airtime_s: float = 0.3,
        seed: SeedLike = None,
    ) -> None:
        if not 0.0 <= decoy_rate <= 1.0:
            raise ConfigurationError("decoy rate must be in [0, 1]")
        if decoy_airtime_s < 0.0:
            raise ConfigurationError("decoy airtime cannot be negative")
        self.base = base
        self.config = config
        self.decoy_rate = decoy_rate
        self.decoy_airtime_s = decoy_airtime_s
        self._blocks = channel_blocks(config.num_channels, jam_width)
        self._rng = make_rng(seed)
        self.active_decoy: int | None = None
        self._counters: dict[str, float] = {}

    #: Label value engines use when flushing this adapter's counters.
    scheme = "deception"

    @property
    def channel(self) -> int:
        return self.base.channel

    def drain_counters(self) -> dict[str, float]:
        """Return and clear the decoy-emission counters accumulated so far."""
        counters = self._counters
        self._counters = {}
        return counters

    def decide(self, last_state: State) -> tuple[int, int]:
        channel, power_index = self.base.decide(last_state)
        self.active_decoy = None
        if self._rng.random() < self.decoy_rate:
            own = block_index(self._blocks, channel)
            others = [
                c
                for i, block in enumerate(self._blocks)
                if i != own
                for c in block
            ]
            if others:
                self.active_decoy = int(
                    others[int(self._rng.integers(len(others)))]
                )
                self._counters["decoys"] = self._counters.get("decoys", 0.0) + 1
                self._counters["decoy_airtime_s"] = (
                    self._counters.get("decoy_airtime_s", 0.0)
                    + self.decoy_airtime_s
                )
        return channel, power_index

    def observe(self, state: State, channel: int, power_index: int) -> None:
        self.base.observe(state, channel, power_index)


@dataclass(frozen=True)
class FieldConfig:
    """Parameters of the field experiment."""

    tx_slot_duration_s: float = 3.0
    mdp: MDPConfig = field(default_factory=MDPConfig)
    jammer: FieldJammerConfig | None = field(default_factory=FieldJammerConfig)
    num_peripherals: int = 3
    timing: TimingModel = field(default_factory=TimingModel)
    #: A slot counts as jammed (state J) when at least this fraction of it
    #: was under winning jamming power.
    jam_state_threshold: float = 0.5
    #: How the data phase is priced. ``"packet"`` draws every packet's
    #: service time (the paper's exact loop); ``"aggregate"`` spends a fixed
    #: uniform budget per slot on a renewal-process approximation, which is
    #: what lets the grid engine batch thousands of networks per slot.
    sampling: str = "packet"
    #: Channel-fidelity tier of jam adjudication (``None`` reads
    #: ``REPRO_CHANNEL`` at construction; normalised to the tier name).
    channel: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "channel", resolve_channel_tier(self.channel))
        if self.tx_slot_duration_s <= 0:
            raise ConfigurationError("Tx slot duration must be positive")
        if self.num_peripherals < 1:
            raise ConfigurationError("need at least one peripheral")
        if not 0.0 < self.jam_state_threshold <= 1.0:
            raise ConfigurationError("jam state threshold must be in (0, 1]")
        if self.sampling not in SAMPLING_MODES:
            raise ConfigurationError(
                f"sampling must be one of {SAMPLING_MODES}, got {self.sampling!r}"
            )
        if (
            self.jammer is not None
            and self.jammer.num_channels != self.mdp.num_channels
        ):
            raise ConfigurationError(
                "jammer and MDP disagree on the number of channels"
            )


@dataclass(frozen=True)
class FieldSlotRecord:
    """Per-slot outcome of the field experiment."""

    slot: int
    channel: int
    power_index: int
    state: State
    packets_delivered: int
    packets_attempted: int
    negotiation_s: float
    utilization: float
    jammed_fraction: float


@dataclass(frozen=True)
class FieldResult:
    """Aggregate outcome of a field run."""

    slots: int
    goodput_pkts_per_slot: float
    utilization: float
    metrics: MetricSummary
    records: tuple[FieldSlotRecord, ...]


class FieldExperiment:
    """Run one anti-jamming scheme against the time-domain jammer.

    A resumable one-network run of the field slot loop
    (:class:`repro.sim.shard._ShardEngine`, which every field engine
    shares): each :meth:`run_experiment` call continues the clock, rng
    streams and accumulators where the previous call stopped.
    """

    def __init__(
        self,
        config: FieldConfig,
        adapter,
        *,
        seed: SeedLike = None,
        field_batch: int | None = None,
    ) -> None:
        # Imported here because repro.sim.shard builds on this module.
        from repro.sim.shard import _ShardEngine

        self.config = config
        self.adapter = adapter
        self._engine = _ShardEngine.solo(config, adapter, seed, field_batch)

    @property
    def records(self) -> list[FieldSlotRecord]:
        """Every slot's record, accumulated across :meth:`run_experiment` calls."""
        return self._engine.records[0]

    @property
    def log(self) -> SlotLog:
        """The metrics log accumulated over the experiment's lifetime."""
        return self._engine.slot_log(0)

    def run_experiment(self, num_slots: int) -> FieldResult:
        """Run ``num_slots`` more slots and summarise *this call's* window.

        The experiment object keeps simulating from where it left off:
        :attr:`records` and the metrics log accumulate across calls, but the
        returned :class:`FieldResult` aggregates only the slots this call
        produced.
        """
        num_slots = check_num_slots(num_slots)
        baseline = self.log
        with obs_trace.span("sim/run", sim=type(self).__name__, slots=num_slots):
            self._engine.advance(num_slots, slot_events=True)
        records = self.records[-num_slots:]
        goodput = sum(r.packets_delivered for r in records) / len(records)
        utilization = sum(r.utilization for r in records) / len(records)
        return FieldResult(
            slots=num_slots,
            goodput_pkts_per_slot=float(goodput),
            utilization=float(utilization),
            metrics=self.log.delta(baseline).summary(),
            records=tuple(records),
        )


__all__ = [
    "SAMPLING_MODES",
    "StatePolicyAdapter",
    "DQNPolicyAdapter",
    "DeceptionAdapter",
    "FieldConfig",
    "FieldSlotRecord",
    "FieldResult",
    "FieldExperiment",
]
