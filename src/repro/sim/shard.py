"""The field slot loop, and the sharded grid of star networks built on it.

:class:`_ShardEngine` is the one field slot loop. It steps N coexisting
hub+peripheral networks in lock-step as tensor ops: decide → negotiate →
decoys → jam and adjudicate → label → deliver → account. The slot label
and reward come from :func:`repro.core.mdp.slot_transition` and
:func:`repro.core.mdp.slot_reward`, the kernel the MDP envs use too.
``FieldConfig.sampling`` chooses only how negotiation and delivery draw:
``aggregate`` spends a fixed uniform budget per slot (the fixed-draw
kernels of :mod:`repro.net`), ``packet`` runs the exact per-packet loop on
each network's own generator. :class:`~repro.sim.field.FieldExperiment`
is a resumable run of a one-network engine.

* :class:`FieldGrid` places N star networks at deterministic positions and
  runs the loop over them as arrays. Its :class:`FieldJammerBank` holds
  the paper's sweep jammers as one array state; table policies are probed
  once per state and hop through emulated draws on each adapter's stream
  (:class:`~repro.rng.BoundedDraws`); a :class:`DQNPolicyAdapter` fleet
  keeps its histories as one N × I ring of slot symbols and scores each
  distinct (policy, window) once per run through one greedy forward that
  stacks each distinct agent once. Every array path is bit-identical to
  stepping the objects. A solo :class:`FieldExperiment` steps its one
  jammer and its caller's adapter as objects.
* The field is partitioned into vertical strips (shards). Co-channel
  interference between neighbouring networks only affects *delivery*,
  never the control path (channel choice, jammer dynamics, rng streams),
  so each shard simulates its own networks plus a halo of border
  neighbours exactly and discards the halo's outputs — K-shard results are
  bitwise equal to 1-shard results, and shards dispatch across
  :class:`~repro.exec.ParallelRunner` workers worker-count-invariantly.
* A grid builds each shard once, on its first run (:class:`_ShardBuild`):
  the interference edges and PER grid, the seeded per-network streams
  and a default-factory table fleet that runs as arrays. Every later run
  rewinds the streams to their seeded state, so a run is still a pure
  function of the config, seed and slot count.
  A spec pickled for a pool worker carries an empty build, so pooled
  shards are built in their worker on every run.
* Aggregation streams: per-network counters accumulate slot by slot and
  per-slot records are retained only under ``keep_records=True``, so
  million-slot runs hold O(N) state. With ``REPRO_TELEM`` on, the
  engine's :class:`_FieldWindow` emits its own networks' ``field``
  telemetry frames from the deltas of those same counters, buffering
  only each slot's negotiation times and packets attempted.

Every network i derives its seeds from ``network_seed(seed, i)`` exactly
like a solo :class:`FieldExperiment` would, so any network in a grid can
be replayed alone bit-for-bit (absent interference).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from repro import knobs
from repro.channel.fidelity import JamAdjudicator, make_channel, resolve_channel_tier
from repro.channel.link import Interferer, JammerSignalType, LinkBudget
from repro.channel.propagation import LogDistancePathLoss
from repro.core.mdp import (
    J_CODE,
    TJ_CODE,
    JammerMode,
    MDPConfig,
    code_state,
    slot_reward,
    slot_transition,
)
from repro.core.envs import history_rows
from repro.core.metrics import MetricSummary, SlotLog
from repro.core.policy import TabularPolicy, ThresholdPolicy
from repro.core.vecenv import get_policy_stack, greedy_policy_actions
from repro.errors import ConfigurationError, SimulationError
from repro.exec.faults import TaskFailure
from repro.exec.runner import ParallelRunner
from repro.jamming.adversary import make_field_jammer
from repro.jamming.jammer import (
    _CLOCK_EPS,
    FieldJammer,
    FieldJammerConfig,
    channel_blocks,
)
from repro.net.goodput import AGGREGATE_DRAWS_PER_SLOT, GoodputModel
from repro.obs import telemetry as obs_telemetry
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS, drain_labelled_counters
from repro.rng import BoundedDraws, SeedLike, derive
from repro.sim.engine import check_num_slots, resolve_field_batch
from repro.sim.field import (
    DeceptionAdapter,
    DQNPolicyAdapter,
    FieldConfig,
    FieldSlotRecord,
    StatePolicyAdapter,
)
from repro.sim.scenario import SCHEMES, scheme_policy


def resolve_shards(value: int | str | None = None) -> int:
    """Resolve a shard count from an override or ``REPRO_SHARDS``.

    ``None`` (and an unset/empty environment) selects a single shard;
    ``auto`` matches the machine's core count. Any value produces
    bitwise-identical results — sharding is a pure performance knob.
    """
    return knobs.get("REPRO_SHARDS", value)


def network_seed(seed: SeedLike, index: int) -> int:
    """The integer seed network ``index`` of a grid derives everything from.

    A solo :class:`FieldExperiment` constructed with this seed consumes the
    exact rng streams the grid gives network ``index``.
    """
    return int(derive(seed, f"grid-net[{index}]").integers(0, 2**63 - 1))


def network_positions(
    seed: SeedLike, num_networks: int, width_m: float, height_m: float
) -> np.ndarray:
    """Deterministic (N, 2) hub positions, uniform over the field."""
    rng = derive(seed, "grid-positions")
    return rng.random((num_networks, 2)) * np.array([width_m, height_m])


@dataclass(frozen=True)
class InterferenceModel:
    """Co-channel coupling between neighbouring networks.

    Networks whose hubs sit within ``radius_m`` of each other and transmit
    on the same ZigBee channel degrade each other's delivery: the
    neighbour's hub is treated as a plain ZigBee interferer against this
    network's peripheral→hub link (length ``link_distance_m``). MDP power
    levels are interpreted as transmit dBm. Distances quantise to
    ``distance_bin_m`` bins so the PER grid stays small and shard-stable.
    """

    radius_m: float = 12.0
    link_distance_m: float = 3.0
    packet_octets: int = 60
    distance_bin_m: float = 0.5
    propagation: LogDistancePathLoss = field(default_factory=LogDistancePathLoss)
    #: Channel-fidelity tier of the co-channel PER grid (``None`` reads
    #: ``REPRO_CHANNEL`` at construction; normalised to the tier name).
    channel: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "channel", resolve_channel_tier(self.channel))
        if self.radius_m <= 0:
            raise ConfigurationError("interference radius must be positive")
        if self.link_distance_m <= 0:
            raise ConfigurationError("link distance must be positive")
        if self.packet_octets < 1:
            raise ConfigurationError("packet size must be at least one octet")
        if self.distance_bin_m <= 0:
            raise ConfigurationError("distance bin must be positive")


@dataclass(frozen=True)
class GridConfig:
    """Parameters of a multi-network field grid."""

    field: FieldConfig = field(
        default_factory=lambda: FieldConfig(sampling="aggregate")
    )
    num_networks: int = 16
    width_m: float = 100.0
    height_m: float = 100.0
    #: Baseline scheme driving every network when no factory is given.
    scheme: str = "optimal"
    #: Optional ``factory(mdp, net_seed) -> adapter`` override; must be
    #: picklable when shards are dispatched across pool workers.
    adapter_factory: object | None = None
    interference: InterferenceModel | None = None
    #: Retain per-slot records (O(N · slots) memory) instead of streaming.
    keep_records: bool = False

    def __post_init__(self) -> None:
        if self.num_networks < 1:
            raise ConfigurationError("grid needs at least one network")
        if self.width_m <= 0 or self.height_m <= 0:
            raise ConfigurationError("field dimensions must be positive")
        if self.adapter_factory is None and self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )


# The exact optimum is seed-independent and expensive (value iteration), so
# one solve per MDP geometry serves every network in every shard.
_OPTIMAL_POLICY_CACHE: dict[MDPConfig, TabularPolicy] = {}


@dataclass(frozen=True)
class SchemeAdapterFactory:
    """Default adapter factory: one baseline-scheme adapter per network."""

    scheme: str = "optimal"
    hop_channels: tuple[int, ...] | None = None

    def __call__(self, mdp: MDPConfig, net_seed: int):
        if self.scheme in ("optimal", "deception"):
            # Both run the (seed-independent) exact optimum underneath.
            policy = _OPTIMAL_POLICY_CACHE.get(mdp)
            if policy is None:
                policy = scheme_policy("optimal", mdp)
                _OPTIMAL_POLICY_CACHE[mdp] = policy
        else:
            policy = scheme_policy(
                self.scheme, mdp, seed=derive(net_seed, "grid-policy")
            )
        adapter = StatePolicyAdapter(
            policy,
            mdp,
            hop_channels=self.hop_channels,
            seed=derive(net_seed, "grid-adapter"),
        )
        if self.scheme == "deception":
            return DeceptionAdapter(
                adapter,
                mdp,
                jam_width=mdp.jam_width,
                seed=derive(net_seed, "grid-decoy"),
            )
        return adapter


class FieldJammerBank:
    """N per-network time-domain jammers, advanced as one batch query.

    Built from one jammer config and one stream per network. A bank of
    more than one paper jammer (the :class:`~repro.jamming.jammer.SweepCore`
    sweeping in :class:`~repro.jamming.strategies.RandomSweep` order on
    the jammer's own stream) runs as arrays started at time zero: the
    camping block (-1 for none), an N × S unvisited-block mask, the
    active block (-1 for none), its power and start, and the next
    decision time.
    :meth:`attack_profiles` runs :meth:`FieldJammer.attack_profile`'s
    decide/segment loop over all rows at once, and the sweep picks and
    power draws come from :class:`~repro.rng.BoundedDraws` on each
    stream, so every answer is bit-identical to stepping
    :func:`make_field_jammer` objects one at a time. The sweep jammer
    counts nothing and ignores decoys, so an array bank has neither.

    A bank of one, any other adversary or strategy, or a process whose
    :func:`~repro.rng.bounded_draws_exact` check fails, builds one
    jammer per stream and steps them one at a time instead: a lone
    jammer object steps faster than a row of arrays.
    """

    def __init__(
        self, config: FieldJammerConfig, generators: list[np.random.Generator]
    ) -> None:
        if not generators:
            raise ConfigurationError("a jammer bank needs at least one jammer")
        self._jammers: list[FieldJammer] | None = None
        self._draws: BoundedDraws | None = None
        paper = (
            config.adversary == "sweep"
            and config.sweep_strategy == "random"
            and not config.strategy_options
        )
        if len(generators) > 1 and paper and BoundedDraws.supports(generators):
            self._start_arrays(config, generators)
        else:
            self._jammers = [make_field_jammer(config, seed=g) for g in generators]

    def _start_arrays(
        self, cfg: FieldJammerConfig, generators: list[np.random.Generator]
    ) -> None:
        blocks = channel_blocks(cfg.num_channels, cfg.jam_width)
        self._slot_s = cfg.slot_duration_s
        self._levels = np.asarray(cfg.power_levels, dtype=np.float64)
        self._max_mode = cfg.mode == JammerMode.MAX
        self._block_of = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
        n = len(generators)
        self._camping = np.full(n, -1, dtype=np.intp)
        self._unvisited = np.zeros((n, len(blocks)), dtype=bool)
        self._active = np.full(n, -1, dtype=np.intp)
        self._power = np.zeros(n)
        self._from = np.zeros(n)
        self._next = np.zeros(n)
        self._clock = 0.0
        self._draws = BoundedDraws(generators)

    def observe_decoys(self, decoys: list) -> None:
        """Let each row's jammer hear its network's decoy channel (or ``None``)."""
        if self._jammers is not None:
            for jammer, decoy in zip(self._jammers, decoys):
                jammer.observe_decoy(decoy)

    def counters(self, row: int) -> FieldJammer | None:
        """Row ``row``'s counter holder (none in an array bank: sweeps count none)."""
        return None if self._jammers is None else self._jammers[row]

    def duty_tokens(self, rows) -> list[float]:
        """The listed rows' duty bucket levels in seconds (object banks only)."""
        return [float(self._jammers[int(k)].duty_tokens) for k in rows]

    def attack_profiles(
        self, window_start: float, window_end: float, victim_channels
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every jammer across the window against its own victim.

        Returns ``(jammed_fraction, attempted, max_power)`` arrays. The
        clock contract is :meth:`FieldJammer.attack_profile`'s.
        """
        if self._draws is not None:
            return self._attack_arrays(window_start, window_end, victim_channels)
        profiles = [
            jammer.attack_profile(window_start, window_end, int(channel))
            for jammer, channel in zip(self._jammers, victim_channels)
        ]
        return (
            np.array([p.jammed_fraction for p in profiles], dtype=np.float64),
            np.array([p.attempted for p in profiles], dtype=bool),
            np.array([p.max_power for p in profiles], dtype=np.float64),
        )

    def _attack_arrays(self, window_start, window_end, victim_channels):
        channels = np.asarray(victim_channels)
        if window_end <= window_start:
            raise ConfigurationError("window must have positive length")
        if window_start < self._clock - _CLOCK_EPS:
            raise ConfigurationError(
                f"window starting at {window_start} begins before the jammer "
                f"clock ({self._clock}); attack_profile windows must be "
                "monotone — call reset() to rewind to time zero"
            )
        bad = (channels < 0) | (channels >= len(self._block_of))
        if bad.any():
            raise ConfigurationError(
                f"victim channel {int(channels[bad][0])} out of range"
            )
        n = len(self._camping)
        victim = self._block_of[channels]
        t = np.full(n, float(window_start))
        jammed = np.zeros(n)
        attempted = np.zeros(n, dtype=bool)
        max_power = np.zeros(n)
        live = np.arange(n)
        while len(live):
            now = t[live]
            due = now >= self._next[live]
            if due.any():
                rows = live[due]
                self._decide(rows, now[due], victim[rows])
                self._next[rows] = np.maximum(now[due], self._next[rows]) + self._slot_s
            seg_end = np.minimum(window_end, self._next[live])
            covered = seg_end - np.maximum(now, self._from[live])
            hit = (
                (self._active[live] == victim[live])
                & (self._power[live] > 0)
                & (covered > 0)
            )
            if hit.any():
                rows = live[hit]
                attempted[rows] = True
                jammed[rows] += covered[hit]
                max_power[rows] = np.maximum(max_power[rows], self._power[rows])
            t[live] = seg_end
            live = live[seg_end < window_end]
        self._clock = window_end
        return jammed / (window_end - window_start), attempted, max_power

    def _decide(self, rows: np.ndarray, t: np.ndarray, victim: np.ndarray) -> None:
        """:meth:`SweepCore.decide` on the field clock, for ``rows`` at ``t``."""
        camp = self._camping[rows]
        camped = camp >= 0
        stay = camped & (camp == victim)
        lost = camped & ~stay
        if lost.any():
            # Victim escaped: burn this decision, restart the sweep
            # without the block it left (RandomSweep.notify_lost).
            gone = rows[lost]
            self._unvisited[gone] = True
            self._unvisited[gone, camp[lost]] = False
            self._camping[gone] = -1
            self._active[gone] = -1
            self._power[gone] = 0.0
            self._from[gone] = t[lost]
        self._active[rows[stay]] = camp[stay]
        search = rows[~camped]
        if len(search):
            # RandomSweep pops index i of its ascending unvisited list:
            # the i-th set bit of the row's mask (a fresh cycle if empty).
            mask = self._unvisited[search]
            mask[~mask.any(axis=1)] = True
            i = self._draws.integers(search, mask.sum(axis=1))
            pick = np.argmax(np.cumsum(mask, axis=1) > i[:, None], axis=1)
            mask[np.arange(len(search)), pick] = False
            self._unvisited[search] = mask
            self._active[search] = pick
            found = pick == victim[~camped]
            self._camping[search[found]] = pick[found]
        # Every attacking row draws its power after its sweep pick.
        attack = stay | ~camped
        rows = rows[attack]
        if self._max_mode:
            self._power[rows] = self._levels[-1]
        else:
            self._power[rows] = self._levels[
                self._draws.integers(rows, len(self._levels))
            ]
        self._from[rows] = t[attack]

    def attacking(self, networks, channels) -> np.ndarray:
        """Whether each listed network's jammer now attacks its paired channel."""
        if self._draws is None:
            return np.array(
                [
                    self._jammers[int(i)].is_attacking(int(c))
                    for i, c in zip(networks, channels)
                ],
                dtype=bool,
            )
        networks = np.asarray(networks, dtype=np.intp)
        channels = np.asarray(channels, dtype=np.intp)
        bad = (channels < 0) | (channels >= len(self._block_of))
        if bad.any():
            raise ConfigurationError(f"channel {int(channels[bad][0])} out of range")
        # A sweep decision starts inside the window it was made in, so
        # ``_active_from < clock`` (FieldJammer.active_channels) always holds.
        return (self._active[networks] == self._block_of[channels]) & (
            self._power[networks] > 0
        )


@dataclass(frozen=True, eq=False)
class GridResult:
    """Aggregate outcome of a grid run (arrays indexed by network)."""

    slots: int
    shards: int
    positions: np.ndarray
    goodput_pkts_per_slot: np.ndarray
    utilization: np.ndarray
    metrics: tuple[MetricSummary, ...]
    records: tuple[tuple[FieldSlotRecord, ...], ...] | None

    @property
    def num_networks(self) -> int:
        return len(self.metrics)

    @property
    def mean_goodput(self) -> float:
        return float(self.goodput_pkts_per_slot.mean())

    @property
    def mean_utilization(self) -> float:
        return float(self.utilization.mean())


@dataclass(frozen=True)
class _ShardSpec:
    """Everything one shard needs, shipped to a (possibly remote) worker."""

    config: GridConfig
    num_slots: int
    #: Stream refill size (``None`` reads ``REPRO_FIELD_BATCH`` on first use).
    field_batch: int | None
    shard_index: int
    #: Local→global index of every simulated network (own + halo), sorted.
    global_indices: tuple[int, ...]
    #: Local indices whose results this shard owns.
    own_local: tuple[int, ...]
    positions: np.ndarray
    net_seeds: tuple[SeedLike, ...]
    #: What the shard reuses across runs (``None``: the engine's own, fresh).
    build: _ShardBuild | None = None


class _InterferenceEngine:
    """Per-shard precomputed PER grid + per-slot victim factors.

    The edges are the undirected in-range pairs ``(a, b)``, ``a < b`` in
    local index, sorted by ``(a, b)``, with one distance bin per pair
    (``hypot`` is sign-symmetric, so it serves both directions). Each
    pair is two directed edges: source ``a`` into victim ``b`` and
    source ``b`` into victim ``a``. Local order is global order, because
    a shard's ``global_indices`` are sorted (they come from
    ``flatnonzero``), so the factors are identical in every shard
    decomposition.
    """

    def __init__(
        self,
        model: InterferenceModel,
        mdp: MDPConfig,
        positions: np.ndarray,
        global_indices: tuple[int, ...],
    ) -> None:
        self.num_local = len(global_indices)
        tx_dbm = np.asarray(mdp.tx_power_levels, dtype=np.float64)
        pairs = (
            cKDTree(positions).query_pairs(model.radius_m, output_type="ndarray")
            if self.num_local > 1
            else np.empty((0, 2), dtype=np.intp)
        )
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        self.a, self.b = pairs[:, 0], pairs[:, 1]
        # Pairs per source ``a``: ``repeat(c, count_per_a)`` is ``c[a]``.
        self.count_per_a = np.bincount(self.a, minlength=self.num_local)
        self.channel_dtype = np.min_scalar_type(mdp.num_channels - 1)
        dist = np.hypot(
            positions[self.a, 0] - positions[self.b, 0],
            positions[self.a, 1] - positions[self.b, 1],
        )
        self.bins = (dist // model.distance_bin_m).astype(np.intp)
        # PER of the victim's peripheral→hub link per (distance bin, source
        # power, victim power), computed once per bin in use.
        levels = len(tx_dbm)
        used = np.unique(self.bins) if len(self.bins) else np.empty(0, np.intp)
        max_bin = int(used.max()) + 1 if len(used) else 0
        self.per = np.zeros((max_bin, levels, levels))
        table = make_channel(
            model.channel, budget=LinkBudget(propagation=model.propagation)
        )
        signals = {
            pv: model.propagation.received_power_dbm(
                float(tx_dbm[pv]), model.link_distance_m
            )
            for pv in range(levels)
        }
        for b in used:
            centre = (float(b) + 0.5) * model.distance_bin_m
            for ps in range(levels):
                rx = model.propagation.received_power_dbm(
                    float(tx_dbm[ps]), centre
                )
                interferer = Interferer(
                    power_dbm=rx, signal_type=JammerSignalType.ZIGBEE
                )
                for pv in range(levels):
                    self.per[b, ps, pv] = table.packet_error_rate(
                        signals[pv], model.packet_octets, (interferer,)
                    )

    def factors(self, channels: np.ndarray, powers: np.ndarray) -> np.ndarray:
        """Per-network delivery factor ∏ (1 − PER) over co-channel edges.

        The co-channel test runs once per pair. Only co-channel pairs are
        multiplied in: every other edge would multiply by exactly 1.0.
        Each victim's factors go in by ascending source, as over all
        directed edges sorted by (victim, source): the first
        ``multiply.at`` brings in its sources below it, the second those
        above it, each ascending because the pairs are sorted by
        ``(a, b)``. So the products are bit-identical to that order.
        """
        out = np.ones(self.num_local)
        c = channels.astype(self.channel_dtype)
        co = np.flatnonzero(np.repeat(c, self.count_per_a) == c[self.b])
        if not len(co):
            return out
        a, b, bins = self.a[co], self.b[co], self.bins[co]
        pa, pb = powers[a], powers[b]
        np.multiply.at(out, b, 1.0 - self.per[bins, pa, pb])
        np.multiply.at(out, a, 1.0 - self.per[bins, pb, pa])
        return out


class _StreamMatrix:
    """Per-network uniform streams refilled block-wise as one matrix.

    Row i is a sequential prefix of ``rngs[i]``'s output for any block
    size: ``Generator.random(n)`` yields exactly the doubles ``n``
    sequential draws would, which is what makes ``REPRO_FIELD_BATCH``
    (``block_slots``, resolved by :func:`resolve_field_batch`) a pure
    performance knob. It serves the ``field`` streams (negotiation and
    delivery) and the ``field-channel`` streams (one jam-adjudication
    uniform per network per slot), which nothing else draws on.
    """

    def __init__(
        self,
        rngs: list[np.random.Generator],
        draws_per_slot: int,
        block_slots: int | str | None = None,
    ) -> None:
        if draws_per_slot < 1:
            raise ConfigurationError("draws_per_slot must be >= 1")
        self._rngs = rngs
        self._draws = int(draws_per_slot)
        self._block = resolve_field_batch(block_slots)
        self._buffer = np.empty((len(rngs), 0))
        self._cursor = 0

    def next_slots(self) -> np.ndarray:
        """(N, draws_per_slot) uniforms for the next slot."""
        if self._cursor >= self._buffer.shape[1]:
            self._buffer = np.empty((len(self._rngs), self._block * self._draws))
            for i, rng in enumerate(self._rngs):
                self._buffer[i] = rng.random(self._block * self._draws)
            self._cursor = 0
        out = self._buffer[:, self._cursor : self._cursor + self._draws]
        self._cursor += self._draws
        return out


class _ShardBuild:
    """What a shard builds on its first run and reuses on every later one.

    The engine that steps the shard fills it on first use: the co-channel
    edges and PER grid (``interference``, which a run only reads), the
    ``field``, ``field-jammer`` and ``field-channel`` generators with
    their states as derived, and a default-factory table fleet with its
    probed hop/power tables. Every later :meth:`streams` and
    :meth:`adapters` call restores each saved ``bit_generator.state``,
    which leaves a generator exactly as freshly derived at about a tenth
    of the cost. A pickled build is empty, since
    a generator takes longer to pickle than to derive: a pool worker
    builds its shard afresh.
    """

    def __init__(self) -> None:
        self.interference: _InterferenceEngine | None = None
        self.field: list[np.random.Generator] = []
        self.jammer: list[np.random.Generator] = []
        self.channel: list[np.random.Generator] | None = None
        self._states: list[dict] | None = None
        #: The kept table fleet, its hop/power tables and its rng states.
        self.fleet: list[StatePolicyAdapter] | None = None
        self.tables: tuple[np.ndarray, np.ndarray] | None = None
        self._fleet_states: list[dict] = []

    def __reduce__(self):
        return (_ShardBuild, ())

    def interference_for(self, spec: _ShardSpec) -> _InterferenceEngine | None:
        """The shard's co-channel coupling (``None`` when nothing couples)."""
        cfg = spec.config
        if (
            self.interference is None
            and cfg.interference is not None
            and len(spec.global_indices) > 1
        ):
            self.interference = _InterferenceEngine(
                cfg.interference, cfg.field.mdp, spec.positions, spec.global_indices
            )
        return self.interference

    def streams(self, spec: _ShardSpec, adjudicated: bool) -> None:
        """Put the shard's streams at their seeded state, deriving them once."""
        if self._states is not None:
            for generator, state in zip(self._generators(), self._states):
                generator.bit_generator.state = state
            return
        seeds = spec.net_seeds
        jammed = spec.config.field.jammer is not None
        # A solo engine's seed may be a caller's generator, which each
        # derive draws on: keep the order field, jammer, channel.
        self.field = [derive(s, "field") for s in seeds]
        self.jammer = [derive(s, "field-jammer") for s in seeds] if jammed else []
        if jammed and adjudicated:
            self.channel = [derive(s, "field-channel") for s in seeds]
        self._states = [g.bit_generator.state for g in self._generators()]

    def _generators(self) -> list[np.random.Generator]:
        return [*self.field, *self.jammer, *(self.channel or ())]

    def adapters(self, spec: _ShardSpec) -> list:
        """This run's fleet: the kept one rewound, else the factory's."""
        if self.fleet is None:
            factory = spec.config.adapter_factory or SchemeAdapterFactory(
                spec.config.scheme
            )
            mdp = spec.config.field.mdp
            return [factory(mdp, net_seed) for net_seed in spec.net_seeds]
        for adapter, state in zip(self.fleet, self._fleet_states):
            adapter._rng.bit_generator.state = state
        return self.fleet

    def keep_fleet(
        self, adapters: list | None, tables: tuple[np.ndarray, np.ndarray]
    ) -> None:
        """Keep a default-factory table fleet that runs as arrays.

        Such a run only reads its adapters' starting channels and draws
        their hops on their streams, so the fleet and its probed tables
        serve every run once the streams are saved, before the first
        draw. ``None`` drops the fleet: its adapters are stepped.
        """
        if adapters is None:
            self.fleet = self.tables = None
        elif self.fleet is None:
            self.fleet, self.tables = adapters, tables
            self._fleet_states = [a._rng.bit_generator.state for a in adapters]


def _probe_tables(adapters: list, mdp: MDPConfig) -> tuple[np.ndarray, np.ndarray]:
    """(N, states) hop flags and power indices of stateless table policies.

    Columns follow the state codes J, TJ, then streaks 1 .. sweep_cycle-1.
    A policy object several adapters share is probed once.
    """
    state_codes = [J_CODE, TJ_CODE, *range(1, mdp.sweep_cycle)]
    probed = {}
    for policy in (a.policy for a in adapters):
        if id(policy) not in probed:
            probed[id(policy)] = [
                (action.hop, action.power_index)
                for action in (policy.action(code_state(c)) for c in state_codes)
            ]
    table = np.array([probed[id(a.policy)] for a in adapters], dtype=np.intp)
    return table[..., 0].astype(bool), table[..., 1]


class _FieldWindow:
    """An engine's open telemetry window over its own networks.

    Halo replicas are never recorded (they would double-count). The
    window's outcome counts are deltas of the engine's Table-I
    accumulators since it opened (``jammed`` is slots − Δsuccesses); each
    slot buffers only its negotiation times and packets attempted. Every
    ``REPRO_TELEM_INTERVAL`` slots, and at the end of each
    :meth:`_ShardEngine.advance`, the window is emitted as one merge-exact
    ``field`` frame (:func:`repro.obs.telemetry.field_frame`) and the next
    one opens.
    """

    def __init__(self, engine: _ShardEngine) -> None:
        self.engine = engine
        fld, own = engine.fld, engine.own
        self.networks = [engine.spec.global_indices[int(k)] for k in own]
        self.labels = {
            "adversary": fld.jammer.adversary if fld.jammer is not None else "none"
        }
        if engine.scheme:
            self.labels["scheme"] = engine.scheme
        self.interval = obs_telemetry.interval()
        self.buckets = np.asarray(obs_telemetry.LATENCY_BUCKETS)
        # Rows grow on demand up to the interval, which may exceed the run.
        rows = min(self.interval, 64)
        self.neg = np.empty((rows, len(own)))
        self.att = np.empty((rows, len(own)), dtype=np.int64)
        self.window = 0
        self.slot0 = engine.slot
        self.slots = 0
        self.start = self._counts()

    def _counts(self) -> np.ndarray:
        e, own = self.engine, self.engine.own
        return np.array(
            [e.successes[own], e.jam_attempts[own], e.delivered[own], e.hops[own]]
        )

    def observe(self, neg_out: np.ndarray, att: np.ndarray) -> None:
        """Buffer one slot's negotiation times and packets attempted."""
        k = self.slots
        if k == len(self.neg):
            self.neg, self.att = (
                np.concatenate([buf, buf])[: self.interval]
                for buf in (self.neg, self.att)
            )
        own = self.engine.own
        self.neg[k] = neg_out[own]
        self.att[k] = att[own]
        self.slots = k + 1
        if self.slots == self.interval:
            self.flush()

    def flush(self) -> None:
        """Emit the open (possibly partial) window; no-op when empty."""
        slots = self.slots
        if not slots:
            return
        counts = self._counts()
        successes, attempts, delivered, hops = counts - self.start
        neg = self.neg[:slots]
        # side="left" matches the bisect_left binning of Histogram.observe.
        lat = np.bincount(
            np.searchsorted(self.buckets, neg.ravel(), side="left"),
            minlength=len(self.buckets) + 1,
        )
        obs_telemetry.record_frame(
            obs_telemetry.field_frame(
                window=self.window,
                slot0=self.slot0,
                slots=slots,
                shard=self.engine.spec.shard_index,
                labels=self.labels,
                networks=self.networks,
                jammed=(slots - successes).tolist(),
                attempts=attempts.tolist(),
                delivered=delivered.tolist(),
                attempted=self.att[:slots].sum(axis=0).tolist(),
                hops=hops.tolist(),
                # Summed in slot order: sum(axis=0) would go pairwise on a
                # one-network shard and move the last bits.
                neg_sum=np.cumsum(neg, axis=0)[-1].tolist(),
                lat_counts=lat.tolist(),
                lat_min=float(neg.min()),
                lat_max=float(neg.max()),
                tokens=(
                    self.engine.bank.duty_tokens(self.engine.own)
                    if self.labels["adversary"] == "reactive"
                    else None
                ),
            )
        )
        self.window += 1
        self.slot0 += slots
        self.slots = 0
        self.start = counts


class _ShardEngine:
    """The field slot loop over one shard's networks (own + halo).

    :class:`FieldGrid` runs one engine per shard; a one-network engine
    (:meth:`solo`) is what :class:`~repro.sim.field.FieldExperiment`
    advances window by window. Clock, rng streams, slot state and
    accumulators persist across :meth:`advance` calls.
    """

    def __init__(self, spec: _ShardSpec, adapters: list | None = None) -> None:
        self.spec = spec
        self.cfg = spec.config
        self.fld = fld = spec.config.field
        # An engine that builds its own adapters (a grid's) owns them, so
        # it runs them as arrays. A caller's adapter (a solo
        # FieldExperiment's) stays live, stepped per object.
        fleet = adapters is None
        build = spec.build if spec.build is not None else _ShardBuild()
        if fleet:
            adapters = build.adapters(spec)
            self.scheme = self._grid_scheme()
        else:
            # Caller-supplied adapters label the run with their own scheme.
            self.scheme = getattr(adapters[0], "scheme", None)
        self.adapters = adapters
        n = len(adapters)
        mdp = fld.mdp
        self.interference = build.interference_for(spec)
        self.goodput = GoodputModel(timing=fld.timing, num_nodes=fld.num_peripherals)
        self.draws_neg = fld.timing.negotiation_uniform_count(fld.num_peripherals)
        # Channel-tier jam adjudication: the analytic default is the exact
        # threshold contest with no draws; other tiers draw one uniform per
        # network per slot from its own "field-channel" stream, so
        # negotiation/delivery draws are the same under every tier.
        self.adjudicator = JamAdjudicator(fld.channel)
        build.streams(spec, adjudicated=not self.adjudicator.analytic)

        # Negotiation and delivery draw from each network's "field" stream:
        # as fixed per-slot uniform blocks, or sequentially per packet.
        self.stream: _StreamMatrix | None = None
        self.rngs: list[np.random.Generator] | None = None
        if fld.sampling == "aggregate":
            self.stream = _StreamMatrix(
                build.field,
                self.draws_neg + AGGREGATE_DRAWS_PER_SLOT,
                spec.field_batch,
            )
        else:
            self.rngs = build.field
        self.bank = None
        if fld.jammer is not None:
            self.bank = FieldJammerBank(fld.jammer, build.jammer)
        self.jam_streams = (
            _StreamMatrix(build.channel, 1, spec.field_batch)
            if build.channel is not None
            else None
        )
        self.has_decoys = any(hasattr(a, "active_decoy") for a in adapters)

        # Decide-phase strategy: stateless table policies vectorise, a
        # grid's DQN fleet acts through one stacked forward, anything else
        # (a solo DQN adapter too) loops over decide().
        self.plain_state = all(type(a) is StatePolicyAdapter for a in adapters)
        tabled = self.plain_state and all(
            isinstance(a.policy, (TabularPolicy, ThresholdPolicy)) for a in adapters
        )
        self.hop_table = self.power_table = self.hop_draws = None
        if tabled:
            self.hop_table, self.power_table = (
                build.tables
                if adapters is build.fleet
                else _probe_tables(adapters, mdp)
            )
            # A fleet sharing one hop pool hops through emulated draws on
            # each adapter's own stream: StatePolicyAdapter.hop's others[j]
            # is pool[j + (j >= position of the current channel)].
            pools = {
                tuple(a.hop_channels or range(mdp.num_channels)) for a in adapters
            }
            pool = next(iter(pools))
            arrays = (
                fleet
                and len(pools) == 1
                and len(set(pool)) == len(pool)
                and all(a.channel in pool for a in adapters)
                and BoundedDraws.supports([a._rng for a in adapters])
            )
            if fleet and self.cfg.adapter_factory is None:
                build.keep_fleet(
                    adapters if arrays else None, (self.hop_table, self.power_table)
                )
            if arrays:
                self.hop_pool = np.asarray(pool, dtype=np.intp)
                self.hop_position = np.zeros(mdp.num_channels, dtype=np.intp)
                self.hop_position[self.hop_pool] = np.arange(len(pool))
                self.hop_draws = BoundedDraws([a._rng for a in adapters])
        self.ring = None
        if (
            fleet
            and all(type(a) is DQNPolicyAdapter for a in adapters)
            and len({len(a._history) for a in adapters}) == 1
        ):
            self._load_dqn_fleet(adapters, mdp)

        self.tx_levels = np.asarray(mdp.tx_power_levels, dtype=np.float64)
        self.rows = np.arange(n)
        self.own = np.asarray(spec.own_local, dtype=np.intp)
        self.slot = 0
        self.code = np.ones(n, dtype=np.int64)
        self.streak = np.ones(n, dtype=np.int64)
        self.channels = np.array([a.channel for a in adapters], dtype=np.intp)
        self.delivered = np.zeros(n, dtype=np.int64)
        self.util = np.zeros(n)
        self.successes = np.zeros(n, dtype=np.int64)
        self.hops = np.zeros(n, dtype=np.int64)
        self.useful_hops = np.zeros(n, dtype=np.int64)
        self.pc_slots = np.zeros(n, dtype=np.int64)
        self.pc_wins = np.zeros(n, dtype=np.int64)
        self.jam_attempts = np.zeros(n, dtype=np.int64)
        self.total_reward = np.zeros(n)
        self.records: list[list[FieldSlotRecord]] | None = (
            [[] for _ in self.own] if self.cfg.keep_records else None
        )
        self.telem: _FieldWindow | None = None

    @classmethod
    def solo(
        cls,
        config: FieldConfig,
        adapter,
        seed: SeedLike,
        field_batch: int | None = None,
    ) -> _ShardEngine:
        """A one-network engine over a caller's adapter and seed, keeping records."""
        spec = _ShardSpec(
            config=GridConfig(field=config, num_networks=1, keep_records=True),
            num_slots=0,  # unused: the caller drives advance() itself
            field_batch=field_batch,
            shard_index=0,
            global_indices=(0,),
            own_local=(0,),
            positions=np.zeros((1, 2)),
            net_seeds=(seed,),
        )
        return cls(spec, adapters=[adapter])

    def _load_dqn_fleet(self, adapters: list, mdp: MDPConfig) -> None:
        """Load a DQN fleet's symbol ring, its policy stack and its memo.

        Ring symbols are ``(outcome·C + channel)·P + power`` (outcome 0/1/2
        for J/TJ/clean), oldest slot first; ``history_table`` maps each to
        its :func:`history_rows` row. The per-run memo keys a row as
        ``slice·S^I + window`` (S symbols). Misses score by policy group,
        which pays only with many rows per policy: a per-row fleet, or one
        whose keys overflow int64, scores every row.
        """
        c, p = mdp.num_channels, mdp.num_power_levels
        symbols = 3 * c * p
        outcome, channel, power = np.unravel_index(np.arange(symbols), (3, c, p))
        codes = np.array([J_CODE, TJ_CODE, 1])[outcome]
        self.history_table = history_rows(codes, channel, power, mdp)
        table_rows = map(tuple, self.history_table.tolist())
        lookup = {row: k for k, row in enumerate(table_rows)}
        self.ring = np.array(
            [[lookup[row] for row in a._history] for a in adapters], dtype=np.int64
        )
        self.stack = get_policy_stack([a.agent.online for a in adapters])
        self.rows_scored = 0
        self.memo_keys = None
        width = self.ring.shape[1]
        windows = symbols**width
        if not self.stack.per_row and len(self.stack.sources) * windows < 2**63:
            self.key_base = self.stack.index.astype(np.int64) * windows
            self.place = symbols ** np.arange(width - 1, -1, -1, dtype=np.int64)
            # A sentinel above every key keeps each search inside the arrays.
            self.memo_keys = np.array([np.iinfo(np.int64).max])
            self.memo_actions = np.array([-1], dtype=np.intp)

    def _dqn_actions(self) -> np.ndarray:
        """The fleet's greedy actions: memo hits, then each unseen key once."""
        if self.memo_keys is None:
            return self._score()
        keys, first, inverse = np.unique(
            self.key_base + self.ring @ self.place,
            return_index=True,
            return_inverse=True,
        )
        at = np.searchsorted(self.memo_keys, keys)
        actions = self.memo_actions[at]
        miss = np.flatnonzero(self.memo_keys[at] != keys)
        if len(miss):
            actions[miss] = self._score(first[miss])
            at = at[miss]
            self.memo_keys = np.insert(self.memo_keys, at, keys[miss])
            self.memo_actions = np.insert(self.memo_actions, at, actions[miss])
        return actions[inverse]

    def _score(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Greedy actions of ``rows`` (default: every row) from the forward."""
        ring = self.ring if rows is None else self.ring[rows]
        self.rows_scored += len(ring)
        obs = self.history_table[ring].reshape(len(ring), -1)
        return greedy_policy_actions(self.stack, obs, rows)

    def _grid_scheme(self) -> str:
        """The ``scheme=`` label value for this grid's telemetry/counters."""
        factory = self.cfg.adapter_factory
        if factory is None:
            return self.cfg.scheme
        return getattr(factory, "scheme", "custom")

    def slot_log(self, local: int) -> SlotLog:
        """Network ``local``'s accumulated Table-I counters."""
        return SlotLog(
            slots=self.slot,
            successes=int(self.successes[local]),
            hops=int(self.hops[local]),
            useful_hops=int(self.useful_hops[local]),
            pc_slots=int(self.pc_slots[local]),
            pc_wins=int(self.pc_wins[local]),
            jam_attempts=int(self.jam_attempts[local]),
            total_reward=float(self.total_reward[local]),
        )

    def run(self) -> dict:
        """Run the shard's whole slot budget and package its own networks."""
        spec = self.spec
        with obs_trace.span(
            "sim/shard",
            shard=spec.shard_index,
            networks=len(spec.global_indices),
            own=len(spec.own_local),
            slots=spec.num_slots,
        ):
            self.advance(spec.num_slots)
        METRICS.inc("shard.runs")
        METRICS.inc(
            "shard.network_slots", len(spec.global_indices) * spec.num_slots
        )
        own = self.own
        return {
            "own_global": tuple(spec.global_indices[k] for k in own),
            "goodput": self.delivered[own] / self.slot,
            "utilization": self.util[own] / self.slot,
            "metrics": tuple(self.slot_log(local).summary() for local in own),
            "records": (
                tuple(tuple(r) for r in self.records)
                if self.records is not None
                else None
            ),
        }

    def advance(self, num_slots: int, *, slot_events: bool = False) -> None:
        """Run ``num_slots`` more slots, then flush telemetry and counters.

        ``slot_events`` emits one ``sim.slot`` trace event per own network
        and slot while tracing is on (checked once per call).
        """
        if self.telem is None and obs_telemetry.enabled():
            self.telem = _FieldWindow(self)
        events = slot_events and obs_trace.enabled()
        counted = {
            "sim.hops": self.hops,
            "sim.pc_slots": self.pc_slots,
            "sim.jam_attempts": self.jam_attempts,
        }
        before = {name: int(acc.sum()) for name, acc in counted.items()}
        for _ in range(num_slots):
            self._step(events)
        if self.telem is not None:
            self.telem.flush()
        self._flush_counters()
        METRICS.inc("sim.slots", len(self.adapters) * num_slots)
        if self.ring is not None:
            METRICS.inc("sim.policy_rows_scored", self.rows_scored)
            self.rows_scored = 0
        for name, acc in counted.items():
            # As per-event increments would: no key for an event never seen.
            if int(acc.sum()) > before[name]:
                METRICS.inc(name, int(acc.sum()) - before[name])

    def _step(self, events: bool) -> None:
        fld = self.fld
        adapters = self.adapters
        n = len(adapters)
        t = self.slot
        duration = fld.tx_slot_duration_s
        start = t * duration
        code = self.code
        channels = self.channels
        previous = channels.copy()

        # Decide.
        if self.hop_table is not None:
            # state_codes layout: J→0, TJ→1, streak k→k+1.
            idx = np.where(code < 0, code + 2, code + 1)
            hop = self.hop_table[self.rows, idx]
            powers = self.power_table[self.rows, idx]
            movers = np.flatnonzero(hop)
            if self.hop_draws is None:
                for k in movers:
                    channels[k] = adapters[k].hop()
            elif len(movers):
                j = self.hop_draws.integers(movers, len(self.hop_pool) - 1)
                j += j >= self.hop_position[channels[movers]]
                channels[movers] = self.hop_pool[j]
        elif self.ring is not None:
            channels[:], powers = np.divmod(
                self._dqn_actions(), fld.mdp.num_power_levels
            )
        else:
            powers = np.empty(n, dtype=np.intp)
            for k, adapter in enumerate(adapters):
                channels[k], powers[k] = adapter.decide(code_state(int(code[k])))
        hopped = channels != previous
        tx_power = self.tx_levels[powers]

        # Negotiate: nodes stranded by a jammed slot slow the announcement.
        stranded = code == J_CODE
        if self.stream is not None:
            draws = self.stream.next_slots()
            negotiation = fld.timing.negotiation_time_from_uniforms(
                fld.num_peripherals,
                draws[:, : self.draws_neg],
                include_recovery=stranded,
            )
        else:
            negotiation = np.array(
                [
                    fld.timing.negotiation_time(
                        fld.num_peripherals, rng, include_recovery=bool(s)
                    )
                    for rng, s in zip(self.rngs, stranded)
                ]
            )
        negotiation = negotiation + self.goodput.slot_guard_s

        # Decoys (deception defence): pay their airtime on the control
        # plane and let a sensing jammer overhear them for this window.
        bank = self.bank
        if self.has_decoys:
            decoys = [getattr(a, "active_decoy", None) for a in adapters]
            negotiation = negotiation + np.array(
                [
                    float(getattr(a, "decoy_airtime_s", 0.0)) if d is not None else 0.0
                    for a, d in zip(adapters, decoys)
                ]
            )
            if bank is not None:
                bank.observe_decoys(decoys)

        # Jam and adjudicate.
        old_attacked = np.zeros(n, dtype=bool)
        if bank is not None:
            fraction, attempted, max_power = bank.attack_profiles(
                start, start + duration, channels
            )
            if self.jam_streams is None:
                defeated = attempted & (tx_power >= max_power)
            else:
                us = self.jam_streams.next_slots()[:, 0]
                defeated = np.zeros(n, dtype=bool)
                hit = np.flatnonzero(attempted)
                if len(hit):
                    defeated[hit] = us[hit] < self.adjudicator.survival_array(
                        tx_power[hit], max_power[hit]
                    )
            jam_fraction = np.where(attempted & ~defeated, fraction, 0.0)
            # Did a hop vacate a channel the jammer now attacks?
            moved = np.flatnonzero(hopped)
            if len(moved):
                old_attacked[moved] = bank.attacking(moved, previous[moved])
        else:
            attempted = np.zeros(n, dtype=bool)
            defeated = np.zeros(n, dtype=bool)
            jam_fraction = np.zeros(n)

        # Label.
        jammed = attempted & ~defeated & (jam_fraction >= fld.jam_state_threshold)
        self.code, self.streak = slot_transition(
            code,
            self.streak,
            hopped=hopped,
            attempted=attempted,
            jammed=jammed,
            sweep_cycle=fld.mdp.sweep_cycle,
        )

        # Deliver: interference from co-channel neighbours only scales the
        # per-packet success probability, never the control path.
        factors = (
            self.interference.factors(channels, powers)
            if self.interference is not None
            else 1.0
        )
        probability = (1.0 - jam_fraction) * factors
        negotiation = np.minimum(negotiation, duration)
        if self.stream is not None:
            neg_out, effective, att, dlv = self.goodput.run_slot_aggregate(
                duration,
                success_probability=probability,
                negotiation_s=negotiation,
                uniforms=draws[:, self.draws_neg :],
            )
        else:
            reports = [
                self.goodput.run_slot(
                    duration,
                    success_probability=float(p),
                    negotiation_s=float(s),
                    rng=rng,
                )
                for p, s, rng in zip(probability, negotiation, self.rngs)
            ]
            neg_out = np.array([r.negotiation_s for r in reports])
            effective = np.array([r.effective_tx_s for r in reports])
            att = np.array([r.packets_attempted for r in reports], dtype=np.int64)
            dlv = np.array([r.packets_delivered for r in reports], dtype=np.int64)

        # Account (the Table-I counters of SlotLog.record, per network).
        success = ~jammed
        pc_raised = powers > 0
        self.successes += success
        self.jam_attempts += attempted
        self.total_reward += slot_reward(tx_power, hopped, jammed, fld.mdp)
        self.hops += hopped
        self.useful_hops += hopped & success & old_attacked
        self.pc_slots += pc_raised
        self.pc_wins += pc_raised & attempted & defeated
        self.delivered += dlv
        self.util += effective / duration
        self.slot = t + 1

        if self.ring is not None:
            landed = self.code
            outcome = np.where(landed == J_CODE, 0, np.where(landed == TJ_CODE, 1, 2))
            self.ring[:, :-1] = self.ring[:, 1:]
            self.ring[:, -1] = (
                outcome * fld.mdp.num_channels + channels
            ) * fld.mdp.num_power_levels + powers
        elif not self.plain_state:
            for k, adapter in enumerate(adapters):
                adapter.observe(
                    code_state(int(self.code[k])), int(channels[k]), int(powers[k])
                )

        own = self.own
        if self.records is not None or events:
            for k, local in enumerate(own):
                record = FieldSlotRecord(
                    slot=t,
                    channel=int(channels[local]),
                    power_index=int(powers[local]),
                    state=code_state(int(self.code[local])),
                    packets_delivered=int(dlv[local]),
                    packets_attempted=int(att[local]),
                    negotiation_s=float(neg_out[local]),
                    utilization=float(effective[local]) / duration,
                    jammed_fraction=float(jam_fraction[local]),
                )
                if self.records is not None:
                    self.records[k].append(record)
                if events:
                    obs_trace.event(
                        "sim.slot",
                        slot=t,
                        state=record.state,
                        channel=record.channel,
                        power=record.power_index,
                        hopped=bool(hopped[local]),
                        jam_attempted=bool(attempted[local]),
                        jammed_fraction=record.jammed_fraction,
                        delivered=record.packets_delivered,
                    )

        if self.telem is not None:
            self.telem.observe(neg_out, att)

    def _flush_counters(self) -> None:
        """Drain own networks' adversary/defence counters into labelled metrics.

        Only *own* networks flush — halo replicas run the same jammers but
        their counters are discarded with the rest of their outputs, so
        K-shard registries match the 1-shard registry. The ``network``
        label keeps each count a single-network value (no cross-shard
        float accumulation), which is what makes the merged labelled
        registry bit-identical across shard/worker decompositions.
        """
        adversary = self.fld.jammer.adversary if self.bank is not None else None
        scheme = "custom" if self.scheme is None else self.scheme
        for k in self.own:
            g = self.spec.global_indices[int(k)]
            if adversary is not None:
                drain_labelled_counters(
                    self.bank.counters(int(k)),
                    "jam",
                    {"adversary": adversary, "network": g},
                )
            drain_labelled_counters(
                self.adapters[int(k)],
                "defense",
                {"scheme": scheme, "network": g},
            )


def _run_shard_task(spec: _ShardSpec) -> dict:
    """Pool-dispatchable entry point: simulate one shard."""
    return _ShardEngine(spec).run()


class FieldGrid:
    """N coexisting star networks on a 2-D field, stepped per slot.

    Positions and per-network seeds derive deterministically from ``seed``,
    so results are invariant to shard count, worker count, field-batch
    size, and ``keep_records`` — those are pure performance/memory knobs.
    ``run`` is a pure function of ``(config, seed, num_slots)``. The first
    call builds each shard's invariants once (:class:`_ShardBuild`: the
    interference arrays and the seeded streams) and later calls reuse
    them, rewinding every stream to its seeded state, so calling it twice
    returns identical results. The default factory's table fleet
    (``scheme="optimal"``, run as table lookups and hop draws) is kept
    the same way; any other fleet comes from its factory on every call.
    Shards run in pool workers are built there on every call.
    """

    def __init__(
        self,
        config: GridConfig,
        *,
        seed: SeedLike = None,
        shards: int | str | None = None,
        workers: int | str | None = None,
        field_batch: int | None = None,
    ) -> None:
        self.config = config
        self.shards = min(resolve_shards(shards), config.num_networks)
        self.workers = workers
        self.field_batch = resolve_field_batch(field_batch)
        self.positions = network_positions(
            seed, config.num_networks, config.width_m, config.height_m
        )
        self.network_seeds = tuple(
            network_seed(seed, i) for i in range(config.num_networks)
        )
        # Each shard's build by shard index, filled by the first run. A run
        # takes them and hands them back once it completes, so no two runs
        # share streams: a run that finds them taken builds its own.
        self._builds: dict[int, _ShardBuild] | None = None
        self._builds_lock = threading.Lock()

    def _shard_specs(
        self, num_slots: int, builds: dict[int, _ShardBuild]
    ) -> list[_ShardSpec]:
        cfg = self.config
        x = self.positions[:, 0]
        edges = np.linspace(0.0, cfg.width_m, self.shards + 1)
        shard_of = np.minimum(
            np.searchsorted(edges, x, side="right") - 1, self.shards - 1
        )
        radius = (
            cfg.interference.radius_m if cfg.interference is not None else 0.0
        )
        specs = []
        for s in range(self.shards):
            own = shard_of == s
            if not own.any():
                continue
            members = own
            if radius > 0.0 and self.shards > 1:
                halo = (~own) & (x >= edges[s] - radius) & (x <= edges[s + 1] + radius)
                members = own | halo
            local_global = tuple(int(g) for g in np.flatnonzero(members))
            own_local = tuple(
                i for i, g in enumerate(local_global) if shard_of[g] == s
            )
            specs.append(
                _ShardSpec(
                    config=cfg,
                    num_slots=num_slots,
                    field_batch=self.field_batch,
                    shard_index=s,
                    global_indices=local_global,
                    own_local=own_local,
                    positions=self.positions[list(local_global)],
                    net_seeds=tuple(
                        self.network_seeds[g] for g in local_global
                    ),
                    build=builds.setdefault(s, _ShardBuild()),
                )
            )
        return specs

    def run(self, num_slots: int) -> GridResult:
        num_slots = check_num_slots(num_slots)
        cfg = self.config
        with self._builds_lock:
            builds, self._builds = self._builds or {}, None
        specs = self._shard_specs(num_slots, builds)
        with obs_trace.span(
            "sim/grid",
            networks=cfg.num_networks,
            shards=len(specs),
            slots=num_slots,
        ):
            if len(specs) == 1:
                results = [_run_shard_task(specs[0])]
            else:
                runner = ParallelRunner(self.workers, name="field.shards")
                results = runner.map(_run_shard_task, specs)
        failures = [r for r in results if isinstance(r, TaskFailure)]
        if failures:
            raise SimulationError(
                f"{len(failures)} shard(s) failed; first: "
                f"{failures[0].error_type}: {failures[0].message}"
            )
        n = cfg.num_networks
        goodput = np.zeros(n)
        utilization = np.zeros(n)
        metrics: list[MetricSummary | None] = [None] * n
        records: list[tuple[FieldSlotRecord, ...] | None] | None = (
            [None] * n if cfg.keep_records else None
        )
        for result in results:
            for k, g in enumerate(result["own_global"]):
                goodput[g] = result["goodput"][k]
                utilization[g] = result["utilization"][k]
                metrics[g] = result["metrics"][k]
                if records is not None:
                    records[g] = result["records"][k]
        if any(m is None for m in metrics):
            raise SimulationError("shard partition lost a network")
        with self._builds_lock:
            self._builds = builds
        return GridResult(
            slots=num_slots,
            shards=len(specs),
            positions=self.positions,
            goodput_pkts_per_slot=goodput,
            utilization=utilization,
            metrics=tuple(metrics),
            records=tuple(records) if records is not None else None,
        )


__all__ = [
    "resolve_shards",
    "network_seed",
    "network_positions",
    "InterferenceModel",
    "GridConfig",
    "SchemeAdapterFactory",
    "FieldJammerBank",
    "GridResult",
    "FieldGrid",
]
