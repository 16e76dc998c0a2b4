"""The four workloads of the end-to-end benchmark.

Each workload derives every input from one seed with ``repro.rng.derive``,
times rounds of the library's public entry points after an untimed
warm-up, and checks its outputs. ``run.py`` drives them and ``README.md``
says why each one exists and which layer metric should move which
end-to-end metric.

Every timed call runs between probes of the machine's current speed
(:func:`probed`), and the end-to-end times and rates are corrected to the
reference speed; the raw values are printed alongside. Each timing is the
median over rounds, with the interquartile range of the rounds as a share
of their median as its spread. A traced measurement first times untraced
rounds, then the same rounds under a :class:`tracer.Tracer`; the ratio of
the two medians is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.channel.fidelity import JamAdjudicator, resolve_channel_tier
from repro.channel.link import resolve_per_cache_capacity
from repro.core.dqn import DQNConfig
from repro.core.replay import ReplayBuffer
from repro.core.trainer import TrainerConfig, train_dqn, train_dqn_multi_seed
from repro.core.vecenv import VectorEnv, _StackedMLP, resolve_env_batch
from repro.exec.faults import FaultPolicy
from repro.exec.runner import resolve_workers
from repro.net.goodput import GoodputModel
from repro.net.timing import TimingModel
from repro.nn.network import mlp
from repro.obs import telemetry as obs_telemetry
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.rng import derive
from repro.serve import DecisionServer, LoadGenConfig, PolicyStore, run_server_load
from repro.serve.batcher import ShedDecision
from repro.serve.loadgen import make_clients
from repro.sim import shard
from repro.sim.engine import resolve_field_batch
from repro.sim.field import DQNPolicyAdapter, FieldConfig, StatePolicyAdapter
from repro.sim.scenario import field_jammer_config, paper_defaults
from repro.sim.shard import (
    FieldGrid,
    FieldJammerBank,
    GridConfig,
    InterferenceModel,
    network_seed,
    resolve_shards,
)
from tracer import TracePoint, Tracer

#: The paper's per-decision budget (Fig. 9), applied to p99 latency.
SLO_P99_MS = 9.0

#: Serving-layer settings every serve-open server uses.
SERVER_SETTINGS = {
    "max_batch": 64,
    "deadline_ms": 2.0,
    "queue_limit": 1024,
    "admission": "shed",
}

#: Problem sizes. ``smoke`` only exists so the smoke test finishes fast.
BUDGETS: dict[str, dict[str, dict]] = {
    "full": {
        "train-dqn": {"seeds": 4, "episodes": 5, "steps_per_episode": 400},
        "grid-dqn": {
            "networks": 1024,
            "slots": 100,
            "policies": 4,
            "policy_episodes": 2,
            "policy_steps": 400,
        },
        "grid-table-hybrid": {"networks": 2560, "slots": 100},
        "serve-open": {
            "policies": 4,
            "networks": 256,
            "requests_per_network": 32,
            "closed_passes": 2,
            "step_s": 1.0,
            "fixed_rates": (2000, 4000),
            "ladder": (6000, 8000, 12000, 16000, 24000, 32000),
        },
    },
    "smoke": {
        "train-dqn": {"seeds": 2, "episodes": 2, "steps_per_episode": 300},
        "grid-dqn": {
            "networks": 32,
            "slots": 10,
            "policies": 2,
            "policy_episodes": 2,
            "policy_steps": 300,
        },
        "grid-table-hybrid": {"networks": 64, "slots": 10},
        "serve-open": {
            "policies": 2,
            "networks": 32,
            "requests_per_network": 16,
            "closed_passes": 1,
            "step_s": 0.25,
            "fixed_rates": (2000, 4000),
            "ladder": (6000,),
        },
    },
}

#: Rounds every timing takes at least, whatever the time budget.
MIN_ROUNDS = 3

#: Each run sets its workload up at least ``SETUP_REPEATS`` times and until
#: ``SETUP_SECONDS`` have been spent (at most ``SETUP_MAX`` times).
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX = 20

#: Seconds :func:`machine_probe` takes on an idle machine of the kind the
#: committed results were measured on (2-vCPU Intel Xeon VM, Python 3.11).
PROBE_REFERENCE_S = 0.0053

#: Probes taken right before and right after every timed call.
PROBES_PER_SIDE = 3

#: How a workload's time scales with the probe's: log-log slopes fitted
#: over 12 runs of each workload on a shared machine were 0.38-0.79
#: (part of each workload runs in BLAS kernels the other tenants slow
#: less than the probe's interpreter work); 0.75 kept every workload's
#: corrected run-to-run spread at or under 12%, where 1.0 over-corrects
#: train-dqn.
SLOWDOWN_EXPONENT = 0.75

#: Library counters read around traced rounds.
COUNTERS = (
    "sim.slots",
    "sim.jam_attempts",
    "link.per_cache_hits",
    "link.per_cache_misses",
)


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / abs(mid)) if mid else 0.0


def digest(*arrays) -> str:
    """SHA-256 over the bytes of ``arrays`` (the per-round fingerprint)."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def int_seed(seed: int, stream: str, bits: int = 63) -> int:
    return int(derive(seed, stream).integers(0, 2**bits - 1))


def counter_value(name: str) -> float:
    counter = METRICS.counters.get(name)
    return counter.value if counter is not None else 0.0


def common_knobs() -> dict:
    """Resolved values of the environment knobs every workload reads."""
    policy = FaultPolicy.from_env()
    return {
        "REPRO_WORKERS": resolve_workers(),
        "REPRO_ON_ERROR": policy.on_error,
        "REPRO_MAX_RETRIES": policy.max_retries,
        "REPRO_TASK_TIMEOUT": policy.timeout_s,
        "REPRO_FAULT_RATE": policy.fault_rate,
        "REPRO_TRACE": obs_trace.enabled(),
        "REPRO_TELEM": obs_telemetry.enabled(),
        "REPRO_PER_CACHE": resolve_per_cache_capacity(),
    }


@dataclass
class Metric:
    """One printed metric; ``n`` counts the samples behind the value."""

    name: str
    value: float
    unit: str
    n: int
    spread: float = 0.0


@dataclass
class Outcome:
    """What one measurement produced."""

    metrics: list[Metric] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, name, value, unit, n, spread_=0.0) -> None:
        self.metrics.append(Metric(name, float(value), unit, int(n), float(spread_)))

    def add_timing(self, name, values, unit) -> None:
        """A timing as the median of ``values`` with its spread."""
        self.add(name, median(values), unit, len(values), spread(values))


def machine_probe() -> float:
    """Seconds one fixed slice of Python and NumPy work takes right now.

    It calls nothing in the library, so no change to the library moves it;
    only the speed the machine currently gives this process does.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for k in range(30000):
        key = k & 1023
        table[key] = table.get(key, 0) + k
    a = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
    for _ in range(200):
        a = np.where(a @ a > 0.5, a * 0.5, a + 0.01)
    return time.perf_counter() - start


def probed(fn):
    """Call ``fn`` between probes; returns ``(output, wall_s, slowdown)``.

    ``slowdown`` is the median probe time around the call over
    :data:`PROBE_REFERENCE_S`, raised to :data:`SLOWDOWN_EXPONENT`: the
    factor by which the machine slowed the call. Other tenants of a shared
    machine can slow this process by 1.5-2x for a minute at a time, which
    no statistic over the rounds of one run removes; a wall time divided
    by the slowdown measured around it barely moves with them.
    """
    before = [machine_probe() for _ in range(PROBES_PER_SIDE)]
    start = time.perf_counter()
    output = fn()
    wall = time.perf_counter() - start
    after = [machine_probe() for _ in range(PROBES_PER_SIDE)]
    probe_ratio = median(before + after) / PROBE_REFERENCE_S
    return output, wall, probe_ratio**SLOWDOWN_EXPONENT


@dataclass
class Timed:
    """Raw wall times of timed calls, the slowdown around each, outputs."""

    walls: list[float] = field(default_factory=list)
    slowdowns: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def add(self, output, wall: float, slowdown: float) -> None:
        self.outputs.append(output)
        self.walls.append(wall)
        self.slowdowns.append(slowdown)

    @property
    def corrected(self) -> list[float]:
        """Wall times at the reference machine speed."""
        return [w / s for w, s in zip(self.walls, self.slowdowns)]


def timed_rounds(fn, seconds: float, *, tracer: Tracer | None = None, label=""):
    """Call ``fn`` until ``seconds`` are spent (at least :data:`MIN_ROUNDS`).

    A garbage collection before each round keeps one round's garbage from
    being collected inside the next. Under a tracer each call is a traced
    round and its wall time is the round's.
    """
    timed = Timed()
    begin = time.perf_counter()
    while True:
        gc.collect()
        if tracer is None:
            timed.add(*probed(fn))
        else:

            def traced_fn():
                with tracer.round(label):
                    return fn()

            output, _, slowdown = probed(traced_fn)
            timed.add(output, tracer.rounds[-1].wall_s, slowdown)
        elapsed = time.perf_counter() - begin
        if len(timed.walls) >= MIN_ROUNDS and elapsed + 0.5 * timed.walls[-1] >= seconds:
            return timed


def time_setups(workload) -> Timed:
    """Set ``workload`` up repeatedly (see :data:`SETUP_REPEATS`)."""
    timed = Timed()
    while len(timed.walls) < SETUP_REPEATS or (
        sum(timed.walls) < SETUP_SECONDS and len(timed.walls) < SETUP_MAX
    ):
        gc.collect()
        timed.add(*probed(workload.setup))
    return timed


# ---------------------------------------------------------------------------
# Round-based workloads: train-dqn, grid-dqn, grid-table-hybrid
# ---------------------------------------------------------------------------


@dataclass
class RoundResult:
    """One round: work units done, output fingerprint, quality value."""

    work: int
    fingerprint: str
    quality: float


class RoundWorkload:
    """A workload whose round is one call into the library."""

    name = ""
    #: What ``throughput_per_s`` counts.
    work_unit = ""
    #: Detail metric naming the round's output quality, and its unit.
    quality_metric = ("", "")
    #: Layer that receives each traced round's unattributed remainder.
    root_layer = ""

    def __init__(self, seed: int, sizes: dict) -> None:
        self.seed = int(seed)
        self.sizes = dict(sizes)
        self.fingerprints: list[str] = []
        self.errors: list[str] = []
        self.tracer: Tracer | None = None

    def knobs(self) -> dict:
        return common_knobs()

    def setup(self) -> None:
        raise NotImplementedError

    def one_round(self) -> RoundResult:
        raise NotImplementedError

    def trace_points(self) -> list[TracePoint]:
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer) -> dict[str, tuple[float, str]]:
        """Per-layer values other than self times: ``name -> (value, unit)``."""
        return {}

    def warm_up(self) -> None:
        self._record(self.one_round())

    def _record(self, result: RoundResult) -> None:
        if not np.isfinite(result.quality):
            self.errors.append(f"{self.name}: non-finite output {result.quality}")
        self.fingerprints.append(result.fingerprint)

    def _rounds(self, seconds, tracer=None) -> Timed:
        timed = timed_rounds(self.one_round, seconds, tracer=tracer, label=self.name)
        for result in timed.outputs:
            self._record(result)
        return timed

    def measure(self, seconds: float) -> Outcome:
        timed = self._rounds(seconds)
        first = timed.outputs[0]
        out = Outcome(attempted=len(timed.outputs))
        out.add_timing("throughput_per_s", [first.work / w for w in timed.corrected], "1/s")
        out.add_timing("latency_ms", [w * 1e3 for w in timed.corrected], "ms")
        out.add_timing("latency_raw_ms", [w * 1e3 for w in timed.walls], "ms")
        out.add_timing("machine_slowdown", timed.slowdowns, "ratio")
        name, unit = self.quality_metric
        out.add(name, first.quality, unit, len(timed.outputs))
        out.add("work_per_round", first.work, self.work_unit, len(timed.outputs))
        return out

    def measure_traced(self, seconds: float) -> Outcome:
        untraced = self._rounds(seconds / 2)
        tracer = Tracer(self.trace_points(), root_layer=self.root_layer)
        before = {name: counter_value(name) for name in COUNTERS}
        with tracer.installed():
            traced = self._rounds(seconds / 2, tracer)
        delta = {name: counter_value(name) - before[name] for name in COUNTERS}
        self.tracer = tracer

        out = Outcome(attempted=len(untraced.outputs) + len(traced.outputs))
        layers = {point.layer for point in tracer.points} | {self.root_layer}
        for layer in sorted(layers):
            out.add_timing(layer, [r.self_s.get(layer, 0.0) for r in tracer.rounds], "s")
        for name, (value, unit) in self.layer_metrics(tracer).items():
            out.add(name, value, unit, len(tracer.rounds))
        slots = delta["sim.slots"]
        out.add(
            "jamming.attempt_ratio",
            delta["sim.jam_attempts"] / slots if slots else 0.0,
            "ratio",
            slots,
        )
        lookups = delta["link.per_cache_hits"] + delta["link.per_cache_misses"]
        out.add(
            "channel.per_cache_hit_ratio",
            delta["link.per_cache_hits"] / lookups if lookups else 0.0,
            "ratio",
            lookups,
        )
        out.add(
            "obs.trace_overhead",
            median(traced.corrected) / median(untraced.corrected) - 1.0,
            "ratio",
            len(traced.walls),
        )
        return out

    def check(self) -> list[str]:
        errors = list(self.errors)
        if len(set(self.fingerprints)) > 1:
            errors.append(
                f"{self.name}: {len(set(self.fingerprints))} distinct outputs "
                f"over {len(self.fingerprints)} rounds of one input"
            )
        return errors


def mlp_flops(sizes) -> int:
    """Multiply-add flops of one MLP forward row (2 per weight)."""
    return sum(2 * a * b for a, b in zip(sizes[:-1], sizes[1:]))


class TrainDQN(RoundWorkload):
    """Lock-step multi-seed DQN training on the paper MDP."""

    name = "train-dqn"
    work_unit = "env-steps"
    quality_metric = ("train_final_reward", "reward")
    root_layer = "core.train_residual_s"

    def knobs(self) -> dict:
        return {
            **common_knobs(),
            "REPRO_ENV_BATCH": resolve_env_batch(),
            "REPRO_CHANNEL": resolve_channel_tier(),
        }

    def setup(self) -> None:
        self.mdp = paper_defaults().mdp
        self.seeds = [
            int_seed(self.seed, f"e2e-train[{i}]", 31)
            for i in range(self.sizes["seeds"])
        ]
        self.trainer = TrainerConfig(
            episodes=self.sizes["episodes"],
            steps_per_episode=self.sizes["steps_per_episode"],
        )
        # The serial trainer's run of the first seed: the reference the
        # lock-step batched trainer must reproduce bit for bit.
        self.reference = self._fingerprint(
            [train_dqn(self.mdp, trainer=self.trainer, seed=self.seeds[0])]
        )

    @staticmethod
    def _fingerprint(results) -> str:
        arrays = []
        for r in results:
            arrays += list(r.agent.online.parameters) + [r.reward_history]
        return digest(*arrays)

    def one_round(self) -> RoundResult:
        result = train_dqn_multi_seed(
            self.mdp, seeds=self.seeds, trainer=self.trainer, workers=1
        )
        self.first_seed_fingerprint = self._fingerprint(result.results[:1])
        return RoundResult(
            work=sum(r.steps for r in result.results),
            fingerprint=self._fingerprint(result.results),
            quality=result.mean_final_reward,
        )

    def trace_points(self) -> list[TracePoint]:
        return [
            TracePoint(VectorEnv, "step", "core.envs.step_s"),
            TracePoint(_StackedMLP, "forward_online", "core.vecenv.forward_s"),
            TracePoint(_StackedMLP, "forward_target", "core.vecenv.forward_s"),
            TracePoint(_StackedMLP, "backward", "core.vecenv.backward_s"),
            TracePoint(_StackedMLP, "adam_step", "core.vecenv.backward_s"),
            TracePoint(ReplayBuffer, "sample", "core.replay.sample_s"),
            TracePoint(ReplayBuffer, "push", "core.replay.push_s"),
            TracePoint(ReplayBuffer, "push_many", "core.replay.push_s"),
        ]

    def layer_metrics(self, tracer: Tracer) -> dict[str, tuple[float, str]]:
        # Matmul flops of one lock-step after warm-up, for every seed: an
        # epsilon-greedy forward row, then target and online forwards plus
        # a backward of two matmuls per layer over one replay batch.
        probe = VectorEnv.from_seeds(self.mdp, self.seeds[:1], history_length=5)
        cfg = DQNConfig(
            observation_size=probe.observation_size, num_actions=probe.num_actions
        )
        forward = mlp_flops([cfg.observation_size, *cfg.hidden_sizes, cfg.num_actions])
        passes = 4 + (1 if cfg.double_dqn else 0)
        per_seed = forward + cfg.batch_size * forward * passes
        return {"nn.flops_per_step": (per_seed * len(self.seeds), "flop")}

    def check(self) -> list[str]:
        """Rounds agree, and seed 0's batched run equals the serial trainer."""
        errors = super().check()
        if self.first_seed_fingerprint != self.reference:
            errors.append(
                f"{self.name}: batched seed {self.seeds[0]} differs from the "
                "serial train_dqn run"
            )
        return errors


class GridWorkload(RoundWorkload):
    """One ``FieldGrid.run`` per round over a fixed fleet."""

    work_unit = "net-slots"
    quality_metric = ("goodput_pkts_per_slot", "pkts/slot")
    root_layer = "sim.slot_residual_s"
    channel = ""

    def knobs(self) -> dict:
        return {
            **common_knobs(),
            "REPRO_SHARDS": resolve_shards(),
            "REPRO_FIELD_BATCH": resolve_field_batch(),
            "channel_tier": self.channel,
        }

    def field_config(self, defaults) -> FieldConfig:
        return FieldConfig(
            mdp=defaults.mdp,
            jammer=field_jammer_config(defaults),
            sampling="aggregate",
            channel=self.channel,
        )

    def one_round(self) -> RoundResult:
        result = self.grid.run(self.sizes["slots"])
        return RoundResult(
            work=result.num_networks * result.slots,
            fingerprint=digest(result.goodput_pkts_per_slot, result.utilization),
            quality=result.mean_goodput,
        )

    def trace_points(self) -> list[TracePoint]:
        return [
            TracePoint(shard, "greedy_policy_actions", "core.policy_forward_s"),
            TracePoint(DQNPolicyAdapter, "observation", "sim.adapter_s", "count"),
            TracePoint(DQNPolicyAdapter, "apply", "sim.adapter_s", "count"),
            TracePoint(DQNPolicyAdapter, "observe", "sim.adapter_s", "count"),
            TracePoint(StatePolicyAdapter, "hop", "sim.adapter_s", "count"),
            TracePoint(shard._ShardEngine, "__init__", "sim.grid_build_s"),
            TracePoint(shard, "make_field_jammer", "sim.grid_build_s", "count"),
            TracePoint(shard, "derive", "sim.grid_build_s", "count"),
            TracePoint(shard._StreamMatrix, "next_slots", "sim.rng_draws_s"),
            TracePoint(FieldJammerBank, "attack_profiles", "jamming.attack_s"),
            TracePoint(FieldJammerBank, "attacking", "jamming.attack_s"),
            TracePoint(JamAdjudicator, "survival_array", "channel.adjudicate_s"),
            TracePoint(
                shard._InterferenceEngine, "factors", "channel.interference_s"
            ),
            TracePoint(
                TimingModel, "negotiation_time_from_uniforms", "net.negotiation_s"
            ),
            TracePoint(GoodputModel, "run_slot_aggregate", "net.goodput_s"),
        ]

    def layer_metrics(self, tracer: Tracer) -> dict[str, tuple[float, str]]:
        calls = [r.calls.get("sim.grid_build_s", 0) for r in tracer.rounds]
        return {"sim.grid_build_calls": (median(calls), "count")}


@dataclass(frozen=True)
class FleetFactory:
    """Round-robin assignment of trained agents to a grid's networks."""

    agents: tuple
    order: dict

    def __call__(self, mdp, net_seed: int):
        agent = self.agents[self.order[net_seed] % len(self.agents)]
        return DQNPolicyAdapter(agent, mdp, seed=derive(net_seed, "grid-adapter"))


class GridDQN(GridWorkload):
    """Fig. 11a's RL scheme at fleet scale: DQN adapters, analytic channel."""

    name = "grid-dqn"
    channel = "analytic"

    def setup(self) -> None:
        sizes = self.sizes
        defaults = paper_defaults()
        trained = train_dqn_multi_seed(
            defaults.mdp,
            seeds=[
                int_seed(self.seed, f"e2e-grid-policy[{i}]", 31)
                for i in range(sizes["policies"])
            ],
            trainer=TrainerConfig(
                episodes=sizes["policy_episodes"],
                steps_per_episode=sizes["policy_steps"],
            ),
            workers=1,
        )
        self.agents = tuple(r.agent for r in trained.results)
        grid_seed = int_seed(self.seed, "e2e-grid-dqn")
        n = sizes["networks"]
        factory = FleetFactory(
            agents=self.agents,
            order={network_seed(grid_seed, i): i for i in range(n)},
        )
        self.grid = FieldGrid(
            GridConfig(
                field=self.field_config(defaults),
                num_networks=n,
                adapter_factory=factory,
                interference=InterferenceModel(channel=self.channel),
            ),
            seed=grid_seed,
        )

    def layer_metrics(self, tracer: Tracer) -> dict[str, tuple[float, str]]:
        # Weight bytes the stacked greedy forward reads per slot: one
        # slice per network, since the fleet mixes distinct policies.
        per_policy = sum(p.nbytes for p in self.agents[0].online.parameters)
        return {
            **super().layer_metrics(tracer),
            "core.policy_forward_bytes": (per_policy * self.sizes["networks"], "B"),
        }


class GridTableHybrid(GridWorkload):
    """Table policies on 2560 networks with the hybrid channel tier."""

    name = "grid-table-hybrid"
    channel = "hybrid"

    def setup(self) -> None:
        defaults = paper_defaults()
        self.grid = FieldGrid(
            GridConfig(
                field=self.field_config(defaults),
                num_networks=self.sizes["networks"],
                scheme="optimal",
                interference=InterferenceModel(channel=self.channel),
            ),
            seed=int_seed(self.seed, "e2e-grid-table-hybrid"),
        )


# ---------------------------------------------------------------------------
# serve-open: open-loop latency at fixed rates, a rate ladder, saturation
# ---------------------------------------------------------------------------


@dataclass
class OpenLoopRun:
    """Per-request timestamps of one open-loop step (loop clock, seconds)."""

    rate: int
    due: np.ndarray
    submit: np.ndarray
    done: np.ndarray
    queue_wait: np.ndarray
    entries: np.ndarray
    actions: np.ndarray  # -1 marks a shed request

    @property
    def shed(self) -> int:
        return int((self.actions < 0).sum())

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile((self.done - self.due) * 1e3, q))

    def achieved_share(self) -> float:
        """Served rate over offered rate; below 1 when a backlog builds."""
        offered = self.due[-1] - self.due[0]
        return offered / (self.done.max() - self.due[0]) if offered > 0 else 1.0


@dataclass
class ClosedLoopRound:
    """Totals of one closed-loop round."""

    decisions: int
    shed: int
    duration_s: float

    @property
    def rate(self) -> float:
        return self.decisions / self.duration_s


def meets_slo(runs: list[OpenLoopRun]) -> bool:
    """Median p99 within budget, nothing shed, >= 95% of the rate served.

    A shed request misses the latency limit, so any shed fails the step.
    """
    return median([run.percentile_ms(99) for run in runs]) <= SLO_P99_MS and all(
        run.shed == 0 and run.achieved_share() >= 0.95 for run in runs
    )


def split_latency(run: OpenLoopRun, flushes: list[list]) -> dict[str, np.ndarray]:
    """Split each answered request's latency into four parts (seconds).

    Generator lag runs from due to submit, queue wait from submit to the
    flush (as the server reports it), forward from the flush to the end of
    the ``decide_batch`` span that answered the request, and loop residual
    from there to the request's coroutine resuming.
    """
    answered = run.actions >= 0
    starts = np.array([span[1] for span in flushes])
    ends = np.array([span[2] for span in flushes])
    flush_at = run.submit[answered] + run.queue_wait[answered]
    which = np.minimum(np.searchsorted(starts, flush_at), len(ends) - 1)
    return {
        "lag": run.submit[answered] - run.due[answered],
        "queue": run.queue_wait[answered],
        "forward": ends[which] - flush_at,
        "residual": run.done[answered] - ends[which],
    }


class ServeOpen:
    """Decision service: open-loop Poisson steps between saturation rounds."""

    name = "serve-open"

    def __init__(self, seed: int, sizes: dict) -> None:
        self.seed = int(seed)
        self.sizes = dict(sizes)
        self.errors: list[str] = []
        self.tracer: Tracer | None = None
        self._runs = 0

    def knobs(self) -> dict:
        return {**common_knobs(), **SERVER_SETTINGS}

    def setup(self) -> None:
        sizes = self.sizes
        self.store = PolicyStore(
            [
                mlp(15, (48, 48), 160, seed=derive(self.seed, f"e2e-serve-policy[{i}]"))
                for i in range(sizes["policies"])
            ]
        )
        self.loadgen = LoadGenConfig(
            networks=sizes["networks"],
            requests_per_network=sizes["requests_per_network"],
            mean_think_time_s=0.0,
            seed=int_seed(self.seed, "e2e-serve-loadgen", 31),
        )
        # The request pool is the serial replay of the closed-loop client
        # model, so each entry's decide_serial action is its reference.
        clients = make_clients(self.store, self.loadgen)
        rows = []
        for _ in range(self.loadgen.requests_per_network):
            for client in clients:
                obs = client.observation()
                action = self.store.decide_serial(client.policy, obs)
                client.absorb(action)
                rows.append((client.index, client.policy, obs, action))
        self.pool_network = np.array([r[0] for r in rows], dtype=np.intp)
        self.pool_policy = np.array([r[1] for r in rows], dtype=np.intp)
        self.pool_observation = np.stack([r[2] for r in rows])
        self.pool_action = np.array([r[3] for r in rows], dtype=np.int64)

    def _server(self) -> DecisionServer:
        return DecisionServer(self.store, **SERVER_SETTINGS)

    # -- open loop ---------------------------------------------------------------

    async def _open_loop(self, rate: int, count: int) -> OpenLoopRun:
        rng = derive(self.seed, f"e2e-serve-arrivals[{self._runs}]")
        self._runs += 1
        pool = len(self.pool_action)
        entries = (int(rng.integers(pool)) + np.arange(count)) % pool
        gaps = rng.exponential(1.0 / rate, count)
        server = self._server()
        loop = asyncio.get_running_loop()
        due = loop.time() + 1e-3 + np.cumsum(gaps)
        submit = np.zeros(count)
        done = np.zeros(count)
        queue_wait = np.zeros(count)
        actions = np.full(count, -1, dtype=np.int64)

        async def request(j: int) -> None:
            k = entries[j]
            submit[j] = loop.time()
            answer = await server.decide(
                int(self.pool_network[k]),
                int(self.pool_policy[k]),
                self.pool_observation[k],
            )
            done[j] = loop.time()
            if not isinstance(answer, ShedDecision):
                actions[j] = answer.action
                queue_wait[j] = answer.latency_s

        # Independent networks: each request is released when due, whether
        # or not earlier ones were answered.
        tasks = []
        j = 0
        while j < count:
            now = loop.time()
            while j < count and due[j] <= now:
                tasks.append(loop.create_task(request(j)))
                j += 1
            if j < count:
                await asyncio.sleep(due[j] - loop.time())
        await asyncio.gather(*tasks)
        await server.stop()
        return OpenLoopRun(rate, due, submit, done, queue_wait, entries, actions)

    def open_loop(self, rate: int) -> OpenLoopRun:
        """One open-loop step of ``step_s`` seconds at ``rate`` requests/s."""
        gc.collect()
        count = max(int(rate * self.sizes["step_s"]), 1)
        run = asyncio.run(self._open_loop(rate, count))
        answered = run.actions >= 0
        expected = self.pool_action[run.entries[answered]]
        wrong = int((run.actions[answered] != expected).sum())
        if wrong:
            self.errors.append(
                f"{self.name}: {wrong} of {int(answered.sum())} answers at "
                f"{rate}/s differ from decide_serial"
            )
        return run

    # -- closed loop ---------------------------------------------------------------

    async def _closed_loop(self) -> list:
        server = self._server()
        reports = [
            await run_server_load(server, self.loadgen)
            for _ in range(self.sizes["closed_passes"])
        ]
        await server.stop()
        return reports

    def closed_round(self) -> ClosedLoopRound:
        """Back-to-back passes in which every network asks again as soon as
        it is answered (saturation). Several passes per round make a round
        long enough to average over sub-second swings in machine speed."""
        reports = asyncio.run(self._closed_loop())
        networks = self.loadgen.networks
        for report in reports:
            served: dict[int, list[int]] = {}
            for _, network, action in report.trace:
                served.setdefault(network, []).append(action)
            for network in range(networks):
                if served.get(network) != self.pool_action[network::networks].tolist():
                    self.errors.append(
                        f"{self.name}: closed-loop network {network} answers "
                        "differ from decide_serial"
                    )
                    break
        return ClosedLoopRound(
            decisions=sum(r.decisions for r in reports),
            shed=sum(r.shed for r in reports),
            duration_s=sum(r.duration_s for r in reports),
        )

    # -- measurements --------------------------------------------------------------

    def check(self) -> list[str]:
        return list(self.errors)

    def warm_up(self) -> None:
        self.closed_round()
        self.open_loop(self.sizes["fixed_rates"][0])

    def cycles(self, seconds: float):
        """Alternate fixed-rate steps and closed-loop rounds for ``seconds``.

        Interleaving spreads every measurement over the whole run, so a
        slow spell of a shared machine lands on all of them a little
        rather than on one of them entirely. At least :data:`MIN_ROUNDS`
        cycles run.
        """
        steps: dict[int, list[OpenLoopRun]] = {r: [] for r in self.sizes["fixed_rates"]}
        closed = Timed()
        begin = time.perf_counter()
        while len(steps[max(steps)]) < MIN_ROUNDS or time.perf_counter() - begin < seconds:
            for rate in steps:
                steps[rate].append(self.open_loop(rate))
                gc.collect()
                closed.add(*probed(self.closed_round))
        return steps, closed

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        steps, closed = self.cycles(0.75 * seconds)
        for rate, runs in steps.items():
            count = sum(len(run.due) for run in runs)
            for q in (50, 90, 99):
                values = [run.percentile_ms(q) for run in runs]
                out.add(f"serve_p{q}_ms.r{rate}", median(values), "ms", count, spread(values))
            out.attempted += count
            out.failed += sum(run.shed for run in runs)
        # Latency stays raw: most of it is the 2 ms batching deadline, which
        # a slower machine does not stretch. p90, not p99: a 10 ms stall of
        # a shared machine delays 1% of a 4000/s step on its own.
        high = max(steps)
        out.add_timing("latency_ms", [run.percentile_ms(90) for run in steps[high]], "ms")
        rounds = closed.outputs
        out.add_timing(
            "throughput_per_s",
            [c.rate * s for c, s in zip(rounds, closed.slowdowns)],
            "1/s",
        )
        out.add_timing("throughput_raw_per_s", [c.rate for c in rounds], "1/s")
        out.add_timing("machine_slowdown", closed.slowdowns, "ratio")
        out.attempted += sum(c.decisions + c.shed for c in rounds)
        out.failed += sum(c.shed for c in rounds)

        # The ladder probes capacity, so its sheds are expected: they fail
        # the step but are not counted as failed operations.
        max_rate = 0
        for rate, runs in steps.items():
            if not meets_slo(runs):
                break
            max_rate = rate
        else:
            for rate in self.sizes["ladder"]:
                run = self.open_loop(rate)
                out.add(f"serve_p99_ms.r{rate}", run.percentile_ms(99), "ms", len(run.due))
                out.attempted += len(run.due)
                if not meets_slo([run]):
                    break
                max_rate = rate
        out.add("serve_max_rate", max_rate, "1/s", 1)
        out.add("failed_frac", out.failed / out.attempted, "ratio", out.attempted)
        return out

    def measure_traced(self, seconds: float) -> Outcome:
        untraced = timed_rounds(self.closed_round, 0.25 * seconds)
        tracer = Tracer(
            [
                TracePoint(
                    PolicyStore,
                    "decide_batch",
                    "serve.forward_s",
                    note=lambda args: len(args[1]),
                )
            ],
            root_layer="serve.loop_residual_s",
        )
        with tracer.installed():
            traced = timed_rounds(
                self.closed_round, 0.25 * seconds, tracer=tracer, label="closed"
            )
            closed = len(tracer.rounds)
            runs = []
            for _ in range(max(MIN_ROUNDS, round(0.3 * seconds / self.sizes["step_s"]))):
                with tracer.round("open"):
                    runs.append(self.open_loop(self.sizes["fixed_rates"][1]))
        self.tracer = tracer

        out = Outcome()
        for layer in ("serve.forward_s", "serve.loop_residual_s"):
            out.add_timing(layer, [tracer.rounds[i].self_s.get(layer, 0.0) for i in range(closed)], "s")
        batches = [
            span[5]
            for i in range(closed)
            for span in tracer.round_spans(i, "PolicyStore.decide_batch")
        ]
        full = SERVER_SETTINGS["max_batch"]
        out.add("serve.batch_size_mean", float(np.mean(batches)), "count", len(batches))
        out.add(
            "serve.full_batch_ratio",
            sum(size == full for size in batches) / len(batches),
            "ratio",
            len(batches),
        )

        parts = {"lag": [], "queue": [], "queue50": [], "forward": [], "residual": []}
        for index, run in enumerate(runs, start=closed):
            split = split_latency(run, tracer.round_spans(index, "PolicyStore.decide_batch"))
            for key in ("lag", "queue", "forward", "residual"):
                parts[key].append(np.percentile(split[key], 99) * 1e3)
            parts["queue50"].append(np.percentile(split["queue"], 50) * 1e3)
        for name, key in (
            ("serve.generator_lag_p99_ms", "lag"),
            ("serve.queue_wait_p50_ms", "queue50"),
            ("serve.queue_wait_p99_ms", "queue"),
            ("serve.forward_p99_ms", "forward"),
            ("serve.loop_residual_p99_ms", "residual"),
        ):
            out.add_timing(name, parts[key], "ms")

        rounds = traced.outputs + untraced.outputs
        shed = sum(run.shed for run in runs) + sum(r.shed for r in rounds)
        attempted = sum(len(run.due) for run in runs) + sum(
            r.decisions + r.shed for r in rounds
        )
        out.add("serve.shed_ratio", shed / attempted, "ratio", attempted)
        out.add(
            "obs.trace_overhead",
            median(traced.corrected) / median(untraced.corrected) - 1.0,
            "ratio",
            len(traced.walls),
        )
        out.attempted, out.failed = attempted, shed
        return out


WORKLOADS = {
    cls.name: cls for cls in (TrainDQN, GridDQN, GridTableHybrid, ServeOpen)
}
