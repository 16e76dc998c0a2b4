"""Golden digests pinning the field engines and the mechanistic env.

Each case runs a small seeded simulation and hashes everything it
reports — goodput, utilisation, the Table-I :class:`MetricSummary` and
``astuple`` of every per-slot record (or, for the env, every observation,
reward and :class:`StepInfo`). Beyond the sweep/reactive/follower field
grid the cases pin the slot env against every adversary, a self-play
rollout, the solo field learning jammer and the two non-paper sweep
orders on both clocks. The digests in
``data/field_golden.json`` are the cross-commit oracle: a refactor of the
slot loop must reproduce them bit-for-bit.

Regenerate the fixture only for an intended behaviour change::

    PYTHONPATH=src python tests/sim/test_field_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.dqn import DQNAgent, DQNConfig
from repro.core.envs import SweepJammingEnv
from repro.core.mdp import Action, JammerMode, MDPConfig
from repro.core.selfplay import SelfPlayEnv
from repro.jamming.jammer import FollowerJammerConfig, ReactiveJammerConfig
from repro.jamming.strategies import make_strategy
from repro.rng import derive
from repro.sim.field import DQNPolicyAdapter, FieldConfig, FieldExperiment
from repro.sim.scenario import field_jammer_config, paper_defaults
from repro.sim.shard import (
    FieldGrid,
    GridConfig,
    InterferenceModel,
    SchemeAdapterFactory,
)
from tests.oracles.adversary import make_slot_jammer_factory

FIXTURE = Path(__file__).with_name("data") / "field_golden.json"

SOLO_SLOTS = 30
GRID_SLOTS = 20
GRID_NETWORKS = 6
ENV_STEPS = 500

ENGINES = ("solo", "grid")
SAMPLINGS = ("packet", "aggregate")
ADVERSARIES = ("sweep", "reactive", "follower")
SCHEMES = ("optimal", "rand", "deception", "dqn")
CHANNELS = ("analytic", "hybrid")

FIELD_CASES = [
    "-".join(parts)
    for parts in (
        (engine, sampling, adversary, scheme, channel)
        for engine in ENGINES
        for sampling in SAMPLINGS
        for adversary in ADVERSARIES
        for scheme in SCHEMES
        for channel in CHANNELS
    )
]
ENV_CASES = [f"env-{channel}" for channel in CHANNELS]
WINDOW_CASES = ["windows-packet", "windows-aggregate"]
SLOT_ADVERSARY_CASES = ["env-reactive", "env-follower", "env-learning"]
SELFPLAY_CASES = ["selfplay"]
LEARNING_CASES = [
    "-".join(("solo", sampling, "learning", scheme, channel))
    for sampling in SAMPLINGS
    for scheme in SCHEMES
    for channel in CHANNELS
]
STRATEGY_CASES = [
    f"strategy-{clock}-{strategy}"
    for clock in ("env", "solo")
    for strategy in ("sequential", "adaptive")
]

#: The slot-side reactive jammer: duty-limited, latency-bound (0.2 s of a
#: 3 s slot), with imperfect detection and a leaky negotiation.
SLOT_REACTIVE = ReactiveJammerConfig(
    duty_cycle=0.7,
    response_latency_s=0.2,
    detection_probability=0.8,
    eavesdrop_probability=0.5,
)


class _FixedDQNFactory:
    """Every network runs the same untrained, seed-fixed DQN."""

    def __init__(self, mdp: MDPConfig) -> None:
        self.agent = DQNAgent(
            DQNConfig(
                observation_size=15,
                num_actions=mdp.num_channels * mdp.num_power_levels,
                hidden_sizes=(16,),
            ),
            seed=0,
        )

    def __call__(self, mdp: MDPConfig, net_seed: int):
        return DQNPolicyAdapter(
            self.agent, mdp, seed=derive(net_seed, "grid-adapter")
        )


def _jammer_agent(mdp: MDPConfig) -> DQNAgent:
    """A seed-fixed, untrained jammer DQN: 3·I inputs, one output per block."""
    return DQNAgent(
        DQNConfig(
            observation_size=15, num_actions=mdp.sweep_cycle, hidden_sizes=(16,)
        ),
        seed=3,
    )


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _field_config(
    sampling: str, adversary: str, channel: str, sweep_strategy: str = "random"
) -> FieldConfig:
    # A random-power jammer makes the power contest (and so the channel
    # tier's adjudication) matter; at max power it always wins.
    defaults = paper_defaults(JammerMode.RANDOM)
    jammer = field_jammer_config(
        defaults,
        adversary=adversary,
        sweep_strategy=sweep_strategy,
        reactive=ReactiveJammerConfig(
            duty_cycle=0.7, response_latency_s=0.2, decoy_discrimination=0.25
        ),
        follower=FollowerJammerConfig(lag_slots=1),
        learning_agent=(
            _jammer_agent(defaults.mdp) if adversary == "learning" else None
        ),
    )
    # A 1 s Tx slot keeps the per-packet cases to ~100 packets per slot.
    return FieldConfig(
        tx_slot_duration_s=1.0,
        mdp=defaults.mdp,
        jammer=jammer,
        sampling=sampling,
        channel=channel,
    )


def _factory(scheme: str, mdp: MDPConfig):
    if scheme == "dqn":
        return _FixedDQNFactory(mdp)
    return SchemeAdapterFactory(scheme)


def _result_payload(result) -> tuple:
    """Everything a solo :class:`FieldResult` reports, as plain Python."""
    return (
        result.slots,
        result.goodput_pkts_per_slot,
        result.utilization,
        dataclasses.astuple(result.metrics),
        [dataclasses.astuple(r) for r in result.records],
    )


def field_case(case: str) -> str:
    engine, sampling, adversary, scheme, channel = case.split("-")
    cfg = _field_config(sampling, adversary, channel)
    factory = _factory(scheme, cfg.mdp)
    if engine == "solo":
        seed = 1234
        experiment = FieldExperiment(cfg, factory(cfg.mdp, seed), seed=seed)
        return _digest(_result_payload(experiment.run_experiment(SOLO_SLOTS)))
    grid = FieldGrid(
        GridConfig(
            field=cfg,
            num_networks=GRID_NETWORKS,
            width_m=30.0,
            height_m=30.0,
            adapter_factory=factory,
            interference=InterferenceModel(radius_m=12.0, channel=channel),
            keep_records=True,
        ),
        seed=77,
    )
    result = grid.run(GRID_SLOTS)
    return _digest(
        (
            result.slots,
            result.goodput_pkts_per_slot.tolist(),
            result.utilization.tolist(),
            [dataclasses.astuple(m) for m in result.metrics],
            [[dataclasses.astuple(r) for r in recs] for recs in result.records],
        )
    )


def window_case(case: str) -> str:
    """Two ``run_experiment`` windows on one resumable experiment."""
    sampling = case.split("-")[1]
    cfg = _field_config(sampling, "reactive", "analytic")
    seed = 4321
    adapter = SchemeAdapterFactory("deception")(cfg.mdp, seed)
    experiment = FieldExperiment(cfg, adapter, seed=seed)
    first = experiment.run_experiment(15)
    second = experiment.run_experiment(15)
    log = experiment.log
    return _digest(
        (
            _result_payload(first),
            _result_payload(second),
            [dataclasses.astuple(r) for r in experiment.records],
            (
                log.slots,
                log.successes,
                log.hops,
                log.useful_hops,
                log.pc_slots,
                log.pc_wins,
                log.jam_attempts,
                log.total_reward,
            ),
        )
    )


def _slot_env(case: str) -> SweepJammingEnv:
    """The env a slot case runs: a channel tier, an adversary or a strategy."""
    cfg = MDPConfig(jammer_mode=JammerMode.RANDOM)
    kind = case.split("-")[-1]
    if kind in CHANNELS:
        return SweepJammingEnv(cfg, seed=99, channel=kind)
    if kind in ("sequential", "adaptive"):
        seed = 5 if kind == "adaptive" else None
        strategy = make_strategy(kind, cfg.sweep_cycle, seed=seed)
        return SweepJammingEnv(cfg, seed=99, sweep_strategy=strategy)
    factory = make_slot_jammer_factory(
        kind,
        reactive=SLOT_REACTIVE,
        follower=FollowerJammerConfig(lag_slots=1),
        agent=_jammer_agent(cfg),
        slot_duration_s=3.0,
    )
    return SweepJammingEnv(cfg, seed=99, jammer_factory=factory)


def env_case(case: str) -> str:
    """A seeded 500-step ``SweepJammingEnv`` rollout mixing both action APIs."""
    env = _slot_env(case)
    actions = np.random.default_rng(7)
    rows = [env.reset().tolist()]
    for step in range(ENV_STEPS):
        if step % 3 == 0:
            obs, reward, info = env.step_action(
                Action(
                    hop=bool(actions.integers(2)),
                    power_index=int(actions.integers(env.config.num_power_levels)),
                )
            )
        else:
            obs, reward, info = env.step_index(int(actions.integers(env.num_actions)))
        rows.append((obs.tolist(), reward, dataclasses.astuple(info)))
    return _digest(rows)


def selfplay_case(case: str) -> str:
    """A seeded :class:`SelfPlayEnv` rollout with random jammer blocks."""
    env = SelfPlayEnv(MDPConfig(jammer_mode=JammerMode.RANDOM), seed=21)
    actions = np.random.default_rng(8)
    victim_obs, jammer_obs = env.reset()
    rows = [(victim_obs.tolist(), jammer_obs.tolist())]
    for _ in range(ENV_STEPS):
        victim_obs, jammer_obs, victim_reward, jammer_reward, info = env.step(
            int(actions.integers(env.num_victim_actions)),
            int(actions.integers(env.num_blocks)),
        )
        rows.append(
            (
                victim_obs.tolist(),
                jammer_obs.tolist(),
                victim_reward,
                jammer_reward,
                dataclasses.astuple(info),
            )
        )
    return _digest(rows)


def strategy_case(case: str) -> str:
    """A non-paper sweep order on the slot env or a solo field run."""
    _, clock, strategy = case.split("-")
    if clock == "env":
        return env_case(case)
    cfg = _field_config("packet", "sweep", "analytic", sweep_strategy=strategy)
    seed = 1234
    adapter = SchemeAdapterFactory("rand")(cfg.mdp, seed)
    experiment = FieldExperiment(cfg, adapter, seed=seed)
    return _digest(_result_payload(experiment.run_experiment(SOLO_SLOTS)))


def compute(case: str) -> str:
    if case.startswith("env-"):
        return env_case(case)
    if case.startswith("windows-"):
        return window_case(case)
    if case.startswith("selfplay"):
        return selfplay_case(case)
    if case.startswith("strategy-"):
        return strategy_case(case)
    return field_case(case)


ALL_CASES = (
    FIELD_CASES
    + WINDOW_CASES
    + ENV_CASES
    + SLOT_ADVERSARY_CASES
    + SELFPLAY_CASES
    + LEARNING_CASES
    + STRATEGY_CASES
)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", ALL_CASES)
def test_digest_matches_golden(case, golden):
    assert compute(case) == golden[case]


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(ALL_CASES)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({case: compute(case) for case in ALL_CASES}, indent=1) + "\n"
    )
    print(f"wrote {len(ALL_CASES)} digests to {FIXTURE}")
