"""A grid builds its shards once and reuses the build on every run.

``FieldGrid.run`` keeps each shard's interference arrays, seeded streams
and default-factory table fleet from its first call and rewinds the
streams on every later call. The contract under test: any
sequence of runs on one grid equals the same runs on fresh grids, bit for
bit, for every fleet shape, adversary and sampling mode; concurrent runs
and runs after a failed one included. Every other fleet comes from its
factory on every run. A spec shipped to a pool worker carries an empty
build, never a generator or a fleet.
"""

import dataclasses
import io
import pickle
import sys
import threading

import numpy as np
import pytest

from repro import rng as rng_module
from repro.core.dqn import DQNAgent, DQNConfig
from repro.core.policy import ThresholdPolicy
from repro.jamming.jammer import ReactiveJammerConfig
from repro.rng import derive
from repro.sim import shard
from repro.sim.field import DQNPolicyAdapter, FieldConfig, StatePolicyAdapter
from repro.sim.scenario import field_jammer_config, paper_defaults
from repro.sim.shard import FieldGrid, GridConfig, InterferenceModel

SEED = 11
RUNS = (10, 25, 10)


class _DQNFleet:
    """Picklable factory: two distinct agents assigned by seed parity."""

    def __init__(self, agents):
        self.agents = agents

    def __call__(self, mdp, net_seed):
        agent = self.agents[net_seed % len(self.agents)]
        return DQNPolicyAdapter(agent, mdp, seed=derive(net_seed, "grid-adapter"))


class _ThresholdFleet:
    """Picklable factory: one threshold table policy object per network."""

    def __call__(self, mdp, net_seed):
        policy = ThresholdPolicy(
            threshold=1 + net_seed % (mdp.sweep_cycle - 1),
            stay_power_index=net_seed % mdp.num_power_levels,
            hop_power_index=0,
        )
        return StatePolicyAdapter(policy, mdp, seed=derive(net_seed, "grid-adapter"))


class _CountingFactory:
    """Wraps a factory and counts the adapters it makes."""

    def __init__(self, factory):
        self.factory = factory
        self.calls = 0

    def __call__(self, mdp, net_seed):
        self.calls += 1
        return self.factory(mdp, net_seed)


def _field(sampling: str, channel: str | None = None, **jammer) -> FieldConfig:
    defaults = paper_defaults()
    return FieldConfig(
        mdp=defaults.mdp,
        jammer=field_jammer_config(defaults, **jammer),
        sampling=sampling,
        channel=channel,
    )


def _dqn_fleet() -> _DQNFleet:
    mdp = paper_defaults().mdp
    cfg = DQNConfig(
        observation_size=15,
        num_actions=mdp.num_channels * mdp.num_power_levels,
        hidden_sizes=(16,),
    )
    return _DQNFleet([DQNAgent(cfg, seed=40 + i) for i in range(2)])


def _fleet(name: str) -> GridConfig:
    dense = {"width_m": 30.0, "height_m": 30.0}
    if name == "table-hybrid":
        return GridConfig(
            field=_field("aggregate", "hybrid"),
            num_networks=12,
            interference=InterferenceModel(channel="hybrid"),
            **dense,
        )
    if name == "dqn":
        return GridConfig(
            field=_field("aggregate"),
            num_networks=8,
            adapter_factory=_dqn_fleet(),
            interference=InterferenceModel(),
            **dense,
        )
    if name == "threshold":
        return GridConfig(
            field=_field("aggregate", "hybrid"),
            num_networks=8,
            adapter_factory=_ThresholdFleet(),
            interference=InterferenceModel(),
            **dense,
        )
    if name in ("psv", "rand"):
        return GridConfig(field=_field("aggregate"), num_networks=6, scheme=name)
    if name == "deception":
        return GridConfig(field=_field("aggregate"), num_networks=6, scheme="deception")
    if name == "packet":
        return GridConfig(
            field=_field("packet"),
            num_networks=5,
            interference=InterferenceModel(),
            **dense,
        )
    if name == "reactive":
        return GridConfig(
            field=_field(
                "aggregate",
                adversary="reactive",
                reactive=ReactiveJammerConfig(
                    duty_cycle=0.7, response_latency_s=0.2, decoy_discrimination=0.25
                ),
            ),
            num_networks=6,
            scheme="deception",
        )
    raise ValueError(name)


FLEETS = (
    "table-hybrid",
    "dqn",
    "threshold",
    "psv",
    "rand",
    "deception",
    "packet",
    "reactive",
)


def _assert_same(got, want) -> None:
    assert np.array_equal(got.goodput_pkts_per_slot, want.goodput_pkts_per_slot)
    assert np.array_equal(got.utilization, want.utilization)
    assert got.metrics == want.metrics


@pytest.mark.parametrize("fleet", FLEETS)
def test_repeated_runs_equal_fresh_grids(fleet):
    cfg = _fleet(fleet)
    grid = FieldGrid(cfg, seed=SEED)
    for slots in RUNS:
        _assert_same(grid.run(slots), FieldGrid(cfg, seed=SEED).run(slots))


def test_reactive_jammers_are_built_per_run(monkeypatch):
    built = []
    make = shard.make_field_jammer

    def counting(*args, **kwargs):
        built.append(1)
        return make(*args, **kwargs)

    monkeypatch.setattr(shard, "make_field_jammer", counting)
    # The paper sweep runs as arrays and builds no jammer object, on the
    # first run too; any other adversary, and a bank of one, builds one
    # per network per run.
    deception = _fleet("deception")
    for cfg, per_run in (
        (_fleet("reactive"), 6),
        (deception, 0),
        (dataclasses.replace(deception, num_networks=1), 1),
    ):
        grid = FieldGrid(cfg, seed=SEED)
        for _ in range(2):
            built.clear()
            grid.run(5)
            assert len(built) == per_run


def test_default_table_fleet_is_built_once(monkeypatch):
    made, derived = [], []
    init = StatePolicyAdapter.__init__
    derive_stream = shard.derive

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    def counting_derive(*args, **kwargs):
        derived.append(1)
        return derive_stream(*args, **kwargs)

    monkeypatch.setattr(StatePolicyAdapter, "__init__", counting_init)
    monkeypatch.setattr(shard, "derive", counting_derive)
    # The optimal table fleet is kept; psv and rand policies are stepped,
    # so their fleets (an adapter and a policy stream each) are rebuilt.
    for fleet, per_network in (("table-hybrid", 0), ("psv", 1), ("rand", 1)):
        cfg = _fleet(fleet)
        grid = FieldGrid(cfg, seed=SEED)
        grid.run(5)
        made.clear()
        derived.clear()
        grid.run(5)
        assert len(made) == per_network * cfg.num_networks
        assert len(derived) == 2 * len(made)


@pytest.mark.parametrize("fleet", ["dqn", "threshold"])
def test_custom_factory_is_called_every_run(fleet):
    cfg = _fleet(fleet)
    factory = _CountingFactory(cfg.adapter_factory)
    grid = FieldGrid(dataclasses.replace(cfg, adapter_factory=factory), seed=SEED)
    for runs, slots in enumerate(RUNS, start=1):
        grid.run(slots)
        assert factory.calls == runs * cfg.num_networks


def test_agent_changed_between_runs_is_never_served_stale_actions():
    # A DQN fleet of a few policies over many networks memoises greedy
    # actions for one run only. Flipping one agent's output layer in
    # place bumps its version; the next run of the same grid must act on
    # the new weights, like a fresh grid.
    cfg = dataclasses.replace(_fleet("dqn"), num_networks=16)
    grid = FieldGrid(cfg, seed=SEED)
    before = grid.run(25)
    net = cfg.adapter_factory.agents[0].online
    version = net.version
    last = net.layers[-1]
    last.weight *= -1.0
    last.bias *= -1.0
    net.mark_mutated()
    assert net.version > version
    after = grid.run(25)
    _assert_same(after, FieldGrid(cfg, seed=SEED).run(25))
    assert after.metrics != before.metrics


def test_kept_fleet_dropped_once_it_is_stepped(monkeypatch):
    # A kept fleet stepped as objects (no exact bounded draws) is written
    # to, so the grid drops it and later runs build a fresh one.
    cfg = _fleet("table-hybrid")
    grid = FieldGrid(cfg, seed=SEED)
    grid.run(10)
    with monkeypatch.context() as patch:
        patch.setattr(rng_module, "bounded_draws_exact", lambda: False)
        _assert_same(grid.run(10), FieldGrid(cfg, seed=SEED).run(10))
        assert grid._builds[0].fleet is None
    _assert_same(grid.run(10), FieldGrid(cfg, seed=SEED).run(10))
    assert grid._builds[0].fleet is not None


def test_sharded_pool_runs_equal_one_shard():
    cfg = dataclasses.replace(_fleet("table-hybrid"), num_networks=10)
    one = FieldGrid(cfg, seed=SEED, shards=1)
    pooled = FieldGrid(cfg, seed=SEED, shards=3, workers=2)
    for slots in RUNS:
        _assert_same(pooled.run(slots), one.run(slots))


class _GeneratorFinder(pickle.Pickler):
    def __init__(self, file):
        super().__init__(file)
        self.generators = 0

    def reducer_override(self, obj):
        if isinstance(obj, (np.random.Generator, np.random.BitGenerator)):
            self.generators += 1
        return NotImplemented


def test_pickled_spec_holds_no_generator():
    grid = FieldGrid(_fleet("table-hybrid"), seed=SEED, shards=2)
    grid.run(5)
    specs = grid._shard_specs(5, grid._builds)
    assert len(specs) == 2
    for spec in specs:
        assert spec.build.interference is not None and spec.build.field
        assert spec.build.fleet and spec.build.tables is not None
        finder = _GeneratorFinder(io.BytesIO())
        finder.dump(spec)
        assert finder.generators == 0
        shipped = pickle.loads(pickle.dumps(spec)).build
        assert shipped.interference is None and not shipped.field
        assert shipped.fleet is None and shipped.tables is None


def test_concurrent_runs_equal_a_fresh_grid():
    cfg = _fleet("table-hybrid")
    want = FieldGrid(cfg, seed=SEED).run(20)
    grid = FieldGrid(cfg, seed=SEED)
    grid.run(3)  # the build exists, so the threads contend for it
    threads, rounds = 4, 3
    barrier = threading.Barrier(threads, timeout=60)
    results, errors = [], []

    def work():
        try:
            barrier.wait()
            for _ in range(rounds):
                results.append(grid.run(20))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert not errors
    assert len(results) == threads * rounds
    for got in results:
        _assert_same(got, want)


@pytest.mark.parametrize("fleet", ["table-hybrid", "packet"])
def test_run_after_a_failed_run_equals_a_fresh_grid(fleet, monkeypatch):
    cfg = _fleet(fleet)
    grid = FieldGrid(cfg, seed=SEED)
    grid.run(10)
    run_slot = shard.GoodputModel.run_slot_aggregate
    run_packet = shard.GoodputModel.run_slot
    calls = []

    def failing(original):
        def wrapped(*args, **kwargs):
            calls.append(1)
            if len(calls) > 7:
                raise RuntimeError("injected")
            return original(*args, **kwargs)

        return wrapped

    with monkeypatch.context() as patch:
        patch.setattr(shard.GoodputModel, "run_slot_aggregate", failing(run_slot))
        patch.setattr(shard.GoodputModel, "run_slot", failing(run_packet))
        with pytest.raises(RuntimeError, match="injected"):
            grid.run(10)
    assert calls
    _assert_same(grid.run(10), FieldGrid(cfg, seed=SEED).run(10))
