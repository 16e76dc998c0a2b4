"""Slot/field agreement of every adversary.

A field jammer handed one victim window per jammer slot and a slot jammer
stepped once per slot make the same decisions when both start from the
same seed: at max power neither clock draws power, so their streams stay
aligned. Slot by slot the two must agree on whether the victim was
attacked, on which block is under attack, on the camped block and on the
lock/loss/decoy counters. The reactive jammer runs at zero latency and
full duty, where the two clocks' duty/latency gates let every decision
through.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dqn import DQNAgent, DQNConfig
from repro.core.mdp import JammerMode, MDPConfig
from repro.jamming.adversary import make_field_jammer
from repro.jamming.jammer import (
    FieldJammer,
    FieldJammerConfig,
    FollowerJammerConfig,
    ReactiveJammerConfig,
    SlotJammer,
    SweepCore,
)
from repro.jamming.strategies import make_strategy
from tests.oracles.adversary import make_slot_jammer_factory

SLOTS = 60
SLOT_S = 3.0
NUM_CHANNELS = 16
NUM_BLOCKS = 4
COUNTERS = ("locks", "lock_losses", "decoy_baits")

SLOT_CONFIG = MDPConfig(jammer_mode=JammerMode.MAX)

traces = st.tuples(
    st.integers(0, 2**32 - 1),  # victim trace seed
    st.floats(0.0, 1.0),  # per-slot hop probability
    st.floats(0.0, 1.0),  # per-slot decoy probability
)


def _trace(seed: int, hop_probability: float, decoy_probability: float):
    """A victim channel per slot (hopping at the given rate) and decoys."""
    rng = np.random.default_rng(seed)
    channel = int(rng.integers(NUM_CHANNELS))
    channels, decoys = [], []
    for _ in range(SLOTS):
        if rng.random() < hop_probability:
            channel = int(rng.integers(NUM_CHANNELS))
        channels.append(channel)
        decoy = int(rng.integers(NUM_CHANNELS))
        decoys.append(decoy if rng.random() < decoy_probability else None)
    return channels, decoys


def _counters(jammer) -> dict[str, float]:
    drained = jammer.drain_counters()
    return {key: drained.get(key, 0.0) for key in COUNTERS}


def _assert_lockstep(field, slot, trace) -> None:
    channels, decoys = trace
    for k, (channel, decoy) in enumerate(zip(channels, decoys)):
        field.observe_decoy(decoy)
        slot.observe_decoy(decoy)
        profile = field.attack_profile(k * SLOT_S, (k + 1) * SLOT_S, channel)
        attacked, power, block = slot.observe_and_attack(channel)
        assert profile.attempted == attacked, k
        assert profile.max_power == power, k
        assert field.active_channels == block, k
        assert field.core.camping == slot.core.camping, k
        assert _counters(field) == _counters(slot), k


def _field_config(**fields) -> FieldJammerConfig:
    return FieldJammerConfig(
        slot_duration_s=SLOT_S,
        num_channels=NUM_CHANNELS,
        mode=JammerMode.MAX,
        **fields,
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    trace=traces,
    strategy=st.sampled_from(("random", "sequential", "adaptive")),
    exploit=st.floats(0.0, 1.0),
)
def test_sweep_agrees(seed, trace, strategy, exploit):
    options = (("exploit_probability", exploit),) if strategy == "adaptive" else ()
    field = FieldJammer(
        _field_config(sweep_strategy=strategy, strategy_options=options), seed=seed
    )
    # The field jammer's seeded strategies share its stream; so does this.
    rng = np.random.default_rng(seed)
    seeded = {"seed": rng} if strategy != "sequential" else {}
    slot = SlotJammer(
        SLOT_CONFIG,
        SweepCore(
            NUM_CHANNELS,
            NUM_BLOCKS,
            rng,
            make_strategy(strategy, NUM_BLOCKS, **seeded, **dict(options)),
        ),
    )
    _assert_lockstep(field, slot, _trace(*trace))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    trace=traces,
    detection=st.sampled_from((1.0, 0.9, 0.5, 0.0)),
    victim_rx_dbm=st.sampled_from((-60.0, -90.0)),
    eavesdrop=st.sampled_from((0.0, 0.5, 1.0)),
    discrimination=st.sampled_from((0.0, 0.5, 1.0)),
    transmit_on_sweep=st.booleans(),
)
def test_reactive_agrees(
    seed,
    trace,
    detection,
    victim_rx_dbm,
    eavesdrop,
    discrimination,
    transmit_on_sweep,
):
    rc = ReactiveJammerConfig(
        victim_rx_dbm=victim_rx_dbm,
        detection_probability=detection,
        eavesdrop_probability=eavesdrop,
        decoy_discrimination=discrimination,
        transmit_on_sweep=transmit_on_sweep,
    )
    field = make_field_jammer(
        _field_config(adversary="reactive", reactive=rc), seed=seed
    )
    factory = make_slot_jammer_factory("reactive", reactive=rc, slot_duration_s=SLOT_S)
    slot = factory(SLOT_CONFIG, np.random.default_rng(seed))
    _assert_lockstep(field, slot, _trace(*trace))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    trace=traces,
    lag=st.integers(0, 3),
    victim_rx_dbm=st.sampled_from((-60.0, -90.0)),
)
def test_follower_agrees(seed, trace, lag, victim_rx_dbm):
    fc = FollowerJammerConfig(lag_slots=lag, victim_rx_dbm=victim_rx_dbm)
    field = make_field_jammer(
        _field_config(adversary="follower", follower=fc), seed=seed
    )
    factory = make_slot_jammer_factory("follower", follower=fc)
    slot = factory(SLOT_CONFIG, np.random.default_rng(seed))
    _assert_lockstep(field, slot, _trace(*trace))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    trace=traces,
    agent_seed=st.integers(0, 3),
)
def test_learning_agrees(seed, trace, agent_seed):
    agent = DQNAgent(
        DQNConfig(observation_size=15, num_actions=NUM_BLOCKS, hidden_sizes=(16,)),
        seed=agent_seed,
    )
    field = make_field_jammer(
        _field_config(adversary="learning", learning_agent=agent), seed=seed
    )
    factory = make_slot_jammer_factory("learning", agent=agent)
    slot = factory(SLOT_CONFIG, np.random.default_rng(seed))
    _assert_lockstep(field, slot, _trace(*trace))
