"""Differential oracle for :class:`repro.sim.shard.FieldJammerBank`.

A bank built from N jammer streams must answer every window exactly as
N :func:`~repro.jamming.adversary.make_field_jammer` objects on those
streams stepped one at a time: the same ``(fraction, attempted,
max_power)`` bits, the same ``attacking()`` answers, and the same
clock-contract errors. The paper's
sweep jammer is drawn over fleet size, power mode, jammer slot, window
length, window gaps and victim channels; the other adversaries and sweep
strategies are checked on fixed draws.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dqn import DQNAgent, DQNConfig
from repro.core.mdp import JammerMode
from repro.errors import ConfigurationError
from repro.jamming.adversary import make_field_jammer
from repro.jamming.jammer import FollowerJammerConfig, ReactiveJammerConfig
from repro.rng import derive
from repro.sim.scenario import field_jammer_config, paper_defaults
from repro.sim.shard import FieldJammerBank

JAMMER_SLOTS = (0.7, 1.0, 3.0, 4.5)
WINDOWS = (1.0, 3.0)


def _streams(n: int, seed: int) -> list:
    return [derive(seed, f"bank[{i}]") for i in range(n)]


def _windows(rng: np.random.Generator, length: float, count: int) -> list:
    """Back-to-back windows of one length, with occasional idle gaps."""
    out, t = [], 0.0
    for _ in range(count):
        if rng.random() < 0.2:
            t += float(rng.uniform(0.0, 4.0))
        out.append((t, t + length))
        t += length
    return out


def _step_both(config, n: int, seed: int, length: float, count: int = 30):
    """Drive a bank and its reference objects through the same windows.

    Returns every window's bank outputs, after asserting they equal the
    objects' bit for bit.
    """
    bank = FieldJammerBank(config, _streams(n, seed))
    reference = [make_field_jammer(config, seed=g) for g in _streams(n, seed)]
    rng = np.random.default_rng(seed)
    num_channels = config.num_channels
    channels = rng.integers(0, num_channels, n)
    outputs = []
    for start, end in _windows(rng, length, count):
        # Most victims stay put, so jammers get to camp and lose them.
        move = rng.random(n) < 0.4
        channels = np.where(move, rng.integers(0, num_channels, n), channels)
        fraction, attempted, max_power = bank.attack_profiles(start, end, channels)
        profiles = [
            j.attack_profile(start, end, int(c)) for j, c in zip(reference, channels)
        ]
        np.testing.assert_array_equal(fraction, [p.jammed_fraction for p in profiles])
        np.testing.assert_array_equal(attempted, [p.attempted for p in profiles])
        np.testing.assert_array_equal(max_power, [p.max_power for p in profiles])
        networks = np.flatnonzero(rng.random(n) < 0.5)
        probes = rng.integers(0, num_channels, len(networks))
        np.testing.assert_array_equal(
            bank.attacking(networks, probes),
            [reference[int(i)].is_attacking(int(c)) for i, c in zip(networks, probes)],
        )
        outputs.append((fraction.tolist(), attempted.tolist(), max_power.tolist()))
    return outputs


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 64),
    mode=st.sampled_from(JammerMode.ALL),
    jammer_slot=st.sampled_from(JAMMER_SLOTS),
    length=st.sampled_from(WINDOWS),
    seed=st.integers(0, 2**31 - 1),
)
def test_sweep_bank_matches_objects(n, mode, jammer_slot, length, seed):
    config = field_jammer_config(paper_defaults(mode), slot_duration_s=jammer_slot)
    _step_both(config, n, seed, length)


@pytest.mark.parametrize("mode", JammerMode.ALL)
def test_sweep_bank_clock_contract(mode):
    config = field_jammer_config(paper_defaults(mode))
    channels = np.array([0, 5, 9, 15])

    def advanced():
        # A bank past its first window; a failed call leaves it undefined.
        bank = FieldJammerBank(config, _streams(4, seed=3))
        bank.attack_profiles(0.0, 3.0, channels)
        return bank

    with pytest.raises(ConfigurationError, match="monotone"):
        advanced().attack_profiles(1.0, 4.0, channels)
    with pytest.raises(ConfigurationError, match="positive length"):
        advanced().attack_profiles(3.0, 3.0, channels)
    with pytest.raises(ConfigurationError, match="out of range"):
        advanced().attack_profiles(3.0, 6.0, np.array([0, 5, 16, 15]))
    with pytest.raises(ConfigurationError, match="out of range"):
        advanced().attack_profiles(3.0, 6.0, np.array([0, -1, 9, 15]))
    with pytest.raises(ConfigurationError, match="out of range"):
        advanced().attacking(np.array([1]), np.array([16]))
    # A gap is fine: the jammer simply decides late.
    advanced().attack_profiles(7.5, 10.5, channels)


def _learning_agent():
    defaults = paper_defaults()
    cfg = field_jammer_config(defaults)
    return DQNAgent(
        DQNConfig(observation_size=15, num_actions=cfg.num_blocks, hidden_sizes=(16,)),
        seed=7,
    )


def _configs() -> dict:
    defaults = paper_defaults(JammerMode.RANDOM)
    return {
        "sweep-max": field_jammer_config(paper_defaults()),
        "sweep-random": field_jammer_config(defaults),
        "reactive": field_jammer_config(
            defaults,
            adversary="reactive",
            reactive=ReactiveJammerConfig(
                duty_cycle=0.7, response_latency_s=0.2, detection_probability=0.8
            ),
        ),
        "follower": field_jammer_config(
            defaults,
            adversary="follower",
            follower=FollowerJammerConfig(lag_slots=1),
        ),
        "learning": field_jammer_config(
            defaults, adversary="learning", learning_agent=_learning_agent()
        ),
        "sequential": field_jammer_config(defaults, sweep_strategy="sequential"),
        "adaptive": field_jammer_config(defaults, sweep_strategy="adaptive"),
    }


#: SHA-256 of every window's bank outputs per adversary/strategy and
#: jammer slot, generated by the per-object bank before the paper's sweep
#: bank became arrays.
DIGESTS = {
    "sweep-max": {
        0.7: "0488f4acb80ef470780f95dc84fbfde2e479311ef6d19d292754fd49fc9b14e7",
        4.5: "911319c524201884864519b272365b76260800ab29e03e7713170e86fa0e4082",
    },
    "sweep-random": {
        0.7: "46d83698071d74d0775853aba72ff0745f9347c36f2032aafd141ac0d1d9fdb4",
        4.5: "9b2f15ca971007192bb5c94dcdb8803f848545994cc28be7930f0b4291981adc",
    },
    "reactive": {
        0.7: "03574c91c3eb233832367454a88ed0ed0117eae8e915901ac4add98d92bcd3e7",
        4.5: "f91f74e244fe950bfba5a16caab6390b4cf2ff112c09c72267b61d57f3f64203",
    },
    "follower": {
        0.7: "497baec3bf93eb690f61d197bf9caedb3c3f7ca6af7758dbf65d30a3de9319e4",
        4.5: "2269c5a2377ffb221696bfe39359018a497665fbe9e60d6d37a7672061fe5e6a",
    },
    "learning": {
        0.7: "09430aa95c60c6cc9de01c277c5f75348e3dd45abcd6460290a4024be3d048be",
        4.5: "bee8c4f5b037ce8064d1fb41aa84cb79ab93edc2abadf63be76d0c9c07d2770c",
    },
    "sequential": {
        0.7: "712642da8a712b887783b51476ab2b7afc905662f1c8d4c64fb474cd6fe6d781",
        4.5: "6d3cad9c8a97ecde870f37c347009b8142928556c58a798c234cecb70e11e9b0",
    },
    "adaptive": {
        0.7: "eda49226b92293c1a72e75075085780fc109a321eda1b0d9c99d7d8a8d5248aa",
        4.5: "d1418fdc673c50d553d3f6b49d99b037dfddb8f89d1f49a482dfb395ea542679",
    },
}


@pytest.mark.parametrize("jammer_slot", (0.7, 4.5))
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bank_digest(name, jammer_slot):
    config = dataclasses.replace(_configs()[name], slot_duration_s=jammer_slot)
    outputs = _step_both(config, 12, seed=11, length=1.0)
    digest = hashlib.sha256(repr(outputs).encode("utf-8")).hexdigest()
    assert digest == DIGESTS[name][jammer_slot]
