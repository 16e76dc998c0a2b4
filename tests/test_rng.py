"""Guards for the emulated bounded draw, :class:`repro.rng.BoundedDraws`.

The emulation replays how NumPy's PCG64 ``Generator.integers(k)``
consumes its stream, which NumPy does not promise. These tests pin it
against the real thing, and check that a process where the self-check
fails runs the field grid on per-object draws with identical results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import rng as rng_module
from repro.jamming.jammer import FieldJammer
from repro.rng import BoundedDraws, bounded_draws_exact
from repro.sim.field import FieldConfig, StatePolicyAdapter
from repro.sim.scenario import field_jammer_config, paper_defaults
from repro.sim.shard import FieldGrid, GridConfig, SchemeAdapterFactory


def _streams(n: int, cached: bool) -> list[np.random.Generator]:
    streams = [np.random.default_rng(1000 + i) for i in range(n)]
    if cached:
        # One small draw leaves the high half of a word cached.
        for g in streams:
            g.integers(16)
    return streams


@pytest.mark.parametrize("cached", [False, True])
def test_matches_generator_integers(cached):
    n = 8
    draws = BoundedDraws(_streams(n, cached), block=3)
    reference = _streams(n, cached)
    assert reference[0].bit_generator.state["has_uint32"] == int(cached)
    rows = np.arange(n)
    order = np.random.default_rng(0)
    for _ in range(20):
        for k in order.permutation(np.arange(1, 17)):
            want = [int(g.integers(k)) for g in reference]
            assert draws.integers(rows, k).tolist() == want


def test_per_row_bounds_and_subsets():
    n = 6
    draws = BoundedDraws(_streams(n, True))
    reference = _streams(n, True)
    order = np.random.default_rng(1)
    for _ in range(200):
        rows = np.flatnonzero(order.random(n) < 0.5)
        bounds = order.integers(1, 17, len(rows))
        want = [int(reference[r].integers(k)) for r, k in zip(rows, bounds)]
        assert draws.integers(rows, bounds).tolist() == want


@pytest.mark.parametrize("cached", [False, True])
def test_rejection_branch(cached):
    # A quarter of the halves fall below (2**32 - k) % k for this bound,
    # so most rows retry several times over the run.
    k = 3 << 30
    draws = BoundedDraws(_streams(8, cached), block=2)
    reference = _streams(8, cached)
    rows = np.arange(8)
    for _ in range(100):
        want = [int(g.integers(k)) for g in reference]
        assert draws.integers(rows, k).tolist() == want


def test_supports_only_distinct_pcg64_streams():
    fresh = _streams(3, False)
    assert bounded_draws_exact()
    assert BoundedDraws.supports(fresh)
    assert not BoundedDraws.supports([fresh[0], fresh[1], fresh[0]])
    mersenne = np.random.Generator(np.random.MT19937(0))
    assert not BoundedDraws.supports([*fresh, mersenne])


def _hop_grid() -> GridConfig:
    defaults = paper_defaults("random")
    return GridConfig(
        field=FieldConfig(
            mdp=defaults.mdp,
            jammer=field_jammer_config(defaults, slot_duration_s=0.7),
            sampling="aggregate",
        ),
        num_networks=12,
        adapter_factory=SchemeAdapterFactory("optimal", hop_channels=(2, 5, 8, 13)),
    )


def _counted(monkeypatch, owner, name: str) -> list:
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_failed_self_check_falls_back_to_objects(monkeypatch):
    jams = _counted(monkeypatch, FieldJammer, "attack_profile")
    hops = _counted(monkeypatch, StatePolicyAdapter, "hop")
    arrays = FieldGrid(_hop_grid(), seed=19).run(30)
    assert not jams and not hops

    monkeypatch.setattr(rng_module, "bounded_draws_exact", lambda: False)
    objects = FieldGrid(_hop_grid(), seed=19).run(30)
    assert jams and hops
    np.testing.assert_array_equal(
        arrays.goodput_pkts_per_slot, objects.goodput_pkts_per_slot
    )
    np.testing.assert_array_equal(arrays.utilization, objects.utilization)
    assert arrays.metrics == objects.metrics
