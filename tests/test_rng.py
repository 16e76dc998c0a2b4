"""Guards for :func:`repro.rng.derive` and the emulated bounded draw.

``derive`` hands NumPy the stream name as one ``uint32`` array; the
first tests pin every derived stream to the list-of-ints
``SeedSequence`` it replaces.

:class:`repro.rng.BoundedDraws` replays how NumPy's PCG64
``Generator.integers(k)`` consumes its stream, which NumPy does not
promise. The other tests pin it against the real thing, and check that
a process where the self-check fails runs the field grid on per-object
draws with identical results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng as rng_module
from repro.jamming.jammer import FieldJammer
from repro.rng import BoundedDraws, bounded_draws_exact, derive
from repro.sim.field import FieldConfig, StatePolicyAdapter
from repro.sim.scenario import field_jammer_config, paper_defaults
from repro.sim.shard import FieldGrid, GridConfig, SchemeAdapterFactory


def _list_entropy_stream(base: int, stream: str) -> np.random.Generator:
    """``derive``'s stream as a list of Python ints seeds it."""
    tag = list(stream.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([base, *tag]))


def _assert_same_stream(got: np.random.Generator, want: np.random.Generator):
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(
        got.bit_generator.random_raw(8), want.bit_generator.random_raw(8)
    )


_EDGE_BASES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
_STREAM_NAMES = ["", "grid-net[2559]", "kanal-Ω-信道"]


@settings(max_examples=80, deadline=None)
@given(
    base=st.one_of(st.sampled_from(_EDGE_BASES), st.integers(0, 2**64 - 1)),
    stream=st.sampled_from(_STREAM_NAMES),
    kind=st.sampled_from(["int", "int64", "seed_sequence", "generator", "none"]),
)
def test_derive_matches_list_entropy(base, stream, kind):
    if kind == "int":
        seed, want_base = base, base
    elif kind == "int64":
        seed = np.int64(base & (2**63 - 1))
        want_base = int(seed)
    elif kind == "seed_sequence":
        seed = np.random.SeedSequence(base)
        want_base = int(np.random.SeedSequence(base).generate_state(1)[0])
    elif kind == "generator":
        seed = np.random.default_rng(base)
        twin = np.random.default_rng(base)
        want_base = int(twin.integers(0, 2**63 - 1))
    else:
        seed, want_base = None, 0
    _assert_same_stream(derive(seed, stream), _list_entropy_stream(want_base, stream))
    if kind == "generator":
        # The seed generator advanced exactly as the reference's did.
        assert seed.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("base", [-1, -(2**40), 2**64, 2**64 + 7, 2**100])
@pytest.mark.parametrize("stream", _STREAM_NAMES)
def test_derive_out_of_range_bases_behave_as_list_entropy(base, stream):
    try:
        want = _list_entropy_stream(base, stream)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        with pytest.raises(type(exc)):
            derive(base, stream)
    else:
        _assert_same_stream(derive(base, stream), want)


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
