"""The indexed gamma quantile equals ``np.interp`` over its table, bit for bit.

``gamma_from_uniform`` finds a uniform's table interval by indexing
instead of searching. The oracle is the interpolation it replaced,
``np.interp(u, grid, table) * (mean / shape)`` on the same cached table.
Equal means the same type, shape, dtype and IEEE-754 bits, NaN included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.net.timing import (
    OFF_CHANNEL_RECOVERY_CV,
    TimingModel,
    _gamma_quantile_table,
    gamma_from_uniform,
)

#: Every coefficient of variation the library passes.
CVS = (TimingModel().jitter_cv, OFF_CHANNEL_RECOVERY_CV)
STEPS = 4096
TINY = np.finfo(np.float64).smallest_subnormal
BELOW_ONE = float(np.nextafter(1.0, 0.0))

cvs = st.sampled_from(CVS)
means = st.floats(1e-4, 10.0)
inside = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(0, STEPS - 1).map(lambda j: j / STEPS),
    st.integers(1, STEPS).map(lambda j: float(np.nextafter(j / STEPS, 0.0))),
    st.floats(0.0, float(np.finfo(np.float64).tiny)),
    st.sampled_from([0.0, -0.0, TINY, BELOW_ONE]),
)
anything = st.one_of(
    inside,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1.0, -TINY, -0.5, 1.5, np.nan, np.inf, -np.inf]),
)
shapes = st.one_of(
    st.just(()),
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=24),
)


def _oracle(u, mean: float, cv: float):
    shape = 1.0 / (cv * cv)
    grid, table, _ = _gamma_quantile_table(shape)
    return np.interp(u, grid, table) * (mean / shape)


def _assert_bits(got, want) -> None:
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(
    u=shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=inside)),
    mean=means,
    cv=cvs,
)
def test_uniforms_in_range_index_like_interp(u, mean, cv):
    _assert_bits(gamma_from_uniform(u, mean, cv), _oracle(u, mean, cv))


@settings(max_examples=100, deadline=None)
@given(
    u=shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=anything)),
    mean=means,
    cv=cvs,
)
def test_any_input_maps_like_interp(u, mean, cv):
    _assert_bits(gamma_from_uniform(u, mean, cv), _oracle(u, mean, cv))


@settings(max_examples=100, deadline=None)
@given(u=anything, mean=means, cv=cvs)
def test_python_scalars_map_like_interp(u, mean, cv):
    _assert_bits(gamma_from_uniform(u, mean, cv), _oracle(u, mean, cv))


def test_fleet_slot_shapes():
    # A 2560-network slot of three-peripheral networks: dqn, polling x 3,
    # and the recovery draws.
    draws = np.random.default_rng(0).random((2560, 7))
    for cv in CVS:
        for u in (draws[:, 0], draws[:, 1:4], draws[:, 4:]):
            _assert_bits(gamma_from_uniform(u, 2.0, cv), _oracle(u, 2.0, cv))


def test_every_grid_point_and_its_predecessor():
    points = np.arange(STEPS + 1) / STEPS
    below = np.nextafter(points[1:], 0.0)
    for cv in CVS:
        grid, _, _ = _gamma_quantile_table(1.0 / (cv * cv))
        assert np.array_equal(grid, points)
        for u in (points[:-1], below, points, np.stack([points[:-1], below], 1)):
            _assert_bits(gamma_from_uniform(u, 2.0, cv), _oracle(u, 2.0, cv))
        for u in (1.0, np.float64(1.0), np.array(1.0), np.array([]), np.empty((0, 3))):
            _assert_bits(gamma_from_uniform(u, 2.0, cv), _oracle(u, 2.0, cv))
