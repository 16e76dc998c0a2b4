"""Tests for the flat-parameter artifact: round-trips and manifest validation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.layers import Layer
from repro.nn.network import Network, mlp
from repro.nn.serialize import (
    flatten_parameters,
    load_policy_bundle,
    parameter_count,
    save_parameters,
)


def load_artifact(network, path):
    """Load one artifact into ``network`` the way deployment does."""
    load_policy_bundle([path]).load_into(0, network)


class Conv3D(Layer):
    """Identity layer carrying a 3-D parameter (exercises ndim > 2)."""

    def __init__(self, shape=(2, 3, 4), seed=0):
        self.kernel = np.random.default_rng(seed).normal(size=shape)
        self.grad_kernel = np.zeros_like(self.kernel)

    def forward(self, x):
        return x

    def backward(self, grad_output):
        return grad_output

    @property
    def parameters(self):
        return [self.kernel]

    @property
    def gradients(self):
        return [self.grad_kernel]


class TestRoundTrip:
    def test_mlp_round_trip(self, tmp_path):
        path = tmp_path / "params.npz"
        net = mlp(4, (6,), 2, seed=0)
        saved = [p.copy() for p in net.parameters]
        save_parameters(net, path)
        for p in net.parameters:
            p[...] = 0.0
        load_artifact(net, path)
        for p, ref in zip(net.parameters, saved):
            np.testing.assert_allclose(p, ref, atol=1e-6)

    def test_three_dim_parameters_round_trip(self, tmp_path):
        """The padded manifest must survive ndim-3 parameters (old code
        hard-padded rows to length 2 and died on the ragged array)."""
        path = tmp_path / "conv.npz"
        net = Network([Conv3D(shape=(2, 3, 4), seed=1)])
        ref = net.parameters[0].copy()
        save_parameters(net, path)
        net.parameters[0][...] = 0.0
        load_artifact(net, path)
        np.testing.assert_allclose(net.parameters[0], ref, atol=1e-6)

    def test_mixed_ndim_round_trip(self, tmp_path):
        path = tmp_path / "mixed.npz"
        net = Network([Conv3D(seed=2)] + mlp(3, (5,), 2, seed=3).layers)
        refs = [p.copy() for p in net.parameters]
        save_parameters(net, path)
        for p in net.parameters:
            p[...] = 0.0
        load_artifact(net, path)
        for p, ref in zip(net.parameters, refs):
            np.testing.assert_allclose(p, ref, atol=1e-6)


class TestManifestValidation:
    def test_rejects_mismatched_geometry_same_count(self, tmp_path):
        """Same total parameter count, different layer shapes: the old
        loader scrambled the weights silently; now it must refuse."""
        path = tmp_path / "other.npz"
        donor = mlp(4, (6,), 2, seed=0)
        target = mlp(3, (7,), 2, seed=0)
        assert parameter_count(donor) == parameter_count(target)
        save_parameters(donor, path)
        with pytest.raises(ConfigurationError, match="geometry"):
            load_artifact(target, path)

    def test_rejects_missing_manifest(self, tmp_path):
        path = tmp_path / "bare.npz"
        net = mlp(4, (6,), 2, seed=0)
        np.savez(path, flat=flatten_parameters(net))
        with pytest.raises(ConfigurationError, match="manifest"):
            load_artifact(net, path)

    def test_rejects_non_artifact(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(ConfigurationError, match="not a parameter artifact"):
            load_artifact(mlp(4, (6,), 2), path)

    def test_rejects_truncated_flat_vector(self, tmp_path):
        path = tmp_path / "trunc.npz"
        net = mlp(4, (6,), 2, seed=0)
        save_parameters(net, path)
        with np.load(path) as data:
            flat, shapes, ndims = data["flat"], data["shapes"], data["ndims"]
        np.savez(path, flat=flat[:-5], shapes=shapes, ndims=ndims)
        with pytest.raises(ConfigurationError, match="corrupted"):
            load_artifact(net, path)

    def test_rejects_corrupt_ndims(self, tmp_path):
        path = tmp_path / "badnd.npz"
        net = mlp(4, (6,), 2, seed=0)
        save_parameters(net, path)
        with np.load(path) as data:
            flat, shapes, ndims = data["flat"], data["shapes"], data["ndims"]
        ndims = ndims.copy()
        ndims[0] = shapes.shape[1] + 3  # points past the padded row
        np.savez(path, flat=flat, shapes=shapes, ndims=ndims)
        with pytest.raises(ConfigurationError, match="corrupted"):
            load_artifact(net, path)

    def test_rejects_ragged_manifest(self, tmp_path):
        path = tmp_path / "ragged.npz"
        net = mlp(4, (6,), 2, seed=0)
        save_parameters(net, path)
        with np.load(path) as data:
            flat, shapes, ndims = data["flat"], data["shapes"], data["ndims"]
        np.savez(path, flat=flat, shapes=shapes[:-1], ndims=ndims)
        with pytest.raises(ConfigurationError, match="corrupted"):
            load_artifact(net, path)


class TestPolicyBundle:
    """load_policy_bundle: cross-artifact geometry validation before stacking."""

    def _save(self, tmp_path, name, net):
        path = tmp_path / name
        save_parameters(net, path)
        return path

    def test_bundle_roundtrip(self, tmp_path):
        nets = [mlp(6, (8,), 4, seed=i) for i in range(3)]
        paths = [self._save(tmp_path, f"p{i}.npz", n) for i, n in enumerate(nets)]
        bundle = load_policy_bundle(paths)
        assert len(bundle) == 3
        assert bundle.shapes == tuple(p.shape for p in nets[0].parameters)
        for i, net in enumerate(nets):
            np.testing.assert_array_equal(bundle.flats[i], flatten_parameters(net))
            target = mlp(6, (8,), 4, seed=99)
            bundle.load_into(i, target)
            probe = np.linspace(-1, 1, 6)
            # float32 artifact round-trip, same as save then load
            np.testing.assert_array_equal(
                target.predict(probe),
                _roundtrip(net).predict(probe),
            )

    def test_mismatched_artifact_names_offending_path(self, tmp_path):
        good = [
            self._save(tmp_path, f"g{i}.npz", mlp(6, (8,), 4, seed=i)) for i in range(2)
        ]
        bad = self._save(tmp_path, "odd-one.npz", mlp(6, (9,), 4, seed=0))
        with pytest.raises(ConfigurationError, match="odd-one"):
            load_policy_bundle([*good, bad])

    def test_empty_bundle_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            load_policy_bundle([])

    def test_corrupted_member_rejected(self, tmp_path):
        path = self._save(tmp_path, "ok.npz", mlp(6, (8,), 4, seed=0))
        broken = tmp_path / "broken.npz"
        with np.load(path) as data:
            np.savez(
                broken,
                flat=data["flat"][:-3],
                shapes=data["shapes"],
                ndims=data["ndims"],
            )
        with pytest.raises(ConfigurationError, match="corrupted"):
            load_policy_bundle([path, broken])

    def test_load_into_wrong_network_rejected(self, tmp_path):
        path = self._save(tmp_path, "p.npz", mlp(6, (8,), 4, seed=0))
        bundle = load_policy_bundle([path])
        with pytest.raises(ConfigurationError, match="does not match"):
            bundle.load_into(0, mlp(6, (10,), 4, seed=0))


def _roundtrip(net):
    """A copy of ``net`` whose weights went through the float32 artifact."""
    from repro.nn.serialize import unflatten_parameters

    clone = net.clone()
    unflatten_parameters(clone, flatten_parameters(net))
    return clone
