"""Flat-parameter (de)serialisation of networks.

The paper ships its trained policy to the CC26X2R1 hub as "a series of
matrices, which contain 10664 float numbers with 42.7KB memory". These
helpers produce exactly that artifact: a single float32 vector plus a shape
manifest, written with :func:`numpy.savez`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.network import Network


def parameter_count(network: Network) -> int:
    """Total number of scalar parameters (the paper's "10664 floats")."""
    return network.num_parameters()


def artifact_size_bytes(network: Network, dtype: str = "float32") -> int:
    """Size of the flat parameter artifact (42.7 KB for the paper's net)."""
    return parameter_count(network) * np.dtype(dtype).itemsize


def flatten_parameters(network: Network, dtype: str = "float32") -> np.ndarray:
    """Concatenate all parameters into one vector."""
    return np.concatenate(
        [p.reshape(-1).astype(dtype) for p in network.parameters]
    )


def unflatten_parameters(network: Network, flat: np.ndarray) -> None:
    """Load a flat vector back into ``network`` (shapes must match)."""
    flat = np.asarray(flat).reshape(-1)
    expected = parameter_count(network)
    if flat.size != expected:
        raise ConfigurationError(
            f"flat vector holds {flat.size} floats; network needs {expected}"
        )
    offset = 0
    for p in network.parameters:
        chunk = flat[offset : offset + p.size]
        p[...] = chunk.reshape(p.shape).astype(np.float64)
        offset += p.size
    network.mark_mutated()


def save_parameters(network: Network, path: str | os.PathLike) -> None:
    """Write the deployable artifact: flat float32 params + shape manifest.

    The manifest pads every shape row to the *maximum* ndim across the
    network's parameters (not a hard-coded 2), so layers with 3-D+
    parameters serialise correctly instead of building a ragged array.
    """
    params = network.parameters
    max_ndim = max((p.ndim for p in params), default=0)
    shapes = np.array(
        [list(p.shape) + [0] * (max_ndim - p.ndim) for p in params],
        dtype=np.int64,
    ).reshape(len(params), max_ndim)
    np.savez(
        path,
        flat=flatten_parameters(network),
        shapes=shapes,
        ndims=np.array([p.ndim for p in params], dtype=np.int64),
    )


def _manifest_shapes(
    shapes: np.ndarray, ndims: np.ndarray, path: str | os.PathLike
) -> list[tuple[int, ...]]:
    """Decode the (padded-row, ndim) manifest back into per-layer shapes."""
    if shapes.ndim != 2 or ndims.ndim != 1 or shapes.shape[0] != ndims.size:
        raise ConfigurationError(
            f"{os.fspath(path)}: corrupted shape manifest "
            f"(shapes {shapes.shape}, ndims {ndims.shape})"
        )
    decoded: list[tuple[int, ...]] = []
    for row, nd in zip(shapes, ndims):
        nd = int(nd)
        if nd < 0 or nd > row.size:
            raise ConfigurationError(
                f"{os.fspath(path)}: corrupted shape manifest "
                f"(ndim {nd} outside padded row of {row.size})"
            )
        decoded.append(tuple(int(v) for v in row[:nd]))
    return decoded


def _read_artifact(
    path: str | os.PathLike,
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Read and validate one artifact: (flat vector, decoded shape manifest)."""
    with np.load(path) as data:
        if "flat" not in data:
            raise ConfigurationError(f"{path} is not a parameter artifact")
        if "shapes" not in data or "ndims" not in data:
            raise ConfigurationError(
                f"{os.fspath(path)}: parameter artifact is missing its shape "
                "manifest (corrupted or not written by save_parameters)"
            )
        flat = data["flat"]
        manifest = _manifest_shapes(data["shapes"], data["ndims"], path)
        total = sum(int(np.prod(shape, dtype=np.int64)) for shape in manifest)
        if total != flat.size:
            raise ConfigurationError(
                f"{os.fspath(path)}: artifact is corrupted — manifest "
                f"describes {total} floats but the flat vector holds {flat.size}"
            )
        return flat, manifest


@dataclass(frozen=True)
class PolicyBundle:
    """A set of policy artifacts validated to share one geometry.

    ``shapes`` is the per-parameter shape manifest common to every
    artifact; ``flats`` holds one float32 parameter vector per path, in
    the order the paths were given.
    """

    paths: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    flats: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.flats)

    def load_into(self, index: int, network: Network) -> None:
        """Load bundle entry ``index`` into ``network`` (shapes must match)."""
        expected = [p.shape for p in network.parameters]
        if list(self.shapes) != expected:
            raise ConfigurationError(
                f"{self.paths[index]}: bundle geometry does not match the "
                f"target network: bundle {list(self.shapes)} vs network {expected}"
            )
        unflatten_parameters(network, self.flats[index])


def load_policy_bundle(paths: list[str | os.PathLike]) -> PolicyBundle:
    """Load several policy artifacts, validating they share one geometry.

    Every artifact's shape manifest is compared against the first's
    *before* anything is stacked, so a mismatched policy fails fast with
    a :class:`ConfigurationError` naming the offending path instead of a
    shape error deep inside a stacked forward pass.
    """
    if not paths:
        raise ConfigurationError("load_policy_bundle needs at least one path")
    flats: list[np.ndarray] = []
    reference: list[tuple[int, ...]] | None = None
    reference_path = ""
    for path in paths:
        flat, manifest = _read_artifact(path)
        if reference is None:
            reference = manifest
            reference_path = os.fspath(path)
        elif manifest != reference:
            raise ConfigurationError(
                f"{os.fspath(path)}: artifact geometry {manifest} does not "
                f"match the bundle geometry {reference} set by {reference_path}"
            )
        flats.append(flat)
    assert reference is not None
    return PolicyBundle(
        paths=tuple(os.fspath(p) for p in paths),
        shapes=tuple(reference),
        flats=tuple(flats),
    )


__all__ = [
    "parameter_count",
    "artifact_size_bytes",
    "flatten_parameters",
    "unflatten_parameters",
    "save_parameters",
    "PolicyBundle",
    "load_policy_bundle",
]
