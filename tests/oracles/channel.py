"""Waveform truth for the analytic chip-capture model."""

from __future__ import annotations

from repro.channel.link import JammerSignalType
from repro.channel.trials import run_chip_flip_trials
from repro.rng import SeedLike


def empirical_chip_flip_rate(
    signal_type: JammerSignalType,
    jam_to_signal_db: float,
    *,
    trials: int = 10,
    payload_bytes: int = 8,
    rng: SeedLike = None,
) -> float:
    """Mean waveform-level chip error rate at a given jam/signal ratio.

    Used to validate :func:`repro.channel.link.chip_flip_probability`.
    Runs on the batched trial engine (:mod:`repro.channel.trials`): trials
    execute as ``(N, samples)`` tensor batches against the pre-generated
    jammer bank, with one independent child RNG stream per trial so the
    aggregate is invariant to batch size and worker count.
    """
    return run_chip_flip_trials(
        signal_type,
        jam_to_signal_db,
        trials=trials,
        payload_bytes=payload_bytes,
        noise_to_signal_db=-30.0,
        rng=rng,
    )
