"""RF channel substrate: spectrum geometry, propagation, noise and links.

Replaces the paper's over-the-air 2.4 GHz testbed. The modules here decide,
for any transmitter/jammer/receiver geometry, how much power arrives, what
the SINR is, and how likely a ZigBee packet is to survive — including the
asymmetry at the heart of the paper: DSSS processing gain protects against
noise-like Wi-Fi interference but not against waveform-correlated
ZigBee/EmuBee chips (paper §II-A-2, Fig. 2(b)).
"""

from repro.channel.fidelity import (
    CalibrationTable,
    HybridLinkBudget,
    JamAdjudicator,
    WaveformLinkBudget,
    calibrate,
    load_default_calibration,
    make_channel,
    resolve_channel_tier,
)
from repro.channel.link import (
    JammerSignalType,
    LinkBudget,
    LinkTable,
    resolve_per_cache_capacity,
    zigbee_ber_awgn,
)
from repro.channel.noise import (
    db_to_linear,
    dbm_to_watts,
    thermal_noise_dbm,
    watts_to_dbm,
)
from repro.channel.propagation import LogDistancePathLoss
from repro.channel.trials import (
    BatchTrialResult,
    JammerBank,
    default_bank,
    jam_trials,
    run_chip_flip_trials,
    trial_base,
    trial_stream,
)
from repro.channel.waveform import (
    awgn,
    jam_trial,
    make_jamming_waveform,
    mix,
    scale_to_power,
)

__all__ = [
    "CalibrationTable",
    "HybridLinkBudget",
    "JamAdjudicator",
    "WaveformLinkBudget",
    "calibrate",
    "load_default_calibration",
    "make_channel",
    "resolve_channel_tier",
    "JammerSignalType",
    "LinkBudget",
    "LinkTable",
    "resolve_per_cache_capacity",
    "zigbee_ber_awgn",
    "db_to_linear",
    "dbm_to_watts",
    "watts_to_dbm",
    "thermal_noise_dbm",
    "LogDistancePathLoss",
    "awgn",
    "jam_trial",
    "make_jamming_waveform",
    "mix",
    "scale_to_power",
    "BatchTrialResult",
    "JammerBank",
    "default_bank",
    "jam_trials",
    "run_chip_flip_trials",
    "trial_base",
    "trial_stream",
]
