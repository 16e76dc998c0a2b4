"""Shared physical and protocol constants.

Numbers that appear in the paper (sweep cycle, power-level ranges, loss
weights, hardware timings) live here with a pointer to where the paper states
them, so every module and benchmark draws from a single source of truth.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# 2.4 GHz ISM band geometry (paper §II-B, §II-C-2)
# ---------------------------------------------------------------------------

#: Number of IEEE 802.15.4 channels on the 2.4 GHz band (channels 11..26).
NUM_ZIGBEE_CHANNELS = 16

#: Occupied bandwidth of one ZigBee channel in MHz.
ZIGBEE_BANDWIDTH_MHZ = 2.0

#: Occupied bandwidth of one Wi-Fi (802.11g) channel in MHz.
WIFI_BANDWIDTH_MHZ = 20.0

#: Number of consecutive ZigBee channels a single Wi-Fi transmission covers
#: (paper: "a WiFi jammer can scan and jam up to 4 ZigBee channels at a time").
ZIGBEE_CHANNELS_PER_WIFI = 4

#: Jammer sweep cycle with the default geometry: ceil(16 / 4) = 4 time slots.
DEFAULT_SWEEP_CYCLE = 4

# ---------------------------------------------------------------------------
# Transmit powers (paper §II-B)
# ---------------------------------------------------------------------------

#: Wi-Fi RF power in dBm ("can be up to 100mW").
WIFI_TX_POWER_DBM = 20.0

#: ZigBee RF power in dBm ("can be as low as 1mW").
ZIGBEE_TX_POWER_DBM = 0.0

# ---------------------------------------------------------------------------
# MDP / DQN defaults (paper §IV-A-1)
# ---------------------------------------------------------------------------

#: Victim power-level losses L^T_p: ten levels spanning [6, 15].
DEFAULT_TX_POWER_LEVELS = tuple(range(6, 16))

#: Jammer power-level losses L^J_p: ten levels spanning [11, 20].
DEFAULT_JAMMER_POWER_LEVELS = tuple(range(11, 21))

#: Loss of a frequency hop, L_H (negotiation cost).
DEFAULT_LOSS_HOP = 50.0

#: Loss of a successful jam, L_J.
DEFAULT_LOSS_JAM = 100.0

#: Discount factor used to solve the MDP and train the DQN.
DEFAULT_DISCOUNT = 0.95

#: History length I: the DQN observes state/channel/power of the past I slots
#: (paper §III-C: "The input layer has 3 x I neurons").
DEFAULT_HISTORY_LENGTH = 5

#: Hidden layer width; two hidden layers of 48 give 10 960 parameters with
#: I = 5, C = 16, P_L = 10 — the paper reports "10664 float numbers with
#: 42.7KB memory" for its trained artifact.
DEFAULT_HIDDEN_WIDTH = 48

#: Number of time slots the paper averages each simulated experiment over.
DEFAULT_EVAL_SLOTS = 20_000

# ---------------------------------------------------------------------------
# Hardware timing model (paper §IV-D-1, Fig. 9)
# ---------------------------------------------------------------------------

#: Mean time to run the DQN forward pass on the hub, seconds ("takes 9ms").
TIME_DQN_INFERENCE_S = 9.0e-3

#: Mean data/ACK round-trip time, seconds ("wait 0.9ms to get the ACK").
TIME_ROUND_TRIP_S = 0.9e-3

#: Mean hub-side per-packet processing time, seconds ("takes 0.6ms").
TIME_DATA_PROCESSING_S = 0.6e-3

#: Mean per-node polling announcement time, seconds ("takes 13.1ms for each
#: node").
TIME_POLLING_PER_NODE_S = 13.1e-3

#: Per-slot FH negotiation overhead observed in Fig. 10(b) ("about 0.07s").
TIME_FH_NEGOTIATION_S = 0.07

# ---------------------------------------------------------------------------
# Link-budget defaults (used to reproduce Fig. 2(b))
# ---------------------------------------------------------------------------

#: Reference path loss at 1 m, dB (2.4 GHz free space is ~40 dB).
PATH_LOSS_REF_DB = 40.0

#: Log-distance path-loss exponent for the indoor lab scenario.
PATH_LOSS_EXPONENT = 2.7

#: Receiver noise figure in dB.
NOISE_FIGURE_DB = 10.0

#: DSSS processing gain of the 32-chip / 4-bit 802.15.4 spreading, dB.
#: 10*log10(32/4) ~ 9 dB; applies only to noise-like interference.
DSSS_PROCESSING_GAIN_DB = 9.0

# ---------------------------------------------------------------------------
# ZigBee packet format (paper Fig. 3)
# ---------------------------------------------------------------------------

#: Preamble: four zero octets.
ZIGBEE_PREAMBLE = bytes(4)

#: Start-of-frame delimiter.
ZIGBEE_SFD = 0x7A

#: Maximum PSDU length in octets.
ZIGBEE_MAX_PSDU = 127
