"""Channel-fidelity tiers — analytic, calibrated hybrid, and waveform PER.

Every simulator in this repo ultimately asks one question per slot: given
a victim signal level and a set of interferers, what is the packet error
rate? Three tiers answer it with different fidelity/speed trade-offs,
selected by ``REPRO_CHANNEL`` (or the ``--channel`` CLI flag):

``analytic`` (default)
    The paper's chip-flip capture model exactly as before — this tier is
    bit-identical to the pre-fidelity code path.

``hybrid``
    The analytic link budget with its correlated chip-flip response
    replaced by a **monotone correction table** fitted against waveform
    Monte-Carlo truth (:func:`calibrate`), binned by jamming signal ×
    effective margin × chip-overlap. Lookups are a bisect + linear
    interpolation, so the tier runs at near-analytic speed while
    matching :func:`repro.channel.trials.run_chip_flip_trials` ground
    truth to the gated :data:`CALIBRATION_TOLERANCE` on the grid.

``waveform``
    Chip-flip probabilities come from live batched Monte-Carlo waveform
    trials. Trials are amortised twice: the usual :class:`LinkTable`
    exact-key LRU on top, and a process-wide seeded per-(signal,
    margin-bin, overlap-bin) trial cache underneath so *different* link
    states that fall in the same bin never re-run trials. Cache traffic
    is counted into :data:`repro.obs.metrics.METRICS` under
    ``channel.cache_hits`` / ``channel.cache_misses`` with a
    ``channel.cache_hit_rate`` gauge.

All three tiers are deterministic per seed: the waveform tier derives
each bin's trial stream from ``(seed, signal, bins, trials, payload)``
only, so results are independent of lookup order, batching, and worker
count.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro import knobs
from repro.channel.link import (
    Interferer,
    JammerSignalType,
    LinkBudget,
    LinkTable,
    chip_flip_probability,
    packet_error_rate,
    symbol_error_from_chip_flips,
)
from repro.errors import ChannelError, ConfigurationError
from repro.obs.metrics import METRICS
from repro.rng import derive

if TYPE_CHECKING:
    from repro.exec.runner import ParallelRunner

#: The recognised fidelity tiers, cheapest first.
CHANNEL_TIERS = knobs.KNOBS["REPRO_CHANNEL"].choices

#: Chip-overlap (spectral offset) quantisation, MHz per bin.
OFFSET_BIN_MHZ = 0.5


def resolve_channel_tier(tier: str | None = None) -> str:
    """Resolve the fidelity tier from an argument or ``REPRO_CHANNEL``."""
    return knobs.get("REPRO_CHANNEL", tier)


def offset_bin_index(offset_mhz: float) -> int:
    """Quantise a spectral offset to the chip-overlap bin grid."""
    return int(round(float(offset_mhz) / OFFSET_BIN_MHZ))


def raw_jam_to_signal_db(
    signal_type: JammerSignalType,
    margin_db: float,
    *,
    budget: LinkBudget | None = None,
) -> float:
    """Invert the link budget: raw antenna J/S giving an effective margin.

    The correlated chip-flip hook sees *effective* margins — after
    :meth:`LinkBudget.effective_interference_dbm` applied the in-band
    fraction and emulation-fidelity penalties. Waveform trials take the
    raw jammer-to-signal ratio at the antenna, so calibration and the
    waveform tier must undo that transform per signal type.
    """
    if signal_type is JammerSignalType.WIFI:
        raise ChannelError("Wi-Fi is noise-like; it has no correlated margin")
    if signal_type is JammerSignalType.EMUBEE:
        b = budget if budget is not None else LinkBudget()
        return (
            float(margin_db)
            - 10.0 * math.log10(b.emubee_inband_fraction)
            + b.emulation_loss_db
        )
    return float(margin_db)


# ---------------------------------------------------------------------------
# Monotone (isotonic) regression
# ---------------------------------------------------------------------------


def monotone_fit(values) -> list[float]:
    """Pool-adjacent-violators fit: closest non-decreasing sequence (L2).

    The capture effect is physically monotone in the jamming margin, but
    finite Monte-Carlo estimates wiggle; projecting onto the monotone cone
    removes that sampling noise without assuming the analytic curve shape.
    """
    blocks: list[tuple[float, int]] = []
    for v in values:
        s, c = float(v), 1
        while blocks and blocks[-1][0] * c > s * blocks[-1][1]:
            ps, pc = blocks.pop()
            s += ps
            c += pc
        blocks.append((s, c))
    out: list[float] = []
    for s, c in blocks:
        out.extend([s / c] * c)
    return out


def _interp_clamped(xs: list[float], ys: list[float], x: float) -> float:
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    i = bisect.bisect_right(xs, x)
    x0, x1 = xs[i - 1], xs[i]
    t = (x - x0) / (x1 - x0)
    return ys[i - 1] + t * (ys[i] - ys[i - 1])


# ---------------------------------------------------------------------------
# Calibration artifact
# ---------------------------------------------------------------------------

#: Artifact format tag — validated on load, like the policy bundles.
CALIBRATION_FORMAT = "repro-calibration"

#: Current artifact schema version.
CALIBRATION_VERSION = 1

#: Gated tolerance: max |corrected − measured| allowed on the grid.
CALIBRATION_TOLERANCE = 0.06

#: Default effective-margin grid of the calibration pass, dB.
DEFAULT_CALIBRATION_MARGINS = (
    -12.0,
    -9.0,
    -6.0,
    -4.0,
    -2.0,
    0.0,
    2.0,
    4.0,
    6.0,
    9.0,
    12.0,
)

#: Signals with a correlated chip-capture response (Wi-Fi is noise-like).
CALIBRATION_SIGNALS = (JammerSignalType.ZIGBEE, JammerSignalType.EMUBEE)


class CalibrationTable:
    """Versioned monotone correction table fitted from waveform truth.

    One entry per (jamming signal, chip-overlap bin): the measured
    waveform chip error rate on the margin grid plus its monotone
    (PAVA) fit, which is what :class:`HybridLinkBudget` interpolates.
    Saved/loaded as a JSON artifact with the same validate-on-load
    discipline as the policy bundles in :mod:`repro.nn.serialize`.
    """

    def __init__(
        self,
        *,
        margins_db,
        entries,
        seed: int,
        trials: int,
        payload_bytes: int,
        noise_to_signal_db: float = -30.0,
        source: str = "<memory>",
    ) -> None:
        margins = [float(m) for m in margins_db]
        if len(margins) < 2:
            raise ConfigurationError(
                f"{source}: calibration needs >= 2 margin points, got {len(margins)}"
            )
        if any(b <= a for a, b in zip(margins, margins[1:])):
            raise ConfigurationError(
                f"{source}: calibration margins must be strictly increasing"
            )
        if not entries:
            raise ConfigurationError(f"{source}: calibration has no entries")
        clean: dict[tuple[str, int], dict[str, list[float]]] = {}
        for key, entry in entries.items():
            signal, offset_bin = key
            for field_name in ("measured", "corrected"):
                col = entry.get(field_name)
                if col is None or len(col) != len(margins):
                    raise ConfigurationError(
                        f"{source}: entry {signal}/{offset_bin} column "
                        f"{field_name!r} does not match the margin grid"
                    )
            corrected = [float(v) for v in entry["corrected"]]
            if any(not 0.0 <= v <= 0.5 + 1e-9 for v in corrected):
                raise ConfigurationError(
                    f"{source}: entry {signal}/{offset_bin} corrected values "
                    f"must lie in [0, 0.5]"
                )
            if any(b < a - 1e-12 for a, b in zip(corrected, corrected[1:])):
                raise ConfigurationError(
                    f"{source}: entry {signal}/{offset_bin} corrected values "
                    f"must be non-decreasing"
                )
            clean[(str(signal), int(offset_bin))] = {
                "measured": [float(v) for v in entry["measured"]],
                "corrected": corrected,
            }
        self.margins_db = margins
        self.entries = clean
        self.seed = int(seed)
        self.trials = int(trials)
        self.payload_bytes = int(payload_bytes)
        self.noise_to_signal_db = float(noise_to_signal_db)

    # -- lookup ---------------------------------------------------------------

    def _entry_for(
        self, signal_type: JammerSignalType, offset_bin: int
    ) -> dict[str, list[float]] | None:
        name = signal_type.value
        exact = self.entries.get((name, offset_bin))
        if exact is not None:
            return exact
        candidates = [k[1] for k in self.entries if k[0] == name]
        if not candidates:
            return None
        nearest = min(candidates, key=lambda b: (abs(b - offset_bin), b))
        return self.entries[(name, nearest)]

    def chip_flip(
        self,
        signal_type: JammerSignalType,
        margin_db: float,
        *,
        offset_mhz: float = 0.0,
    ) -> float:
        """Corrected chip-flip probability at an effective margin.

        Falls back to the analytic model for signals the table was not
        calibrated for, so a partial artifact degrades gracefully.
        """
        entry = self._entry_for(signal_type, offset_bin_index(offset_mhz))
        if entry is None:
            return chip_flip_probability(float(margin_db))
        q = _interp_clamped(self.margins_db, entry["corrected"], float(margin_db))
        return min(max(q, 0.0), 0.5)

    @property
    def max_fit_residual(self) -> float:
        """Largest |corrected − measured| across the whole grid."""
        worst = 0.0
        for entry in self.entries.values():
            for m, c in zip(entry["measured"], entry["corrected"]):
                worst = max(worst, abs(c - m))
        return worst

    # -- (de)serialisation ----------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "format": CALIBRATION_FORMAT,
            "version": CALIBRATION_VERSION,
            "seed": self.seed,
            "trials": self.trials,
            "payload_bytes": self.payload_bytes,
            "noise_to_signal_db": self.noise_to_signal_db,
            "margins_db": list(self.margins_db),
            "entries": [
                {
                    "signal": signal,
                    "offset_bin": offset_bin,
                    "measured": entry["measured"],
                    "corrected": entry["corrected"],
                }
                for (signal, offset_bin), entry in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict, *, source: str = "<memory>") -> "CalibrationTable":
        if not isinstance(payload, dict):
            raise ConfigurationError(f"{source}: calibration payload is not an object")
        if payload.get("format") != CALIBRATION_FORMAT:
            raise ConfigurationError(
                f"{source}: not a calibration artifact "
                f"(format={payload.get('format')!r})"
            )
        if payload.get("version") != CALIBRATION_VERSION:
            raise ConfigurationError(
                f"{source}: unsupported calibration version "
                f"{payload.get('version')!r} (expected {CALIBRATION_VERSION})"
            )
        try:
            entries = {
                (str(e["signal"]), int(e["offset_bin"])): {
                    "measured": e["measured"],
                    "corrected": e["corrected"],
                }
                for e in payload["entries"]
            }
            return cls(
                margins_db=payload["margins_db"],
                entries=entries,
                seed=payload["seed"],
                trials=payload["trials"],
                payload_bytes=payload["payload_bytes"],
                noise_to_signal_db=payload.get("noise_to_signal_db", -30.0),
                source=source,
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"{source}: malformed calibration artifact ({exc})"
            ) from None

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CalibrationTable":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigurationError(f"calibration artifact not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None
        return cls.from_payload(payload, source=str(path))


def calibrate(
    *,
    margins_db=DEFAULT_CALIBRATION_MARGINS,
    trials: int = 48,
    payload_bytes: int = 8,
    seed: int = 0,
    signals=CALIBRATION_SIGNALS,
    offsets_mhz=(0.0,),
    noise_to_signal_db: float = -30.0,
    runner: "ParallelRunner | None" = None,
) -> CalibrationTable:
    """Fit the hybrid correction table from waveform Monte-Carlo truth.

    For every (signal, chip-overlap bin, margin) grid point this runs
    ``trials`` batched waveform trials at the raw J/S that produces the
    effective margin (:func:`raw_jam_to_signal_db`), then projects each
    measured curve onto the monotone cone. Each point's trial stream is
    derived from ``(seed, signal, overlap, margin)`` only, so the artifact
    is bit-identical for every runner and worker configuration.
    """
    from repro.channel.trials import run_chip_flip_trials

    margins = tuple(sorted(float(m) for m in margins_db))
    entries: dict[tuple[str, int], dict[str, list[float]]] = {}
    for sig in signals:
        for off in offsets_mhz:
            obin = offset_bin_index(off)
            measured = []
            for m in margins:
                q = run_chip_flip_trials(
                    sig,
                    raw_jam_to_signal_db(sig, m),
                    trials=trials,
                    payload_bytes=payload_bytes,
                    noise_to_signal_db=noise_to_signal_db,
                    offset_hz=obin * OFFSET_BIN_MHZ * 1e6,
                    rng=derive(seed, f"calibrate/{sig.value}/{obin}/{m}"),
                    runner=runner,
                )
                measured.append(min(max(float(q), 0.0), 0.5))
            corrected = [min(max(v, 0.0), 0.5) for v in monotone_fit(measured)]
            entries[(sig.value, obin)] = {
                "measured": measured,
                "corrected": corrected,
            }
    return CalibrationTable(
        margins_db=margins,
        entries=entries,
        seed=seed,
        trials=trials,
        payload_bytes=payload_bytes,
        noise_to_signal_db=noise_to_signal_db,
    )


#: Committed default artifact, generated by ``repro calibrate``.
DEFAULT_CALIBRATION_PATH = Path(__file__).parent / "data" / "calibration_default.json"

_calibration_cache: dict[str, CalibrationTable] = {}


def load_default_calibration() -> CalibrationTable:
    """Load the hybrid tier's calibration artifact (cached per path).

    ``REPRO_CALIBRATION`` overrides the committed default, the same way a
    policy bundle path would.
    """
    path = knobs.get("REPRO_CALIBRATION") or str(DEFAULT_CALIBRATION_PATH)
    table = _calibration_cache.get(path)
    if table is None:
        table = _calibration_cache[path] = CalibrationTable.load(path)
    return table


# ---------------------------------------------------------------------------
# Waveform trial cache (the waveform tier's amortisation layer)
# ---------------------------------------------------------------------------

#: Bound on distinct (signal, margin-bin, overlap-bin, budget) entries.
CHANNEL_CACHE_CAPACITY = 1 << 12

_trial_cache: OrderedDict[tuple, float] = OrderedDict()
_trial_cache_stats = {"hits": 0, "misses": 0}


def _record_cache(hit: bool) -> None:
    kind = "hits" if hit else "misses"
    _trial_cache_stats[kind] += 1
    METRICS.inc(f"channel.cache_{kind}")
    total = _trial_cache_stats["hits"] + _trial_cache_stats["misses"]
    METRICS.set("channel.cache_hit_rate", _trial_cache_stats["hits"] / total)


def trial_cache_stats() -> dict[str, int]:
    """Current waveform trial-cache occupancy and traffic."""
    return {"size": len(_trial_cache), **_trial_cache_stats}


def clear_trial_cache() -> None:
    """Drop cached trial results (counters are left running)."""
    _trial_cache.clear()


def _cached_chip_flip(
    signal_type: JammerSignalType,
    margin_bin: int,
    offset_bin: int,
    *,
    trials: int,
    payload_bytes: int,
    bin_db: float,
    seed: int,
    runner: "ParallelRunner | None",
) -> float:
    key = (
        signal_type.value,
        int(margin_bin),
        int(offset_bin),
        int(trials),
        int(payload_bytes),
        round(float(bin_db), 9),
        int(seed),
    )
    cached = _trial_cache.get(key)
    if cached is not None:
        _trial_cache.move_to_end(key)
        _record_cache(True)
        return cached
    _record_cache(False)
    from repro.channel.trials import run_chip_flip_trials

    centre = (margin_bin + 0.5) * bin_db
    # The stream depends only on the key, so the result is independent of
    # lookup order and identical across processes.
    rng = derive(
        seed,
        f"channel/{signal_type.value}/{margin_bin}/{offset_bin}"
        f"/{trials}/{payload_bytes}/{key[5]}",
    )
    q = run_chip_flip_trials(
        signal_type,
        raw_jam_to_signal_db(signal_type, centre),
        trials=trials,
        payload_bytes=payload_bytes,
        offset_hz=offset_bin * OFFSET_BIN_MHZ * 1e6,
        rng=rng,
        runner=runner,
    )
    q = min(max(float(q), 0.0), 0.5)
    _trial_cache[key] = q
    while len(_trial_cache) > CHANNEL_CACHE_CAPACITY:
        _trial_cache.popitem(last=False)
    return q


# ---------------------------------------------------------------------------
# Fidelity-tier link budgets
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, eq=False)
class HybridLinkBudget(LinkBudget):
    """Analytic budget with the calibrated chip-flip correction table."""

    calibration: CalibrationTable | None = None

    def _table(self) -> CalibrationTable:
        if self.calibration is not None:
            return self.calibration
        return load_default_calibration()

    def correlated_chip_flip(
        self, margin_db: float, dominant: Interferer | None = None
    ) -> float:
        sig = dominant.signal_type if dominant is not None else JammerSignalType.EMUBEE
        off = dominant.center_offset_mhz if dominant is not None else 0.0
        return self._table().chip_flip(sig, margin_db, offset_mhz=off)


@dataclasses.dataclass(frozen=True, eq=False)
class WaveformLinkBudget(LinkBudget):
    """Budget whose chip-flip response is live binned Monte-Carlo truth."""

    seed: int = 0
    #: Monte-Carlo trials per (signal, margin-bin, overlap-bin) cache entry.
    trials: int = 32
    payload_bytes: int = 8
    #: Margin quantisation of the trial cache, in dB.
    margin_bin_db: float = 0.5
    runner: "ParallelRunner | None" = None

    def correlated_chip_flip(
        self, margin_db: float, dominant: Interferer | None = None
    ) -> float:
        sig = dominant.signal_type if dominant is not None else JammerSignalType.EMUBEE
        off = dominant.center_offset_mhz if dominant is not None else 0.0
        return _cached_chip_flip(
            sig,
            math.floor(float(margin_db) / self.margin_bin_db),
            offset_bin_index(off),
            trials=self.trials,
            payload_bytes=self.payload_bytes,
            bin_db=self.margin_bin_db,
            seed=self.seed,
            runner=self.runner,
        )


def _base_budget_kwargs(budget: LinkBudget) -> dict:
    return {f.name: getattr(budget, f.name) for f in dataclasses.fields(LinkBudget)}


def make_channel(
    tier: str | None = None,
    *,
    budget: LinkBudget | None = None,
    capacity: int | str | None = None,
    calibration: CalibrationTable | None = None,
    seed: int = 0,
    trials: int = WaveformLinkBudget.trials,
    margin_bin_db: float = WaveformLinkBudget.margin_bin_db,
    runner: "ParallelRunner | None" = None,
) -> LinkTable:
    """Build the memoised PER table for a fidelity tier.

    ``analytic`` returns ``LinkTable(budget)`` exactly as before; the
    other tiers wrap the same propagation/noise parameters in the
    matching fidelity budget. The :class:`LinkTable` LRU sits on top of
    every tier, so repeated link states are one dict hit regardless of
    what a miss costs underneath.
    """
    tier = resolve_channel_tier(tier)
    base = budget if budget is not None else LinkBudget()
    if tier == "analytic":
        return LinkTable(base, capacity=capacity)
    kwargs = _base_budget_kwargs(base)
    if tier == "hybrid":
        fid: LinkBudget = HybridLinkBudget(**kwargs, calibration=calibration)
    else:
        fid = WaveformLinkBudget(
            **kwargs,
            seed=seed,
            trials=trials,
            margin_bin_db=margin_bin_db,
            runner=runner,
        )
    return LinkTable(fid, capacity=capacity)


# ---------------------------------------------------------------------------
# Abstract-power adjudication (MDP envs + field engine)
# ---------------------------------------------------------------------------


class JamAdjudicator:
    """Channel-tier adjudication of abstract jam-vs-transmit contests.

    The MDP envs and the field engine express powers as abstract levels on
    a shared dB-like scale and today decide jam outcomes with the
    threshold rule ``tx_power >= jam_power``. Under the higher-fidelity
    tiers that hard threshold becomes a probabilistic contest: the level
    difference is treated as the effective jamming margin, pushed through
    the tier's chip-flip response, and turned into a packet survival
    probability. The ``analytic`` tier keeps the exact threshold rule and
    consumes **no** randomness, so default behaviour is bit-identical.
    """

    def __init__(
        self,
        tier: str | None = None,
        *,
        budget: LinkBudget | None = None,
        signal_type: JammerSignalType = JammerSignalType.EMUBEE,
        packet_octets: int = 60,
        calibration: CalibrationTable | None = None,
        seed: int = 0,
        trials: int = WaveformLinkBudget.trials,
    ) -> None:
        self.tier = resolve_channel_tier(tier)
        if budget is None and self.tier != "analytic":
            budget = make_channel(
                self.tier, calibration=calibration, seed=seed, trials=trials
            ).budget
        self.budget = budget if budget is not None else LinkBudget()
        self.signal_type = signal_type
        self.packet_octets = int(packet_octets)
        self._dominant = Interferer(power_dbm=0.0, signal_type=signal_type)
        self._survival: dict[tuple[float, float], float] = {}

    @property
    def analytic(self) -> bool:
        return self.tier == "analytic"

    def survival_probability(self, tx_power: float, jam_power: float) -> float:
        """P(frame survives an attack at ``jam_power`` while sending at ``tx_power``)."""
        key = (float(tx_power), float(jam_power))
        cached = self._survival.get(key)
        if cached is not None:
            return cached
        for name, power in zip(("tx_power", "jam_power"), key):
            if math.isnan(power):
                raise ChannelError(f"{name} is NaN (tx={key[0]}, jam={key[1]})")
        if self.analytic:
            result = 1.0 if key[0] >= key[1] else 0.0
        else:
            margin = key[1] - key[0]
            q = self.budget.correlated_chip_flip(margin, self._dominant)
            ser = symbol_error_from_chip_flips(min(max(q, 0.0), 0.5))
            result = 1.0 - packet_error_rate(ser, n_symbols=2 * self.packet_octets)
        self._survival[key] = result
        return result

    def survival_array(self, tx_powers, jam_powers) -> np.ndarray:
        """Vectorised :meth:`survival_probability` over paired level arrays.

        Each distinct (tx, jam) pair is evaluated once and gathered back.
        A pair is one complex value, so a single 1-D ``np.unique`` finds
        the pairs present and the work never grows with the cross product
        of the distinct tx and jam levels. A NaN power raises
        :class:`ChannelError`, as it does in the scalar form.
        """
        tx = np.asarray(tx_powers, dtype=float)
        jam = np.asarray(jam_powers, dtype=float)
        tx, jam = np.broadcast_arrays(tx, jam)
        pairs = np.empty(tx.size, dtype=complex)
        pairs.real, pairs.imag = tx.ravel(), jam.ravel()
        distinct, inverse = np.unique(pairs, return_inverse=True, equal_nan=False)
        survival = np.array(
            [self.survival_probability(p.real, p.imag) for p in distinct],
            dtype=float,
        )
        return survival[inverse].reshape(tx.shape)

    def defeats(
        self,
        tx_power: float,
        jam_power: float,
        *,
        uniform: float | None = None,
        rng=None,
    ) -> bool:
        """Whether the transmission defeats one jam attempt.

        ``analytic`` applies the threshold rule without touching
        ``uniform``/``rng``. The other tiers compare one uniform draw —
        passed in (``uniform``) or drawn from ``rng`` — against the
        survival probability.
        """
        if self.analytic:
            return tx_power >= jam_power
        if uniform is None:
            if rng is None:
                raise ChannelError(
                    "non-analytic adjudication needs a uniform draw or an rng"
                )
            uniform = float(rng.random())
        return uniform < self.survival_probability(tx_power, jam_power)


__all__ = [
    "CHANNEL_TIERS",
    "OFFSET_BIN_MHZ",
    "CHANNEL_CACHE_CAPACITY",
    "CALIBRATION_FORMAT",
    "CALIBRATION_VERSION",
    "CALIBRATION_TOLERANCE",
    "DEFAULT_CALIBRATION_MARGINS",
    "DEFAULT_CALIBRATION_PATH",
    "CALIBRATION_SIGNALS",
    "resolve_channel_tier",
    "offset_bin_index",
    "raw_jam_to_signal_db",
    "monotone_fit",
    "CalibrationTable",
    "calibrate",
    "load_default_calibration",
    "trial_cache_stats",
    "clear_trial_cache",
    "HybridLinkBudget",
    "WaveformLinkBudget",
    "make_channel",
    "JamAdjudicator",
]
